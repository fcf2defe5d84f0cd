(** malloc-repro: reproduction of Lever & Boreham, "malloc() Performance
    in a Multithreaded Linux Environment" (USENIX FREENIX 2000).

    This module is the library facade: it re-exports the experiment
    registry plus aliases for every layer of the stack, so applications
    can use [Core.Machine], [Core.Ptmalloc], ... without depending on the
    individual [mb_*] libraries. *)

(* The experiment harness. *)
module Outcome = Outcome
module Exp_common = Exp_common
module Exp_bench1 = Exp_bench1
module Exp_bench2 = Exp_bench2
module Exp_bench3 = Exp_bench3
module Exp_extra = Exp_extra
module Experiments = Experiments
module Paper_data = Paper_data

(* The simulated platform. *)
module Engine = Mb_sim.Engine
module Int_table = Mb_sim.Int_table
module Machine = Mb_machine.Machine
module Arm = Mb_machine.Arm
module Configs = Mb_machine.Configs
module Address_space = Mb_vm.Address_space
module Coherence = Mb_cache.Coherence

(* The allocators. *)
module Allocator = Mb_alloc.Allocator
module Astats = Mb_alloc.Astats
module Costs = Mb_alloc.Costs
module Dlheap = Mb_alloc.Dlheap
module Ptmalloc = Mb_alloc.Ptmalloc
module Serial = Mb_alloc.Serial
module Perthread = Mb_alloc.Perthread
module Slab = Mb_alloc.Slab
module Hoard = Mb_alloc.Hoard
module Aligned = Mb_alloc.Aligned

(* The workloads. *)
module Factory = Mb_workload.Factory
module Bench1 = Mb_workload.Bench1
module Bench2 = Mb_workload.Bench2
module Bench3 = Mb_workload.Bench3
module Server = Mb_workload.Server
module Arrivals = Mb_workload.Arrivals
module Latency = Mb_workload.Latency
module Trace = Mb_workload.Trace
module Larson = Mb_workload.Larson

(* The suite layer: declarative benchmark suites and their runner. *)
module Suite = Mb_suite

(* Observability. [Obs.Ctl] and [Obs.Collect] are perfbench's view of
   {!Arm}, kept until the benchmark moves to [Arm] itself: they hold no
   state, and [Collect.drain] drains every run but returns only the
   observed ones. *)
module Obs = struct
  include Mb_obs

  module Ctl = struct
    type mode = { trace : bool; metrics : bool }

    let off = { trace = false; metrics = false }

    let set { trace; metrics } = Arm.set { (Arm.current ()) with Arm.trace; metrics }
  end

  module Collect = struct
    let drain () =
      List.filter_map
        (fun (r : Arm.run) -> if Recorder.enabled r.recorder then Some (r.label, r.recorder) else None)
        (Arm.drain ())
  end
end

module Check = Mb_check
module Fault = Mb_fault
module Metrics = Mb_report.Metrics

(* Support. *)
module Pool = Mb_parallel.Pool
module Rng = Mb_prng.Rng
module Summary = Mb_stats.Summary
module Series = Mb_stats.Series
module Regression = Mb_stats.Regression
module Histogram = Mb_stats.Histogram
module Table = Mb_report.Table
module Plot = Mb_report.Plot
module Csv = Mb_report.Csv

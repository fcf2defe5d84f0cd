(* Measurement: set-up, the untraced timing loop, the traced run and the
   layer kernels, with every simulation checked and tallied. *)

module A = Core.Allocator
module M = Core.Machine
module Obs = Core.Obs

let now = Unix.gettimeofday

(* Host CPU seconds of this process. Unlike wall time it leaves out the
   time the process waits for a core, which on a shared host comes in
   slices of several ms and lands on whichever simulation is running. *)
let cpu = Sys.time

(* {1 Host speed}

   On a shared host the speed of a core drifts by up to 40% within one
   run, and host time per simulation drifts with it. A fixed mix of
   integer arithmetic and short-lived allocation, timed next to each
   measurement, drifts the same way: on leak-contended the ratio of
   simulation time to mix time varied by 1.7% (cv over 50-simulation
   windows) where raw wall time varied by 11%. So every host time the
   benchmark reports is CPU time scaled to the speed at which the mix
   takes [reference_ms] of CPU time, using the mean of the mix's times
   just before and just after the measurement. Raw wall times are printed
   beside the scaled ones. *)
let reference_ms = 0.7

let calibration_ms () =
  let t0 = cpu () in
  let r = ref 0 in
  for i = 1 to 500_000 do
    r := !r lxor (i * 7919)
  done;
  let l = ref [] in
  for i = 1 to 60_000 do
    l := (i, float_of_int i) :: !l;
    if i land 1023 = 0 then l := []
  done;
  ignore (Sys.opaque_identity (!r, !l));
  (cpu () -. t0) *. 1e3

(* The factor that scales a host time just measured to reference speed. *)
let speed () = reference_ms /. calibration_ms ()

(* [timed f] is [f ()], its host wall ms, and its host CPU ms scaled to
   reference speed. *)
let timed f =
  let before = calibration_ms () in
  let w0 = now () and c0 = cpu () in
  let x = f () in
  let c1 = cpu () and w1 = now () in
  let after = calibration_ms () in
  (x, (w1 -. w0) *. 1e3, (c1 -. c0) *. 1e3 *. reference_ms /. ((before +. after) /. 2.))

type metric = { name : string; value : float; unit_ : string }

(* {1 Correctness tally} *)

(* Every workload simulation the benchmark runs is attempted once and
   either passes every check or counts as failed; warm-ups included. *)
type tally = { mutable attempted : int; mutable failed : int; mutable errors : string list }

let tally () = { attempted = 0; failed = 0; errors = [] }

let failed_share t = if t.attempted = 0 then 0. else float_of_int t.failed /. float_of_int t.attempted

(* {1 Watching a simulation through its allocator factory} *)

type seen = { mutable allocs : A.t list; mutable procs : M.proc list }

let watch ?(wrap = Fun.id) (f : Core.Factory.t) =
  let seen = { allocs = []; procs = [] } in
  let create p =
    let a = wrap (f.Core.Factory.create p) in
    seen.allocs <- a :: seen.allocs;
    seen.procs <- p :: seen.procs;
    a
  in
  ({ f with Core.Factory.create }, seen)

(* A recorded malloc/free stream in Trace form: each live block gets a
   slot, reused once the block is freed. Recording costs no simulated
   time, so the recorded run's result is the unrecorded run's. *)
type stream = {
  mutable rev_ops : Core.Trace.op list;
  slot_of : (int, int) Hashtbl.t;
  mutable spare : int list;
  mutable slots : int;
}

let stream () = { rev_ops = []; slot_of = Hashtbl.create 1024; spare = []; slots = 0 }

let record st (a : A.t) =
  let take_slot () =
    match st.spare with
    | s :: rest ->
        st.spare <- rest;
        s
    | [] ->
        st.slots <- st.slots + 1;
        st.slots - 1
  in
  let malloc ctx size =
    let addr = a.A.malloc ctx size in
    let slot = take_slot () in
    Hashtbl.replace st.slot_of addr slot;
    st.rev_ops <- Core.Trace.Alloc { slot; size } :: st.rev_ops;
    addr
  in
  let free ctx addr =
    (match Hashtbl.find_opt st.slot_of addr with
    | Some slot ->
        Hashtbl.remove st.slot_of addr;
        st.spare <- slot :: st.spare;
        st.rev_ops <- Core.Trace.Free { slot } :: st.rev_ops
    | None -> ());
    a.A.free ctx addr
  in
  { a with A.malloc; free }

let stream_ops st = Array.of_list (List.rev st.rev_ops)

(* {1 One simulation} *)

type sim = {
  wall_ms : float;    (** host wall ms for the workload's [run] *)
  ms : float;         (** the same, scaled to reference speed *)
  words : float;      (** host minor words it allocated *)
  promoted : float;   (** host words promoted to the major heap *)
  alloc_ops : int;    (** simulated malloc and free calls *)
  faults : int;       (** simulated minor page faults *)
  outcome : Workloads.outcome;
  counters : (string * int) list;  (** drained metrics; [] when untraced *)
}

let render_counters cs = String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) cs)

let digest outcome counters =
  Digest.to_hex (Digest.string (outcome.Workloads.result ^ "\n" ^ render_counters counters))

(* The checks a finished simulation must pass beyond not raising. *)
let check (w : Workloads.t) seen =
  List.iter
    (fun a ->
      match a.A.validate () with
      | Ok () -> ()
      | Error msg -> failwith ("heap invariant broken: " ^ msg))
    seen.allocs;
  if w.Workloads.empty_at_end then
    List.iter
      (fun a ->
        let live = Core.Astats.live_bytes a.A.stats in
        if live <> 0 then failwith (Printf.sprintf "%d live bytes at the end of the run" live))
      seen.allocs

let simulate ?wrap (w : Workloads.t) ~seed ~factory ~traced =
  let f, seen = watch ?wrap factory in
  ignore (Obs.Collect.drain () : (string * Obs.Recorder.t) list);
  let (outcome, w0, w1, p0, p1), wall_ms, ms =
    timed (fun () ->
        let p0 = (Gc.quick_stat ()).Gc.promoted_words in
        let w0 = Gc.minor_words () in
        let outcome = w.Workloads.run ~seed f in
        let w1 = Gc.minor_words () in
        let p1 = (Gc.quick_stat ()).Gc.promoted_words in
        (outcome, w0, w1, p0, p1))
  in
  let counters = if traced then Obs.Recorder.totals (Obs.Collect.drain ()) else [] in
  check w seen;
  let sum f xs = List.fold_left (fun n x -> n + f x) 0 xs in
  { wall_ms;
    ms;
    words = w1 -. w0;
    promoted = p1 -. p0;
    alloc_ops = sum (fun a -> a.A.stats.Core.Astats.mallocs + a.A.stats.Core.Astats.frees) seen.allocs;
    faults = sum (fun p -> Core.Address_space.minor_faults (M.proc_vm p)) seen.procs;
    outcome;
    counters;
  }

(* Run one simulation, check it against [reference] (the first passing
   run of the same seed and mode sets it) and tally it. A raising
   workload is a failed simulation, never a crashed driver. *)
let attempt tally ?wrap w ~seed ~factory ~traced ~reference =
  tally.attempted <- tally.attempted + 1;
  match
    let s = simulate ?wrap w ~seed ~factory ~traced in
    let d = digest s.outcome s.counters in
    (match !reference with
    | None -> reference := Some d
    | Some r when r = d -> ()
    | Some r -> failwith (Printf.sprintf "digest %s differs from this seed's reference %s" d r));
    s
  with
  | s -> Some s
  | exception ((Out_of_memory | Stack_overflow | Sys.Break) as e) -> raise e
  | exception e ->
      tally.failed <- tally.failed + 1;
      if List.length tally.errors < 5 then tally.errors <- Printexc.to_string e :: tally.errors;
      None

(* No loop runs longer than this, however slow its simulations. *)
let max_loop_s = 60.

(* Call [f i] for i = 0, 1, ... until [budget_s] has passed and at least
   [min_n] calls were made, or [max_loop_s] has passed. *)
let loop ~budget_s ~min_n f =
  let start = now () in
  let rec go n =
    let el = now () -. start in
    if not ((n >= min_n && el >= budget_s) || el >= max_loop_s) then begin
      f n;
      go (n + 1)
    end
  in
  go 0

let with_metrics f =
  Obs.Ctl.set { Obs.Ctl.trace = false; metrics = true };
  Fun.protect ~finally:(fun () -> Obs.Ctl.set Obs.Ctl.off) f

(* {1 Set-up} *)

(* Simulation seeds per run. One seed's host cost and GC words depend on
   its schedule: on leak-contended, minor words per simulation are
   bimodal across seeds (1.8M or 5.0M, mean 3.2M, sd 1.2M over seeds
   1-96). A run therefore cycles through [subseeds] consecutive seeds and
   reports the balanced mixture, which holds the mean's sd across runs
   near 2%. Run seed s covers (s-1)*subseeds+1 .. s*subseeds, so run
   seed 1 starts at the paper kernels' seed 1. *)
let subseeds = 256

let seeds_of ~seed = Array.init subseeds (fun i -> ((seed - 1) * subseeds) + 1 + i)

type setup = {
  factory : Core.Factory.t;
  seeds : int array;                     (** simulation seeds, cycled *)
  refs : string option ref array;        (** untraced reference digest per seed *)
  traced_ref : string option ref;        (** traced reference digest of seeds.(0) *)
  reference : sim option;                (** the traced, recorded run of seeds.(0) *)
  stream : stream;                       (** its allocator calls *)
}

let warmups = 3

(* Everything before the first timed simulation: untraced warm-ups of the
   first seed, and one traced run of it that records its allocator stream
   and fixes the traced reference. Every other seed's reference digest is
   fixed by its first timed simulation. *)
let setup tally (w : Workloads.t) ~seeds =
  let factory = Core.Factory.ptmalloc () in
  let refs = Array.map (fun _ -> ref None) seeds in
  for _ = 1 to warmups do
    ignore
      (attempt tally w ~seed:seeds.(0) ~factory ~traced:false ~reference:refs.(0)
        : sim option)
  done;
  let st = stream () in
  let traced_ref = ref None in
  let reference =
    with_metrics (fun () ->
        attempt tally ~wrap:(record st) w ~seed:seeds.(0) ~factory ~traced:true
          ~reference:traced_ref)
  in
  { factory; seeds; refs; traced_ref; reference; stream = st }

(* {1 Metrics} *)

let m name value unit_ = { name; value; unit_ }

(* What the timing loops keep of a passing simulation: a flat float
   record, so the benchmark's own heap hardly grows with the number of
   simulations and peak_heap_mb stays the simulator's. *)
type sample = { wall : float; ms : float; words : float; promoted : float; ops : float }

let sample (s : sim) =
  { wall = s.wall_ms; ms = s.ms; words = s.words; promoted = s.promoted; ops = float_of_int s.alloc_ops }

let ms_of samples = List.map (fun s -> s.ms) samples

(* Every seed must run three times, so that its median is one clean
   sample, and at least ten seed medians must lie beyond p90. *)
let min_sims = max (3 * subseeds) (Stats.samples_for_p90_tail 10)

(* Untraced simulations, cycling through the set-up's seeds. Returns the
   passing samples of each seed. *)
let untraced tally w su ~budget_s ~min_n =
  let k = Array.length su.seeds in
  let by_seed = Array.make k [] in
  loop ~budget_s ~min_n (fun i ->
      let ix = i mod k in
      match
        attempt tally w ~seed:su.seeds.(ix) ~factory:su.factory ~traced:false
          ~reference:su.refs.(ix)
      with
      | Some s -> by_seed.(ix) <- sample s :: by_seed.(ix)
      | None -> ());
  by_seed

(* The mean over seeds of a per-seed statistic, so that every seed weighs
   the same however many of its simulations fit in the run. *)
let per_seed_mean stat by_seed =
  Stats.mean (Array.fold_left (fun acc g -> if g = [] then acc else stat g :: acc) [] by_seed)

let word_bytes = float_of_int (Sys.word_size / 8)

(* Each seed's median time. A seed's simulations are spread over the whole
   run, so a stretch of host noise inflates at most a minority of them, and
   the percentiles over seeds measure how the simulation's cost varies
   with its schedule rather than how the host varied. *)
let seed_medians by_seed =
  Array.fold_left (fun acc g -> if g = [] then acc else Stats.median (ms_of g) :: acc) [] by_seed

let end_to_end tally by_seed =
  match seed_medians by_seed with
  | [] -> []
  | times ->
      let p50 = Stats.median times in
      let of_seed f g = Stats.median (List.map f g) in
      [ m "sim_ms_p50" p50 "ms";
        m "sim_ms_p90" (Stats.percentile 90. times) "ms";
        m "alloc_ops_per_s" (per_seed_mean (of_seed (fun s -> s.ops)) by_seed /. (p50 /. 1e3)) "1/s";
        m "minor_words_per_sim" (per_seed_mean (of_seed (fun s -> s.words)) by_seed) "words";
        m "promoted_words_per_sim"
          (per_seed_mean (fun g -> Stats.mean (List.map (fun s -> s.promoted) g)) by_seed)
          "words";
        m "peak_heap_mb"
          (float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. word_bytes /. 1048576.)
          "MB";
        m "ok_share" (1. -. failed_share tally) "share";
      ]

let counter cs k = Option.value ~default:0 (List.assoc_opt k cs)

let sum_matching cs ~prefix ~suffix =
  List.fold_left
    (fun acc (k, v) ->
      if String.starts_with ~prefix k && String.ends_with ~suffix k then acc + v else acc)
    0 cs

let ratio a b = if b = 0. then 0. else a /. b

let time_kernel ~budget_s (k : Kernels.t) =
  k.Kernels.body ();
  let per = float_of_int k.ops in
  let start = now () in
  let rec go ns words n =
    if n >= 3 && now () -. start >= budget_s then (Stats.median ns, Stats.median words)
    else begin
      let w, _, ms =
        timed (fun () ->
            let w0 = Gc.minor_words () in
            k.body ();
            Gc.minor_words () -. w0)
      in
      go ((ms *. 1e6 /. per) :: ns) ((w /. per) :: words) (n + 1)
    end
  in
  let ns, words = go [] [] 0 in
  [ m (k.name ^ "_ns") ns "ns"; m (k.name ^ "_words") words "words" ]

(* The traced run, all on the first seed: per-layer counts from the
   traced reference, in-situ normalizers from the untraced median, the
   tracing overhead, and the layer kernels. *)
let per_layer tally (w : Workloads.t) su ~seconds =
  let base = List.concat (Array.to_list (untraced tally w su ~budget_s:(0.35 *. seconds) ~min_n:20)) in
  let traced = ref [] in
  with_metrics (fun () ->
      loop ~budget_s:(0.2 *. seconds) ~min_n:5 (fun _ ->
          match
            attempt tally w ~seed:su.seeds.(0) ~factory:su.factory ~traced:true
              ~reference:su.traced_ref
          with
          | Some s -> traced := s.ms :: !traced
          | None -> ()));
  let slots = max 1 su.stream.slots in
  let ops = stream_ops su.stream in
  (match Core.Trace.validate ops ~slots with
  | Ok () -> ()
  | Error msg -> failwith ("recorded allocator stream is malformed: " ^ msg));
  let kernels = Kernels.fixed w.Workloads.machine @ [ Kernels.alloc_pair w.machine su.factory ops ~slots ] in
  let kbudget = 0.45 *. seconds /. float_of_int (List.length kernels) in
  let kmetrics = List.concat_map (time_kernel ~budget_s:kbudget) kernels in
  match (su.reference, base, !traced) with
  | None, _, _ | _, [], _ | _, _, [] -> failwith "no passing reference, untraced or traced simulation"
  | Some r, _, _ ->
      let cs = r.counters in
      let c k = float_of_int (counter cs k) in
      let base_ms = Stats.median (ms_of base) in
      let events = c "sched.shard.pushes" in
      let lock_acq = float_of_int (sum_matching cs ~prefix:"lock." ~suffix:".acquired") in
      let lock_cont = float_of_int (sum_matching cs ~prefix:"lock." ~suffix:".contended") in
      let ops = float_of_int r.alloc_ops in
      let accesses = c "cache.hits" +. c "cache.misses" +. c "cache.line_transfers" +. c "cache.upgrades" in
      [ m "sim.events" events "count";
        m "sim.ring_share" (ratio (c "sched.shard.ring_hits") events) "share";
        m "sim.wheel_hits" (c "sched.shard.wheel_hits" +. c "sched.shard.heap_spills") "count";
        m "sim.host_ns_per_event" (ratio (base_ms *. 1e6) events) "ns";
        m "workload.minor_words" (Stats.median (List.map (fun s -> s.words) base)) "words";
        m "machine.ctx_switches" (c "sched.ctx_switches") "count";
        m "machine.lock_acquired" lock_acq "count";
        m "machine.lock_contended_share" (ratio lock_cont lock_acq) "share";
        m "alloc.ops" ops "count";
        m "alloc.lock_acquired" (c "alloc.lock.acquired") "count";
        m "alloc.lock_contended" (c "alloc.lock.contended") "count";
        m "alloc.foreign_free_share" (ratio (c "alloc.free.foreign") (c "alloc.frees")) "share";
        m "alloc.arena_switches" (c "alloc.arena.switches") "count";
        m "alloc.host_ns_per_op" (ratio (base_ms *. 1e6) ops) "ns";
        m "cache.accesses" accesses "count";
        m "cache.hit_share" (ratio (c "cache.hits") accesses) "share";
        m "cache.invalidations" (c "cache.invalidations") "count";
        m "vm.minor_faults" (float_of_int r.faults) "count";
        m "vm.sbrk_calls" (c "vm.sbrk_calls") "count";
        m "vm.syscalls" (c "vm.sbrk_calls" +. c "vm.mmap_calls" +. c "vm.munmap_calls") "count";
        m "server.p99_us" r.outcome.Workloads.p99_us "us";
        m "server.dropped" (float_of_int r.outcome.dropped) "count";
        m "obs.metrics_overhead" (ratio (Stats.median !traced) base_ms) "ratio";
        m "failed_share" (failed_share tally) "share";
      ]
      @ kmetrics

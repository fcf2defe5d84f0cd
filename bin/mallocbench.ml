(* mallocbench — command-line driver for the malloc() reproduction.

   Subcommands:
     bench1      the multithread-scalability microbenchmark
     bench2      the heap-leak / minor-fault microbenchmark
     bench3      the false-sharing microbenchmark
     server      the network-server workload
     experiment  regenerate a paper table/figure (or all of them)
     suite       run a declarative benchmark suite
     list        enumerate machines, allocators and experiments *)

open Cmdliner

let machine_conv =
  let parse s =
    match Core.Configs.by_name s with
    | Some cfg -> Ok cfg
    | None ->
        Error (`Msg (Printf.sprintf "unknown machine %S (try: %s)" s
                       (String.concat ", " Core.Configs.names)))
  in
  let print fmt (cfg : Core.Machine.config) =
    Format.fprintf fmt "%d cpu @ %.0f MHz" cfg.Core.Machine.cpus cfg.Core.Machine.mhz
  in
  Arg.conv (parse, print)

let factory_conv =
  let parse s =
    match Core.Factory.by_name s with
    | Some f -> Ok f
    | None ->
        Error (`Msg (Printf.sprintf "unknown allocator %S (try: %s)" s
                       (String.concat ", " Core.Factory.names)))
  in
  let print fmt (f : Core.Factory.t) = Format.fprintf fmt "%s" f.Core.Factory.label in
  Arg.conv (parse, print)

let machine_arg =
  Arg.(value
       & opt machine_conv Core.Configs.dual_pentium_pro
       & info [ "m"; "machine" ] ~docv:"MACHINE" ~doc:"Machine preset (see $(b,list)).")

let factory_arg =
  Arg.(value
       & opt factory_conv (Core.Factory.ptmalloc ())
       & info [ "a"; "allocator" ] ~docv:"ALLOC" ~doc:"Allocator (see $(b,list)).")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.")

let int_at_least lo what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | Some _ | None -> Error (`Msg (Printf.sprintf "expected a %s integer, got %S" what s))
  in
  Arg.conv (parse, Format.pp_print_int)

let pos_int = int_at_least 1 "positive"

let non_neg_int = int_at_least 0 "non-negative"

let jobs_arg =
  Arg.(value & opt (some pos_int) None
       & info [ "j"; "jobs" ] ~docv:"N" ~env:(Cmd.Env.info "MALLOC_REPRO_JOBS")
           ~doc:"Run on a pool of $(docv) domains (default: all cores). Output is identical \
                 for any width.")

let threads_arg default =
  Arg.(value & opt pos_int default & info [ "t"; "threads" ] ~doc:"Worker thread count.")

(* --- observation -------------------------------------------------------- *)

let trace_arg =
  Arg.(value
       & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a Chrome trace_event JSON timeline of the simulated runs to $(docv) \
                 (open in chrome://tracing or ui.perfetto.dev).")

let metrics_arg =
  Arg.(value & flag
       & info [ "metrics" ]
           ~doc:"Print the observed-counters table (lock acquisitions and contention, \
                 cache-coherence traffic, arena churn, VM syscalls) after the runs.")

let gc_stats_arg =
  Arg.(value & flag
       & info [ "gc-stats" ]
           ~doc:"Print host-level GC deltas ($(b,Gc.quick_stat) before/after the runs): \
                 how much the simulator itself allocated. Unlike $(b,--metrics) and \
                 $(b,--trace) this never turns observation on, so it measures the \
                 undisturbed hot path.")

let check_arg =
  Arg.(value & flag
       & info [ "check" ]
           ~doc:"Arm the dynamic correctness checker for the simulated runs: Eraser-style \
                 lockset race detection, allocation sanitizing (double-free, \
                 use-after-free, out-of-bounds) and structured deadlock diagnosis. \
                 Findings are printed on $(b,check:)-prefixed lines and a non-empty \
                 report exits with status 3. Checking consumes no simulated time, so \
                 all other output is identical to an unchecked run.")

let faults_conv =
  let parse s =
    match Core.Fault.Plan.parse s with Ok v -> Ok v | Error msg -> Error (`Msg msg)
  in
  let print fmt v = Format.pp_print_string fmt (Core.Fault.Plan.to_string v) in
  Arg.conv (parse, print)

let faults_arg =
  Arg.(value
       & opt faults_conv None
       & info [ "faults" ] ~docv:"PLAN[:SEED]"
           ~doc:"Arm the deterministic fault-injection layer for the simulated runs. \
                 $(docv) names a scenario — $(b,oom-pressure) (a decaying address-space \
                 budget), $(b,flaky-reserve) (a seeded fraction of page reservations \
                 fail), $(b,preempt-storm) (extra context switches at lock sites) or \
                 $(b,slow-lock) (stretched heap-mutex hold times) — with an optional \
                 seed (default 1). Injected failures are absorbed by the allocator \
                 retry/backoff path or surface as graceful degradation; each run prints \
                 a $(b,fault:) line and the invocation ends with a $(b,degraded:) \
                 summary. The same plan and seed reproduce byte-identical output; \
                 $(b,none) leaves faults disarmed and the run byte-identical to a \
                 plain one.")

(* Turn observation/checking/fault-injection on for the duration of
   [f], then drain the finished runs once into the requested sinks. With
   no flag, [f] runs on the disabled path untouched; --gc-stats only
   snapshots Gc counters around [f], so it composes with either path
   without perturbing it. *)
let with_observation ~trace ~metrics ~gc_stats ?(check = false) ?(faults = None) f =
  let module Arm = Core.Arm in
  let gc_before = if gc_stats then Some (Gc.quick_stat ()) else None in
  let check_failed = ref false in
  let result =
    let arm = { Arm.trace = trace <> None; metrics; check; faults } in
    if arm = Arm.off then f ()
    else begin
      Arm.set arm;
      let finish () =
        Arm.set Arm.off;
        let drained = Arm.drain () in
        (* the drained runs whose instrument [get] is on, labelled *)
        let keep on get =
          List.filter_map
            (fun (r : Arm.run) -> if on (get r) then Some (r.label, get r) else None)
            drained
        in
        let runs = keep Core.Obs.Recorder.enabled (fun r -> r.recorder) in
        (match trace with
        | Some path ->
            Core.Obs.Trace_json.write_file path runs;
            Printf.printf "trace: %d events from %d runs -> %s\n"
              (Core.Obs.Trace_json.event_total runs)
              (List.length runs) path
        | None -> ());
        if metrics then Core.Metrics.print runs;
        if check then begin
          let checked = keep Core.Check.Checker.armed (fun r -> r.checker) in
          let total =
            List.fold_left
              (fun acc (_, c) -> acc + Core.Check.Checker.finding_count c)
              0 checked
          in
          List.iter
            (fun (label, c) ->
              List.iter
                (fun (fd : Core.Check.Checker.finding) ->
                  Printf.printf "check: [%s] %s: %s\n"
                    (Core.Check.Checker.kind_label fd.Core.Check.Checker.kind)
                    label fd.Core.Check.Checker.message)
                (Core.Check.Checker.findings c))
            checked;
          Printf.printf "check: %d finding(s) in %d checked run(s)\n" total (List.length checked);
          if total > 0 then check_failed := true
        end;
        match faults with
        | None -> ()
        | Some (plan, seed) ->
            let module I = Core.Fault.Injector in
            let stormed = keep I.armed (fun r -> r.injector) in
            List.iter
              (fun (label, inj) ->
                Printf.printf
                  "fault: [%s] %s: injected %d (reserve %d, preempt %d, slow-lock %d) | \
                   survived %d | degraded %d\n"
                  (Core.Fault.Plan.label plan) label (I.injected inj)
                  (I.injected_reserve inj) (I.injected_preempt inj) (I.injected_slowlock inj)
                  (I.survived inj) (I.degraded inj))
              stormed;
            let sum get = List.fold_left (fun acc (_, inj) -> acc + get inj) 0 stormed in
            Printf.printf "degraded: plan %s | runs: %d | injected: %d | survived: %d | degraded: %d\n"
              (Core.Fault.Plan.to_string (Some (plan, seed)))
              (List.length stormed) (sum I.injected) (sum I.survived) (sum I.degraded)
      in
      Fun.protect ~finally:finish f
    end
  in
  (match gc_before with
  | Some before -> Core.Metrics.print_gc ~before ~after:(Gc.quick_stat ())
  | None -> ());
  if !check_failed then Stdlib.exit 3;
  result

(* --- bench1 ----------------------------------------------------------- *)

let bench1_cmd =
  let run machine factory seed workers iterations size processes trace metrics gc_stats check faults =
    with_observation ~trace ~metrics ~gc_stats ~check ~faults @@ fun () ->
    let params =
      { Core.Bench1.default with
        Core.Bench1.machine;
        factory;
        seed;
        workers;
        iterations;
        size;
        mode = (if processes then Core.Bench1.Processes else Core.Bench1.Threads);
      }
    in
    let r = Core.Bench1.run params in
    Printf.printf "mode: %s | workers: %d | size: %dB | iterations: %d (scaled to %d)\n"
      (if processes then "processes" else "threads")
      workers size iterations params.Core.Bench1.paper_iterations;
    List.iteri
      (fun i s -> Printf.printf "worker %d: %.6f s (scaled)\n" (i + 1) s)
      r.Core.Bench1.scaled_s;
    Printf.printf "context switches: %d | contended ops: %d | arenas: %d | utilization: %.1f%%\n"
      r.Core.Bench1.ctx_switches r.Core.Bench1.lock_contended_ops r.Core.Bench1.arenas
      (100. *. r.Core.Bench1.utilization)
  in
  let iterations = Arg.(value & opt pos_int 50_000 & info [ "iterations" ] ~doc:"malloc/free pairs per worker.") in
  let size = Arg.(value & opt pos_int 512 & info [ "size" ] ~doc:"Request size in bytes.") in
  let processes = Arg.(value & flag & info [ "processes" ] ~doc:"One process per worker instead of threads.") in
  Cmd.v
    (Cmd.info "bench1" ~doc:"Multithread scalability: timed malloc/free loops")
    Term.(const run $ machine_arg $ factory_arg $ seed_arg $ threads_arg 2 $ iterations $ size
          $ processes $ trace_arg $ metrics_arg $ gc_stats_arg $ check_arg $ faults_arg)

(* --- bench2 ----------------------------------------------------------- *)

let bench2_cmd =
  let run machine factory seed threads rounds objects replacements size trace metrics gc_stats check faults =
    with_observation ~trace ~metrics ~gc_stats ~check ~faults @@ fun () ->
    let params =
      { Core.Bench2.machine;
        factory;
        seed;
        threads;
        rounds;
        objects_per_thread = objects;
        replacements_per_round = replacements;
        size;
      }
    in
    let r = Core.Bench2.run params in
    Printf.printf "threads: %d | rounds: %d | objects/thread: %d | size: %dB\n" threads rounds
      objects size;
    Printf.printf "minor page faults: %d (paper predictor: %.1f)\n" r.Core.Bench2.minor_faults
      (Core.Bench2.paper_predictor ~threads ~rounds);
    Printf.printf "resident pages: %d | arenas: %d | foreign frees: %d | sbrk calls: %d | mmap calls: %d\n"
      r.Core.Bench2.resident_pages r.Core.Bench2.arenas_created r.Core.Bench2.foreign_frees
      r.Core.Bench2.sbrk_calls r.Core.Bench2.mmap_calls
  in
  let rounds = Arg.(value & opt pos_int 4 & info [ "rounds" ] ~doc:"Thread generations per chain.") in
  let objects = Arg.(value & opt pos_int 10_000 & info [ "objects" ] ~doc:"Pre-allocated objects per thread.") in
  let replacements = Arg.(value & opt non_neg_int 2_200 & info [ "replacements" ] ~doc:"Replacements per round.") in
  let size = Arg.(value & opt pos_int 40 & info [ "size" ] ~doc:"Object size in bytes.") in
  let machine_arg2 =
    Arg.(value & opt machine_conv Core.Configs.uni_k6
         & info [ "m"; "machine" ] ~docv:"MACHINE" ~doc:"Machine preset.")
  in
  Cmd.v
    (Cmd.info "bench2" ~doc:"Heap leakage: minor faults under cross-thread frees")
    Term.(const run $ machine_arg2 $ factory_arg $ seed_arg $ threads_arg 3 $ rounds $ objects
          $ replacements $ size $ trace_arg $ metrics_arg $ gc_stats_arg $ check_arg $ faults_arg)

(* --- bench3 ----------------------------------------------------------- *)

let bench3_cmd =
  let run machine factory seed threads size writes aligned trace metrics gc_stats check faults =
    with_observation ~trace ~metrics ~gc_stats ~check ~faults @@ fun () ->
    let params =
      { Core.Bench3.default with
        Core.Bench3.machine;
        factory;
        seed;
        threads;
        object_size = size;
        writes;
        aligned;
      }
    in
    let r = Core.Bench3.run params in
    Printf.printf "threads: %d | object size: %dB | writes: %d (scaled to %d) | %s\n" threads size
      writes params.Core.Bench3.paper_writes
      (if aligned then "cache-aligned" else "normal placement");
    Printf.printf "elapsed: %.6f s (scaled) | ping-pong transfers: %d | shared lines: %d\n"
      r.Core.Bench3.scaled_s r.Core.Bench3.transfers r.Core.Bench3.shared_lines;
    Printf.printf "object addresses: %s\n"
      (String.concat ", " (List.map (Printf.sprintf "0x%x") r.Core.Bench3.addresses))
  in
  let size = Arg.(value & opt pos_int 40 & info [ "size" ] ~doc:"Object size (the paper sweeps 3-52).") in
  let writes = Arg.(value & opt pos_int 1_000_000 & info [ "writes" ] ~doc:"Writes per thread.") in
  let aligned = Arg.(value & flag & info [ "aligned" ] ~doc:"Use the cache-line-aligning wrapper.") in
  let machine_arg3 =
    Arg.(value & opt machine_conv Core.Configs.quad_xeon
         & info [ "m"; "machine" ] ~docv:"MACHINE" ~doc:"Machine preset.")
  in
  Cmd.v
    (Cmd.info "bench3" ~doc:"False cache-line sharing between writer threads")
    Term.(const run $ machine_arg3 $ factory_arg $ seed_arg $ threads_arg 2 $ size $ writes
          $ aligned $ trace_arg $ metrics_arg $ gc_stats_arg $ check_arg $ faults_arg)

(* --- server ------------------------------------------------------------ *)

let server_cmd =
  let run machine factory seed threads requests latency arrivals model queue churn mix trace
      metrics gc_stats check faults =
    with_observation ~trace ~metrics ~gc_stats ~check ~faults @@ fun () ->
    let read_pct, write_pct = mix in
    let open_loop =
      match arrivals with
      | None -> None
      | Some process ->
          let model =
            match model with
            | `Pool -> Core.Server.Thread_pool { queue_capacity = queue }
            | `Thread_per_connection -> Core.Server.Thread_per_connection
          in
          Some
            { Core.Server.process;
              total_requests = requests;
              model;
              churn_mean_requests = churn;
              read_pct;
              write_pct;
            }
    in
    let params =
      { Core.Server.default with
        Core.Server.machine;
        factory;
        seed;
        threads;
        requests_per_thread = requests;
        probe_latency = latency;
        open_loop;
      }
    in
    let r = Core.Server.run params in
    (match open_loop with
    | None ->
        Printf.printf "mode: closed loop | threads: %d | requests/thread: %d | allocator: %s\n"
          threads requests factory.Core.Factory.label
    | Some o ->
        Printf.printf "mode: open loop (%s, %s) | total requests: %d | allocator: %s\n"
          (Core.Arrivals.to_string o.Core.Server.process)
          (Core.Server.model_label o.Core.Server.model)
          requests factory.Core.Factory.label);
    Printf.printf "throughput: %.0f req/s (simulated) | makespan: %.3f s\n"
      r.Core.Server.requests_per_second r.Core.Server.elapsed_s;
    Printf.printf "foreign frees: %d | arenas: %d | contended ops: %d\n" r.Core.Server.foreign_frees
      r.Core.Server.arenas r.Core.Server.contended_ops;
    (match r.Core.Server.requests with
    | None -> ()
    | Some s ->
        Printf.printf
          "requests: %d completed, %d dropped, %d connections churned | offered %.0f req/s\n"
          s.Core.Server.completed s.Core.Server.dropped s.Core.Server.churned
          s.Core.Server.offered_rps;
        Printf.printf "request latency: p50 %.1f us | p95 %.1f us | p99 %.1f us | max %.1f us\n"
          (s.Core.Server.p50_ns /. 1e3) (s.Core.Server.p95_ns /. 1e3)
          (s.Core.Server.p99_ns /. 1e3) (s.Core.Server.max_ns /. 1e3);
        List.iter
          (fun (cls, n) -> Printf.printf "  class %-6s %d completed\n" cls n)
          s.Core.Server.by_class);
    match r.Core.Server.latency with
    | None -> ()
    | Some p ->
        Printf.printf "malloc latency: mean %.0f ns, p99 %.0f ns, uptime drift %.2f\n"
          p.Core.Server.malloc_mean_ns p.Core.Server.malloc_p99_ns p.Core.Server.drift;
        List.iter
          (fun (o : Core.Server.op_stat) ->
            Printf.printf "  op %-7s %6d samples | mean %.0f ns | p99 %.0f ns\n"
              o.Core.Server.op o.Core.Server.op_count o.Core.Server.op_mean_ns
              o.Core.Server.op_p99_ns)
          p.Core.Server.op_stats
  in
  let requests =
    Arg.(value & opt pos_int 2_000
         & info [ "requests" ]
             ~doc:"Requests per worker (closed loop) or total arrivals (open loop).")
  in
  let latency = Arg.(value & flag & info [ "latency" ] ~doc:"Probe per-allocator-op latency.") in
  let arrivals_conv =
    let parse s =
      match Core.Arrivals.of_string s with
      | p -> Ok p
      | exception Invalid_argument msg -> Error (`Msg msg)
    in
    let print fmt p = Format.pp_print_string fmt (Core.Arrivals.to_string p) in
    Arg.conv (parse, print)
  in
  let arrivals =
    Arg.(value & opt (some arrivals_conv) None
         & info [ "arrivals" ] ~docv:"SPEC"
             ~doc:"Drive the server open loop from a deterministic arrival process instead of \
                   the closed-loop workers: $(b,poisson:RATE), \
                   $(b,bursty:BASE:BURST:ON_S:OFF_S) or $(b,diurnal:LOW:HIGH:PERIOD_S) \
                   (rates in requests/s). Reports per-request latency percentiles and \
                   throughput against offered load.")
  in
  let model =
    Arg.(value
         & opt (enum [ ("pool", `Pool); ("thread-per-connection", `Thread_per_connection) ]) `Pool
         & info [ "model" ] ~docv:"MODEL"
             ~doc:"Open-loop server model: $(b,pool) (fixed workers, bounded queue) or \
                   $(b,thread-per-connection).")
  in
  let queue =
    Arg.(value & opt pos_int 1_024
         & info [ "queue" ] ~docv:"N"
             ~doc:"Pool model: bounded request-queue capacity; a full queue sheds arrivals.")
  in
  let churn =
    Arg.(value & opt non_neg_int 64
         & info [ "churn" ] ~docv:"N"
             ~doc:"Mean requests per connection lifetime before the connection closes and \
                   reopens (0 disables churn).")
  in
  let mix_conv =
    let parse s =
      match String.split_on_char ':' s with
      | [ r; w; u ] -> (
          match (int_of_string_opt r, int_of_string_opt w, int_of_string_opt u) with
          | Some r, Some w, Some u when r >= 0 && w >= 0 && u >= 0 && r + w + u = 100 ->
              Ok (r, w)
          | _ -> Error (`Msg (Printf.sprintf "expected R:W:U percentages summing to 100, got %S" s)))
      | _ -> Error (`Msg (Printf.sprintf "expected R:W:U percentages summing to 100, got %S" s))
    in
    let print fmt (r, w) = Format.fprintf fmt "%d:%d:%d" r w (100 - r - w) in
    Arg.conv (parse, print)
  in
  let mix =
    Arg.(value & opt mix_conv (60, 25)
         & info [ "mix" ] ~docv:"R:W:U"
             ~doc:"Open-loop request-class mix as read:write:update percentages (sum 100).")
  in
  let machine_arg4 =
    Arg.(value & opt machine_conv Core.Configs.quad_xeon
         & info [ "m"; "machine" ] ~docv:"MACHINE" ~doc:"Machine preset.")
  in
  Cmd.v
    (Cmd.info "server" ~doc:"Network-server workload (iPlanet-style)")
    Term.(const run $ machine_arg4 $ factory_arg $ seed_arg $ threads_arg 4 $ requests $ latency
          $ arrivals $ model $ queue $ churn $ mix $ trace_arg $ metrics_arg $ gc_stats_arg
          $ check_arg $ faults_arg)

(* --- experiment --------------------------------------------------------- *)

let experiment_cmd =
  let run ids quick seed csv_dir jobs trace metrics gc_stats check faults =
    Option.iter Core.Pool.set_jobs jobs;
    let opts = { Core.Exp_common.quick; seed } in
    let only = match ids with [] -> None | ids -> Some ids in
    let outcomes =
      with_observation ~trace ~metrics ~gc_stats ~check ~faults (fun () ->
          Core.Experiments.run_all ?only opts)
    in
    (match csv_dir with
    | None -> ()
    | Some dir ->
        List.iter
          (fun (o : Core.Outcome.t) ->
            if o.Core.Outcome.series <> [] then
              Core.Csv.write_file
                (Filename.concat dir (o.Core.Outcome.id ^ ".csv"))
                (Core.Csv.of_series o.Core.Outcome.series))
          outcomes);
    print_endline "== summary ==";
    List.iter (fun o -> print_endline (Core.Outcome.summary_line o)) outcomes;
    (* Under an armed fault plan the paper's pass thresholds no longer
       apply — the run is judged on completing gracefully (exit 0), not
       on matching fault-free reference numbers. *)
    if faults = None && not (List.for_all Core.Outcome.passed outcomes) then Stdlib.exit 1
  in
  let exp_id_conv =
    let parse s =
      if List.mem s Core.Experiments.ids then Ok s
      else
        Error (`Msg (Printf.sprintf "unknown experiment %S (try: %s)" s
                       (String.concat ", " Core.Experiments.ids)))
    in
    Arg.conv (parse, Format.pp_print_string)
  in
  let ids =
    Arg.(value & pos_all exp_id_conv [] & info [] ~docv:"ID" ~doc:"Experiment ids (default: all).")
  in
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Reduced iteration counts.") in
  let csv_dir =
    Arg.(value & opt (some dir) None & info [ "csv" ] ~docv:"DIR" ~doc:"Also write series as CSV files.")
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate a paper table or figure")
    Term.(const run $ ids $ quick $ seed_arg $ csv_dir $ jobs_arg $ trace_arg $ metrics_arg $ gc_stats_arg
          $ check_arg $ faults_arg)

(* --- suite ---------------------------------------------------------------- *)

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; Stdlib.exit 2) fmt

let suite_cmd =
  let run file jobs dry_run =
    Option.iter Core.Pool.set_jobs jobs;
    let module Spec = Core.Suite.Spec in
    let text =
      try In_channel.with_open_text file In_channel.input_all
      with Sys_error e -> die "suite: %s" e
    in
    let spec = match Spec.of_string text with Ok s -> s | Error e -> die "suite %s: %s" file e in
    let registry = Core.Experiments.suite_registry in
    if dry_run then begin
      match Spec.expand spec ~exp_ids:registry.Core.Suite.Runner.exp_ids with
      | Error e -> die "%s" e
      | Ok cells ->
          List.iter (fun (c : Spec.cell) -> print_endline c.Spec.key) cells;
          Printf.printf "%d cell(s)\n" (List.length cells)
    end
    else
      match Core.Suite.Runner.run ~registry spec with
      | Error e -> die "%s" e
      | Ok cells -> if not (List.for_all snd cells) then Stdlib.exit 1
  in
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"SUITE" ~doc:"Suite spec file.")
  in
  let dry_run =
    Arg.(value & flag
         & info [ "dry-run" ] ~doc:"Print the expanded cell keys and exit without running.")
  in
  Cmd.v
    (Cmd.info "suite" ~doc:"Run a declarative benchmark suite")
    Term.(const run $ file $ jobs_arg $ dry_run)

(* --- list ---------------------------------------------------------------- *)

let list_cmd =
  let run () =
    Printf.printf "machines:    %s\n" (String.concat ", " Core.Configs.names);
    Printf.printf "allocators:  %s\n" (String.concat ", " Core.Factory.names);
    Printf.printf "experiments: %s\n" (String.concat ", " Core.Experiments.ids)
  in
  Cmd.v (Cmd.info "list" ~doc:"List machines, allocators and experiments") Term.(const run $ const ())

let main =
  let doc = "simulated reproduction of 'malloc() Performance in a Multithreaded Linux Environment'" in
  Cmd.group
    (Cmd.info "mallocbench" ~version:"1.0.0" ~doc)
    [ bench1_cmd; bench2_cmd; bench3_cmd; server_cmd; experiment_cmd; suite_cmd; list_cmd ]

let () = exit (Cmd.eval main)

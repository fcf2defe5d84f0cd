(* Tests for the benchmark drivers, trace machinery, latency probe and
   the server workload. *)

module M = Core.Machine
module B1 = Core.Bench1
module B2 = Core.Bench2
module B3 = Core.Bench3

let small_b1 =
  { B1.default with B1.iterations = 2_000; workers = 2; paper_iterations = 2_000 }

let test_bench1_structure () =
  let r = B1.run small_b1 in
  Alcotest.(check int) "one time per worker" 2 (List.length r.B1.elapsed_s);
  Alcotest.(check bool) "positive" true (List.for_all (fun s -> s > 0.) r.B1.elapsed_s);
  (* paper_iterations = iterations, so scaled = raw *)
  List.iter2
    (fun a b -> Alcotest.(check (float 1e-9)) "unscaled" a b)
    r.B1.elapsed_s r.B1.scaled_s;
  Alcotest.(check bool) "utilization sane" true (r.B1.utilization > 0. && r.B1.utilization <= 1.01)

let test_bench1_scaling_math () =
  let r = B1.run { small_b1 with B1.paper_iterations = 20_000 } in
  List.iter2
    (fun raw scaled -> Alcotest.(check (float 1e-6)) "10x scale" (raw *. 10.) scaled)
    r.B1.elapsed_s r.B1.scaled_s

let test_bench1_process_mode () =
  let r = B1.run { small_b1 with B1.mode = B1.Processes } in
  Alcotest.(check int) "one allocator per process" 2 r.B1.arenas;
  Alcotest.(check int) "workers" 2 (List.length r.B1.scaled_s)

let test_bench1_more_threads_take_longer () =
  let t2 = B1.mean_scaled (B1.run { small_b1 with B1.workers = 2 }) in
  let t6 = B1.mean_scaled (B1.run { small_b1 with B1.workers = 6 }) in
  Alcotest.(check bool) "6 threads ~3x of 2 on 2 CPUs" true (t6 > 2. *. t2)

let test_bench1_validates_params () =
  Alcotest.check_raises "workers" (Invalid_argument "Bench1.run: workers <= 0") (fun () ->
      ignore (B1.run { small_b1 with B1.workers = 0 }))

let small_b2 =
  { B2.default with B2.objects_per_thread = 500; replacements_per_round = 150; threads = 2; rounds = 2 }

let test_bench2_runs_and_counts () =
  let r = B2.run small_b2 in
  Alcotest.(check bool) "faults counted" true (r.B2.minor_faults > 0);
  Alcotest.(check bool) "resident pages sane" true (r.B2.resident_pages > 0);
  Alcotest.(check bool) "some sbrk traffic" true (r.B2.sbrk_calls > 0)

let test_bench2_deterministic () =
  let a = B2.run small_b2 and b = B2.run small_b2 in
  Alcotest.(check int) "same faults same seed" a.B2.minor_faults b.B2.minor_faults

let test_bench2_more_threads_more_faults () =
  let f1 = (B2.run { small_b2 with B2.threads = 1 }).B2.minor_faults in
  let f3 = (B2.run { small_b2 with B2.threads = 3 }).B2.minor_faults in
  (* two extra threads add at least their object pages on top of the
     process-startup constant *)
  let per_thread_pages = small_b2.B2.objects_per_thread * 48 / 4096 in
  Alcotest.(check bool) "object pages scale with threads" true
    (f3 - f1 >= 2 * per_thread_pages * 8 / 10)

(* The labels of the runs [run] publishes with metrics armed. *)
let published_labels run =
  Core.Arm.set { Core.Arm.off with Core.Arm.metrics = true };
  Fun.protect
    ~finally:(fun () ->
      Core.Arm.set Core.Arm.off;
      ignore (Core.Arm.drain ()))
    (fun () ->
      run ();
      List.map (fun r -> r.Core.Arm.label) (Core.Arm.drain ()))

(* Armed reports sort runs by label, so two different simulations must
   never share one: the order of equal labels is the pool's. *)
let test_labels_tell_runs_apart () =
  let distinct what run_a run_b =
    match (published_labels run_a, published_labels run_b) with
    | [ a ], [ b ] ->
        if a = b then Alcotest.failf "%s: both runs are labelled %S" what a
    | a, b -> Alcotest.failf "%s: published %d and %d runs" what (List.length a) (List.length b)
  in
  let b1 params () = ignore (B1.run params : B1.result) in
  let b2 params () = ignore (B2.run params : B2.result) in
  distinct "bench1 machine"
    (b1 { small_b1 with B1.machine = Core.Configs.dual_pentium_pro })
    (b1 { small_b1 with B1.machine = Core.Configs.quad_xeon });
  distinct "bench1 arena cap"
    (b1 { small_b1 with B1.factory = Core.Factory.ptmalloc () })
    (b1 { small_b1 with B1.factory = Core.Factory.ptmalloc ~max_arenas:1 () });
  distinct "bench2 replacements"
    (b2 small_b2)
    (b2 { small_b2 with B2.replacements_per_round = small_b2.B2.replacements_per_round + 1 })

let test_paper_predictor_formula () =
  Alcotest.(check (float 1e-9)) "t=1,r=1" (14. +. 1.1 +. 127.6) (B2.paper_predictor ~threads:1 ~rounds:1);
  Alcotest.(check (float 1e-9)) "t=7,r=80" (14. +. (1.1 *. 560.) +. (127.6 *. 7.))
    (B2.paper_predictor ~threads:7 ~rounds:80)

let small_b3 = { B3.default with B3.writes = 50_000; paper_writes = 50_000 }

let test_bench3_aligned_is_clean () =
  let r = B3.run { small_b3 with B3.aligned = true; threads = 4 } in
  Alcotest.(check int) "no shared lines" 0 r.B3.shared_lines;
  Alcotest.(check int) "no ping-pong" 0 r.B3.transfers

let test_bench3_small_objects_share () =
  (* 8-byte objects pack four to a 32-byte line: sharing is certain. *)
  let r = B3.run { small_b3 with B3.aligned = false; threads = 4; object_size = 8 } in
  Alcotest.(check bool) "lines shared" true (r.B3.shared_lines > 0);
  Alcotest.(check bool) "transfers observed" true (r.B3.transfers > 0)

let test_bench3_sharing_costs_time () =
  (* four 8-byte objects pack into at most two 32-byte lines, so at
     least one line is shared whatever the base phase *)
  let aligned = B3.run { small_b3 with B3.aligned = true; threads = 4; object_size = 8 } in
  let normal = B3.run { small_b3 with B3.aligned = false; threads = 4; object_size = 8 } in
  Alcotest.(check bool) "normal slower" true (normal.B3.scaled_s > aligned.B3.scaled_s *. 1.3)

let test_bench3_addresses_returned () =
  let r = B3.run { small_b3 with B3.threads = 3 } in
  Alcotest.(check int) "one object per thread" 3 (List.length r.B3.addresses)

let test_bench3_sweep () =
  let results = B3.sweep { small_b3 with B3.writes = 20_000 } ~sizes:[ 8; 40 ] ~runs:2 in
  Alcotest.(check int) "two sizes" 2 (List.length results);
  List.iter (fun (_, s) -> Alcotest.(check int) "two runs" 2 s.Core.Summary.n) results

(* --- traces ------------------------------------------------------------ *)

let test_trace_generation_valid () =
  let rng = Core.Rng.create ~seed:11 in
  let t = Core.Trace.generate ~rng ~ops:5_000 ~slots:64 () in
  (match Core.Trace.validate t ~slots:64 with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  Alcotest.(check int) "requested length" 5_000 (Array.length t)

let test_trace_validate_rejects () =
  let bad = [| Core.Trace.Free { slot = 0 } |] in
  (match Core.Trace.validate bad ~slots:1 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "free of empty slot accepted")

let prop_trace_always_valid =
  QCheck.Test.make ~name:"generated traces are well-formed" ~count:50
    QCheck.(pair small_int (int_range 1 40))
    (fun (seed, slots) ->
      let rng = Core.Rng.create ~seed in
      let t = Core.Trace.generate ~rng ~ops:400 ~slots () in
      Core.Trace.validate t ~slots = Ok ())

let test_trace_replay_drains () =
  let m = M.create ~seed:1 { M.default_config with M.cpus = 1 } in
  let p = M.create_proc m () in
  let alloc = (Core.Factory.ptmalloc ()).Core.Factory.create p in
  let rng = Core.Rng.create ~seed:12 in
  let trace = Core.Trace.generate ~rng ~ops:2_000 ~slots:100 () in
  ignore (M.spawn p (fun ctx -> ignore (Core.Trace.replay alloc ctx trace ~slots:100)));
  M.run m;
  Alcotest.(check int) "live zero after replay" 0 alloc.Core.Allocator.stats.Core.Astats.live_bytes

(* --- latency probe ------------------------------------------------------ *)

let count_by probe op = List.length (Core.Latency.samples_by probe op)

let test_latency_probe_counts () =
  let m = M.create ~seed:1 { M.default_config with M.cpus = 1 } in
  let p = M.create_proc m () in
  let inner = (Core.Factory.ptmalloc ()).Core.Factory.create p in
  let probe, alloc = Core.Latency.wrap inner in
  ignore
    (M.spawn p (fun ctx ->
         for _ = 1 to 50 do
           let u = alloc.Core.Allocator.malloc ctx 64 in
           alloc.Core.Allocator.free ctx u
         done));
  M.run m;
  Alcotest.(check int) "malloc and free both sampled" 100 (Core.Latency.count probe);
  Alcotest.(check int) "mallocs tagged" 50 (count_by probe Core.Latency.Malloc);
  Alcotest.(check int) "frees tagged" 50 (count_by probe Core.Latency.Free);
  Alcotest.(check bool) "durations positive" true
    (List.for_all (fun (_, d) -> d > 0.) (Core.Latency.samples probe));
  let windows = Core.Latency.windows probe ~window_ns:1e6 in
  Alcotest.(check bool) "windows nonempty" true (windows <> []);
  let d = Core.Latency.drift probe ~window_ns:1e6 in
  Alcotest.(check bool) "drift finite" true (d > 0.)

(* Regression for the probe only seeing malloc: calloc and realloc are
   timed end to end as single tagged samples, with the inner malloc/free
   they perform suppressed — not double-counted, not mis-tagged. *)
let test_latency_probe_tags_derived_ops () =
  let m = M.create ~seed:2 { M.default_config with M.cpus = 1 } in
  let p = M.create_proc m () in
  let inner = (Core.Factory.ptmalloc ()).Core.Factory.create p in
  let probe, alloc = Core.Latency.wrap inner in
  ignore
    (M.spawn p (fun ctx ->
         let a = Core.Latency.calloc probe alloc ctx ~count:4 ~size:32 in
         let a = Core.Latency.realloc probe alloc ctx a 512 in
         alloc.Core.Allocator.free ctx a));
  M.run m;
  Alcotest.(check int) "one calloc sample" 1 (count_by probe Core.Latency.Calloc);
  Alcotest.(check int) "one realloc sample" 1 (count_by probe Core.Latency.Realloc);
  Alcotest.(check int) "inner malloc suppressed" 0 (count_by probe Core.Latency.Malloc);
  (* the one visible free is the caller's own; realloc's internal free
     (if the block moved) must not be recorded *)
  Alcotest.(check int) "only the caller's free" 1 (count_by probe Core.Latency.Free);
  let calloc_ns = List.map snd (Core.Latency.samples_by probe Core.Latency.Calloc) in
  Alcotest.(check bool) "calloc includes zeroing cost" true (List.for_all (fun d -> d > 0.) calloc_ns)

(* --- arrivals ------------------------------------------------------------ *)

let arrival_times process ~seed ~n =
  let gen = Core.Arrivals.create ~rng:(Core.Rng.create ~seed) process in
  List.init n (fun _ -> Core.Arrivals.next gen)

let test_arrivals_deterministic () =
  List.iter
    (fun process ->
      let a = arrival_times process ~seed:42 ~n:500 in
      let b = arrival_times process ~seed:42 ~n:500 in
      Alcotest.(check (list (float 0.))) "same seed, same stream" a b;
      let c = arrival_times process ~seed:43 ~n:500 in
      Alcotest.(check bool) "different seed, different stream" true (a <> c);
      Alcotest.(check bool) "strictly increasing" true
        (fst (List.fold_left (fun (ok, prev) t -> (ok && t > prev, t)) (true, -1.) a)))
    [ Core.Arrivals.Poisson { rate_rps = 50_000. };
      Core.Arrivals.Bursty { base_rps = 10_000.; burst_rps = 100_000.; on_s = 0.001; off_s = 0.004 };
      Core.Arrivals.Diurnal { low_rps = 10_000.; high_rps = 80_000.; period_s = 0.01 };
    ]

let test_arrivals_mean_rate () =
  (* Long-run empirical rate n / t_last within 5% of the configured
     mean for every process shape. *)
  List.iter
    (fun process ->
      let n = 40_000 in
      let times = arrival_times process ~seed:7 ~n in
      let t_last = List.nth times (n - 1) in
      let measured = float_of_int n /. (t_last /. 1e9) in
      let expected = Core.Arrivals.mean_rps process in
      let err = Float.abs (measured -. expected) /. expected in
      Alcotest.(check bool)
        (Printf.sprintf "%s: measured %.0f within 5%% of %.0f"
           (Core.Arrivals.to_string process) measured expected)
        true (err < 0.05))
    [ Core.Arrivals.Poisson { rate_rps = 50_000. };
      Core.Arrivals.Bursty { base_rps = 20_000.; burst_rps = 80_000.; on_s = 0.002; off_s = 0.002 };
      Core.Arrivals.Diurnal { low_rps = 20_000.; high_rps = 60_000.; period_s = 0.02 };
    ]

let test_arrivals_parse_roundtrip () =
  List.iter
    (fun s ->
      let p = Core.Arrivals.of_string s in
      Alcotest.(check string) "roundtrip" s (Core.Arrivals.to_string p))
    [ "poisson:50000"; "bursty:10000:100000:0.001:0.004"; "diurnal:10000:80000:0.01" ];
  (match Core.Arrivals.of_string "nonesuch:1" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad spec accepted")

(* --- server -------------------------------------------------------------- *)

let test_server_runs_and_drains () =
  let r =
    Core.Server.run
      { Core.Server.default with
        Core.Server.threads = 3;
        requests_per_thread = 150;
        connections = 32;
        probe_latency = true;
      }
  in
  Alcotest.(check bool) "throughput positive" true (r.Core.Server.requests_per_second > 0.);
  Alcotest.(check int) "three workers" 3 (List.length r.Core.Server.per_thread_s);
  Alcotest.(check bool) "cross-thread frees happen" true (r.Core.Server.foreign_frees > 0);
  match r.Core.Server.latency with
  | Some probe ->
      Alcotest.(check bool) "latency measured" true (probe.Core.Server.malloc_mean_ns > 0.);
      Alcotest.(check bool) "per-op stats include the derived ops" true
        (List.exists (fun o -> o.Core.Server.op = "calloc") probe.Core.Server.op_stats
        && List.exists (fun o -> o.Core.Server.op = "free") probe.Core.Server.op_stats)
  | None -> Alcotest.fail "latency probe requested"

(* --- open-loop server ----------------------------------------------------- *)

let small_open ?(rate = 150_000.) ?(model = Core.Server.Thread_pool { queue_capacity = 256 }) () =
  { Core.Server.default with
    Core.Server.threads = 3;
    connections = 32;
    open_loop =
      Some
        { Core.Server.default_open with
          Core.Server.process = Core.Arrivals.Poisson { rate_rps = rate };
          total_requests = 1_200;
          model;
          churn_mean_requests = 20;
        };
  }

let request_stats r =
  match r.Core.Server.requests with
  | Some s -> s
  | None -> Alcotest.fail "open-loop run must report request stats"

let test_server_open_loop_pool () =
  let r = Core.Server.run (small_open ()) in
  let s = request_stats r in
  Alcotest.(check int) "all arrivals accounted" 1_200 (s.Core.Server.completed + s.Core.Server.dropped);
  Alcotest.(check bool) "some completions" true (s.Core.Server.completed > 0);
  Alcotest.(check bool) "throughput positive" true (s.Core.Server.throughput_rps > 0.);
  Alcotest.(check bool) "offered rate near configured" true
    (Float.abs (s.Core.Server.offered_rps -. 150_000.) /. 150_000. < 0.25);
  Alcotest.(check bool) "percentiles ordered" true
    (s.Core.Server.p50_ns <= s.Core.Server.p95_ns
    && s.Core.Server.p95_ns <= s.Core.Server.p99_ns
    && s.Core.Server.p99_ns <= s.Core.Server.max_ns);
  Alcotest.(check bool) "connections churn" true (s.Core.Server.churned > 0);
  Alcotest.(check int) "class counts sum to completions" s.Core.Server.completed
    (List.fold_left (fun acc (_, n) -> acc + n) 0 s.Core.Server.by_class);
  Alcotest.(check bool) "cross-thread frees happen" true (r.Core.Server.foreign_frees > 0)

let test_server_open_loop_deterministic () =
  let a = Core.Server.run (small_open ()) in
  let b = Core.Server.run (small_open ()) in
  let sa = request_stats a and sb = request_stats b in
  Alcotest.(check int) "same completions" sa.Core.Server.completed sb.Core.Server.completed;
  Alcotest.(check (float 0.)) "same p99" sa.Core.Server.p99_ns sb.Core.Server.p99_ns;
  Alcotest.(check (float 0.)) "same makespan" a.Core.Server.elapsed_s b.Core.Server.elapsed_s

let test_server_thread_per_connection () =
  let r = Core.Server.run (small_open ~model:Core.Server.Thread_per_connection ()) in
  let s = request_stats r in
  Alcotest.(check int) "nothing dropped without a bounded queue" 0 s.Core.Server.dropped;
  Alcotest.(check int) "all arrivals served" 1_200 s.Core.Server.completed;
  Alcotest.(check bool) "churn replaces threads" true (s.Core.Server.churned > 0);
  Alcotest.(check bool) "p99 positive" true (s.Core.Server.p99_ns > 0.)

let test_server_overload_raises_tail () =
  (* Same workload far below and far beyond capacity: the open loop
     must show queueing delay — the closed loop never could. *)
  let light = request_stats (Core.Server.run (small_open ~rate:30_000. ())) in
  let heavy = request_stats (Core.Server.run (small_open ~rate:2_000_000. ())) in
  Alcotest.(check bool)
    (Printf.sprintf "overloaded p99 (%.0f ns) well above light-load p99 (%.0f ns)"
       heavy.Core.Server.p99_ns light.Core.Server.p99_ns)
    true
    (heavy.Core.Server.p99_ns > 3. *. light.Core.Server.p99_ns)

(* --- Larson -------------------------------------------------------------- *)

let small_larson =
  { Core.Larson.default with
    Core.Larson.threads = 2;
    rounds = 2;
    slots_per_thread = 200;
    ops_per_round = 300;
  }

let test_larson_runs_and_drains () =
  let r = Core.Larson.run small_larson in
  Alcotest.(check int) "drains" 0 r.Core.Larson.live_bytes;
  Alcotest.(check bool) "throughput positive" true (r.Core.Larson.throughput_ops_s > 0.);
  Alcotest.(check bool) "faults counted" true (r.Core.Larson.minor_faults > 0)

let test_larson_deterministic () =
  let a = Core.Larson.run small_larson and b = Core.Larson.run small_larson in
  Alcotest.(check int) "same faults" a.Core.Larson.minor_faults b.Core.Larson.minor_faults;
  Alcotest.(check (float 1e-9)) "same elapsed" a.Core.Larson.elapsed_s b.Core.Larson.elapsed_s

let test_larson_size_range_respected () =
  (* sizes beyond the dlheap small-bin limit exercise large bins too *)
  let r =
    Core.Larson.run { small_larson with Core.Larson.min_size = 600; max_size = 3_000 }
  in
  Alcotest.(check int) "drains with large sizes" 0 r.Core.Larson.live_bytes

let test_larson_validates_params () =
  Alcotest.check_raises "size range" (Invalid_argument "Larson.run: bad size range") (fun () ->
      ignore (Core.Larson.run { small_larson with Core.Larson.min_size = 10; max_size = 5 }))

let test_factory_by_name () =
  List.iter
    (fun name ->
      match Core.Factory.by_name name with
      | Some f -> Alcotest.(check string) "label matches" name f.Core.Factory.label
      | None -> Alcotest.fail ("missing factory " ^ name))
    Core.Factory.names;
  Alcotest.(check bool) "unknown rejected" true (Core.Factory.by_name "nonesuch" = None)

let suite =
  [ Alcotest.test_case "bench1 structure" `Quick test_bench1_structure;
    Alcotest.test_case "bench1 scaling math" `Quick test_bench1_scaling_math;
    Alcotest.test_case "bench1 process mode" `Quick test_bench1_process_mode;
    Alcotest.test_case "bench1 thread scaling" `Quick test_bench1_more_threads_take_longer;
    Alcotest.test_case "bench1 validates params" `Quick test_bench1_validates_params;
    Alcotest.test_case "bench2 runs" `Quick test_bench2_runs_and_counts;
    Alcotest.test_case "bench2 deterministic" `Quick test_bench2_deterministic;
    Alcotest.test_case "bench2 thread scaling" `Quick test_bench2_more_threads_more_faults;
    Alcotest.test_case "run labels tell runs apart" `Quick test_labels_tell_runs_apart;
    Alcotest.test_case "paper predictor formula" `Quick test_paper_predictor_formula;
    Alcotest.test_case "bench3 aligned clean" `Quick test_bench3_aligned_is_clean;
    Alcotest.test_case "bench3 small objects share" `Quick test_bench3_small_objects_share;
    Alcotest.test_case "bench3 sharing costs" `Quick test_bench3_sharing_costs_time;
    Alcotest.test_case "bench3 addresses" `Quick test_bench3_addresses_returned;
    Alcotest.test_case "bench3 sweep" `Quick test_bench3_sweep;
    Alcotest.test_case "trace generation valid" `Quick test_trace_generation_valid;
    Alcotest.test_case "trace validate rejects" `Quick test_trace_validate_rejects;
    QCheck_alcotest.to_alcotest prop_trace_always_valid;
    Alcotest.test_case "trace replay drains" `Quick test_trace_replay_drains;
    Alcotest.test_case "latency probe" `Quick test_latency_probe_counts;
    Alcotest.test_case "latency probe derived ops" `Quick test_latency_probe_tags_derived_ops;
    Alcotest.test_case "arrivals deterministic" `Quick test_arrivals_deterministic;
    Alcotest.test_case "arrivals mean rate" `Quick test_arrivals_mean_rate;
    Alcotest.test_case "arrivals parse roundtrip" `Quick test_arrivals_parse_roundtrip;
    Alcotest.test_case "server workload" `Quick test_server_runs_and_drains;
    Alcotest.test_case "server open loop (pool)" `Quick test_server_open_loop_pool;
    Alcotest.test_case "server open loop deterministic" `Quick test_server_open_loop_deterministic;
    Alcotest.test_case "server thread-per-connection" `Quick test_server_thread_per_connection;
    Alcotest.test_case "server overload raises tail" `Quick test_server_overload_raises_tail;
    Alcotest.test_case "larson runs and drains" `Quick test_larson_runs_and_drains;
    Alcotest.test_case "larson deterministic" `Quick test_larson_deterministic;
    Alcotest.test_case "larson size range" `Quick test_larson_size_range_respected;
    Alcotest.test_case "larson validates params" `Quick test_larson_validates_params;
    Alcotest.test_case "factory by name" `Quick test_factory_by_name;
  ]

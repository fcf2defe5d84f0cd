module Bench1 = Mb_workload.Bench1
module Server = Mb_workload.Server
module Trace = Mb_workload.Trace
module Factory = Mb_workload.Factory
module Obs_hook = Mb_workload.Obs_hook
module Configs = Mb_machine.Configs
module Machine = Mb_machine.Machine
module Summary = Mb_stats.Summary
module Series = Mb_stats.Series
module Table = Mb_report.Table
module Plot = Mb_report.Plot
module A = Mb_alloc.Allocator
module Fault = Mb_fault.Injector
open Exp_common

let ablate_spin opts =
  (* The same single-lock dlmalloc, on the same 2-CPU hardware, with the
     only difference being whether contended mutexes spin before
     blocking. *)
  let machine_spin = Configs.dual_pentium_pro in
  let machine_nospin = { machine_spin with Machine.spin_cycles = 0; mutex_handoff = true } in
  let params machine =
    { Bench1.default with
      Bench1.machine;
      seed = opts.seed;
      iterations = pick opts ~full:30_000 ~quick:6_000;
      workers = 2;
      size = 512;
      factory = Factory.serial_glibc ();
    }
  in
  let spin, _ = bench1_runs (params machine_spin) ~runs:(pick opts ~full:3 ~quick:1) in
  let nospin, _ = bench1_runs (params machine_nospin) ~runs:(pick opts ~full:3 ~quick:1) in
  let s = mean_of spin and n = mean_of nospin in
  let title = "Ablation: adaptive spin vs immediate block (single-lock allocator, 2 threads, 2 CPUs)" in
  let tbl = Table.make ~title ~header:[ "mutex policy"; "mean elapsed (s)" ] in
  Table.row tbl [ "spin then block (Linux-like)"; Table.cell_f2 s ];
  Table.row tbl [ "block immediately (Solaris 2.6-like)"; Table.cell_f2 n ];
  { Outcome.id = "ablate-spin";
    title;
    text = Table.to_string tbl;
    series = [];
    checks =
      [ Outcome.check "blocking convoy costs more than spinning" (n > s *. 1.5)
          "no-spin %.1f s vs spin %.1f s (%.1fx)" n s (n /. s);
      ];
  }

let ablate_arenas opts =
  let machine = Configs.quad_xeon in
  let params factory =
    { Bench1.default with
      Bench1.machine;
      seed = opts.seed;
      iterations = pick opts ~full:30_000 ~quick:6_000;
      workers = 4;
      size = 512;
      factory;
    }
  in
  let costs = Mb_alloc.Costs.scaled Mb_alloc.Costs.glibc Exp_bench1.xeon_cost_scale in
  let unlimited, _ =
    bench1_runs (params (Factory.ptmalloc ~costs ())) ~runs:(pick opts ~full:3 ~quick:1)
  in
  let capped, capped_results =
    bench1_runs (params (Factory.ptmalloc ~costs ~max_arenas:1 ())) ~runs:(pick opts ~full:3 ~quick:1)
  in
  let u = mean_of unlimited and c = mean_of capped in
  let blocks = List.fold_left (fun acc r -> acc + r.Bench1.blocks) 0 capped_results in
  let title = "Ablation: ptmalloc with unlimited arenas vs capped at one (4 threads, 4 CPUs)" in
  let tbl = Table.make ~title ~header:[ "arena policy"; "mean elapsed (s)"; "mutex blocks" ] in
  Table.row tbl [ "grow on contention (glibc)"; Table.cell_f2 u; "-" ];
  Table.row tbl [ "single arena"; Table.cell_f2 c; string_of_int blocks ];
  { Outcome.id = "ablate-arenas";
    title;
    text = Table.to_string tbl;
    series = [];
    checks =
      [ Outcome.check "arena growth is what buys scalability" (c > u *. 1.4)
          "capped %.1f s vs unlimited %.1f s (%.1fx)" c u (c /. u);
      ];
  }

let ablate_atomics opts =
  let base = Configs.quad_xeon in
  let costs = Mb_alloc.Costs.scaled Mb_alloc.Costs.glibc Exp_bench1.xeon_cost_scale in
  let gap atomic_cycles =
    let machine = { base with Machine.atomic_cycles } in
    let params =
      { Bench1.default with
        Bench1.machine;
        seed = opts.seed;
        iterations = pick opts ~full:25_000 ~quick:6_000;
        workers = 2;
        size = 512;
        factory = Factory.ptmalloc ~costs ();
      }
    in
    let thr, _ = bench1_runs { params with Bench1.mode = Bench1.Threads } ~runs:1 in
    let prc, _ = bench1_runs { params with Bench1.mode = Bench1.Processes } ~runs:1 in
    mean_of thr /. mean_of prc
  in
  let points = List.map (fun a -> (a, gap a)) [ 2; 14; 26; 50 ] in
  let title = "Ablation: thread-vs-process gap as a function of atomic lock cost (Tables 1/3 mechanism)" in
  let tbl = Table.make ~title ~header:[ "atomic cycles"; "threads/processes ratio" ] in
  List.iter (fun (a, g) -> Table.row tbl [ string_of_int a; Printf.sprintf "%.3f" g ]) points;
  let monotone =
    let rec inc = function
      | (_, g1) :: ((_, g2) :: _ as rest) -> g2 >= g1 -. 0.01 && inc rest
      | _ -> true
    in
    inc points
  in
  { Outcome.id = "ablate-atomics";
    title;
    text = Table.to_string tbl;
    series = [ Series.make ~label:"gap" (List.map (fun (a, g) -> (float_of_int a, g)) points) ];
    checks =
      [ Outcome.check "gap grows with atomic cost" monotone "%s"
          (String.concat " " (List.map (fun (a, g) -> Printf.sprintf "%d:%.3f" a g) points));
        Outcome.check "stub-cost locks close the gap" (snd (List.hd points) < 1.05)
          "gap at 2 cycles = %.3f" (snd (List.hd points));
      ];
  }

let shootout opts =
  let machine = Configs.dual_pentium_pro in
  let factories =
    [ Factory.ptmalloc (); Factory.serial_glibc (); Factory.serial_solaris (); Factory.perthread ();
      Factory.slab (); Factory.hoard ();
    ]
  in
  let threads = pick opts ~full:[ 1; 2; 4; 8 ] ~quick:[ 1; 2; 4 ] in
  let time factory workers =
    let params =
      { Bench1.default with
        Bench1.machine;
        seed = opts.seed;
        iterations = pick opts ~full:20_000 ~quick:5_000;
        workers;
        size = 512;
        factory;
      }
    in
    Bench1.mean_scaled (Bench1.run params)
  in
  let rows = List.map (fun f -> (f.Factory.label, List.map (time f) threads)) factories in
  let title = "Allocator shootout: mean scaled time (s), 512B pairs, dual Pentium Pro" in
  let tbl =
    Table.make ~title ~header:("allocator" :: List.map (fun t -> Printf.sprintf "%dT" t) threads)
  in
  List.iter (fun (label, times) -> Table.row tbl (label :: List.map Table.cell_f2 times)) rows;
  let at label t =
    let times = List.assoc label rows in
    List.nth times (match List.find_index (( = ) t) threads with Some i -> i | None -> 0)
  in
  let last = List.nth threads (List.length threads - 1) in
  { Outcome.id = "shootout";
    title;
    text = Table.to_string tbl;
    series =
      List.map
        (fun (label, times) ->
          Series.make ~label (List.map2 (fun t v -> (float_of_int t, v)) threads times))
        rows;
    checks =
      [ Outcome.check "single lock loses to ptmalloc under concurrency"
          (at "serial-glibc" last > at "ptmalloc" last *. 1.3)
          "serial %.1f s vs ptmalloc %.1f s at %d threads" (at "serial-glibc" last)
          (at "ptmalloc" last) last;
        Outcome.check "per-thread caches win at scale" (at "perthread" last < at "ptmalloc" last *. 1.05)
          "perthread %.1f s vs ptmalloc %.1f s at %d threads" (at "perthread" last)
          (at "ptmalloc" last) last;
        Outcome.check "hoard scales past the shared-arena design"
          (at "hoard" last < at "ptmalloc" last)
          "hoard %.1f s vs ptmalloc %.1f s at %d threads" (at "hoard" last) (at "ptmalloc" last) last;
      ];
  }

(* The paper's section 3: pre-2.3.5 kernels serialized VM syscalls behind
   the big kernel lock; the authors patched sbrk to avoid it. A
   syscall-heavy load (requests above the mmap threshold, so every
   operation is an mmap+munmap pair) shows what the lock costs. *)
let ablate_bkl opts =
  let time with_bkl =
    let machine = { Configs.quad_xeon with Machine.vm_syscalls_take_bkl = with_bkl } in
    let m = Machine.create ~seed:opts.seed machine in
    let proc = Machine.create_proc m ~name:"bkl" () in
    let alloc = (Factory.ptmalloc ()).Factory.create proc in
    let iters = pick opts ~full:2_000 ~quick:500 in
    let workers =
      List.init 4 (fun i ->
          Machine.spawn proc ~name:(string_of_int i) (fun ctx ->
              let fault = Machine.ctx_fault ctx in
              for _ = 1 to iters do
                match alloc.A.malloc ctx (256 * 1024) with
                | u -> alloc.A.free ctx u
                | exception Fault.Alloc_failure _ -> Fault.note_degraded fault
              done))
    in
    Machine.run m;
    Obs_hook.publish m [ alloc ] ~label:(fun () ->
        Printf.sprintf "ablate-bkl %s bkl=%b it=%d seed=%d" (Configs.label machine) with_bkl iters
          opts.seed);
    List.fold_left (fun acc w -> acc +. (Machine.elapsed_ns w /. 1e6)) 0. workers
      /. float_of_int (List.length workers)
  in
  let locked = time true and unlocked = time false in
  let title = "Ablation: VM syscalls behind the big kernel lock (4 threads of mmap-heavy malloc)" in
  let tbl = Table.make ~title ~header:[ "kernel"; "mean elapsed (ms, simulated)" ] in
  Table.row tbl [ "BKL on every mmap/munmap (pre-2.3.5)"; Table.cell_f2 locked ];
  Table.row tbl [ "lock-free VM path (the paper's patch)"; Table.cell_f2 unlocked ];
  { Outcome.id = "ablate-bkl";
    title;
    text = Table.to_string tbl;
    series = [];
    checks =
      [ Outcome.check "kernel lock serializes allocation syscalls" (locked > unlocked *. 1.15)
          "with BKL %.1f ms vs without %.1f ms (%.2fx)" locked unlocked (locked /. unlocked);
      ];
  }

(* Section 3's address-space story: "sbrk is not smart enough to allocate
   around pre-existing mappings ... later versions (post 2.1.3) of glibc
   have special logic to retry an arena allocation with mmap if sbrk
   fails." We crowd the brk zone with a library mapping and compare the
   two libc generations. *)
let ablate_crowding opts =
  let crowded_vm =
    (* Leave the heap only 24 pages before it runs into a mapping. *)
    { Mb_vm.Address_space.linux_x86 with
      Mb_vm.Address_space.brk_ceiling =
        Mb_vm.Address_space.linux_x86.Mb_vm.Address_space.brk_base + (24 * 4096);
    }
  in
  let machine = { Configs.dual_pentium_pro with Machine.vm = crowded_vm } in
  let live_blocks = pick opts ~full:3_000 ~quick:800 in
  let run_generation ~mmap_fallback =
    let m = Machine.create ~seed:opts.seed machine in
    let proc = Machine.create_proc m ~name:"crowded" () in
    let params = { Mb_alloc.Dlheap.default_params with Mb_alloc.Dlheap.mmap_fallback } in
    (* One arena: growing a subheap list is ptmalloc's own escape hatch;
       the generations differ in what the *main* heap does when sbrk is
       blocked. *)
    let pt = Mb_alloc.Ptmalloc.make proc ~params ~max_arenas:1 () in
    let alloc = Mb_alloc.Ptmalloc.allocator pt in
    let outcome = ref `Ok in
    let th =
      Machine.spawn proc (fun ctx ->
          (try
             (* A server-like footprint well past the 96KB brk window. *)
             let blocks = List.init live_blocks (fun _ -> alloc.A.malloc ctx 512) in
             List.iter (fun u -> alloc.A.free ctx u) blocks
           with Fault.Alloc_failure { who; bytes } ->
             outcome := `Oom (Printf.sprintf "%s: out of memory (%d bytes)" who bytes));
          ())
    in
    Machine.run m;
    Obs_hook.publish m [ alloc ] ~label:(fun () ->
        Printf.sprintf "ablate-crowding %s mmap_fallback=%b blocks=%d seed=%d"
          (Configs.label machine) mmap_fallback live_blocks opts.seed);
    let grew = alloc.A.stats.Mb_alloc.Astats.grow_failures in
    let mmapped = alloc.A.stats.Mb_alloc.Astats.mmapped_chunks in
    (!outcome, grew, mmapped, Machine.elapsed_ns th /. 1e6)
  in
  let modern, m_grew, m_mmapped, m_ms = run_generation ~mmap_fallback:true in
  let old, o_grew, _, _ = run_generation ~mmap_fallback:false in
  let title =
    "Ablation: crowded address space — post-2.1.3 mmap retry vs the older libc (96KB brk window)"
  in
  let tbl = Table.make ~title ~header:[ "libc"; "result"; "sbrk failures"; "mmap fallbacks" ] in
  Table.row tbl
    [ "post-2.1.3 (retry with mmap)";
      (match modern with `Ok -> Printf.sprintf "completes in %.1f ms" m_ms | `Oom _ -> "OOM");
      string_of_int m_grew; string_of_int m_mmapped;
    ];
  Table.row tbl
    [ "pre-2.1.3 (sbrk only)";
      (match old with `Ok -> "completes" | `Oom _ -> "out of memory");
      string_of_int o_grew; "-";
    ];
  { Outcome.id = "ablate-crowding";
    title;
    text = Table.to_string tbl;
    series = [];
    checks =
      [ Outcome.check "modern libc survives a crowded brk zone"
          (modern = `Ok && m_mmapped > 0)
          "completed with %d sbrk failures bridged by %d mmaps" m_grew m_mmapped;
        Outcome.check "older libc fails where the paper says it does"
          (match old with `Oom _ -> true | `Ok -> false)
          "sbrk-only allocation aborts after %d growth failures" o_grew;
      ];
  }

(* The glibc-2.3 evolution: fastbins skip coalescing for small chunks.
   Measured on the paper's benchmark-1 loop at the server-typical 40-byte
   size. *)
let ablate_fastbins opts =
  let time use_fastbins =
    let params = { Mb_alloc.Dlheap.default_params with Mb_alloc.Dlheap.use_fastbins } in
    let m = Machine.create ~seed:opts.seed Configs.dual_pentium_pro in
    let proc = Machine.create_proc m ~name:"fb" () in
    let pt = Mb_alloc.Ptmalloc.make proc ~params () in
    let alloc = Mb_alloc.Ptmalloc.allocator pt in
    let iters = pick opts ~full:30_000 ~quick:6_000 in
    let th =
      Machine.spawn proc (fun ctx ->
          let fault = Machine.ctx_fault ctx in
          for _ = 1 to iters do
            match alloc.A.malloc ctx 40 with
            | u -> alloc.A.free ctx u
            | exception Fault.Alloc_failure _ -> Fault.note_degraded fault
          done)
    in
    Machine.run m;
    (match alloc.A.validate () with
    | Ok () -> ()
    | Error msg -> failwith ("ablate-fastbins: " ^ msg));
    Obs_hook.publish m [ alloc ] ~label:(fun () ->
        Printf.sprintf "ablate-fastbins %s fastbins=%b it=%d seed=%d"
          (Configs.label Configs.dual_pentium_pro) use_fastbins iters opts.seed);
    Machine.elapsed_ns th /. float_of_int iters
  in
  let classic = time false and fast = time true in
  let title = "Ablation: glibc-2.3-style fastbins on the 40-byte malloc/free loop (dual PPro)" in
  let tbl = Table.make ~title ~header:[ "allocator"; "ns per malloc/free pair (simulated)" ] in
  Table.row tbl [ "glibc 2.0/2.1 (study subject)"; Printf.sprintf "%.0f" classic ];
  Table.row tbl [ "with fastbins"; Printf.sprintf "%.0f" fast ];
  { Outcome.id = "ablate-fastbins";
    title;
    text = Table.to_string tbl;
    series = [];
    checks =
      [ Outcome.check "fastbins shorten the small-chunk path" (fast < classic *. 0.9)
          "%.0f ns vs %.0f ns per pair (%.0f%% saved)" fast classic
          ((classic -. fast) /. classic *. 100.);
      ];
  }

let latency_uptime opts =
  let params =
    { Server.default with
      Server.seed = opts.seed;
      threads = 4;
      requests_per_thread = pick opts ~full:4_000 ~quick:800;
      probe_latency = true;
    }
  in
  let r = Server.run params in
  let probe = match r.Server.latency with Some p -> p | None -> assert false in
  let title = "Future work: malloc latency over server uptime (ptmalloc, 4-thread server)" in
  let series =
    [ Series.make ~label:"window mean latency (ns)"
        (List.map (fun (t, v) -> (t /. 1e6, v)) probe.Server.window_means);
    ]
  in
  let plot = Plot.render ~title ~x_label:"uptime (ms)" ~y_label:"malloc latency (ns)" series in
  { Outcome.id = "latency-uptime";
    title;
    text =
      plot
      ^ Printf.sprintf "\nmean=%.0f ns  p99=%.0f ns  drift(last/first)=%.2f\n"
          probe.Server.malloc_mean_ns probe.Server.malloc_p99_ns probe.Server.drift;
    series;
    checks =
      [ Outcome.check "latency does not drift with uptime"
          (probe.Server.drift < 1.5 && probe.Server.drift > 0.5)
          "drift %.2f (paper expects ~no change)" probe.Server.drift;
      ];
  }

(* The paper's Table 2 collapse, rediscovered as a latency cliff: drive
   the server open loop at a rising fraction of its measured closed-loop
   capacity and watch p99 walk off a cliff as each allocator saturates.
   All five allocators face the *same* offered loads (calibrated once,
   with ptmalloc), so the sweep is an apples-to-apples race: the
   allocator that saturates first shows the cliff at a lower load. *)
let server_knee opts =
  let machine = Configs.quad_xeon in
  let threads = 4 in
  let connections = 128 in
  (* Capacity calibration: a closed-loop run can never overshoot the
     server, so its throughput is (a slight underestimate of) the
     saturation rate. Deterministic, so the derived offered loads are
     too. *)
  let calib =
    Server.run
      { Server.default with
        Server.machine;
        seed = opts.seed;
        threads;
        connections;
        requests_per_thread = pick opts ~full:2_000 ~quick:500;
      }
  in
  let capacity_rps = calib.Server.requests_per_second in
  let loads = pick opts ~full:[ 0.3; 0.6; 0.9; 1.2; 1.5 ] ~quick:[ 0.4; 0.9; 1.4 ] in
  let total_requests = pick opts ~full:40_000 ~quick:1_500 in
  let factories =
    [ Factory.ptmalloc (); Factory.serial_glibc (); Factory.perthread (); Factory.slab ();
      Factory.hoard ();
    ]
  in
  let cell factory load =
    let r =
      Server.run
        { Server.default with
          Server.machine;
          seed = opts.seed;
          threads;
          connections;
          factory;
          open_loop =
            Some
              { Server.process = Mb_workload.Arrivals.Poisson { rate_rps = capacity_rps *. load };
                total_requests;
                model = Server.Thread_pool { queue_capacity = 2_048 };
                churn_mean_requests = 64;
                read_pct = 60;
                write_pct = 25;
              };
        }
    in
    match r.Server.requests with Some s -> s | None -> assert false
  in
  let rows = List.map (fun f -> (f.Factory.label, List.map (cell f) loads)) factories in
  let title =
    Printf.sprintf
      "Server saturation knee: open-loop Poisson sweep at fractions of closed-loop capacity \
       (%.0f req/s, 4 threads, quad Xeon)"
      capacity_rps
  in
  let tbl =
    Table.make ~title
      ~header:
        [ "allocator"; "load"; "offered rps"; "tput rps"; "drop%"; "p50 us"; "p95 us"; "p99 us" ]
  in
  List.iter
    (fun (label, cells) ->
      List.iter2
        (fun load (s : Server.request_stats) ->
          Table.row tbl
            [ label;
              Printf.sprintf "%.1fx" load;
              Printf.sprintf "%.0f" s.Server.offered_rps;
              Printf.sprintf "%.0f" s.Server.throughput_rps;
              Printf.sprintf "%.1f"
                (100. *. float_of_int s.Server.dropped
                /. float_of_int (max 1 (s.Server.completed + s.Server.dropped)));
              Table.cell_f2 (s.Server.p50_ns /. 1e3);
              Table.cell_f2 (s.Server.p95_ns /. 1e3);
              Table.cell_f2 (s.Server.p99_ns /. 1e3);
            ])
        loads cells)
    rows;
  let p99s cells = List.map (fun (s : Server.request_stats) -> s.Server.p99_ns /. 1e3) cells in
  let first xs = List.hd xs and last xs = List.nth xs (List.length xs - 1) in
  let cliff_ratio cells =
    let ps = p99s cells in
    last ps /. Float.max 1e-9 (first ps)
  in
  let cliffs = List.map (fun (label, cells) -> (label, cliff_ratio cells)) rows in
  let heaviest = List.map (fun (label, cells) -> (label, last cells)) rows in
  let pt_light = List.hd (List.assoc "ptmalloc" rows) in
  { Outcome.id = "server-knee";
    title;
    text = Table.to_string tbl;
    series =
      List.map
        (fun (label, cells) ->
          Series.make ~label (List.map2 (fun l p -> (l, p)) loads (p99s cells)))
        rows;
    checks =
      [ Outcome.check "a latency cliff is visible past the knee"
          (List.exists (fun (_, r) -> r > 4.) cliffs)
          "p99 growth lightest->heaviest: %s"
          (String.concat ", " (List.map (fun (l, r) -> Printf.sprintf "%s %.1fx" l r) cliffs));
        Outcome.check "below the knee the server keeps up with the offered load"
          (pt_light.Server.throughput_rps > 0.9 *. pt_light.Server.offered_rps
          && pt_light.Server.dropped = 0)
          "ptmalloc at %.1fx: %.0f rps served of %.0f offered" (first loads)
          pt_light.Server.throughput_rps pt_light.Server.offered_rps;
        Outcome.check "past the knee at least one allocator falls behind the offered load"
          (List.exists
             (fun (_, (s : Server.request_stats)) ->
               s.Server.throughput_rps < 0.95 *. s.Server.offered_rps || s.Server.dropped > 0)
             heaviest)
          "heaviest load %.1fx capacity" (last loads);
      ];
  }

let trace_replay opts =
  let machine = Configs.quad_xeon in
  let ops = pick opts ~full:30_000 ~quick:6_000 in
  let factories =
    [ Factory.ptmalloc (); Factory.serial_glibc (); Factory.perthread (); Factory.slab () ]
  in
  let replay_with factory =
    let m = Machine.create ~seed:opts.seed machine in
    let proc = Machine.create_proc m ~name:"replay" () in
    let alloc = factory.Factory.create proc in
    let rng = Mb_prng.Rng.create ~seed:(opts.seed + 5) in
    let trace = Trace.generate ~rng ~ops ~slots:1_000 () in
    let th =
      Machine.spawn proc (fun ctx -> ignore (Trace.replay alloc ctx trace ~slots:1_000))
    in
    Machine.run m;
    (match alloc.A.validate () with
    | Ok () -> ()
    | Error msg -> failwith (factory.Factory.label ^ ": " ^ msg));
    Obs_hook.publish m [ alloc ] ~label:(fun () ->
        Printf.sprintf "trace-replay %s %s ops=%d seed=%d" factory.Factory.label
          (Configs.label machine) ops opts.seed);
    (factory.Factory.label, Machine.elapsed_ns th /. 1e9, alloc.A.stats.Mb_alloc.Astats.live_bytes)
  in
  let rows = List.map replay_with factories in
  let title = "Future work: one server allocation trace replayed on each allocator (1 thread)" in
  let tbl = Table.make ~title ~header:[ "allocator"; "elapsed (s)"; "live bytes at end" ] in
  List.iter (fun (l, s, live) -> Table.row tbl [ l; Table.cell_f s; string_of_int live ]) rows;
  { Outcome.id = "trace-replay";
    title;
    text = Table.to_string tbl;
    series = [];
    checks =
      [ Outcome.check "every allocator drains the trace to zero live bytes"
          (List.for_all (fun (_, _, live) -> live = 0) rows)
          "%s"
          (String.concat ", " (List.map (fun (l, _, live) -> Printf.sprintf "%s:%d" l live) rows));
      ];
  }

(* The original Larson & Krishnan benchmark (the paper's reference [5]),
   of which benchmark 2 is the simplified form: random request sizes,
   thread recycling, slot churn. Checks the paper's justification for
   the simplification — fixing the size doesn't change the leak story —
   and gives the allocators a mixed-size contest. *)
let larson opts =
  let module L = Mb_workload.Larson in
  let base =
    { L.default with
      L.seed = opts.seed;
      rounds = pick opts ~full:3 ~quick:2;
      ops_per_round = pick opts ~full:2_000 ~quick:600;
      slots_per_thread = pick opts ~full:1_000 ~quick:400;
    }
  in
  let run_with factory = L.run { base with L.factory } in
  let rows =
    List.map
      (fun f -> (f.Factory.label, run_with f))
      [ Factory.ptmalloc (); Factory.serial_glibc (); Factory.perthread (); Factory.hoard () ]
  in
  let title = "Larson & Krishnan benchmark (the paper's [5], unsimplified: random 10-500B sizes)" in
  let tbl =
    Table.make ~title
      ~header:[ "allocator"; "ops/s (simulated)"; "minor faults"; "mapped KB"; "foreign frees" ]
  in
  List.iter
    (fun (label, (r : L.result)) ->
      Table.row tbl
        [ label; Printf.sprintf "%.0f" r.L.throughput_ops_s; string_of_int r.L.minor_faults;
          string_of_int (r.L.mapped_bytes / 1024); string_of_int r.L.foreign_frees;
        ])
    rows;
  let get label = List.assoc label rows in
  let pt = get "ptmalloc" and serial = get "serial-glibc" and hoard = get "hoard" in
  (* rough footprint floor: live slots x mean chunk size *)
  let floor_bytes =
    base.L.slots_per_thread * base.L.threads * ((base.L.min_size + base.L.max_size / 2) + 8)
  in
  { Outcome.id = "larson";
    title;
    text = Table.to_string tbl;
    series = [];
    checks =
      [ Outcome.check "all allocators drain to zero live bytes"
          (List.for_all (fun (_, (r : L.result)) -> r.L.live_bytes = 0) rows)
          "%s"
          (String.concat ", "
             (List.map (fun (l, (r : L.result)) -> Printf.sprintf "%s:%d" l r.L.live_bytes) rows));
        Outcome.check "random sizes keep growth bounded too (benchmark 2's simplification holds)"
          (* resident pages, the paper's metric — mapped_bytes would count
             each arena's full 1MB address-space reservation *)
          (pt.L.minor_faults * 4096 < 6 * floor_bytes)
          "ptmalloc touches %d KB for a ~%d KB working set" (pt.L.minor_faults * 4096 / 1024)
          (floor_bytes / 1024);
        Outcome.check "scalable allocators beat the single lock on mixed sizes"
          (hoard.L.throughput_ops_s > serial.L.throughput_ops_s *. 1.5)
          "hoard %.0f ops/s vs serial %.0f ops/s" hoard.L.throughput_ops_s
          serial.L.throughput_ops_s;
      ];
  }

let slab_contention opts =
  let machine = Configs.quad_xeon in
  let params factory =
    { Bench1.default with
      Bench1.machine;
      seed = opts.seed;
      iterations = pick opts ~full:20_000 ~quick:5_000;
      workers = 4;
      size = 512;
      factory;
    }
  in
  let slab = Bench1.run (params (Factory.slab ())) in
  let pt = Bench1.run (params (Factory.ptmalloc ())) in
  let title = "Future work: kernel slab allocator's per-cache lock under a same-size SMP load" in
  let tbl = Table.make ~title ~header:[ "allocator"; "mean elapsed (s)"; "contended ops" ] in
  Table.row tbl
    [ "slab"; Table.cell_f2 (Bench1.mean_scaled slab);
      string_of_int slab.Bench1.lock_contended_ops ];
  Table.row tbl
    [ "ptmalloc"; Table.cell_f2 (Bench1.mean_scaled pt); string_of_int pt.Bench1.lock_contended_ops ];
  { Outcome.id = "slab";
    title;
    text = Table.to_string tbl;
    series = [];
    checks =
      [ Outcome.check "one cache lock serializes a same-size workload"
          (slab.Bench1.lock_contended_ops > pt.Bench1.lock_contended_ops * 5
          || Bench1.mean_scaled slab > Bench1.mean_scaled pt *. 1.3)
          "slab: %.1f s / %d contended; ptmalloc: %.1f s / %d contended"
          (Bench1.mean_scaled slab) slab.Bench1.lock_contended_ops (Bench1.mean_scaled pt)
          pt.Bench1.lock_contended_ops;
      ];
  }

(* Deferred coalescing: bin small frees without merging neighbours and
   consolidate in bulk when a search comes up empty.  Same loop shape as
   the fastbins ablation so the two variants are directly comparable. *)
let ablate_deferred opts =
  let time defer_coalescing =
    let params =
      { Mb_alloc.Dlheap.default_params with Mb_alloc.Dlheap.defer_coalescing }
    in
    let m = Machine.create ~seed:opts.seed Configs.dual_pentium_pro in
    let proc = Machine.create_proc m ~name:"dc" () in
    let pt = Mb_alloc.Ptmalloc.make proc ~params () in
    let alloc = Mb_alloc.Ptmalloc.allocator pt in
    let iters = pick opts ~full:30_000 ~quick:6_000 in
    let th =
      Machine.spawn proc (fun ctx ->
          let fault = Machine.ctx_fault ctx in
          for _ = 1 to iters do
            match alloc.A.malloc ctx 40 with
            | u -> alloc.A.free ctx u
            | exception Fault.Alloc_failure _ -> Fault.note_degraded fault
          done)
    in
    Machine.run m;
    (match alloc.A.validate () with
    | Ok () -> ()
    | Error msg -> failwith ("ablate-deferred: " ^ msg));
    Obs_hook.publish m [ alloc ] ~label:(fun () ->
        Printf.sprintf "ablate-deferred %s deferred=%b it=%d seed=%d"
          (Configs.label Configs.dual_pentium_pro) defer_coalescing iters opts.seed);
    Machine.elapsed_ns th /. float_of_int iters
  in
  let classic = time false and deferred = time true in
  let title =
    "Ablation: deferred coalescing on the 40-byte malloc/free loop (dual PPro)"
  in
  let tbl =
    Table.make ~title ~header:[ "allocator"; "ns per malloc/free pair (simulated)" ]
  in
  Table.row tbl [ "eager coalescing (study subject)"; Printf.sprintf "%.0f" classic ];
  Table.row tbl [ "deferred coalescing"; Printf.sprintf "%.0f" deferred ];
  { Outcome.id = "ablate-deferred";
    title;
    text = Table.to_string tbl;
    series = [];
    checks =
      [ Outcome.check "deferred coalescing shortens the small-chunk free path"
          (deferred < classic *. 0.95)
          "%.0f ns vs %.0f ns per pair (%.0f%% saved)" deferred classic
          ((classic -. deferred) /. classic *. 100.);
      ];
  }

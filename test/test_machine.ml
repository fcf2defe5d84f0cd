(* Tests for the SMP machine: scheduling, mutexes, paging charges. *)

module M = Core.Machine

let two_cpu = { M.default_config with M.cpus = 2; op_jitter = 0. }

let uni = { M.default_config with M.cpus = 1; op_jitter = 0. }

let run_workers ?(config = two_cpu) ?(seed = 1) n body =
  let m = M.create ~seed config in
  let p = M.create_proc m ~name:"t" () in
  let threads = List.init n (fun i -> M.spawn p ~name:(Printf.sprintf "w%d" i) (body i)) in
  M.run m;
  (m, p, threads)

let cycles config n = M.cycles_to_ns (M.create config) (float_of_int n)

let test_single_thread_work_time () =
  let _, _, threads = run_workers 1 (fun _ ctx -> M.work_exact ctx 100_000) in
  let elapsed = M.elapsed_ns (List.hd threads) in
  let expected = cycles two_cpu (100_000 + M.default_config.M.ctx_switch_cycles) in
  (* plus thread startup: spawn cycles + stack fault *)
  Alcotest.(check bool) "close to work + startup" true
    (elapsed >= expected && elapsed < expected *. 1.2)

let test_parallel_speedup () =
  let _, _, two = run_workers 2 (fun _ ctx -> M.work_exact ctx 200_000) in
  let _, _, four = run_workers 4 (fun _ ctx -> M.work_exact ctx 200_000) in
  let mean ths = List.fold_left (fun a t -> a +. M.elapsed_ns t) 0. ths /. float_of_int (List.length ths) in
  let r = mean four /. mean two in
  (* 4 threads on 2 CPUs: each CPU runs two of the threads back to back
     (the work fits in one quantum), so mean elapsed is about 1.5x the
     2-thread case and the last finishers take 2x. *)
  Alcotest.(check bool) "T/P scaling" true (r > 1.3 && r < 2.3)

let test_round_robin_fairness () =
  let _, _, threads = run_workers ~config:uni 3 (fun _ ctx -> M.work_exact ctx 300_000) in
  let times = List.map M.elapsed_ns threads in
  let mx = List.fold_left max 0. times and mn = List.fold_left min infinity times in
  Alcotest.(check bool) "within 25%" true (mx /. mn < 1.25)

let test_work_conservation () =
  let m, _, _ = run_workers ~config:uni 3 (fun _ ctx -> M.work_exact ctx 100_000) in
  (* All work must be accounted as busy cycles (plus switches/startup). *)
  Alcotest.(check bool) "busy >= total work" true (M.busy_cycles m >= 300_000.)

let test_mutual_exclusion () =
  let m = M.create ~seed:3 two_cpu in
  let p = M.create_proc m () in
  let mu = M.Mutex.create m () in
  let inside = ref 0 in
  let max_inside = ref 0 in
  let ths =
    List.init 4 (fun i ->
        M.spawn p ~name:(string_of_int i) (fun ctx ->
            for _ = 1 to 200 do
              M.Mutex.lock mu ctx;
              incr inside;
              if !inside > !max_inside then max_inside := !inside;
              M.work ctx 50;
              decr inside;
              M.Mutex.unlock mu ctx;
              M.work ctx 30
            done))
  in
  ignore ths;
  M.run m;
  Alcotest.(check int) "never two inside" 1 !max_inside;
  Alcotest.(check int) "all acquisitions" 800 (M.Mutex.acquisitions mu)

let test_mutual_exclusion_handoff () =
  let config = { two_cpu with M.spin_cycles = 0; mutex_handoff = true } in
  let m = M.create ~seed:3 config in
  let p = M.create_proc m () in
  let mu = M.Mutex.create m () in
  let inside = ref 0 and bad = ref false in
  let ths =
    List.init 3 (fun i ->
        M.spawn p ~name:(string_of_int i) (fun ctx ->
            for _ = 1 to 100 do
              M.Mutex.lock mu ctx;
              incr inside;
              if !inside > 1 then bad := true;
              M.work ctx 50;
              decr inside;
              M.Mutex.unlock mu ctx
            done))
  in
  ignore ths;
  M.run m;
  Alcotest.(check bool) "exclusion holds under handoff" false !bad

let test_trylock () =
  let m = M.create two_cpu in
  let p = M.create_proc m () in
  let mu = M.Mutex.create m () in
  let observed = ref [] in
  ignore
    (M.spawn p (fun ctx ->
         Alcotest.(check bool) "free trylock succeeds" true (M.Mutex.try_lock mu ctx);
         Alcotest.(check bool) "held trylock fails" false (M.Mutex.try_lock mu ctx);
         observed := [ M.Mutex.contentions mu ];
         M.Mutex.unlock mu ctx));
  M.run m;
  Alcotest.(check (list int)) "contention counted" [ 1 ] !observed

let test_unlock_not_owner () =
  let m = M.create two_cpu in
  let p = M.create_proc m () in
  let mu = M.Mutex.create m () in
  ignore
    (M.spawn p (fun ctx ->
         Alcotest.check_raises "unlock unowned" (Invalid_argument "Mutex.unlock: not the owner")
           (fun () -> M.Mutex.unlock mu ctx)));
  M.run m

(* A past wake time returns at once; a NaN one is an error, not a
   silent no-op. *)
let test_sleep_until_times () =
  let m = M.create two_cpu in
  let p = M.create_proc m () in
  ignore
    (M.spawn p (fun ctx ->
         M.work_exact ctx 1_000;
         let t0 = M.now ctx in
         M.sleep_until ctx (t0 -. 1.);
         Alcotest.(check (float 0.)) "past time is a no-op" t0 (M.now ctx);
         Alcotest.check_raises "NaN" (Invalid_argument "Machine.sleep_until: NaN time") (fun () ->
             M.sleep_until ctx Float.nan);
         M.sleep_until ctx (t0 +. 500.);
         Alcotest.(check bool) "future time sleeps" true (M.now ctx >= t0 +. 500.)));
  M.run m

let test_blocking_and_wakeup () =
  let config = { two_cpu with M.spin_cycles = 0 } in
  let m = M.create config in
  let p = M.create_proc m () in
  let mu = M.Mutex.create m () in
  let order = ref [] in
  let a =
    M.spawn p ~name:"a" (fun ctx ->
        M.Mutex.lock mu ctx;
        M.work_exact ctx 50_000;
        order := "a-unlock" :: !order;
        M.Mutex.unlock mu ctx)
  in
  ignore a;
  let b =
    M.spawn p ~name:"b" (fun ctx ->
        M.work_exact ctx 100;  (* lose the race for the lock *)
        M.Mutex.lock mu ctx;
        order := "b-locked" :: !order;
        M.Mutex.unlock mu ctx)
  in
  M.run m;
  Alcotest.(check (list string)) "blocked until unlock" [ "a-unlock"; "b-locked" ] (List.rev !order);
  Alcotest.(check bool) "b blocked" true ((M.thread_stats b).M.blocks >= 1)

let test_join () =
  let m = M.create two_cpu in
  let p = M.create_proc m () in
  let child = M.spawn p ~name:"child" (fun ctx -> M.work_exact ctx 70_000) in
  let joined_at = ref 0. in
  ignore
    (M.spawn p ~name:"parent" (fun ctx ->
         M.join ctx child;
         joined_at := M.now ctx));
  M.run m;
  Alcotest.(check bool) "join waited" true (!joined_at >= M.elapsed_ns child)

let test_join_finished_thread () =
  let m = M.create two_cpu in
  let p = M.create_proc m () in
  let child = M.spawn p (fun _ -> ()) in
  ignore
    (M.spawn p (fun ctx ->
         M.work_exact ctx 500_000;
         (* child long gone: join must not block *)
         M.join ctx child));
  M.run m;
  Alcotest.(check bool) "completed" true true

let test_latch () =
  let m = M.create two_cpu in
  let p = M.create_proc m () in
  let latch = M.Latch.create m in
  let woke = ref 0. in
  ignore
    (M.spawn p (fun ctx ->
         M.Latch.wait latch ctx;
         woke := M.now ctx));
  ignore
    (M.spawn p (fun ctx ->
         M.work_exact ctx 90_000;
         M.Latch.signal latch ctx;
         (* idempotent and non-blocking after set *)
         M.Latch.signal latch ctx;
         M.Latch.wait latch ctx));
  M.run m;
  Alcotest.(check bool) "latch released waiter" true (!woke > 0.);
  Alcotest.(check bool) "set" true (M.Latch.is_set latch)

let test_multithreaded_flag () =
  let m = M.create two_cpu in
  let p = M.create_proc m () in
  Alcotest.(check bool) "fresh proc single-threaded" false (M.proc_multithreaded p);
  ignore (M.spawn p (fun _ -> ()));
  Alcotest.(check bool) "one thread still single" false (M.proc_multithreaded p);
  ignore (M.spawn p (fun _ -> ()));
  Alcotest.(check bool) "two threads multi" true (M.proc_multithreaded p);
  M.run m;
  (* sticky even after both exit *)
  Alcotest.(check bool) "sticky" true (M.proc_multithreaded p)

let test_stub_vs_atomic_lock_cost () =
  let time_locked multi =
    let m = M.create two_cpu in
    let p = M.create_proc m () in
    if multi then ignore (M.spawn p (fun _ -> ()));
    let mu = M.Mutex.create m () in
    let th =
      M.spawn p (fun ctx ->
          for _ = 1 to 1000 do
            M.Mutex.lock mu ctx;
            M.Mutex.unlock mu ctx
          done)
    in
    M.run m;
    M.elapsed_ns th
  in
  Alcotest.(check bool) "atomic locks cost more than stubs" true (time_locked true > time_locked false)

let test_spawn_faults_stack_page () =
  let m = M.create two_cpu in
  let p = M.create_proc m () in
  let base = Core.Address_space.minor_faults (M.proc_vm p) in
  let th = M.spawn p (fun _ -> ()) in
  M.run m;
  Alcotest.(check int) "one stack page" 1 (Core.Address_space.minor_faults (M.proc_vm p) - base);
  Alcotest.(check int) "charged to the thread" 1 (M.thread_stats th).M.page_faults

let test_mem_ops_fault_and_cost () =
  let m = M.create two_cpu in
  let p = M.create_proc m () in
  ignore
    (M.spawn p (fun ctx ->
         let addr = Option.get (M.mmap ctx ~len:4096) in
         let t0 = M.now ctx in
         M.write_mem ctx addr;  (* page fault + cache miss *)
         let t1 = M.now ctx in
         M.write_mem ctx addr;  (* pure cache hit *)
         let t2 = M.now ctx in
         Alcotest.(check bool) "first access much dearer" true (t1 -. t0 > 10. *. (t2 -. t1))));
  M.run m

let test_asid_isolation () =
  (* Two processes using the same virtual address must not create
     coherence traffic between each other. *)
  let m = M.create two_cpu in
  let body _ ctx =
    let addr = Option.get (M.sbrk ctx 4096) in
    for _ = 1 to 100 do
      M.write_mem ctx addr
    done
  in
  let p1 = M.create_proc m ~name:"p1" () in
  let p2 = M.create_proc m ~name:"p2" () in
  ignore (M.spawn p1 (body 1));
  ignore (M.spawn p2 (body 2));
  M.run m;
  Alcotest.(check int) "no cross-process transfers" 0 (Core.Coherence.transfers (M.cache m))

let test_touch_range_counts () =
  let m = M.create two_cpu in
  let p = M.create_proc m () in
  let th =
    M.spawn p (fun ctx ->
        let addr = Option.get (M.mmap ctx ~len:(8 * 4096)) in
        M.touch_range ctx addr ~len:(8 * 4096))
  in
  M.run m;
  Alcotest.(check bool) "8 pages + stack" true ((M.thread_stats th).M.page_faults >= 8)

let test_elapsed_requires_finish () =
  let m = M.create two_cpu in
  let p = M.create_proc m () in
  let th = M.spawn p (fun _ -> ()) in
  Alcotest.check_raises "unfinished" (Invalid_argument "Machine.elapsed_ns: thread still running")
    (fun () -> ignore (M.elapsed_ns th));
  M.run m;
  Alcotest.(check bool) "finished now" true (M.elapsed_ns th >= 0.)

let test_exit_hook_runs () =
  let m = M.create two_cpu in
  let p = M.create_proc m () in
  let ran = ref [] in
  ignore
    (M.spawn p (fun ctx ->
         M.exit_hook ctx (fun () -> ran := "first" :: !ran);
         M.exit_hook ctx (fun () -> ran := "second" :: !ran)));
  M.run m;
  Alcotest.(check (list string)) "registration order" [ "first"; "second" ] (List.rev !ran)

(* Scheduler conservation laws under random workloads. *)
let prop_conservation =
  QCheck.Test.make ~name:"elapsed >= own work; busy >= total work; makespan >= work/cpus" ~count:40
    QCheck.(triple (int_range 1 4) (int_range 1 6) (list_of_size Gen.(int_range 1 6) (int_range 1_000 80_000)))
    (fun (cpus, extra_threads, works) ->
      let works = works @ List.init extra_threads (fun i -> 10_000 + (i * 1_000)) in
      let cfg = { M.default_config with M.cpus; op_jitter = 0. } in
      let m = M.create ~seed:9 cfg in
      let p = M.create_proc m () in
      let threads = List.map (fun w -> (w, M.spawn p (fun ctx -> M.work_exact ctx w))) works in
      M.run m;
      let cycle_ns = M.cycles_to_ns m 1.0 in
      let total_work = float_of_int (List.fold_left ( + ) 0 works) in
      let own_ok =
        List.for_all
          (fun (w, th) -> M.elapsed_ns th >= (float_of_int w *. cycle_ns) -. 1e-6)
          threads
      in
      let busy_ok = M.busy_cycles m >= total_work -. 1e-6 in
      let makespan = M.now_ns m /. cycle_ns in
      let makespan_ok = makespan >= (total_work /. float_of_int cpus) -. 1e-6 in
      own_ok && busy_ok && makespan_ok)

let prop_exclusion_both_policies =
  QCheck.Test.make ~name:"mutual exclusion under random contention (both unlock policies)" ~count:20
    QCheck.(triple bool (int_range 2 5) (int_range 1 60))
    (fun (handoff, nthreads, iters) ->
      let cfg =
        { M.default_config with
          M.cpus = 2;
          op_jitter = 0.;
          mutex_handoff = handoff;
          spin_cycles = (if handoff then 0 else 200);
        }
      in
      let m = M.create ~seed:11 cfg in
      let p = M.create_proc m () in
      let mu = M.Mutex.create m () in
      let inside = ref 0 and bad = ref false in
      let ths =
        List.init nthreads (fun i ->
            M.spawn p ~name:(string_of_int i) (fun ctx ->
                for _ = 1 to iters do
                  M.Mutex.lock mu ctx;
                  incr inside;
                  if !inside > 1 then bad := true;
                  M.work ctx 40;
                  decr inside;
                  M.Mutex.unlock mu ctx;
                  M.work ctx 25
                done))
      in
      ignore ths;
      M.run m;
      (not !bad) && M.Mutex.acquisitions mu = nthreads * iters)

let prop_deterministic_replay =
  QCheck.Test.make ~name:"identical seeds give identical simulations" ~count:10
    QCheck.(pair small_int (int_range 2 5))
    (fun (seed, threads) ->
      let run () =
        let m = M.create ~seed { M.default_config with M.cpus = 2 } in
        let p = M.create_proc m () in
        let mu = M.Mutex.create m () in
        let ths =
          List.init threads (fun i ->
              M.spawn p ~name:(string_of_int i) (fun ctx ->
                  for _ = 1 to 40 do
                    M.Mutex.lock mu ctx;
                    M.work ctx 120;
                    M.Mutex.unlock mu ctx;
                    M.work ctx 60
                  done))
        in
        M.run m;
        (M.now_ns m, List.map M.elapsed_ns ths)
      in
      run () = run ())

(* A zero quantum would hang [consume], a negative one would fail later
   with an unrelated engine error, and a NaN quantum or clock rate would
   run to completion on a NaN clock: [create] rejects them all. So it
   does configs that make simulated work silently free: a NaN, infinite
   or >= 1 jitter (every jittered item costs 0, or draws a factor <= 0
   and is dropped) and any negative cycle cost, the cache's included. *)
let test_create_rejects_bad_clock () =
  let rejects what config =
    match M.create config with
    | _ -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument _ -> ()
  in
  let d = M.default_config in
  rejects "quantum_us = 0" { d with M.quantum_us = 0. };
  rejects "quantum_us = -1" { d with M.quantum_us = -1. };
  rejects "quantum_us = nan" { d with M.quantum_us = nan };
  rejects "quantum_us = infinity" { d with M.quantum_us = infinity };
  rejects "mhz = nan" { d with M.mhz = nan };
  rejects "mhz = infinity" { d with M.mhz = infinity };
  ignore (M.create { d with M.quantum_us = 0.5 } : M.t);
  rejects "op_jitter = nan" { d with M.op_jitter = nan };
  rejects "op_jitter = infinity" { d with M.op_jitter = infinity };
  rejects "op_jitter = 1.5" { d with M.op_jitter = 1.5 };
  rejects "op_jitter = 1" { d with M.op_jitter = 1. };
  rejects "op_jitter = -0.1" { d with M.op_jitter = -0.1 };
  rejects "ctx_switch_cycles = -5000" { d with M.ctx_switch_cycles = -5000 };
  rejects "atomic_cycles = -1" { d with M.atomic_cycles = -1 };
  rejects "stub_lock_cycles = -1" { d with M.stub_lock_cycles = -1 };
  rejects "spin_cycles = -1" { d with M.spin_cycles = -1 };
  rejects "wake_cycles = -1" { d with M.wake_cycles = -1 };
  rejects "syscall_cycles = -1" { d with M.syscall_cycles = -1 };
  rejects "minor_fault_cycles = -1" { d with M.minor_fault_cycles = -1 };
  rejects "thread_spawn_cycles = -1" { d with M.thread_spawn_cycles = -1 };
  let c = d.M.cache in
  rejects "hit_cycles = -1" { d with M.cache = { c with Core.Coherence.hit_cycles = -1 } };
  rejects "miss_cycles = -1" { d with M.cache = { c with Core.Coherence.miss_cycles = -1 } };
  rejects "transfer_cycles = -1"
    { d with M.cache = { c with Core.Coherence.transfer_cycles = -1 } };
  rejects "upgrade_cycles = -1" { d with M.cache = { c with Core.Coherence.upgrade_cycles = -1 } };
  (* The edges: no jitter and free operations are legitimate. *)
  ignore
    (M.create
       { d with
         M.op_jitter = 0.;
         ctx_switch_cycles = 0;
         atomic_cycles = 0;
         stub_lock_cycles = 0;
         spin_cycles = 0;
         wake_cycles = 0;
         syscall_cycles = 0;
         minor_fault_cycles = 0;
         thread_spawn_cycles = 0;
         cache =
           { c with
             Core.Coherence.hit_cycles = 0;
             miss_cycles = 0;
             transfer_cycles = 0;
             upgrade_cycles = 0;
           };
       }
      : M.t);
  List.iter
    (fun name -> ignore (M.create (Option.get (Core.Configs.by_name name)) : M.t))
    Core.Configs.names

(* One contended-mutex run rendered exactly: simulated end time, busy
   cycles, lock counts, and each thread's elapsed time and counters,
   floats in %h; returned with the threads and the end time. Thread [i]
   holds the lock for [h0 + h1 * ((i + k) mod 4)] cycles in its [k]-th
   round and works [g0 + g1 * (i mod 3)] outside. *)
let spin_run ?(mhz = 200.) ~seed ~threads ~cpus ~budget ~quantum_us ~op_jitter ~hold:(h0, h1)
    ~gap:(g0, g1) () =
  let cfg = { M.default_config with M.cpus; mhz; spin_cycles = budget; quantum_us; op_jitter } in
  let m = M.create ~seed cfg in
  let p = M.create_proc m ~name:"pin" () in
  let mu = M.Mutex.create m ~name:"pin" () in
  let ths =
    List.init threads (fun i ->
        M.spawn p ~name:(string_of_int i) (fun ctx ->
            for k = 1 to 40 do
              M.Mutex.lock mu ctx;
              M.work ctx (h0 + (h1 * ((i + k) mod 4)));
              M.Mutex.unlock mu ctx;
              M.work ctx (g0 + (g1 * (i mod 3)))
            done))
  in
  M.run m;
  let b = Buffer.create 512 in
  Printf.bprintf b "now=%h busy=%h acq=%d cont=%d" (M.now_ns m) (M.busy_cycles m)
    (M.Mutex.acquisitions mu) (M.Mutex.contentions mu);
  List.iter
    (fun th ->
      let s = M.thread_stats th in
      Printf.bprintf b "\n%h cpu=%h ctx=%d blocks=%d spins=%d faults=%d" (M.elapsed_ns th)
        s.M.cpu_cycles s.ctx_switches s.blocks s.spins s.page_faults)
    ths;
  (Buffer.contents b, ths, M.now_ns m)

(* Seeds 1-3, 3/5/7 threads, a long (2000 us) and a short (25 us)
   quantum, jittered work. *)
let jittered_runs ~mhz ~cpus ~budget () =
  List.concat_map
    (fun seed ->
      List.concat_map
        (fun threads ->
          List.map
            (fun quantum_us ->
              spin_run ~mhz ~seed ~threads ~cpus ~budget ~quantum_us ~op_jitter:0.02
                ~hold:(40, 30) ~gap:(20, 10) ())
            [ 2000.; 25. ])
        [ 3; 5; 7 ])
    [ 1; 2; 3 ]

(* Without jitter every time is a whole number of cycles, so times tie
   exactly: seed 1, 4 cpus, a long quantum. *)
let exact_runs ~budget ~hold ~gap ~threads () =
  List.map
    (fun threads ->
      spin_run ~seed:1 ~threads ~cpus:4 ~budget ~quantum_us:2000. ~op_jitter:0. ~hold ~gap ())
    threads

(* The spin path's schedule, pinned across commits: one digest per group
   of runs, over every run's rendering. Budgets 20 and 404 end in a
   partial probe step, 64 and 400 do not; the short budgets mostly
   expire, and a finished spin's expiry, cancelled now, was often due
   during the thread's next spin. The digests were recorded before spin
   registrations were reused; a change to them is a change to simulated
   behaviour. Six were recorded again when a finished spin began
   cancelling its queued events: in 15 of the 202 runs such an event
   had been the last to run, so [now=] read past the last finish, and
   nothing else in any rendering moved. The last three run at 500 MHz,
   quad_xeon's clock and the benchmark's leak-contended spin shape,
   whose 16 ns probe step the spin path jumps over exactly, and at
   450 MHz, whose 2.222... ns cycle is not dyadic, so every jump falls
   back to the walk. They were recorded before the jumps existed. *)
let spin_pins =
  List.map
    (fun (cpus, budget, digest) ->
      ( Printf.sprintf "%d cpus, budget %d" cpus budget,
        jittered_runs ~mhz:200. ~cpus ~budget,
        digest ))
    [ (2, 20, "77754900a07c405b89b549f5de415e6f");
      (2, 64, "5881ae310a9e7c01b0d84cd76a6fef67");
      (2, 400, "de450228c70d1de3dca2158b17c9289c");
      (2, 404, "8e4bc8ee9d9c86ba59870b99319b213c");
      (4, 20, "67bee7e865eb290c494be9f066f3a078");
      (4, 64, "002a2452b7a5c024630b468ac7c8a6fb");
      (4, 400, "a877e1a3426e824a8ed3ab7fd23dde32");
      (4, 404, "b984138674954fcc342920903c204a96");
    ]
  @ [ (* Some thread starts a spin exactly at the final probe boundary
         of its previous spin, where that spin's expiry was due. *)
      ( "exact, 4 cpus, budget 404",
        exact_runs ~budget:404 ~hold:(100, 50) ~gap:(30, 20) ~threads:[ 5; 7 ],
        "d963425b9c866b8add9673d927ecb16a" );
      (* Spinners on the same probe phase wake at the same boundary,
         where the first registered must win. *)
      ( "exact, 4 cpus, budget 64",
        exact_runs ~budget:64 ~hold:(8, 8) ~gap:(8, 8) ~threads:[ 4; 6 ],
        "21b08dbafc52078127ce57ef9730627b" );
    ]
  @ List.map
      (fun (mhz, cpus, budget, digest) ->
        ( Printf.sprintf "%g MHz, %d cpus, budget %d" mhz cpus budget,
          jittered_runs ~mhz ~cpus ~budget,
          digest ))
      [ (500., 4, 600, "a25a21fb870452c7b9bacec88298bb4d");
        (450., 4, 64, "a73f759607edb4e7967366f79b7735b8");
        (450., 4, 404, "d205dfefe1e85a790f2f25931094a30f");
      ]

(* The spin path's one-step jump against the additions it replaces:
   whenever [exact_jump] claims exactness, its result has the bits of a
   loop that rounds once per step. Starts span many binades, zero,
   subnormals and points a few steps below a power of two; steps are
   the probe step 8 * cycle_ns at 200, 400, 450, 500 and 333 MHz (the
   last two not dyadic) and the cycle counters' +-8. *)
let test_exact_jump_matches_walk () =
  let steps =
    List.map (fun mhz -> 8. *. (1000. /. mhz)) [ 200.; 400.; 450.; 500.; 333. ] @ [ 8.; -8. ]
  in
  let gen =
    let open QCheck.Gen in
    let binades lo hi =
      map2 (fun f e -> Float.ldexp (1. +. f) e) (float_bound_exclusive 1.) (int_range lo hi)
    in
    let* d = oneofl steps in
    let* k = int_range 0 128 in
    let* x =
      frequency
        [ (1, return 0.);
          (1, map (fun b -> Int64.float_of_bits (Int64.of_int b)) (int_range 1 ((1 lsl 52) - 1)));
          (1, binades (-1022) 1023);
          (4, binades 0 60);
          ( 3,
            map2
              (fun e i -> Float.ldexp 1. e -. (float_of_int i *. Float.abs d))
              (int_range 5 60) (int_range 0 8) );
        ]
    in
    return (x, d, k)
  in
  let print (x, d, k) = Printf.sprintf "x=%h d=%h k=%d" x d k in
  let taken = ref 0 and fell_back = ref 0 in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 17 |])
    (QCheck.Test.make ~name:"exact jump agrees with the walk" ~count:20_000
       (QCheck.make ~print gen)
       (fun (x, d, k) ->
         let walk = ref x in
         for _ = 1 to k do
           walk := !walk +. d
         done;
         match M.exact_jump x d k with
         | Some y ->
             incr taken;
             Int64.equal (Int64.bits_of_float y) (Int64.bits_of_float !walk)
         | None ->
             incr fell_back;
             true));
  Alcotest.(check bool) "jumps taken" true (!taken > 0);
  Alcotest.(check bool) "jumps fallen back" true (!fell_back > 0)

let test_spin_schedule_pinned () =
  let spins = ref 0 and blocks = ref 0 in
  List.iter
    (fun (label, runs, expected) ->
      let runs = runs () in
      List.iter
        (fun (_, ths, _) ->
          List.iter
            (fun th ->
              let st = M.thread_stats th in
              spins := !spins + st.M.spins;
              blocks := !blocks + st.M.blocks)
            ths)
        runs;
      Alcotest.(check string) label expected
        (Digest.to_hex
           (Digest.string (String.concat "\n--\n" (List.map (fun (text, _, _) -> text) runs)))))
    spin_pins;
  (* Both ends of a spin occur: a win, and an expiry then a block. *)
  Alcotest.(check bool) "spins won" true (!spins > 0);
  Alcotest.(check bool) "spins expired into blocks" true (!blocks > 0)

(* A finished spin leaves nothing queued, so no stale event carries the
   clock past the work: every pinned run ends at its last thread's
   finish, which is the largest elapsed time, every thread being
   spawned at 0. *)
let test_spin_runs_end_at_last_finish () =
  List.iter
    (fun (label, runs, _) ->
      List.iteri
        (fun i (_, ths, now) ->
          let last = List.fold_left (fun acc th -> Float.max acc (M.elapsed_ns th)) 0. ths in
          Alcotest.(check (float 0.)) (Printf.sprintf "%s, run %d" label i) last now)
        (runs ()))
    spin_pins

let suite =
  [ Alcotest.test_case "single thread work time" `Quick test_single_thread_work_time;
    QCheck_alcotest.to_alcotest prop_conservation;
    QCheck_alcotest.to_alcotest prop_exclusion_both_policies;
    QCheck_alcotest.to_alcotest prop_deterministic_replay;
    Alcotest.test_case "parallel speedup" `Quick test_parallel_speedup;
    Alcotest.test_case "round-robin fairness" `Quick test_round_robin_fairness;
    Alcotest.test_case "work conservation" `Quick test_work_conservation;
    Alcotest.test_case "mutual exclusion (barging)" `Quick test_mutual_exclusion;
    Alcotest.test_case "mutual exclusion (handoff)" `Quick test_mutual_exclusion_handoff;
    Alcotest.test_case "trylock" `Quick test_trylock;
    Alcotest.test_case "unlock not owner" `Quick test_unlock_not_owner;
    Alcotest.test_case "blocking and wakeup" `Quick test_blocking_and_wakeup;
    Alcotest.test_case "join" `Quick test_join;
    Alcotest.test_case "join finished thread" `Quick test_join_finished_thread;
    Alcotest.test_case "latch" `Quick test_latch;
    Alcotest.test_case "multithreaded flag" `Quick test_multithreaded_flag;
    Alcotest.test_case "stub vs atomic lock cost" `Quick test_stub_vs_atomic_lock_cost;
    Alcotest.test_case "spawn faults stack page" `Quick test_spawn_faults_stack_page;
    Alcotest.test_case "memory access costs" `Quick test_mem_ops_fault_and_cost;
    Alcotest.test_case "asid isolation" `Quick test_asid_isolation;
    Alcotest.test_case "touch_range counts" `Quick test_touch_range_counts;
    Alcotest.test_case "elapsed requires finish" `Quick test_elapsed_requires_finish;
    Alcotest.test_case "exit hooks" `Quick test_exit_hook_runs;
    Alcotest.test_case "create rejects bad clock" `Quick test_create_rejects_bad_clock;
    Alcotest.test_case "spin schedule pinned" `Quick test_spin_schedule_pinned;
    Alcotest.test_case "sleep_until past and NaN times" `Quick test_sleep_until_times;
    Alcotest.test_case "exact jump agrees with the walk" `Quick test_exact_jump_matches_walk;
    Alcotest.test_case "spin runs end at the last finish" `Quick test_spin_runs_end_at_last_finish;
  ]

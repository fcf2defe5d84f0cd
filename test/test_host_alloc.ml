(* Absolute ceilings on the simulator's host allocation. A boxing
   regression on a per-operation path multiplies minor GC words without
   changing any simulated result, so only a fixed figure catches it: a
   gate relative to a baseline passes whenever the same change
   regenerates the baseline. The ceilings hold in the release build that
   the root dune-workspace selects, where small functions are inlined
   across modules and the floats they return stay unboxed. A
   [--profile dev] build compiles with [-opaque], which inlines nothing
   across modules, and fails them: the first test below says so. *)

module M = Core.Machine
module A = Core.Allocator
module B1 = Core.Bench1
module B2 = Core.Bench2
module S = Core.Server
module Arm = Core.Arm
module Tw = Mb_sim.Timing_wheel

(* Host minor words of [f ()]'s second run: the first grows tables. *)
let minor_words f =
  f ();
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* The per-operation reads and draws the simulator makes across module
   boundaries return floats. Inlined into this module, each float stays
   unboxed; called, each is boxed, 2 words a call. *)
let test_cross_module_inlining () =
  let calls = 10_000 in
  let e = Core.Engine.create () and rng = Core.Rng.create ~seed:1 in
  let sink = Array.make 1 0. in
  let check name words =
    if words > 0. then
      Alcotest.failf
        "%d calls of %s allocated %.0f minor words: cross-module inlining is off (a --profile \
         dev build, or no dune-workspace at the root of the checkout)"
        calls name words
  in
  check "Engine.now"
    (minor_words (fun () ->
         for _ = 1 to calls do
           sink.(0) <- sink.(0) +. Core.Engine.now e
         done));
  check "Rng.jitter"
    (minor_words (fun () ->
         for _ = 1 to calls do
           sink.(0) <- sink.(0) +. Core.Rng.jitter rng 0.02
         done));
  check "Timing_wheel.time_of_key"
    (minor_words (fun () ->
         for i = 1 to calls do
           sink.(0) <- sink.(0) +. Tw.time_of_key i
         done))

(* The fig8 kernel at seed 1: benchmark 2, 7 threads contending for
   ptmalloc arenas on 4 CPUs. It allocates about 0.12M words. It took
   0.18M when a spinner that saw the lock free re-entered its thread
   for the lock op, and again to spin after losing the race; boxing
   each clock read and spin-wake time takes it to 0.34M, and boxing a
   float per spin probe and per work item to 3.59M. *)
let fig8 =
  { B2.default with
    B2.machine = Core.Configs.quad_xeon;
    seed = 1;
    threads = 7;
    rounds = 4;
    objects_per_thread = 400;
    replacements_per_round = 150;
  }

let test_fig8_ceiling () =
  let words = minor_words (fun () -> ignore (B2.run fig8 : B2.result)) in
  if words > 0.25e6 then Alcotest.failf "fig8 allocated %.0f minor words (ceiling 0.25M)" words

(* Two threads on separate CPUs share one mutex and hold it across a
   little work, so most acquisitions spin on it. About 6 words per
   lock/unlock; boxing the clock reads and the spin-wake times costs
   17, and a spin path that also allocates its registration and
   closures 158. *)
let test_contended_lock_ceiling () =
  let ops = 10_000 in
  let words =
    minor_words (fun () ->
        let m = M.create ~seed:1 Core.Configs.quad_xeon in
        let p = M.create_proc m () in
        let mu = M.Mutex.create m () in
        for _ = 1 to 2 do
          ignore
            (M.spawn p (fun ctx ->
                 for _ = 1 to ops / 2 do
                   M.Mutex.lock mu ctx;
                   M.work ctx 200;
                   M.Mutex.unlock mu ctx;
                   M.work ctx 50
                 done)
              : M.thread)
        done;
        M.run m;
        if M.Mutex.contentions mu < ops / 4 then
          Alcotest.failf "only %d of %d acquisitions contended" (M.Mutex.contentions mu) ops)
  in
  let per_op = words /. float_of_int ops in
  if per_op > 10. then
    Alcotest.failf "contended lock/unlock allocated %.1f minor words (ceiling 10)" per_op

(* Four threads on one mutex, on four CPUs: most releases find several
   spinners, of which one wins the lock and the rest spin again. About
   6 words per lock/unlock; when each spinner re-entered its thread to
   pay the lock op after a release, and again to spin after losing the
   race, it cost 15.9. The two-thread test above cannot see that: its
   spinner's lock op ends before anything queued and runs in place. *)
let test_herd_lock_ceiling () =
  let threads = 4 and rounds = 2_500 in
  let ops = threads * rounds in
  let words =
    minor_words (fun () ->
        let m = M.create ~seed:1 Core.Configs.quad_xeon in
        let p = M.create_proc m () in
        let mu = M.Mutex.create m () in
        for _ = 1 to threads do
          ignore
            (M.spawn p (fun ctx ->
                 for _ = 1 to rounds do
                   M.Mutex.lock mu ctx;
                   M.work ctx 200;
                   M.Mutex.unlock mu ctx;
                   M.work ctx 50
                 done)
              : M.thread)
        done;
        M.run m;
        if M.Mutex.contentions mu < ops / 2 then
          Alcotest.failf "only %d of %d acquisitions contended" (M.Mutex.contentions mu) ops)
  in
  let per_op = words /. float_of_int ops in
  if per_op > 8. then
    Alcotest.failf "four threads' lock/unlock allocated %.1f minor words (ceiling 8)" per_op

(* The pairs-uncontended benchmark workload at seed 1: benchmark 1's two
   workers each doing 5,000 ptmalloc malloc/free pairs of 512 B, almost
   uncontended. About 71K words, nearly all of them the runtime's
   continuation per queued event; a Dlheap that boxes its bin links and
   builds a chunk record per malloc takes it to 392K. *)
let test_pairs_ceiling () =
  let words =
    minor_words (fun () ->
        ignore
          (B1.run
             { B1.default with
               B1.machine = Core.Configs.dual_pentium_pro;
               seed = 1;
               workers = 2;
               mode = B1.Threads;
               size = 512;
               iterations = 5_000;
               paper_iterations = 5_000;
             }
            : B1.result))
  in
  if words > 120_000. then
    Alcotest.failf "pairs-uncontended allocated %.0f minor words (ceiling 120K)" words

(* One thread's ptmalloc malloc/free pairs, net of machine set-up: 40 B
   takes the small-bin search, 520 B the large-bin one, and both carve
   from top and merge back. Well under a word per pair; option-linked
   bins and a fresh record per carve cost about 25 and 32. *)
let test_ptmalloc_pair_ceiling () =
  let pairs = 10_000 in
  let run size n () =
    let m = M.create ~seed:1 Core.Configs.dual_pentium_pro in
    let p = M.create_proc m () in
    let a = (Core.Factory.ptmalloc ()).Core.Factory.create p in
    ignore
      (M.spawn p (fun ctx ->
           for _ = 1 to n do
             a.A.free ctx (a.A.malloc ctx size)
           done)
        : M.thread);
    M.run m
  in
  List.iter
    (fun size ->
      let per_pair = (minor_words (run size pairs) -. minor_words (run size 0)) /. float_of_int pairs in
      if per_pair > 1. then
        Alcotest.failf "%d B malloc/free allocated %.2f minor words per pair (ceiling 1)" size per_pair)
    [ 40; 520 ]

(* The server-open benchmark workload at seed 1: a 4-thread pool behind
   a 256-deep queue on 4 CPUs, 64 connections, 2,000 Poisson arrivals at
   450k rps with churn. About 127K words; a request path that builds
   lists, closures and options per request, with boxed clock reads in
   the machine, takes it to 204K. *)
let test_server_open_ceiling () =
  let words =
    minor_words (fun () ->
        ignore
          (S.run
             { S.default with
               S.machine = Core.Configs.quad_xeon;
               seed = 1;
               threads = 4;
               connections = 64;
               open_loop =
                 Some
                   { S.process = Core.Arrivals.Poisson { rate_rps = 450_000. };
                     total_requests = 2_000;
                     model = S.Thread_pool { queue_capacity = 256 };
                     churn_mean_requests = 32;
                     read_pct = 60;
                     write_pct = 25;
                   };
             }
            : S.result))
  in
  if words > 160_000. then
    Alcotest.failf "server-open allocated %.0f minor words (ceiling 160K)" words

(* The fig8 kernel run once under --metrics: the counters of its one
   published run. Host time cannot be gated here, so the counts below
   hold two host-side savings in place. *)
let fig8_counter () =
  Arm.set { Arm.off with Arm.metrics = true };
  Fun.protect
    ~finally:(fun () ->
      Arm.set Arm.off;
      ignore (Arm.drain ()))
    (fun () ->
      ignore (B2.run fig8 : B2.result);
      match Arm.drain () with
      | [ run ] -> Core.Obs.Recorder.counter run.Arm.recorder
      | runs -> Alcotest.failf "expected one published run, got %d" (List.length runs))

(* The probe boundaries its spins still walk one float addition at a
   time (sched.spin_steps_walked). About 21K; without the spin path's
   exact jumps over no-op probe steps it walks 1.81M. *)
let test_fig8_spin_walk_ceiling () =
  let walked = fig8_counter () "sched.spin_steps_walked" in
  if walked > 100_000 then
    Alcotest.failf "fig8 walked %d probe steps one at a time (ceiling 100K)" walked

(* The events it runs: pushes minus cancels. About 63K; when a finished
   spin left its expiry, or a wake, queued to run as a no-op, it ran
   83.8K. *)
let test_fig8_event_ceiling () =
  let c = fig8_counter () in
  let events = c "sched.shard.pushes" - c "sched.shard.cancels" in
  if events >= 70_000 then Alcotest.failf "fig8 ran %d events (ceiling 70K)" events

(* An idle engine: about 100 words, its queue's arrays still empty.
   Wheel levels of 256-slot bucket arrays took it to 1,674. *)
let test_engine_create_ceiling () =
  let words = minor_words (fun () -> ignore (Core.Engine.create () : Core.Engine.t)) in
  if words > 200. then
    Alcotest.failf "Engine.create allocated %.0f minor words (ceiling 200)" words

(* The deep queue perfbench prices as sim.wheel_far_push_pop: 4,096
   events pending, each pop followed by a push 1 us to 0.3 s later, so
   most pushes overflow the ring. About 0.04 words per pop/push pair;
   filing the overflow into wheel buckets and harvesting them took
   19.9. *)
let test_deep_queue_ceiling () =
  let depth = 4096 and ops = 50_000 in
  let rng = Core.Rng.create ~seed:17 in
  let deltas = Array.init 4096 (fun _ -> 1e3 +. Core.Rng.float rng (3e8 -. 1e3)) in
  (* The keys are worked out once, so the measured loop does no float
     arithmetic of its own. *)
  let keys = Array.make (depth + ops) 0 in
  let w = Tw.create () in
  for i = 0 to depth - 1 do
    keys.(i) <- Tw.key_of_time deltas.(i);
    Tw.push w keys.(i) i
  done;
  for i = depth to depth + ops - 1 do
    let t = Tw.time_of_key (Tw.peek_key w) in
    Tw.pop w;
    keys.(i) <- Tw.key_of_time (t +. deltas.(i mod 4096));
    Tw.push w keys.(i) i
  done;
  let words =
    minor_words (fun () ->
        let w = Tw.create () in
        for i = 0 to depth - 1 do
          Tw.push w keys.(i) i
        done;
        for i = depth to depth + ops - 1 do
          ignore (Tw.peek_key w : int);
          Tw.pop w;
          Tw.push w keys.(i) i
        done)
  in
  let per_pair = words /. float_of_int ops in
  if per_pair > 1. then
    Alcotest.failf "deep queue allocated %.2f minor words per pop/push pair (ceiling 1)" per_pair

let suite =
  [ Alcotest.test_case "fig8 kernel under 0.25M words" `Quick test_fig8_ceiling;
    Alcotest.test_case "contended lock under 10 words/op" `Quick test_contended_lock_ceiling;
    Alcotest.test_case "pairs-uncontended under 120K words" `Quick test_pairs_ceiling;
    Alcotest.test_case "ptmalloc malloc/free under 1 word/pair" `Quick test_ptmalloc_pair_ceiling;
    Alcotest.test_case "server-open under 160K words" `Quick test_server_open_ceiling;
    Alcotest.test_case "fig8 spins walk under 100K steps" `Quick test_fig8_spin_walk_ceiling;
    Alcotest.test_case "Engine.create under 200 words" `Quick test_engine_create_ceiling;
    Alcotest.test_case "deep queue under 1 word/pair" `Quick test_deep_queue_ceiling;
    Alcotest.test_case "fig8 runs under 70K events" `Quick test_fig8_event_ceiling;
    Alcotest.test_case "cross-module float calls allocate nothing" `Quick test_cross_module_inlining;
    Alcotest.test_case "four threads on one lock under 8 words/op" `Quick test_herd_lock_ceiling;
  ]

(* Tests for the dynamic correctness checker: seeded defects (unlocked
   shared writes, lock-order deadlock, allocator misuse) must be caught,
   properly synchronized code must stay clean, and arming the checker
   must never perturb a run. *)

module M = Core.Machine
module Engine = Core.Engine
module Checker = Core.Check.Checker
module Arm = Core.Arm
module B1 = Core.Bench1

let two_cpu = { M.default_config with M.cpus = 2; op_jitter = 0. }

let kinds c = List.map (fun f -> f.Checker.kind) (Checker.findings c)

(* Run [f] with checking armed, then disarm and discard any published
   run. *)
let checking f =
  Arm.set { Arm.off with Arm.check = true };
  Fun.protect
    ~finally:(fun () ->
      Arm.set Arm.off;
      ignore (Arm.drain ()))
    f

let armed_machine ?(seed = 7) config =
  let m = checking (fun () -> M.create ~seed config) in
  (m, M.checker m)

(* A mapped, thread-shareable address every process has. *)
let shared_addr = M.libc_data_address + 0x400

(* --- checker unit behaviour -------------------------------------------- *)

let test_null_checker_records_nothing () =
  let c = Checker.null in
  Alcotest.(check bool) "disarmed" false (Checker.armed c);
  Checker.lock_acquired c ~tid:0 ~mid:0 ~name:"l";
  Checker.on_access c ~tid:0 ~asid:0 ~addr:64 ~write:true;
  Checker.on_access c ~tid:1 ~asid:0 ~addr:64 ~write:true;
  Alcotest.(check bool) "free proceeds" true (Checker.on_free c ~tid:0 ~asid:0 ~addr:64);
  Alcotest.(check int) "no findings" 0 (Checker.finding_count c);
  Alcotest.(check int) "empty list" 0 (List.length (Checker.findings c))

(* The run registry, seen from checking: a run whose only instrument is
   a checker is kept, an unarmed run is not, and [drain] sorts by label. *)
let test_collect_sorts_and_skips_disarmed () =
  ignore (Arm.drain ());
  Arm.publish ~label:(fun () -> "ignored") Core.Obs.Recorder.null Checker.null
    Core.Fault.Injector.null;
  Alcotest.(check int) "disarmed not kept" 0 (List.length (Arm.drain ()));
  Arm.publish ~label:(fun () -> "b-run") Core.Obs.Recorder.null (Checker.create ())
    Core.Fault.Injector.null;
  Arm.publish ~label:(fun () -> "a-run") Core.Obs.Recorder.null (Checker.create ())
    Core.Fault.Injector.null;
  let labels = List.map (fun r -> r.Arm.label) (Arm.drain ()) in
  Alcotest.(check (list string)) "drain sorted by label" [ "a-run"; "b-run" ] labels

(* --- race detection ----------------------------------------------------- *)

let test_unlocked_shared_write_is_a_race () =
  let m, check = armed_machine two_cpu in
  let p = M.create_proc m () in
  let body _ ctx =
    for _ = 1 to 50 do
      M.write_mem ctx shared_addr;
      M.work_exact ctx 200
    done
  in
  ignore (M.spawn p ~name:"w0" (body 0));
  ignore (M.spawn p ~name:"w1" (body 1));
  M.run m;
  Alcotest.(check int) "one finding" 1 (Checker.finding_count check);
  match Checker.findings check with
  | [ f ] ->
      Alcotest.(check string) "kind" "race" (Checker.kind_label f.Checker.kind);
      Alcotest.(check int) "address" shared_addr f.Checker.addr
  | fs -> Alcotest.failf "expected 1 finding, got %d" (List.length fs)

let test_common_lock_suppresses_race () =
  let m, check = armed_machine two_cpu in
  let p = M.create_proc m () in
  let mu = M.Mutex.create m ~name:"guard" () in
  let body _ ctx =
    for _ = 1 to 50 do
      M.Mutex.lock mu ctx;
      M.write_mem ctx shared_addr;
      M.Mutex.unlock mu ctx;
      M.work_exact ctx 200
    done
  in
  ignore (M.spawn p ~name:"w0" (body 0));
  ignore (M.spawn p ~name:"w1" (body 1));
  M.run m;
  Alcotest.(check int) "clean" 0 (Checker.finding_count check)

let test_lockset_refinement () =
  (* Eraser seeds the candidate lockset when an address goes shared and
     refines it by intersection on every later access. [common] is
     always protected by [l2] (w0 sometimes also holds [l1]), so its
     candidate set never empties. [disjoint] is touched under [l1] by
     one thread and [l2] by the other: the third access empties the
     set and must be flagged. *)
  let m, check = armed_machine two_cpu in
  let p = M.create_proc m () in
  let l1 = M.Mutex.create m ~name:"l1" () in
  let l2 = M.Mutex.create m ~name:"l2" () in
  let common = shared_addr and disjoint = shared_addr + 0x40 in
  ignore
    (M.spawn p ~name:"w0" (fun ctx ->
         M.Mutex.lock l1 ctx;
         M.Mutex.lock l2 ctx;
         M.write_mem ctx common;
         M.write_mem ctx disjoint;
         M.Mutex.unlock l2 ctx;
         M.Mutex.unlock l1 ctx;
         M.work_exact ctx 100_000;
         M.Mutex.lock l1 ctx;
         M.write_mem ctx disjoint;
         M.Mutex.unlock l1 ctx;
         M.Mutex.lock l2 ctx;
         M.write_mem ctx common;
         M.Mutex.unlock l2 ctx));
  ignore
    (M.spawn p ~name:"w1" (fun ctx ->
         M.work_exact ctx 30_000;
         M.Mutex.lock l2 ctx;
         M.write_mem ctx common;
         M.write_mem ctx disjoint;
         M.Mutex.unlock l2 ctx));
  M.run m;
  Alcotest.(check (list string)) "only the disjoint address races" [ "race" ]
    (List.map Checker.kind_label (kinds check));
  match Checker.findings check with
  | [ f ] -> Alcotest.(check int) "racy address" disjoint f.Checker.addr
  | _ -> Alcotest.fail "expected exactly one finding"

(* --- deadlock diagnosis ------------------------------------------------- *)

let test_two_mutex_deadlock_reports_cycle () =
  let m = M.create ~seed:5 two_cpu in
  let p = M.create_proc m () in
  let a = M.Mutex.create m ~name:"lock-a" () in
  let b = M.Mutex.create m ~name:"lock-b" () in
  let grab first second ctx =
    M.Mutex.lock first ctx;
    M.work_exact ctx 20_000;
    M.Mutex.lock second ctx;
    M.Mutex.unlock second ctx;
    M.Mutex.unlock first ctx
  in
  ignore (M.spawn p ~name:"fwd" (grab a b));
  ignore (M.spawn p ~name:"rev" (grab b a));
  match M.run m with
  | () -> Alcotest.fail "expected a deadlock"
  | exception Engine.Stalled st ->
      Alcotest.(check int) "both threads stuck" 2 (List.length st.Engine.waiters);
      Alcotest.(check int) "cycle of two" 2 (List.length st.Engine.cycle);
      List.iter
        (fun w ->
          Alcotest.(check bool)
            (Printf.sprintf "%s waits on a mutex" w.Engine.wname)
            true
            (String.length w.Engine.wwhy > 16
            && String.sub w.Engine.wwhy 0 16 = "blocked on mutex");
          Alcotest.(check bool) "waits on a real pid" true (w.Engine.wwaits_on >= 0))
        st.Engine.cycle;
      let msg = Engine.stall_message st in
      let contains needle =
        let nl = String.length needle and ml = String.length msg in
        let rec find i =
          i + nl <= ml && (String.sub msg i nl = needle || find (i + 1))
        in
        find 0
      in
      Alcotest.(check bool) "message names the cycle" true (contains "deadlock cycle:");
      Alcotest.(check bool) "message names lock-a" true (contains "lock-a");
      Alcotest.(check bool) "message names lock-b" true (contains "lock-b")

(* --- allocation sanitizer ----------------------------------------------- *)

let with_serial_alloc f =
  let m, check = armed_machine two_cpu in
  let p = M.create_proc m () in
  let alloc = Mb_alloc.Serial.(allocator (make p ())) in
  ignore (M.spawn p ~name:"w" (fun ctx -> f alloc ctx));
  M.run m;
  check

let test_double_free_detected_and_survived () =
  let check =
    with_serial_alloc (fun a ctx ->
        let user = a.Core.Allocator.malloc ctx 64 in
        a.Core.Allocator.free ctx user;
        (* The second free must be recorded and suppressed, not crash
           the simulated heap. *)
        a.Core.Allocator.free ctx user;
        ignore (a.Core.Allocator.malloc ctx 64))
  in
  Alcotest.(check (list string)) "double-free" [ "double-free" ]
    (List.map Checker.kind_label (kinds check))

let test_use_after_free_detected () =
  let check =
    with_serial_alloc (fun a ctx ->
        let user = a.Core.Allocator.malloc ctx 64 in
        a.Core.Allocator.free ctx user;
        M.write_mem ctx user)
  in
  Alcotest.(check (list string)) "use-after-free" [ "use-after-free" ]
    (List.map Checker.kind_label (kinds check))

let test_out_of_bounds_touch_detected () =
  let check =
    with_serial_alloc (fun a ctx ->
        let user = a.Core.Allocator.malloc ctx 64 in
        let usable = a.Core.Allocator.usable_size user in
        M.touch_range ctx user ~len:(usable + 128);
        a.Core.Allocator.free ctx user)
  in
  Alcotest.(check (list string)) "out-of-bounds" [ "out-of-bounds" ]
    (List.map Checker.kind_label (kinds check))

let test_clean_reuse_stays_clean () =
  (* Malloc/write/free/realloc churn with blocks recycled across
     iterations: the reset-on-alloc rule must keep reuse from reading
     as a race or a stale sanitizer state. *)
  let check =
    with_serial_alloc (fun a ctx ->
        for _ = 1 to 100 do
          let u = a.Core.Allocator.malloc ctx 48 in
          M.write_mem ctx u;
          let u' = Core.Allocator.realloc a ctx u 200 in
          M.write_mem ctx u';
          a.Core.Allocator.free ctx u'
        done)
  in
  Alcotest.(check int) "clean" 0 (Checker.finding_count check)

(* --- non-perturbation --------------------------------------------------- *)

let test_checking_does_not_perturb () =
  let params =
    { B1.default with B1.workers = 3; iterations = 400; paper_iterations = 400 }
  in
  let dark = B1.run params in
  let lit =
    checking (fun () ->
        let r = B1.run params in
        (match Arm.drain () with
        | [ run ] -> Alcotest.(check int) "bench1 is clean" 0 (Checker.finding_count run.Arm.checker)
        | runs -> Alcotest.failf "expected 1 checked run, got %d" (List.length runs));
        r)
  in
  List.iter2
    (fun a b -> Alcotest.(check (float 0.)) "identical elapsed" a b)
    dark.B1.elapsed_s lit.B1.elapsed_s;
  Alcotest.(check int) "identical ctx switches" dark.B1.ctx_switches lit.B1.ctx_switches;
  Alcotest.(check int) "identical contention" dark.B1.lock_contended_ops
    lit.B1.lock_contended_ops

let suite =
  [ Alcotest.test_case "null checker records nothing" `Quick test_null_checker_records_nothing;
    Alcotest.test_case "collect sorts, skips disarmed" `Quick
      test_collect_sorts_and_skips_disarmed;
    Alcotest.test_case "unlocked shared write is a race" `Quick
      test_unlocked_shared_write_is_a_race;
    Alcotest.test_case "common lock suppresses race" `Quick test_common_lock_suppresses_race;
    Alcotest.test_case "lockset refinement" `Quick test_lockset_refinement;
    Alcotest.test_case "two-mutex deadlock reports cycle" `Quick
      test_two_mutex_deadlock_reports_cycle;
    Alcotest.test_case "double-free detected and survived" `Quick
      test_double_free_detected_and_survived;
    Alcotest.test_case "use-after-free detected" `Quick test_use_after_free_detected;
    Alcotest.test_case "out-of-bounds touch detected" `Quick test_out_of_bounds_touch_detected;
    Alcotest.test_case "clean reuse stays clean" `Quick test_clean_reuse_stays_clean;
    Alcotest.test_case "checking does not perturb runs" `Quick test_checking_does_not_perturb
  ]

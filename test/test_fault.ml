(* Tests for the deterministic fault-injection layer: the plan DSL, the
   seeded injector's reproducibility, the instrument-layer retry/backoff
   bounds, and graceful degradation of the workloads under pressure. *)

module M = Core.Machine
module A = Core.Allocator
module Fault = Core.Fault.Injector
module Plan = Core.Fault.Plan
module Arm = Core.Arm
module B2 = Core.Bench2

(* Run [f] with [plan] armed, then disarm and discard any published
   run. *)
let with_plan plan seed f =
  Arm.set { Arm.off with Arm.faults = Some (plan, seed) };
  Fun.protect
    ~finally:(fun () ->
      Arm.set Arm.off;
      ignore (Arm.drain ()))
    f

(* --- plan parsing ------------------------------------------------------- *)

let test_plan_parse () =
  let check_ok s expected =
    match Plan.parse s with
    | Ok v -> Alcotest.(check string) s expected (Plan.to_string v)
    | Error msg -> Alcotest.failf "%s: unexpected parse error %s" s msg
  in
  check_ok "none" "none";
  check_ok "oom-pressure" "oom-pressure:1";
  check_ok "flaky-reserve:9" "flaky-reserve:9";
  check_ok "preempt-storm:0" "preempt-storm:0";
  check_ok "slow-lock:123" "slow-lock:123";
  let check_err s =
    match Plan.parse s with
    | Error _ -> ()
    | Ok v -> Alcotest.failf "%s: expected an error, parsed %s" s (Plan.to_string v)
  in
  check_err "oom";
  check_err "oom-pressure:abc";
  check_err "oom-pressure:-3";
  check_err ""

let test_plan_all_labels_round_trip () =
  List.iter
    (fun (name, plan) ->
      Alcotest.(check string) name name (Plan.label plan);
      match Plan.parse name with
      | Ok (Some (p, 1)) when p = plan -> ()
      | _ -> Alcotest.failf "%s does not parse back to its plan" name)
    Plan.all

(* --- injector basics ---------------------------------------------------- *)

let test_null_injector_is_inert () =
  let i = Fault.null in
  Alcotest.(check bool) "disarmed" false (Fault.armed i);
  for _ = 1 to 100 do
    assert (not (Fault.veto_reserve i ~now_ns:0. ~load:max_int ~len:4096));
    assert (not (Fault.preempt_now i));
    assert (Fault.stretch_cycles i = 0)
  done;
  Alcotest.(check int) "nothing injected" 0 (Fault.injected i)

(* The run registry, seen from fault injection: a run whose only
   instrument is an injector is kept, an unarmed run is not, and [drain]
   sorts by label. *)
let test_collect_sorts_and_skips_disarmed () =
  ignore (Arm.drain ());
  Arm.publish ~label:(fun () -> "ignored") Core.Obs.Recorder.null Core.Check.Checker.null
    Fault.null;
  Alcotest.(check int) "disarmed not kept" 0 (List.length (Arm.drain ()));
  Arm.publish ~label:(fun () -> "b-run") Core.Obs.Recorder.null Core.Check.Checker.null
    (Fault.create ~plan:Plan.Slow_lock ~seed:1);
  Arm.publish ~label:(fun () -> "a-run") Core.Obs.Recorder.null Core.Check.Checker.null
    (Fault.create ~plan:Plan.Slow_lock ~seed:2);
  let labels = List.map (fun r -> r.Arm.label) (Arm.drain ()) in
  Alcotest.(check (list string)) "drain sorted by label" [ "a-run"; "b-run" ] labels

(* --- qcheck: same plan+seed => identical injected-event sequence -------- *)

(* A query script drives the injector's three decision hooks; replaying
   the same script against two injectors built from the same plan and
   seed must produce the same decision at every step. *)
let replay_decisions plan seed script =
  let i = Fault.create ~plan ~seed in
  List.map
    (fun (tag, a, b) ->
      match tag mod 3 with
      | 0 ->
          if Fault.veto_reserve i ~now_ns:(float_of_int (a * 1000)) ~load:(a * 4096) ~len:(b + 1)
          then 1
          else 0
      | 1 -> if Fault.preempt_now i then 1 else 0
      | _ -> Fault.stretch_cycles i)
    script

let prop_same_seed_same_schedule =
  QCheck.Test.make ~name:"same plan+seed replays the same fault schedule" ~count:200
    QCheck.(
      triple (int_bound 3) (int_bound 1000)
        (list_of_size Gen.(int_range 1 200) (triple small_nat small_nat small_nat)))
    (fun (plan_ix, seed, script) ->
      let plan = snd (List.nth Plan.all plan_ix) in
      replay_decisions plan seed script = replay_decisions plan seed script)

(* --- retry/backoff bounds ----------------------------------------------- *)

(* An allocator whose malloc always fails lets us count exactly how many
   attempts the instrument layer makes and how much simulated time the
   backoff consumes. *)
let always_failing_allocator p attempts =
  A.instrument p
    { A.name = "failing";
      malloc =
        (fun _ctx size ->
          incr attempts;
          A.out_of_memory ~bytes:size "failing");
      free = (fun _ctx _addr -> ());
      usable_size = (fun size -> size);
      stats = Core.Astats.create ();
      validate = (fun () -> Ok ());
      origins = Hashtbl.create 8;
    }

let test_retry_bounds_when_armed () =
  let m = with_plan Plan.Flaky_reserve 5 (fun () -> M.create ~seed:3 M.default_config) in
  let p = M.create_proc m () in
  let attempts = ref 0 in
  let alloc = always_failing_allocator p attempts in
  let raised = ref false in
  let elapsed = ref 0. in
  ignore
    (M.spawn p (fun ctx ->
         let t0 = M.now ctx in
         (try ignore (alloc.A.malloc ctx 64)
          with Fault.Alloc_failure _ -> raised := true);
         elapsed := M.now ctx -. t0));
  M.run m;
  Alcotest.(check bool) "failure surfaced after retries" true !raised;
  Alcotest.(check int) "initial try + max_retries" (Fault.max_retries + 1) !attempts;
  (* Backoff runs in simulated time: at least the sum of the exponential
     delays (cycles scale to >= 1 ns/cycle on the default machine). *)
  let min_backoff_cycles = ref 0 in
  for i = 0 to Fault.max_retries - 1 do
    min_backoff_cycles := !min_backoff_cycles + Fault.backoff_cycles i
  done;
  Alcotest.(check bool) "backoff consumed simulated time" true (!elapsed > 0.);
  Alcotest.(check bool)
    (Printf.sprintf "backoff grows exponentially (%d cycles total)" !min_backoff_cycles)
    true
    (Fault.backoff_cycles 3 = 8 * Fault.backoff_cycles 0)

let test_no_retry_when_disarmed () =
  let m = M.create ~seed:3 M.default_config in
  let p = M.create_proc m () in
  let attempts = ref 0 in
  let alloc = always_failing_allocator p attempts in
  let raised = ref false in
  ignore
    (M.spawn p (fun ctx ->
         try ignore (alloc.A.malloc ctx 64) with Fault.Alloc_failure _ -> raised := true));
  M.run m;
  Alcotest.(check bool) "failure surfaced" true !raised;
  Alcotest.(check int) "single attempt, no retry loop" 1 !attempts

(* --- workloads degrade gracefully under pressure ------------------------ *)

let quick_bench2 factory =
  { B2.default with
    B2.threads = 3;
    rounds = 2;
    objects_per_thread = 10_000;
    replacements_per_round = 800;
    factory;
  }

let all_factories =
  [ Core.Factory.ptmalloc ();
    Core.Factory.serial_solaris ();
    Core.Factory.perthread ();
    Core.Factory.slab ();
    Core.Factory.hoard ();
  ]

(* Bench2.run validates the heap before returning, so completing at all
   asserts the invariants survived the injected failures. Every
   allocator degrades some operations under this plan, and each one the
   workload skipped is one the injectors counted as degraded; the
   injectors may count more, since a thread spawn also degrades. *)
let test_bench2_survives_oom_pressure () =
  List.iter
    (fun (factory : Core.Factory.t) ->
      with_plan Plan.Oom_pressure 1 (fun () ->
          let r = B2.run (quick_bench2 factory) in
          let runs = Arm.drain () in
          let sum f = List.fold_left (fun acc run -> acc + f run.Arm.injector) 0 runs in
          let label = factory.Core.Factory.label in
          Alcotest.(check bool)
            (label ^ ": pressure actually injected")
            true (sum Fault.injected > 0);
          Alcotest.(check bool)
            (Printf.sprintf "%s: degraded ops counted (%d)" label r.B2.degraded_ops)
            true (r.B2.degraded_ops > 0);
          Alcotest.(check bool)
            (Printf.sprintf "%s: degraded ops %d within the injectors' %d" label r.B2.degraded_ops
               (sum Fault.degraded))
            true
            (r.B2.degraded_ops <= sum Fault.degraded)))
    all_factories

let test_faults_off_results_unchanged () =
  let baseline = B2.run (quick_bench2 (Core.Factory.ptmalloc ())) in
  let again = B2.run (quick_bench2 (Core.Factory.ptmalloc ())) in
  Alcotest.(check int) "minor faults reproducible" baseline.B2.minor_faults again.B2.minor_faults;
  Alcotest.(check int) "no degradation without a plan" 0 baseline.B2.degraded_ops

let test_spawn_survives_flaky_reserve () =
  with_plan Plan.Flaky_reserve 11 (fun () ->
      let m = M.create ~seed:4 M.default_config in
      let p = M.create_proc m () in
      let finished = ref 0 in
      for _ = 1 to 32 do
        ignore (M.spawn p (fun ctx -> M.work_exact ctx 1_000; incr finished))
      done;
      M.run m;
      Alcotest.(check int) "every thread ran despite vetoed stack maps" 32 !finished)

let suite =
  [ Alcotest.test_case "plan: parse syntax" `Quick test_plan_parse;
    Alcotest.test_case "plan: labels round-trip" `Quick test_plan_all_labels_round_trip;
    Alcotest.test_case "injector: null is inert" `Quick test_null_injector_is_inert;
    Alcotest.test_case "collect: sorts, skips disarmed" `Quick test_collect_sorts_and_skips_disarmed;
    QCheck_alcotest.to_alcotest prop_same_seed_same_schedule;
    Alcotest.test_case "retry: bounded with backoff when armed" `Quick test_retry_bounds_when_armed;
    Alcotest.test_case "retry: absent when disarmed" `Quick test_no_retry_when_disarmed;
    Alcotest.test_case "bench2: survives oom-pressure on all allocators" `Quick
      test_bench2_survives_oom_pressure;
    Alcotest.test_case "bench2: faults-off results unchanged" `Quick
      test_faults_off_results_unchanged;
    Alcotest.test_case "spawn: survives flaky-reserve" `Quick test_spawn_survives_flaky_reserve;
  ]

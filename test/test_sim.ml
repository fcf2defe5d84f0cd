(* Tests for the effects-based engine. *)

module Engine = Core.Engine

(* [Engine.at] for callers that never cancel. *)
let at e time thunk = ignore (Engine.at e time thunk : Engine.handle)

let test_delay_accumulates () =
  let e = Engine.create () in
  let finish = ref 0. in
  ignore
    (Engine.spawn e (fun () ->
         Engine.delay 5.;
         Engine.delay 7.;
         finish := Engine.now e));
  Engine.run e;
  Alcotest.(check (float 0.)) "12 ns" 12. !finish

let test_interleaving_order () =
  let e = Engine.create () in
  let log = ref [] in
  let say s = log := s :: !log in
  ignore (Engine.spawn e (fun () -> say "a0"; Engine.delay 10.; say "a1"));
  ignore (Engine.spawn e (fun () -> say "b0"; Engine.delay 5.; say "b1"));
  Engine.run e;
  Alcotest.(check (list string)) "time order" [ "a0"; "b0"; "b1"; "a1" ] (List.rev !log)

let test_park_resume () =
  let e = Engine.create () in
  let resume = ref None in
  let woke_at = ref 0. in
  ignore
    (Engine.spawn e (fun () ->
         Engine.park (fun r -> resume := Some r);
         woke_at := Engine.now e));
  ignore
    (Engine.spawn e (fun () ->
         Engine.delay 42.;
         match !resume with Some r -> r () | None -> Alcotest.fail "resume not registered"));
  Engine.run e;
  Alcotest.(check (float 0.)) "woken at resume time" 42. !woke_at

let test_double_resume_raises () =
  let e = Engine.create () in
  let resume = ref None in
  ignore (Engine.spawn e (fun () -> Engine.park (fun r -> resume := Some r)));
  ignore
    (Engine.spawn e (fun () ->
         Engine.delay 1.;
         let r = Option.get !resume in
         r ();
         Alcotest.check_raises "second resume"
           (Invalid_argument "Engine: process proc-0 resumed twice") (fun () -> r ())));
  Engine.run e

let test_stalled_detection () =
  let e = Engine.create () in
  let pid = Engine.spawn e ~name:"stuck" (fun () -> Engine.park (fun _ -> ())) in
  match Engine.run e with
  | () -> Alcotest.fail "expected Stalled"
  | exception Engine.Stalled st -> (
      match st.Engine.waiters with
      | [ w ] ->
          Alcotest.(check int) "waiter pid" pid w.Engine.wpid;
          Alcotest.(check string) "waiter name" "stuck" w.Engine.wname;
          Alcotest.(check string) "default why" "parked" w.Engine.wwhy;
          Alcotest.(check int) "no wait target" (-1) w.Engine.wwaits_on;
          Alcotest.(check int) "no cycle" 0 (List.length st.Engine.cycle)
      | ws -> Alcotest.fail (Printf.sprintf "expected 1 waiter, got %d" (List.length ws)))

let test_spawn_from_process () =
  let e = Engine.create () in
  let child_ran = ref false in
  ignore
    (Engine.spawn e (fun () ->
         Engine.delay 3.;
         ignore (Engine.spawn e (fun () -> child_ran := true))));
  Engine.run e;
  Alcotest.(check bool) "child ran" true !child_ran;
  Alcotest.(check int) "all finished" 0 (Engine.live e)

let test_at_callback () =
  let e = Engine.create () in
  let fired = ref 0. in
  at e 9. (fun () -> fired := Engine.now e);
  Engine.run e;
  Alcotest.(check (float 0.)) "at time" 9. !fired

(* NaN compares false against everything, so a guard written as
   [time < now] would let it through: it would sort after every real
   time and set the clock to NaN when it fired. *)
let test_at_past_raises () =
  let e = Engine.create () in
  let past = Invalid_argument "Engine.at: time in the past" in
  Alcotest.check_raises "NaN before run" past (fun () -> at e nan ignore);
  at e 5. (fun () ->
      Alcotest.check_raises "past" past (fun () -> at e 1. ignore);
      Alcotest.check_raises "NaN" past (fun () -> at e nan ignore));
  Engine.run e;
  Alcotest.(check (float 0.)) "clock untouched" 5. (Engine.now e)

(* Both delay paths: the effect ([delay]) and [delay_pending] with the
   queue empty (its immediate-resume fast path) and with an earlier
   event queued (the suspend path). *)
let test_negative_delay_raises () =
  let e = Engine.create () in
  let negative = Invalid_argument "Engine.delay: negative delay" in
  let pending ns () = Engine.delay_pending e ns in
  ignore
    (Engine.spawn e (fun () ->
         Alcotest.check_raises "negative" negative (fun () -> Engine.delay (-1.));
         Alcotest.check_raises "NaN" negative (fun () -> Engine.delay nan);
         Alcotest.check_raises "pending negative" negative (pending (-1.));
         Alcotest.check_raises "pending NaN" negative (pending nan);
         at e (Engine.now e +. 1.) ignore;
         Alcotest.check_raises "pending negative, queue busy" negative (pending (-1.));
         Alcotest.check_raises "pending NaN, queue busy" negative (pending nan);
         Engine.delay 2.));
  Engine.run e;
  Alcotest.(check (float 0.)) "clock untouched" 2. (Engine.now e)

(* [runs_next] is [delay_pending]'s test: a delay that ends strictly
   before everything queued runs in place, and one that ties a queued
   event goes behind it. *)
let test_runs_next () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.spawn e (fun () ->
         Alcotest.(check bool) "empty queue" true (Engine.runs_next e 1e9);
         at e 1. (fun () -> log := "event" :: !log);
         Alcotest.(check bool) "earlier" true (Engine.runs_next e 0.5);
         Alcotest.(check bool) "tie" false (Engine.runs_next e 1.);
         Alcotest.(check bool) "later" false (Engine.runs_next e 2.);
         Engine.delay_pending e 0.5;
         log := "in place" :: !log;
         Engine.delay_pending e 0.5;
         log := "queued" :: !log));
  Engine.run e;
  Alcotest.(check (list string)) "order" [ "in place"; "event"; "queued" ] (List.rev !log)

let test_yield_lets_peers_run () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.spawn e (fun () -> log := "a0" :: !log; Engine.delay 0.; log := "a1" :: !log));
  ignore (Engine.spawn e (fun () -> log := "b0" :: !log));
  Engine.run e;
  Alcotest.(check (list string)) "b interleaves" [ "a0"; "b0"; "a1" ] (List.rev !log)

let test_exception_propagates () =
  let e = Engine.create () in
  ignore (Engine.spawn e (fun () -> failwith "boom"));
  Alcotest.check_raises "propagates" (Failure "boom") (fun () -> Engine.run e)

(* [at]'s guard holds before the run and during it, from a bare
   callback and from a process, and a rejected time queues nothing. *)
let test_at_past_raises_in_process () =
  let e = Engine.create () in
  let past = Invalid_argument "Engine.at: time in the past" in
  let schedule time () = at e time ignore in
  Alcotest.check_raises "past before run" past (schedule (-1.));
  Alcotest.check_raises "NaN before run" past (schedule nan);
  at e 5. (fun () ->
      Alcotest.check_raises "past" past (schedule 1.);
      Alcotest.check_raises "NaN" past (schedule nan));
  ignore
    (Engine.spawn e (fun () ->
         Engine.delay 6.;
         Alcotest.check_raises "past, in a process" past (schedule 5.);
         Alcotest.check_raises "NaN, in a process" past (schedule nan)));
  Engine.run e;
  Alcotest.(check (float 0.)) "clock untouched" 6. (Engine.now e)

let suite =
  [ Alcotest.test_case "delay accumulates" `Quick test_delay_accumulates;
    Alcotest.test_case "interleaving order" `Quick test_interleaving_order;
    Alcotest.test_case "park/resume" `Quick test_park_resume;
    Alcotest.test_case "double resume raises" `Quick test_double_resume_raises;
    Alcotest.test_case "stalled detection" `Quick test_stalled_detection;
    Alcotest.test_case "spawn from process" `Quick test_spawn_from_process;
    Alcotest.test_case "bare callback" `Quick test_at_callback;
    Alcotest.test_case "at in the past raises" `Quick test_at_past_raises;
    Alcotest.test_case "negative delay raises" `Quick test_negative_delay_raises;
    Alcotest.test_case "yield interleaves" `Quick test_yield_lets_peers_run;
    Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
    Alcotest.test_case "at in the past raises in a process" `Quick test_at_past_raises_in_process;
    Alcotest.test_case "runs_next is delay_pending's test" `Quick test_runs_next;
  ]

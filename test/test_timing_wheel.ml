(* Property tests for the event queue (a sorted ring plus one overflow
   heap) and the engine built on it: pop order must be exactly
   (time, seq) — identical to a sorted reference — under random
   push/pop/cancel interleavings, from an empty queue and from a full
   ring with equal times on both sides of the ring/heap boundary; and
   the engine must fire its events in that order whether they were
   scheduled before the run or by firing events, and never fire one it
   cancelled. *)

module Tw = Mb_sim.Timing_wheel
module Engine = Mb_sim.Engine
module Obs = Mb_obs.Recorder

(* Times with heavy ties, multiples of 2^10 and 2^18 ns and their
   neighbours, spreads from nanoseconds to seconds, and times past
   2^52 ns, where a nanosecond is a whole ulp. *)
let time_gen =
  QCheck.Gen.(
    oneof
      [ map float_of_int (int_bound 50);
        map (fun k -> float_of_int (k * 1024)) (int_bound 600);
        map (fun k -> float_of_int ((k * 1024) + 1)) (int_bound 600);
        map (fun k -> float_of_int ((k * 1024) - 1)) (int_range 1 600);
        map (fun k -> float_of_int (k * 262144)) (int_bound 600);
        map (fun k -> float_of_int ((k * 262144) + 1)) (int_bound 600);
        map (fun k -> float_of_int k *. 1048576.) (int_bound 2000);
        map (fun k -> float_of_int k *. 1e8) (int_bound 100);
        map (fun k -> 4503599627370496. +. (float_of_int k *. 1e10)) (int_bound 10);
        map (fun f -> Float.of_int (int_of_float (f *. 1e7))) (float_bound_inclusive 1.);
      ])

let time_arb = QCheck.make ~print:string_of_float time_gen

(* Every queue property runs 100 times longer under QCHECK_LONG=1: no
   workload leaves the ring, so these are all the heap path gets. *)
let long_factor = 100

(* --- timing wheel vs sorted (key, pk) list --------------------------- *)

(* Which pending item a cancel removes, in the queue's (key, pk) order:
   the first, the ring's last, or the [n]-th modulo the queue's length
   (anywhere in the ring or the heap). *)
type pick = Head | Ring_tail | Nth of int

type op = Push of float | Pop | Cancel of pick

let print_op = function
  | Push time -> Printf.sprintf "push %h" time
  | Pop -> "pop"
  | Cancel Head -> "cancel head"
  | Cancel Ring_tail -> "cancel ring tail"
  | Cancel (Nth n) -> Printf.sprintf "cancel #%d" n

let op_arb ~push ~pop ~cancel time_gen =
  QCheck.make ~print:print_op
    QCheck.Gen.(
      frequency
        [ (push, map (fun t -> Push t) time_gen);
          (pop, return Pop);
          ( cancel,
            map (fun p -> Cancel p)
              (frequency [ (1, return Head); (1, return Ring_tail); (2, map (fun n -> Nth n) nat) ])
          );
        ])

(* Push [prefill] in order, then run [ops], checking every pop, every
   removal and the final drain against a sorted (key, pk) list. A
   removal must find its item, leave the queue's minimum where the
   model has it, and find nothing when repeated. *)
let matches_sorted_model ?(prefill = []) ops =
  let w = Tw.create () in
  let model = ref [] in
  let seq = ref 0 in
  let head_ok () =
    match !model with
    | [] -> Tw.is_empty w && Tw.peek_key w = max_int && Tw.peek_pk w = max_int
    | (k, p) :: _ -> Tw.peek_key w = k && Tw.peek_pk w = p
  in
  let push time =
    let key = Tw.key_of_time time and pk = !seq in
    incr seq;
    Tw.push w key pk;
    let rec insert = function
      | [] -> [ (key, pk) ]
      | ((k, p) as hd) :: tl ->
          if key < k || (key = k && pk < p) then (key, pk) :: hd :: tl else hd :: insert tl
    in
    model := insert !model;
    Tw.length w = List.length !model
  in
  let step = function
    | Push time -> push time
    | Pop -> (
        match !model with
        | [] -> head_ok ()
        | _ :: tl ->
            let ok = head_ok () in
            Tw.pop w;
            model := tl;
            ok)
    | Cancel pick -> (
        match !model with
        | [] -> (not (Tw.remove w 0)) && head_ok ()
        | m ->
            let n = List.length m in
            let i =
              match pick with Head -> 0 | Ring_tail -> Tw.ring_length w - 1 | Nth k -> k mod n
            in
            let _, pk = List.nth m i in
            let removed = Tw.remove w pk in
            model := List.filter (fun (_, p) -> p <> pk) m;
            removed
            && (not (Tw.remove w pk))
            && Tw.length w = n - 1
            && head_ok ())
  in
  let rec drain () = if !model = [] then head_ok () else step Pop && drain () in
  List.for_all push prefill && List.for_all step ops && drain ()

let prop_wheel_fuzz_vs_model =
  QCheck.Test.make ~name:"wheel push/pop fuzz matches sorted model" ~count:300 ~long_factor
    QCheck.(list_of_size Gen.(int_range 0 500) (op_arb ~push:5 ~pop:4 ~cancel:1 time_gen))
    (fun ops -> matches_sorted_model ops)

(* Aimed at the ring/heap boundary: the ring starts full at 100 ns, so
   later pushes spill to the heap; pushes outnumber pops and cancels
   3:2:1, so the queue stays deep; and a handful of times, near and
   past 2^52 ns, make refills meet ties. A refill that moved only the
   heap root into the ring would let a later equal-time push overtake
   the root's equal-time siblings still in the heap. Cancels take
   items from the heap and from the ring, and now and then the ring's
   last item, which refills the ring as a pop does. *)
let boundary_time_gen =
  QCheck.Gen.(
    oneof
      [ map (fun k -> float_of_int (100 + k)) (int_bound 8);
        map (fun k -> 4503599627370496. +. float_of_int k) (int_bound 3);
      ])

let prop_wheel_boundary_fuzz =
  QCheck.Test.make ~name:"wheel ring/heap boundary fuzz matches sorted model" ~count:300
    ~long_factor
    QCheck.(list_of_size Gen.(int_range 0 500) (op_arb ~push:3 ~pop:2 ~cancel:1 boundary_time_gen))
    (fun ops -> matches_sorted_model ~prefill:(List.init Tw.ring_target (fun _ -> 100.)) ops)

let prop_wheel_drain_sorted =
  QCheck.Test.make ~name:"wheel full drain is (time, seq) sorted" ~count:300 ~long_factor
    QCheck.(list_of_size Gen.(int_range 0 400) time_arb)
    (fun times ->
      let w = Tw.create () in
      List.iteri (fun i time -> Tw.push w (Tw.key_of_time time) i) times;
      let expected =
        List.stable_sort (fun (t1, _) (t2, _) -> compare t1 t2)
          (List.mapi (fun i time -> (time, i)) times)
      in
      let rec drain acc =
        if Tw.is_empty w then List.rev acc
        else begin
          let k = Tw.peek_key w and p = Tw.peek_pk w in
          Tw.pop w;
          drain ((Tw.time_of_key k, p) :: acc)
        end
      in
      drain [] = expected)

(* A removal at each place it can hit, with the queue's shape checked
   at each step: the ring's head, middle and tail, a heap item among
   equal times, and the ring's last item while the heap holds more,
   which refills the ring with the heap's minimum key. *)
let test_wheel_remove_places () =
  let w = Tw.create () in
  let n = Tw.ring_target in
  for i = 0 to n - 1 do
    Tw.push w (Tw.key_of_time (float_of_int i)) i
  done;
  let far = Tw.key_of_time 1e9 in
  for i = n to n + 3 do
    Tw.push w far i
  done;
  let shape what r h =
    Alcotest.(check (pair int int)) what (r, h) (Tw.ring_length w, Tw.length w - Tw.ring_length w)
  in
  shape "full ring, four far items in the heap" n 4;
  let remove what pk =
    Alcotest.(check bool) what true (Tw.remove w pk);
    Alcotest.(check bool) (what ^ ", again") false (Tw.remove w pk)
  in
  remove "ring head" 0;
  remove "ring middle" (n / 2);
  remove "ring tail" (n - 1);
  shape "three gone from the ring" (n - 3) 4;
  remove "heap item" (n + 1);
  shape "one gone from the heap" (n - 3) 3;
  Alcotest.(check int) "minimum after a head removal" 1 (Tw.peek_pk w);
  while Tw.ring_length w > 1 do
    Tw.pop w
  done;
  remove "last ring item" (n - 2);
  shape "refilled from the heap" 3 0;
  let rec drain acc = if Tw.is_empty w then List.rev acc else begin
      let pk = Tw.peek_pk w in
      Tw.pop w;
      drain (pk :: acc)
    end
  in
  Alcotest.(check (list int)) "far items in pk order" [ n; n + 2; n + 3 ] (drain []);
  Alcotest.(check int) "removals counted" 5 (Tw.removals w)

(* Counters split pushes into exactly two destinations: ascending
   appends fill the ring to its target size, then overflow into the
   heap. *)
let test_wheel_counters () =
  let w = Tw.create () in
  let n = Tw.ring_target + 16 in
  for i = 0 to n - 1 do
    Tw.push w (Tw.key_of_time (float_of_int (i * 1024))) i
  done;
  Tw.push w (Tw.key_of_time (4503599627370496. +. 1e10)) n;
  Alcotest.(check int) "all pushes counted" (n + 1) (Tw.ring_hits w + Tw.heap_spills w);
  Alcotest.(check int) "ring absorbed up to its target" Tw.ring_target (Tw.ring_hits w);
  Alcotest.(check int) "the rest spilled to the heap" (n + 1 - Tw.ring_target) (Tw.heap_spills w);
  let rec drain n = if Tw.is_empty w then n else (Tw.pop w; drain (n + 1)) in
  Alcotest.(check int) "drains fully" (n + 1) (drain 0)

(* --- engine queue vs (time, insertion) model ------------------------- *)

(* Top-level events are scheduled before the run at absolute times;
   when one fires, it schedules its children [dt] after its own time,
   then cancels, for each of its picks, the pick-th pending event
   (modulo how many are pending, in (time, insertion) order). Up to 200
   top-level events keep far more than [ring_target] pending, so the
   engine's overflow, refill and heap removal branches run — no
   workload leaves the ring. *)
let engine_events_gen =
  QCheck.(
    list_of_size
      Gen.(int_range 0 200)
      (triple time_arb (list_of_size Gen.(int_bound 2) time_arb) (list_of_size Gen.(int_bound 1) small_nat)))

module Model = Map.Make (struct
  type t = float * int
  let compare = compare
end)

(* The key of the [pick]-th pending event, modulo how many there are. *)
let nth_pending pending pick =
  match Model.cardinal pending with
  | 0 -> None
  | n -> Some (fst (List.nth (Model.bindings pending) (pick mod n)))

(* Reference: a map ordered by (time, insertion index), popped minimum
   first. *)
let model_firing_order events =
  let pending = ref Model.empty and next = ref 0 in
  let schedule time kids picks =
    pending := Model.add (time, !next) (kids, picks) !pending;
    incr next
  in
  List.iter (fun (time, kids, picks) -> schedule time kids picks) events;
  let fired = ref [] in
  while not (Model.is_empty !pending) do
    let ((time, id) as k), (kids, picks) = Model.min_binding !pending in
    pending := Model.remove k !pending;
    fired := id :: !fired;
    List.iter (fun dt -> schedule (time +. dt) [] []) kids;
    List.iter
      (fun pick -> Option.iter (fun k -> pending := Model.remove k !pending) (nth_pending !pending pick))
      picks
  done;
  List.rev !fired

let stale = Invalid_argument "Engine.cancel: event already ran or was cancelled"

let cancel_raises e h =
  match Engine.cancel e h with
  | () -> false
  | exception ex -> ex = stale

(* The engine's side: the pending map holds each event's handle. Every
   cancelled handle, and after the run every handle, must raise when
   cancelled. *)
let engine_firing_order ?obs events =
  let e = Engine.create ?obs () in
  let log = ref [] and next = ref 0 in
  let pending = ref Model.empty and handles = ref [] in
  let schedule time on_fire =
    let id = !next in
    incr next;
    let h =
      Engine.at e time (fun () ->
          pending := Model.remove (time, id) !pending;
          log := id :: !log;
          on_fire ())
    in
    pending := Model.add (time, id) h !pending;
    handles := h :: !handles
  in
  let cancel pick =
    Option.iter
      (fun k ->
        let h = Model.find k !pending in
        Engine.cancel e h;
        pending := Model.remove k !pending;
        if not (cancel_raises e h) then failwith "a cancelled handle cancelled again")
      (nth_pending !pending pick)
  in
  List.iter
    (fun (time, kids, picks) ->
      schedule time (fun () ->
          let now = Engine.now e in
          List.iter (fun dt -> schedule (now +. dt) ignore) kids;
          List.iter cancel picks))
    events;
  Engine.run e;
  if not (List.for_all (cancel_raises e) !handles) then failwith "a handle that ran cancelled";
  (e, List.rev !log)

let prop_engine_queue_vs_model =
  QCheck.Test.make ~name:"engine fires events in (time, insertion) order" ~count:200
    ~long_factor engine_events_gen
    (fun events -> snd (engine_firing_order events) = model_firing_order events)

(* A cancelled event neither runs nor moves the clock, and its arena
   slot goes to the next event: a stale handle whose slot another event
   now holds still raises and leaves that event alone, and more
   schedule/cancel pairs than the arena's 2^20 slots never exhaust it. *)
let test_engine_cancel () =
  let e = Engine.create () in
  let schedule = Engine.at e in
  Alcotest.(check bool) "no_event raises" true (cancel_raises e Engine.no_event);
  for i = 1 to (1 lsl 20) + 1 do
    Engine.cancel e (schedule (float_of_int i) ignore)
  done;
  let log = ref [] in
  let fire tag () = log := tag :: !log in
  let a = schedule 5. (fire "A") in
  Engine.cancel e a;
  let b = schedule 5. (fire "B") in
  Alcotest.(check bool) "stale handle raises" true (cancel_raises e a);
  let c = schedule 9. (fire "C") in
  Engine.cancel e c;
  Engine.run e;
  Alcotest.(check (list string)) "only B ran" [ "B" ] !log;
  Alcotest.(check (float 0.)) "clock at B" 5. (Engine.now e);
  Alcotest.(check bool) "a handle that ran raises" true (cancel_raises e b)

(* A fixed deep, far-reaching schedule: the queue's counters must show
   that the property above really leaves the ring. *)
let test_engine_queue_overflows () =
  let events =
    List.init 300 (fun i ->
        (* ascending, so the ring fills to its target first; the far
           tail must come last or its gate would pull everything in *)
        let time = if i >= 290 then 4503599627370496. +. float_of_int i else float_of_int (i * 977) in
        (time, [ float_of_int (i * 31) ], []))
  in
  let obs = Obs.create ~trace:false ~metrics:true () in
  let e, order = engine_firing_order ~obs events in
  Alcotest.(check (list int)) "model order" (model_firing_order events) order;
  Engine.flush_observations e;
  let c = Obs.counter obs in
  Alcotest.(check int) "every push counted" (c "sched.shard.pushes")
    (c "sched.shard.ring_hits" + c "sched.shard.heap_spills");
  Alcotest.(check bool) "spilled to the heap" true (c "sched.shard.heap_spills" > 0)

(* Equal times past 2^52 ns, through the engine: 64 events at t = 0..63
   fill the ring, so A, B and C go to the heap, and when A fires it
   schedules D at its own time. D was scheduled last, so it fires
   last. A refill that moved only A into the ring put the gate past
   their time while B and C were still in the heap: B came in at the
   next refill, D then took the ring as a push below the gate, and C
   fired after it (A B D C). *)
let test_far_ties_keep_seq_order () =
  let e = Engine.create () in
  let log = ref [] in
  let fire tag () = log := tag :: !log in
  let at time thunk = ignore (Engine.at e time thunk : Engine.handle) in
  for i = 0 to 63 do
    at (float_of_int i) ignore
  done;
  let far = 4503599627370496. +. 1e10 in
  at far (fun () ->
      fire "A" ();
      at (Engine.now e) (fire "D"));
  at far (fire "B");
  at far (fire "C");
  Engine.run e;
  Alcotest.(check (list string)) "(time, seq) order" [ "A"; "B"; "C"; "D" ] (List.rev !log)

(* --- engine-level: the pinned schedule ---------------------------------- *)

(* One multi-process program and its event log, recorded literally:
   the schedule is pinned across commits, so a change to the engine's
   (time, seq) order fails here, and a deliberate one updates the
   literal. *)
let test_engine_schedule_pinned () =
  let e = Engine.create () in
  let log = ref [] in
  let say who = log := Printf.sprintf "%s@%.0f" who (Engine.now e) :: !log in
  for i = 0 to 5 do
    ignore
      (Engine.spawn e ~name:(Printf.sprintf "p%d" i) (fun () ->
           let name = Printf.sprintf "p%d" i in
           say (name ^ ".start");
           Engine.delay (float_of_int ((i * 7) mod 11));
           say (name ^ ".mid");
           Engine.delay (float_of_int ((13 - i) mod 9));
           say (name ^ ".end")))
  done;
  Engine.run e;
  Alcotest.(check (list string)) "recorded log"
    [ "p0.start@0"; "p1.start@0"; "p2.start@0"; "p3.start@0"; "p4.start@0"; "p5.start@0";
      "p0.mid@0"; "p5.mid@2"; "p2.mid@3"; "p0.end@4"; "p2.end@5"; "p4.mid@6"; "p4.end@6";
      "p1.mid@7"; "p3.mid@10"; "p5.end@10"; "p1.end@10"; "p3.end@11" ]
    (List.rev !log)

let suite =
  [ QCheck_alcotest.to_alcotest prop_wheel_fuzz_vs_model;
    QCheck_alcotest.to_alcotest prop_wheel_boundary_fuzz;
    QCheck_alcotest.to_alcotest prop_wheel_drain_sorted;
    Alcotest.test_case "push counters cover all destinations" `Quick test_wheel_counters;
    QCheck_alcotest.to_alcotest prop_engine_queue_vs_model;
    Alcotest.test_case "engine queue leaves the ring" `Quick test_engine_queue_overflows;
    Alcotest.test_case "equal far times fire in seq order" `Quick test_far_ties_keep_seq_order;
    Alcotest.test_case "engine schedule matches recorded log" `Quick test_engine_schedule_pinned;
    Alcotest.test_case "wheel removal at every place" `Quick test_wheel_remove_places;
    Alcotest.test_case "engine cancel frees and rejects handles" `Quick test_engine_cancel;
  ]

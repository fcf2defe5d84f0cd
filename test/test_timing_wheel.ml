(* Property tests for the hierarchical timing wheel and the engine
   queue built on it: pop order must be exactly (time, seq) — identical
   to a sorted reference — under random push/pop interleavings that
   cross bucket boundaries, cascade L2 epochs, and spill to the
   far-future heap; the engine must fire its events in that order
   whether they were scheduled before the run or by firing events; and
   engine-level cancellation must skip exactly the cancelled events
   without disturbing the rest. *)

module Tw = Mb_sim.Timing_wheel
module Engine = Mb_sim.Engine
module Obs = Mb_obs.Recorder

(* Times that stress every layer: heavy ties, exact L1 (2^10 ns) and
   L2 (2^18 ns) bucket edges and their neighbours, multi-epoch wraps,
   far-heap spills, and the 2^52 precision cliff. *)
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

(* --- timing wheel vs sorted (key, pk) list --------------------------- *)

let wheel_ops_gen =
  (* true -> push at the given time; false -> pop (time ignored) *)
  QCheck.(list_of_size Gen.(int_range 0 500) (pair bool time_arb))

let prop_wheel_fuzz_vs_model =
  QCheck.Test.make ~name:"wheel push/pop fuzz matches sorted model" ~count:300 wheel_ops_gen
    (fun ops ->
      let w = Tw.create () in
      let model = ref [] in
      let seq = ref 0 in
      List.for_all
        (fun (is_push, time) ->
          if is_push then begin
            let key = Tw.key_of_time time and pk = !seq in
            incr seq;
            Tw.push w key pk;
            let rec insert = function
              | [] -> [ (key, pk) ]
              | ((k, p) as hd) :: tl ->
                  if key < k || (key = k && pk < p) then (key, pk) :: hd :: tl
                  else hd :: insert tl
            in
            model := insert !model;
            Tw.length w = List.length !model
          end
          else
            match !model with
            | [] -> Tw.is_empty w && Tw.peek_key w = max_int && Tw.peek_pk w = max_int
            | (k, p) :: tl ->
                let ok = Tw.peek_key w = k && Tw.peek_pk w = p in
                Tw.pop w;
                model := tl;
                ok)
        ops)

let prop_wheel_drain_sorted =
  QCheck.Test.make ~name:"wheel full drain is (time, seq) sorted" ~count:300
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

(* Counters split pushes into exactly three destinations: ascending
   appends fill the ring to its target size, then overflow into the
   wheels; a far-future time spills to the heap. *)
let test_wheel_counters () =
  let w = Tw.create () in
  let n = Tw.ring_target + 16 in
  for i = 0 to n - 1 do
    Tw.push w (Tw.key_of_time (float_of_int (i * 1024))) i
  done;
  Tw.push w (Tw.key_of_time (4503599627370496. +. 1e10)) n;
  Alcotest.(check int) "all pushes counted" (n + 1)
    (Tw.ring_hits w + Tw.wheel_hits w + Tw.heap_spills w);
  Alcotest.(check int) "ring absorbed up to its target" Tw.ring_target (Tw.ring_hits w);
  Alcotest.(check bool) "overflow went to the wheels" true (Tw.wheel_hits w >= 1);
  Alcotest.(check bool) "far time spilled to heap" true (Tw.heap_spills w >= 1);
  let rec drain n = if Tw.is_empty w then n else (Tw.pop w; drain (n + 1)) in
  Alcotest.(check int) "drains fully" (n + 1) (drain 0)

(* --- engine queue vs (time, insertion) model ------------------------- *)

(* An event is scheduled with [Engine.at] (kind 0), with [at_cancel]
   and left armed (1), or with [at_cancel] and cancelled at once (2).
   Top-level events are scheduled before the run at absolute times;
   when one fires, it schedules its children [dt] after its own time.
   Up to 200 top-level events keep far more than [ring_target] pending,
   and [time_gen] reaches past 2^52 ns, so the engine's overflow,
   cascade and far-heap branches all run — no workload leaves the
   ring. *)
let kind_gen = QCheck.Gen.int_bound 2

let engine_events_gen =
  QCheck.(
    list_of_size Gen.(int_range 0 200)
      (triple time_arb (make kind_gen)
         (list_of_size Gen.(int_bound 2) (pair time_arb (make kind_gen)))))

module Model = Map.Make (struct
  type t = float * int
  let compare = compare
end)

(* Reference: a map ordered by (time, insertion index), popped minimum
   first. Cancelled events still take an index, as they take a
   sequence number in the engine. *)
let model_firing_order events =
  let pending = ref Model.empty and next = ref 0 in
  let schedule time kind kids =
    pending := Model.add (time, !next) (kind, kids) !pending;
    incr next
  in
  List.iter (fun (time, kind, kids) -> schedule time kind kids) events;
  let fired = ref [] in
  while not (Model.is_empty !pending) do
    let ((time, id) as k), (kind, kids) = Model.min_binding !pending in
    pending := Model.remove k !pending;
    if kind <> 2 then begin
      fired := id :: !fired;
      List.iter (fun (dt, kind) -> schedule (time +. dt) kind []) kids
    end
  done;
  List.rev !fired

let engine_firing_order ?obs events =
  let e = Engine.create ?obs () in
  let log = ref [] and next = ref 0 in
  let schedule time kind on_fire =
    let id = !next in
    incr next;
    let fire () =
      log := id :: !log;
      on_fire ()
    in
    match kind with
    | 0 -> Engine.at e time fire
    | 1 -> ignore (Engine.at_cancel e time fire : unit -> unit)
    | _ -> Engine.at_cancel e time fire ()
  in
  List.iter
    (fun (time, kind, kids) ->
      schedule time kind (fun () ->
          let now = Engine.now e in
          List.iter (fun (dt, kind) -> schedule (now +. dt) kind ignore) kids))
    events;
  Engine.run e;
  (e, List.rev !log)

let prop_engine_queue_vs_model =
  QCheck.Test.make ~name:"engine fires events in (time, insertion) order" ~count:200
    engine_events_gen
    (fun events -> snd (engine_firing_order events) = model_firing_order events)

(* A fixed deep, far-reaching schedule: the queue's counters must show
   that the property above really leaves the ring. *)
let test_engine_queue_overflows () =
  let events =
    List.init 300 (fun i ->
        (* ascending, so the ring fills to its target first; the far
           tail must come last or its gate would pull everything in *)
        let time = if i >= 290 then 4503599627370496. +. float_of_int i else float_of_int (i * 977) in
        (time, i mod 3, [ (float_of_int (i * 31), 0) ]))
  in
  let obs = Obs.create ~trace:false ~metrics:true () in
  let e, order = engine_firing_order ~obs events in
  Alcotest.(check (list int)) "model order" (model_firing_order events) order;
  Engine.flush_observations e;
  let c = Obs.counter obs in
  Alcotest.(check int) "every push counted" (c "sched.shard.pushes")
    (c "sched.shard.ring_hits" + c "sched.shard.wheel_hits" + c "sched.shard.heap_spills");
  Alcotest.(check bool) "filed into the wheels" true (c "sched.shard.wheel_hits" > 0);
  Alcotest.(check bool) "spilled to the far heap" true (c "sched.shard.heap_spills" > 0)

(* --- engine-level: cancellation and the pinned schedule ---------------- *)

let test_at_cancel () =
  let e = Engine.create () in
  let log = ref [] in
  let fire tag = fun () -> log := tag :: !log in
  Engine.at e 10. (fire "a");
  let cancel_b = Engine.at_cancel e 20. (fire "b") in
  let cancel_c = Engine.at_cancel e 30. (fire "c") in
  Engine.at e 40. (fire "d");
  cancel_b ();
  cancel_b ();  (* idempotent *)
  Engine.run e;
  cancel_c ();  (* after firing: harmless no-op *)
  Alcotest.(check (list string)) "cancelled event skipped, rest fire in order"
    [ "a"; "c"; "d" ] (List.rev !log)

let prop_engine_cancel_fuzz =
  (* Events at random times; a random subset is cancellable and
     cancelled up front. Fired order must equal the (time, insertion)
     order of the survivors. *)
  QCheck.Test.make ~name:"random cancellations leave survivors' schedule intact" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 60) (pair bool (map float_of_int (int_bound 20))))
    (fun events ->
      let e = Engine.create () in
      let log = ref [] in
      let cancels = ref [] in
      List.iteri
        (fun i (cancelled, time) ->
          if cancelled then
            cancels := Engine.at_cancel e time (fun () -> log := i :: !log) :: !cancels
          else Engine.at e time (fun () -> log := i :: !log))
        events;
      List.iter (fun cancel -> cancel ()) !cancels;
      Engine.run e;
      let expected =
        List.stable_sort (fun (t1, _) (t2, _) -> compare t1 t2)
          (List.filteri (fun _ (c, _) -> not c) (List.mapi (fun i (c, t) -> (c, (t, i))) events)
          |> List.map snd)
        |> List.map snd
      in
      List.rev !log = expected)

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
    QCheck_alcotest.to_alcotest prop_wheel_drain_sorted;
    Alcotest.test_case "push counters cover all destinations" `Quick test_wheel_counters;
    QCheck_alcotest.to_alcotest prop_engine_queue_vs_model;
    Alcotest.test_case "engine queue leaves the ring" `Quick test_engine_queue_overflows;
    Alcotest.test_case "at_cancel skips exactly the cancelled" `Quick test_at_cancel;
    QCheck_alcotest.to_alcotest prop_engine_cancel_fuzz;
    Alcotest.test_case "engine schedule matches recorded log" `Quick test_engine_schedule_pinned;
  ]

(* Tests for the observability layer: recorder semantics, counter
   correctness on hand-computable workloads, trace JSON well-formedness,
   and the guarantee that observation never perturbs a run. *)

module Obs = Core.Obs
module R = Obs.Recorder
module Arm = Core.Arm
module B1 = Core.Bench1

(* Run [f] with observation armed as given, then restore the disabled
   default and discard any run left in the registry so tests cannot leak
   state into each other. *)
let with_mode ~trace ~metrics f =
  Arm.set { Arm.off with Arm.trace; metrics };
  Fun.protect
    ~finally:(fun () ->
      Arm.set Arm.off;
      ignore (Arm.drain ()))
    f

let drain_one () =
  match Arm.drain () with
  | [ run ] -> (run.Arm.label, run.Arm.recorder)
  | runs -> Alcotest.failf "expected exactly one published run, got %d" (List.length runs)

(* --- recorder unit behaviour ------------------------------------------- *)

let test_null_records_nothing () =
  let r = R.null in
  Alcotest.(check bool) "disabled" false (R.enabled r);
  R.add r "x" 1;
  R.add r "x" 5;
  R.span r ~lane:0 ~name:"s" ~ts_ns:0. ~dur_ns:1. ();
  R.instant r ~lane:0 ~name:"i" ~ts_ns:0. ();
  Alcotest.(check int) "no counter" 0 (R.counter r "x");
  Alcotest.(check int) "no events" 0 (R.event_count r);
  Alcotest.(check (list (pair string int))) "empty counters" [] (R.counters r)

let test_counter_arithmetic () =
  let r = R.create () in
  R.add r "b" 1;
  R.add r "a" 41;
  R.add r "a" 1;
  R.set r "c" 7;
  R.set r "c" 9;
  Alcotest.(check (list (pair string int)))
    "sorted counters"
    [ ("a", 42); ("b", 1); ("c", 9) ]
    (R.counters r);
  let totals = R.totals [ ("x", r); ("y", r) ] in
  Alcotest.(check (list (pair string int)))
    "totals sum across runs"
    [ ("a", 84); ("b", 2); ("c", 18) ]
    totals

(* The run registry, seen from observation: a run whose only instrument
   is a recorder is kept, an unarmed run is neither kept nor labelled,
   and [drain] sorts by label and empties the registry. *)
let test_collect_sorts_and_skips_disabled () =
  let module Checker = Core.Check.Checker in
  let module Injector = Core.Fault.Injector in
  ignore (Arm.drain ());
  Arm.publish
    ~label:(fun () -> Alcotest.fail "an unarmed run's label was formatted")
    R.null Checker.null Injector.null;
  Alcotest.(check int) "disabled not kept" 0 (List.length (Arm.drain ()));
  Arm.publish ~label:(fun () -> "b-run") (R.create ()) Checker.null Injector.null;
  Arm.publish ~label:(fun () -> "a-run") (R.create ()) Checker.null Injector.null;
  Alcotest.(check (list string))
    "drain sorted by label" [ "a-run"; "b-run" ]
    (List.map (fun r -> r.Arm.label) (Arm.drain ()));
  Alcotest.(check int) "drain empties the registry" 0 (List.length (Arm.drain ()))

(* --- hand-computed counters -------------------------------------------- *)

(* One worker hammering the serial allocator: every malloc and every free
   takes the single heap lock exactly once and nobody competes for it, so
   each counter is computable on paper. *)
let test_serial_bench1_counters () =
  let iterations = 500 in
  with_mode ~trace:false ~metrics:true @@ fun () ->
  let _ =
    B1.run
      { B1.default with
        B1.workers = 1;
        iterations;
        paper_iterations = iterations;
        factory = Core.Factory.serial_solaris ();
      }
  in
  let _, r = drain_one () in
  let check name expected = Alcotest.(check int) name expected (R.counter r name) in
  check "alloc.mallocs" iterations;
  check "alloc.frees" iterations;
  check "alloc.arena.created" 1;
  check "alloc.lock.acquired" (2 * iterations);
  check "alloc.lock.contended" 0;
  check "alloc.lock.uncontended" (2 * iterations);
  check "alloc.free.foreign" 0;
  Alcotest.(check int)
    "per-name mirror of the aggregate"
    (2 * iterations)
    (R.counter r "lock.malloc-lock.acquired")

let test_contended_run_splits_acquisitions () =
  (* Two workers against one serial lock: heavy contention, but however it
     resolves, contended + uncontended must partition all acquisitions. *)
  with_mode ~trace:false ~metrics:true @@ fun () ->
  let _ =
    B1.run
      { B1.default with
        B1.workers = 2;
        iterations = 400;
        paper_iterations = 400;
        factory = Core.Factory.serial_solaris ();
      }
  in
  let _, r = drain_one () in
  let acq = R.counter r "alloc.lock.acquired" in
  Alcotest.(check int) "every op locks once" 1600 acq;
  Alcotest.(check bool) "some contention" true (R.counter r "alloc.lock.contended" > 0);
  Alcotest.(check int) "contended + uncontended = acquired" acq
    (R.counter r "alloc.lock.contended" + R.counter r "alloc.lock.uncontended")

(* --- trace sink --------------------------------------------------------- *)

(* Recursive-descent checker for the JSON subset the sink can emit; raises
   on the first syntax error. *)
exception Bad_json of int

let check_json s =
  let n = String.length s in
  let pos = ref 0 in
  let bad () = raise (Bad_json !pos) in
  let peek () = if !pos >= n then bad () else s.[!pos] in
  let next () =
    let c = peek () in
    incr pos;
    c
  in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let keyword k = String.iter (fun c -> if next () <> c then bad ()) k in
  let string_lit () =
    if next () <> '"' then bad ();
    let rec loop () =
      match next () with
      | '"' -> ()
      | '\\' ->
          ignore (next ());
          loop ()
      | c ->
          if Char.code c < 0x20 then bad ();
          loop ()
    in
    loop ()
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      && (match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false)
    do
      incr pos
    done;
    if !pos = start then bad ()
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
        incr pos;
        skip_ws ();
        if peek () = '}' then incr pos
        else
          let rec members () =
            skip_ws ();
            string_lit ();
            skip_ws ();
            if next () <> ':' then bad ();
            value ();
            skip_ws ();
            match next () with ',' -> members () | '}' -> () | _ -> bad ()
          in
          members ()
    | '[' ->
        incr pos;
        skip_ws ();
        if peek () = ']' then incr pos
        else
          let rec elements () =
            value ();
            skip_ws ();
            match next () with ',' -> elements () | ']' -> () | _ -> bad ()
          in
          elements ()
    | '"' -> string_lit ()
    | 't' -> keyword "true"
    | 'f' -> keyword "false"
    | 'n' -> keyword "null"
    | _ -> number ()
  in
  value ();
  skip_ws ();
  if !pos <> n then bad ()

let traced_bench1 () =
  let _ =
    B1.run
      { B1.default with B1.workers = 2; iterations = 300; paper_iterations = 300 }
  in
  drain_one ()

let test_trace_json_parses () =
  with_mode ~trace:true ~metrics:false @@ fun () ->
  let label, r = traced_bench1 () in
  let doc = Obs.Trace_json.to_string [ (label, r) ] in
  (try check_json doc
   with Bad_json p -> Alcotest.failf "trace JSON syntax error at byte %d" p);
  Alcotest.(check bool)
    "run label becomes the trace process name" true
    (let quoted = Printf.sprintf "%S" label in
     let needle = Printf.sprintf "{\"name\":%s}" quoted in
     let rec find i =
       i + String.length needle <= String.length doc
       && (String.sub doc i (String.length needle) = needle || find (i + 1))
     in
     find 0);
  Alcotest.(check int)
    "event_total matches the recorder" (R.event_count r)
    (Obs.Trace_json.event_total [ (label, r) ])

(* [write_file] streams the document line by line; its bytes must be
   [to_string]'s, for two runs and for none. *)
let test_trace_write_file_matches_to_string () =
  with_mode ~trace:true ~metrics:false @@ fun () ->
  let first = traced_bench1 () in
  let second = traced_bench1 () in
  List.iter
    (fun runs ->
      let path = Filename.temp_file "trace" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Obs.Trace_json.write_file path runs;
          let written = In_channel.with_open_bin path In_channel.input_all in
          Alcotest.(check string)
            (Printf.sprintf "%d run(s): file bytes" (List.length runs))
            (Obs.Trace_json.to_string runs) written))
    [ [ first; second ]; [] ]

(* Pull a numeric field like ["tid":3] out of one event line; [None] when
   the key is absent or its value is not a number. *)
let field_of line key =
  let needle = Printf.sprintf "\"%s\":" key in
  let ln = String.length line and nn = String.length needle in
  let rec find i =
    if i + nn > ln then None
    else if String.sub line i nn = needle then Some (i + nn)
    else find (i + 1)
  in
  Option.bind (find 0) (fun start ->
      let stop = ref start in
      while
        !stop < ln && (match line.[!stop] with '0' .. '9' | '-' | '.' -> true | _ -> false)
      do
        incr stop
      done;
      if !stop = start then None else Some (float_of_string (String.sub line start (!stop - start))))

let test_trace_timestamps_monotone_per_lane () =
  with_mode ~trace:true ~metrics:false @@ fun () ->
  let label, r = traced_bench1 () in
  Alcotest.(check bool) "traced something" true (R.event_count r > 0);
  Alcotest.(check bool) "both workers have lanes" true (List.length (R.lanes r) >= 2);
  (* The sink writes one event per line, sorted by start time within each
     lane — walk the document and check that property directly. *)
  let doc = Obs.Trace_json.to_string [ (label, r) ] in
  let last = Hashtbl.create 8 in
  let checked = ref 0 in
  List.iter
    (fun line ->
      (* Metadata lines carry no "ts"; every line with both fields is an
         event on some lane. *)
      match (field_of line "tid", field_of line "ts") with
      | Some tid, Some ts ->
          (match Hashtbl.find_opt last tid with
          | Some prev when ts < prev ->
              Alcotest.failf "lane %g goes backwards: %g after %g" tid ts prev
          | _ -> ());
          Hashtbl.replace last tid ts;
          incr checked
      | _ -> ())
    (String.split_on_char '\n' doc);
  Alcotest.(check bool) "checked several events" true (!checked > 3)

(* --- hostile names ------------------------------------------------------- *)

(* Run labels, lane names, event names, and span args are all
   user-controlled strings that end up inside JSON string literals. Fuzz
   them with quotes, backslashes, newlines, and raw control characters:
   the serialized trace must always parse. *)

let hostile_string =
  QCheck.Gen.(
    let hostile_char =
      oneof
        [ return '"'; return '\\'; return '\n'; return '\t'; return '\x00';
          return '\x1b'; return '{'; char_range 'a' 'z' ]
    in
    string_size ~gen:hostile_char (int_range 0 24))

let prop_hostile_names_stay_json =
  QCheck.Test.make ~name:"hostile run/thread/event names still serialize to JSON" ~count:200
    (QCheck.make
       ~print:(fun (a, b, c) -> Printf.sprintf "label=%S lane=%S event=%S" a b c)
       QCheck.Gen.(triple hostile_string hostile_string hostile_string))
    (fun (label, lane_name, event_name) ->
      let r = R.create ~metrics:false () in
      R.set_lane r 0 lane_name;
      R.instant r ~lane:0 ~name:event_name ~ts_ns:1. ();
      R.span r ~lane:0 ~name:event_name ~ts_ns:2. ~dur_ns:3.
        ~args:[ (lane_name, label); (event_name, lane_name) ]
        ();
      let doc = Obs.Trace_json.to_string [ (label, r) ] in
      match check_json doc with
      | () -> true
      | exception Bad_json p -> QCheck.Test.fail_reportf "JSON syntax error at byte %d" p)

(* --- non-perturbation --------------------------------------------------- *)

let test_observation_does_not_perturb () =
  let params =
    { B1.default with B1.workers = 3; iterations = 400; paper_iterations = 400 }
  in
  let dark = B1.run params in
  let lit =
    with_mode ~trace:true ~metrics:true @@ fun () ->
    let r = B1.run params in
    Alcotest.(check int) "run was observed" 1 (List.length (Arm.drain ()));
    r
  in
  List.iter2
    (fun a b -> Alcotest.(check (float 0.)) "identical elapsed" a b)
    dark.B1.elapsed_s lit.B1.elapsed_s;
  Alcotest.(check int) "identical ctx switches" dark.B1.ctx_switches lit.B1.ctx_switches;
  Alcotest.(check int) "identical contention" dark.B1.lock_contended_ops
    lit.B1.lock_contended_ops

let suite =
  [ Alcotest.test_case "null recorder records nothing" `Quick test_null_records_nothing;
    Alcotest.test_case "counter arithmetic" `Quick test_counter_arithmetic;
    Alcotest.test_case "collect sorts, skips disabled" `Quick test_collect_sorts_and_skips_disabled;
    Alcotest.test_case "serial bench1 counters by hand" `Quick test_serial_bench1_counters;
    Alcotest.test_case "contended split partitions acquisitions" `Quick
      test_contended_run_splits_acquisitions;
    Alcotest.test_case "trace JSON parses" `Quick test_trace_json_parses;
    Alcotest.test_case "trace file streams to_string's bytes" `Quick
      test_trace_write_file_matches_to_string;
    Alcotest.test_case "timestamps monotone per lane" `Quick
      test_trace_timestamps_monotone_per_lane;
    QCheck_alcotest.to_alcotest prop_hostile_names_stay_json;
    Alcotest.test_case "observation does not perturb runs" `Quick
      test_observation_does_not_perturb
  ]

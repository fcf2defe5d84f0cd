(* Tests for the suite layer: the declarative spec (parse/print
   round-trip, line-numbered rejection, deterministic expansion), the
   session history file, the trend-aware gate, and the runner. *)

module Spec = Core.Suite.Spec
module History = Core.Suite.History
module Gate = Core.Suite.Gate
module Report = Core.Suite.Report
module Runner = Core.Suite.Runner
module Json = Core.Suite.Json
module Plan = Core.Fault.Plan

(* Substring search, so the tests don't pull in Str. *)
let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* --- spec: parse/print round-trip ---------------------------------------- *)

let spec_gen =
  let open QCheck.Gen in
  (* Distinct picks from a pool, in pool order — the parser rejects
     duplicate axis entries, and order only matters within an axis. *)
  let subset pool =
    let* keep = list_repeat (List.length pool) bool in
    let chosen = List.filteri (fun i _ -> List.nth keep i) pool in
    return (if chosen = [] then [ List.hd pool ] else chosen)
  in
  let* name =
    oneofl [ "ci"; "quick-registry"; "a.b-c_d"; "N1" ]
  in
  let* mode = oneofl [ `Quick; `Full ] in
  let* seed = int_range 1 999 in
  let* machines = subset Core.Configs.names in
  let* allocators = subset Core.Factory.names in
  let* workloads =
    subset
      [ Spec.Exp "fig8"; Spec.Exp_all; Spec.Bench1; Spec.Bench2; Spec.Bench3;
        Spec.Server_open ]
  in
  let* faults =
    subset
      (None
      :: List.map (fun (_, p) -> Some (p, 7)) Plan.all)
  in
  let* repeats = int_range 1 5 in
  return { Spec.name; mode; seed; machines; allocators; workloads; faults; repeats }

let prop_round_trip =
  QCheck.Test.make ~name:"of_string (to_string t) = Ok t" ~count:200
    (QCheck.make spec_gen)
    (fun spec ->
      match Spec.of_string (Spec.to_string spec) with
      | Ok spec' when spec' = spec -> true
      | Ok spec' ->
          QCheck.Test.fail_reportf "round-trip drift:\n%s\nvs\n%s" (Spec.to_string spec)
            (Spec.to_string spec')
      | Error e -> QCheck.Test.fail_reportf "round-trip rejected:\n%s\n%s" (Spec.to_string spec) e)

let test_parse_defaults () =
  match Spec.of_string "suite s\nworkloads exp:*\n" with
  | Error e -> Alcotest.failf "minimal spec rejected: %s" e
  | Ok t ->
      Alcotest.(check string) "name" "s" t.Spec.name;
      Alcotest.(check bool) "quick" true (t.Spec.mode = `Quick);
      Alcotest.(check int) "seed" 1 t.Spec.seed;
      Alcotest.(check (list string)) "machines" [ "quad_xeon" ] t.Spec.machines;
      Alcotest.(check (list string)) "allocators" [ "ptmalloc" ] t.Spec.allocators;
      Alcotest.(check bool) "faults off" true (t.Spec.faults = [ None ]);
      Alcotest.(check int) "repeats" 1 t.Spec.repeats

let test_parse_comments_and_blanks () =
  let text = "# header\n\nsuite s\n  # indented comment\nworkloads bench2\n\n" in
  match Spec.of_string text with
  | Ok t -> Alcotest.(check bool) "bench2" true (t.Spec.workloads = [ Spec.Bench2 ])
  | Error e -> Alcotest.failf "comments rejected: %s" e

let test_parse_errors_carry_line_numbers () =
  let expect_line n text =
    match Spec.of_string text with
    | Ok _ -> Alcotest.failf "expected a parse error for %S" text
    | Error e ->
        let prefix = Printf.sprintf "line %d:" n in
        if not (String.length e >= String.length prefix
                && String.sub e 0 (String.length prefix) = prefix)
        then Alcotest.failf "expected %S prefix, got %S" prefix e
  in
  expect_line 3 "suite s\nworkloads exp:*\nbogus directive\n";
  expect_line 2 "suite s\nworkloads exp:* nonsense\n";
  expect_line 4 "suite s\nworkloads exp:*\nseed 1\nseed 2\n";
  expect_line 2 "suite s\nmachines quad_xeon quad_xeon\nworkloads exp:*\n";
  expect_line 3 "suite s\nworkloads exp:*\nrepeats 0\n";
  expect_line 2 "suite s\nfaults maybe\nworkloads exp:*\n";
  expect_line 1 "suite two words\nworkloads exp:*\n";
  (* missing required directives report against the end of the file
     (the trailing newline counts: "a\n" splits into two lines) *)
  expect_line 3 "suite s\nseed 3\n";
  expect_line 2 "workloads exp:*\n"

let test_exp_all_requires_registry_membership () =
  match Spec.of_string "suite s\nworkloads exp:nope\n" with
  | Error e -> Alcotest.failf "exp ids are resolved at expansion, not parse: %s" e
  | Ok t -> (
      match Spec.expand t ~exp_ids:[ "fig8"; "table1" ] with
      | Ok _ -> Alcotest.fail "unknown experiment id accepted"
      | Error e -> Alcotest.(check bool) "names the id" true (contains e "nope"))

(* --- spec: expansion ------------------------------------------------------ *)

let expand_exn text ~exp_ids =
  match Spec.of_string text with
  | Error e -> Alcotest.failf "spec rejected: %s" e
  | Ok t -> (
      match Spec.expand t ~exp_ids with
      | Ok cells -> (t, cells)
      | Error e -> Alcotest.failf "expansion failed: %s" e)

let test_expansion_order_and_keys () =
  let text =
    "suite s\nseed 10\nmachines quad_xeon uni_k6\nallocators ptmalloc\n\
     workloads bench2 exp:*\nfaults none oom-pressure:7\n"
  in
  let t, cells = expand_exn text ~exp_ids:[ "table1"; "fig8" ] in
  let keys = List.map (fun c -> c.Spec.key) cells in
  (* bench2: machines x allocators x faults, innermost fastest;
     exp:*: registry order x faults, machine axis ignored. *)
  let expected =
    [ "bench2@quad_xeon/ptmalloc";
      "bench2@quad_xeon/ptmalloc+oom-pressure:7";
      "bench2@uni_k6/ptmalloc";
      "bench2@uni_k6/ptmalloc+oom-pressure:7";
      "exp:table1";
      "exp:table1+oom-pressure:7";
      "exp:fig8";
      "exp:fig8+oom-pressure:7";
    ]
  in
  Alcotest.(check (list string)) "expansion order" expected keys;
  List.iter
    (fun c ->
      match c.Spec.workload with
      | Spec.Exp _ ->
          Alcotest.(check bool) "exp cells carry no machine axis" true
            (c.Spec.machine = None && c.Spec.allocator = None);
          Alcotest.(check int) "exp cells use the spec seed" t.Spec.seed c.Spec.cell_seed
      | Spec.Exp_all -> Alcotest.fail "exp:* survived expansion"
      | _ ->
          Alcotest.(check bool) "bench cells carry both axes" true
            (c.Spec.machine <> None && c.Spec.allocator <> None))
    cells;
  (* bench cell seeds: seed + 101*k within the workload block *)
  let bench_seeds =
    List.filter_map
      (fun c -> match c.Spec.workload with Spec.Bench2 -> Some c.Spec.cell_seed | _ -> None)
      cells
  in
  Alcotest.(check (list int)) "bench seeds derive from the ordinal"
    (List.init 4 (fun k -> 10 + (101 * k)))
    bench_seeds

let test_expansion_is_deterministic () =
  let text = "suite s\nworkloads exp:* bench1 bench3\nmachines quad_xeon\n" in
  let _, a = expand_exn text ~exp_ids:[ "x"; "y"; "z" ] in
  let _, b = expand_exn text ~exp_ids:[ "x"; "y"; "z" ] in
  Alcotest.(check (list string)) "same cells twice"
    (List.map (fun c -> c.Spec.key) a)
    (List.map (fun c -> c.Spec.key) b)

let test_duplicate_cells_rejected () =
  match Spec.of_string "suite s\nworkloads exp:fig8 exp:*\n" with
  | Error e -> Alcotest.failf "parse should pass, expansion should fail: %s" e
  | Ok t -> (
      match Spec.expand t ~exp_ids:[ "fig8" ] with
      | Ok _ -> Alcotest.fail "duplicate cell keys accepted"
      | Error _ -> ())

(* --- history -------------------------------------------------------------- *)

let sample_host = { History.cores = 4; cpu_model = "test cpu" }

let cell ?(ok = true) ?(pct = []) ns words =
  { History.ok;
    ns_per_run = ns;
    minor_words_per_run = words;
    counters = [ ("alloc.mallocs", 42); ("vm.sbrk_calls", 3) ];
    percentiles = pct;
  }

let session ?(host = sample_host) id cells =
  { History.id; time_s = 1000.; suite = "s"; mode = "quick"; seed = 1; host; cells }

let with_tmp f =
  let path = Filename.temp_file "mb_history" ".json" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_history_round_trip () =
  with_tmp @@ fun path ->
  let t =
    { History.sessions =
        [ session "a" [ ("k1", cell 100. 10.); ("k2", cell ~pct:[ ("p50_ns", 5.) ] 200. 20.) ];
          session "b" [ ("k1", cell ~ok:false 110. 11.) ];
        ]
    }
  in
  History.save path t;
  match History.load path with
  | Error e -> Alcotest.failf "reload failed: %s" e
  | Ok t' ->
      Alcotest.(check bool) "round-trips structurally" true (t = t');
      Alcotest.(check int) "two sessions" 2 (List.length t'.History.sessions)

let test_history_missing_and_future () =
  (match History.load "/nonexistent/dir/h.json" with
  | Ok t -> Alcotest.(check int) "missing file is empty history" 0 (List.length t.History.sessions)
  | Error e -> Alcotest.failf "missing file should be Ok empty: %s" e);
  with_tmp @@ fun path ->
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{\"schema\": 99, \"sessions\": []}");
  match History.load path with
  | Ok _ -> Alcotest.fail "future schema accepted"
  | Error _ -> ()

(* Older sessions carry a host "domains" field; the committed history
   must keep loading, on the same host as today's writer. *)
let test_history_legacy_host_domains () =
  with_tmp @@ fun path ->
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        "{\"schema\": 1, \"sessions\": [{\"id\": \"old\", \"time_s\": 1, \"suite\": \"s\", \
         \"mode\": \"quick\", \"seed\": 1, \"host\": {\"cores\": 4, \"cpu_model\": \"test cpu\", \
         \"domains\": 1}, \"cells\": {}}]}");
  match History.load path with
  | Error e -> Alcotest.failf "legacy host block rejected: %s" e
  | Ok t ->
      Alcotest.(check bool) "same host as today's writer" true
        ((List.hd t.History.sessions).History.host = sample_host)

let test_history_append () =
  with_tmp @@ fun path ->
  Sys.remove path;
  (match History.append path (session "a" [ ("k", cell 1. 1.) ]) with
  | Error e -> Alcotest.failf "first append: %s" e
  | Ok t -> Alcotest.(check int) "one session" 1 (List.length t.History.sessions));
  match History.append path (session "b" [ ("k", cell 2. 2.) ]) with
  | Error e -> Alcotest.failf "second append: %s" e
  | Ok t ->
      Alcotest.(check (list string)) "chronological ids" [ "a"; "b" ]
        (List.map (fun s -> s.History.id) t.History.sessions)

(* --- gate ----------------------------------------------------------------- *)

let gate_exn ?last ?threshold ?gc_threshold ?scale_first sessions =
  match Gate.check ?last ?threshold ?gc_threshold ?scale_first { History.sessions } with
  | Ok v -> v
  | Error e -> Alcotest.failf "gate errored: %s" e

let four_cells f =
  [ ("k1", cell (f 100.) 10.); ("k2", cell (f 200.) 10.); ("k3", cell (f 300.) 10.);
    ("k4", cell (f 400.) 10.) ]

let test_gate_passes_on_flat_trend () =
  let v = gate_exn [ session "a" (four_cells Fun.id); session "b" (four_cells (fun x -> x *. 1.05)) ] in
  Alcotest.(check bool) "ok" true v.Gate.ok;
  Alcotest.(check (list string)) "no regressions" [] v.Gate.regressions

let test_gate_fails_on_25pc_regression () =
  let fresh =
    [ ("k1", cell 100. 10.); ("k2", cell 200. 10.); ("k3", cell 300. 10.);
      ("k4", cell 520. 10.) ]  (* k4 regressed 30%, the rest are flat *)
  in
  let v = gate_exn [ session "a" (four_cells Fun.id); session "b" fresh ] in
  Alcotest.(check bool) "fails" false v.Gate.ok;
  Alcotest.(check (list string)) "names k4" [ "k4" ] v.Gate.regressions

let test_gate_normalizes_host_factor () =
  (* Uniform 2x slowdown (a slower runner) is cancelled by the median;
     the same 2x on a single cell is a regression. *)
  let v = gate_exn [ session "a" (four_cells Fun.id); session "b" (four_cells (fun x -> x *. 2.)) ] in
  Alcotest.(check bool) "uniform slowdown passes" true v.Gate.ok

let test_gate_median_baseline_rides_out_noise () =
  (* One noisy session inside the window must not poison the baseline. *)
  let v =
    gate_exn
      [ session "a" (four_cells Fun.id);
        session "noisy" (four_cells (fun x -> x *. 10.));
        session "c" (four_cells Fun.id);
        session "fresh" (four_cells (fun x -> x *. 1.02));
      ]
  in
  Alcotest.(check bool) "ok" true v.Gate.ok

let test_gate_fresh_only_warns () =
  let fresh = ("new", cell 999. 10.) :: four_cells Fun.id in
  let v = gate_exn [ session "a" (four_cells Fun.id); session "b" fresh ] in
  Alcotest.(check bool) "ok" true v.Gate.ok;
  Alcotest.(check bool) "warned about the fresh-only cell" true
    (List.exists (fun w -> contains w "new") v.Gate.warnings)

let test_gate_no_same_host_baseline_is_vacuous_pass () =
  let other = { History.cores = 64; cpu_model = "other cpu" } in
  let v = gate_exn [ session ~host:other "a" (four_cells Fun.id); session "b" (four_cells Fun.id) ] in
  Alcotest.(check bool) "vacuous pass" true v.Gate.ok;
  Alcotest.(check bool) "warns" true (v.Gate.warnings <> [])

let test_gate_singleton_shared_set_uses_raw_ratios () =
  (* One shared cell: median normalization would hide any regression
     (ratio/median = 1.0 always); the guard gates on raw ratios. *)
  let v =
    gate_exn
      [ session "a" [ ("k1", cell 100. 10.) ];
        session "b" [ ("k1", cell 200. 10.) ];
      ]
  in
  Alcotest.(check bool) "raw 2x fails" false v.Gate.ok;
  Alcotest.(check bool) "warns about the degenerate set" true (v.Gate.warnings <> [])

let test_gate_pair_shared_set_uses_raw_ratios () =
  (* Two shared cells: normalizing by their median would pass k2
     (1.40 / 1.20 = 1.17); the guard gates on the raw 1.40. *)
  let v =
    gate_exn
      [ session "a" [ ("k1", cell 100. 10.); ("k2", cell 100. 10.) ];
        session "b" [ ("k1", cell 100. 10.); ("k2", cell 140. 10.) ];
      ]
  in
  Alcotest.(check bool) "raw 1.4x fails" false v.Gate.ok;
  Alcotest.(check (list string)) "names k2" [ "k2" ] v.Gate.regressions;
  Alcotest.(check bool) "warns about the degenerate set" true
    (List.exists (fun w -> contains w "too few") v.Gate.warnings)

let test_gate_no_shared_cells_fails () =
  let v = gate_exn [ session "a" (four_cells Fun.id); session "b" [ ("other", cell 100. 10.) ] ] in
  Alcotest.(check bool) "fails" false v.Gate.ok;
  Alcotest.(check bool) "says so" true
    (List.exists (fun l -> contains l "no cells in common") v.Gate.lines)

let test_gate_dropped_cell_warns () =
  let v =
    gate_exn
      [ session "a" (four_cells Fun.id);
        session "b" (four_cells Fun.id);
        session "fresh" (List.remove_assoc "k4" (four_cells Fun.id));
      ]
  in
  Alcotest.(check bool) "ok" true v.Gate.ok;
  Alcotest.(check bool) "warned about the dropped cell" true
    (List.exists (fun w -> contains w "k4" && contains w "dropped") v.Gate.warnings)

let test_gate_gc_regression_is_raw () =
  let fresh =
    [ ("k1", cell 100. 20.); ("k2", cell 200. 10.); ("k3", cell 300. 10.);
      ("k4", cell 400. 10.) ]  (* k1 doubles its minor words *)
  in
  let v = gate_exn [ session "a" (four_cells Fun.id); session "b" fresh ] in
  Alcotest.(check bool) "fails" false v.Gate.ok;
  Alcotest.(check (list string)) "gc regression on k1" [ "k1" ] v.Gate.gc_regressions

let test_gate_self_test_scales_first_cell () =
  let sessions = [ session "a" (four_cells Fun.id); session "b" (four_cells Fun.id) ] in
  Alcotest.(check bool) "passes unscaled" true (gate_exn sessions).Gate.ok;
  let v = gate_exn ~scale_first:3.0 sessions in
  Alcotest.(check bool) "fails under self-test" false v.Gate.ok;
  Alcotest.(check (list string)) "first cell flagged" [ "k1" ] v.Gate.regressions

let test_gate_empty_history_errors () =
  match Gate.check { History.sessions = [] } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty history should be a usage error"

(* Each of these would let the gate pass anything (NaN, infinity, an
   empty window) or fail a flat trend (a ratio limit of 1.0). *)
let test_gate_rejects_degenerate_arguments () =
  let h = { History.sessions = [ session "a" (four_cells Fun.id); session "b" (four_cells Fun.id) ] } in
  List.iter
    (fun (call, arg, result) ->
      match result with
      | Error e -> Alcotest.(check bool) (call ^ " names its argument") true (contains e arg)
      | Ok _ -> Alcotest.failf "%s accepted" call)
    [ ("~last:0", "last", Gate.check ~last:0 h);
      ("~threshold:nan", "threshold", Gate.check ~threshold:Float.nan h);
      ("~threshold:infinity", "threshold", Gate.check ~threshold:Float.infinity h);
      ("~threshold:1.0", "threshold", Gate.check ~threshold:1.0 h);
      ("~gc_threshold:nan", "gc_threshold", Gate.check ~gc_threshold:Float.nan h);
      ("~scale_first:nan", "scale_first", Gate.check ~scale_first:Float.nan h);
    ]

(* --- report ---------------------------------------------------------------- *)

let test_report_renders_all_cells () =
  let h = { History.sessions = [ session "a" (four_cells Fun.id); session "b" (four_cells Fun.id) ] } in
  let text = Report.render h in
  List.iter
    (fun k ->
      if not (contains text k) then Alcotest.failf "report lost cell %s:\n%s" k text)
    [ "k1"; "k2"; "k3"; "k4"; "s0"; "s-1" ];
  let csv = Report.to_csv h in
  Alcotest.(check int) "csv rows: header + 2 sessions x 4 cells" 9
    (List.length (String.split_on_char '\n' (String.trim csv)))

(* --- runner ---------------------------------------------------------------- *)

let fake_registry ?(ok = fun _ -> true) ids =
  { Runner.exp_ids = ids;
    exp_run =
      (fun id ~quick:_ ~seed:_ ->
        if List.mem id ids then Some (fun () -> { Runner.print = (fun () -> ()); ok = ok id })
        else None);
  }

let spec_of_exn text =
  match Spec.of_string text with Ok t -> t | Error e -> Alcotest.failf "spec: %s" e

let test_runner_pure_suite_runs_cells () =
  let spec = spec_of_exn "suite s\nworkloads exp:*\n" in
  match Runner.run ~jobs:2 ~registry:(fake_registry [ "a"; "b"; "c" ]) spec with
  | Error e -> Alcotest.failf "runner: %s" e
  | Ok data ->
      Alcotest.(check (list string)) "registry order"
        [ "exp:a"; "exp:b"; "exp:c" ]
        (List.map (fun (c, _) -> c.Spec.key) data);
      List.iter
        (fun (_, (d : History.cell_data)) ->
          Alcotest.(check bool) "ok" true d.History.ok;
          Alcotest.(check bool) "timed" true (d.History.ns_per_run >= 0.);
          Alcotest.(check (list (pair string (float 0.)))) "no percentiles" [] d.History.percentiles)
        data

let test_runner_forces_ok_under_faults () =
  let spec = spec_of_exn "suite s\nworkloads exp:a\nfaults oom-pressure:7\n" in
  match Runner.run ~registry:(fake_registry ~ok:(fun _ -> false) [ "a" ]) spec with
  | Error e -> Alcotest.failf "runner: %s" e
  | Ok [ (_, d) ] -> Alcotest.(check bool) "graceful completion is the bar" true d.History.ok
  | Ok _ -> Alcotest.fail "expected one cell"

let test_runner_reports_failing_checks () =
  let spec = spec_of_exn "suite s\nworkloads exp:a exp:b\n" in
  match Runner.run ~jobs:1 ~registry:(fake_registry ~ok:(fun id -> id = "a") [ "a"; "b" ]) spec with
  | Error e -> Alcotest.failf "runner: %s" e
  | Ok data ->
      Alcotest.(check (list bool)) "per-cell ok" [ true; false ]
        (List.map (fun (_, (d : History.cell_data)) -> d.History.ok) data)

let test_runner_unknown_exp_id_errors () =
  let spec = spec_of_exn "suite s\nworkloads exp:zzz\n" in
  match Runner.run ~registry:(fake_registry [ "a" ]) spec with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown id accepted"

(* --- json ------------------------------------------------------------------ *)

let test_json_round_trip () =
  let t =
    Json.Obj
      [ ("s", Json.Str "a\"b\\c\ns"); ("n", Json.Num 1.5); ("i", Json.Num 42.);
        ("b", Json.Bool true); ("z", Json.Null);
        ("a", Json.Arr [ Json.Num 1.; Json.Str "x" ]);
      ]
  in
  match Json.of_string (Json.to_string t) with
  | Ok t' -> Alcotest.(check bool) "round-trips" true (t = t')
  | Error e -> Alcotest.failf "json: %s" e

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ ""; "{"; "{\"a\": }"; "[1, ]"; "tru"; "\"unterminated"; "{\"a\": 1} trailing" ]

let suite =
  [ QCheck_alcotest.to_alcotest prop_round_trip;
    Alcotest.test_case "parse defaults" `Quick test_parse_defaults;
    Alcotest.test_case "comments and blanks" `Quick test_parse_comments_and_blanks;
    Alcotest.test_case "errors carry line numbers" `Quick test_parse_errors_carry_line_numbers;
    Alcotest.test_case "unknown exp id fails expansion" `Quick test_exp_all_requires_registry_membership;
    Alcotest.test_case "expansion order and keys" `Quick test_expansion_order_and_keys;
    Alcotest.test_case "expansion is deterministic" `Quick test_expansion_is_deterministic;
    Alcotest.test_case "duplicate cells rejected" `Quick test_duplicate_cells_rejected;
    Alcotest.test_case "history round-trip" `Quick test_history_round_trip;
    Alcotest.test_case "history missing/future schema" `Quick test_history_missing_and_future;
    Alcotest.test_case "history ignores legacy host domains" `Quick test_history_legacy_host_domains;
    Alcotest.test_case "history append" `Quick test_history_append;
    Alcotest.test_case "gate passes flat trend" `Quick test_gate_passes_on_flat_trend;
    Alcotest.test_case "gate fails 25% regression" `Quick test_gate_fails_on_25pc_regression;
    Alcotest.test_case "gate normalizes host factor" `Quick test_gate_normalizes_host_factor;
    Alcotest.test_case "gate medians out a noisy session" `Quick test_gate_median_baseline_rides_out_noise;
    Alcotest.test_case "gate warns on fresh-only cells" `Quick test_gate_fresh_only_warns;
    Alcotest.test_case "gate vacuous pass on new host" `Quick test_gate_no_same_host_baseline_is_vacuous_pass;
    Alcotest.test_case "gate singleton shared set" `Quick test_gate_singleton_shared_set_uses_raw_ratios;
    Alcotest.test_case "gate pair shared set" `Quick test_gate_pair_shared_set_uses_raw_ratios;
    Alcotest.test_case "gate no shared cells fails" `Quick test_gate_no_shared_cells_fails;
    Alcotest.test_case "gate warns on dropped cells" `Quick test_gate_dropped_cell_warns;
    Alcotest.test_case "gate GC regression is raw" `Quick test_gate_gc_regression_is_raw;
    Alcotest.test_case "gate self-test scales first cell" `Quick test_gate_self_test_scales_first_cell;
    Alcotest.test_case "gate empty history errors" `Quick test_gate_empty_history_errors;
    Alcotest.test_case "gate rejects degenerate arguments" `Quick test_gate_rejects_degenerate_arguments;
    Alcotest.test_case "report renders all cells" `Quick test_report_renders_all_cells;
    Alcotest.test_case "runner pure suite" `Quick test_runner_pure_suite_runs_cells;
    Alcotest.test_case "runner forces ok under faults" `Quick test_runner_forces_ok_under_faults;
    Alcotest.test_case "runner reports failing checks" `Quick test_runner_reports_failing_checks;
    Alcotest.test_case "runner unknown exp id" `Quick test_runner_unknown_exp_id_errors;
    Alcotest.test_case "json round-trip" `Quick test_json_round_trip;
    Alcotest.test_case "json rejects garbage" `Quick test_json_rejects_garbage;
  ]

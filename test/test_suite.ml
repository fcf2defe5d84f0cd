(* Tests for the suite layer: the declarative spec (parse/print
   round-trip, line-numbered rejection, deterministic expansion), the
   runner, and the JSON reader. *)

module Spec = Core.Suite.Spec
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
  return { Spec.name; mode; seed; machines; allocators; workloads; faults }

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
      Alcotest.(check bool) "faults off" true (t.Spec.faults = [ None ])

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
  expect_line 3 "suite s\nworkloads exp:*\nseed x\n";
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
  match Runner.run ~registry:(fake_registry [ "a"; "b"; "c" ]) spec with
  | Error e -> Alcotest.failf "runner: %s" e
  | Ok data ->
      Alcotest.(check (list string)) "registry order"
        [ "exp:a"; "exp:b"; "exp:c" ]
        (List.map (fun ((c : Spec.cell), _) -> c.Spec.key) data);
      Alcotest.(check (list bool)) "ok" [ true; true; true ] (List.map snd data)

let test_runner_forces_ok_under_faults () =
  let spec = spec_of_exn "suite s\nworkloads exp:a\nfaults oom-pressure:7\n" in
  match Runner.run ~registry:(fake_registry ~ok:(fun _ -> false) [ "a" ]) spec with
  | Error e -> Alcotest.failf "runner: %s" e
  | Ok [ (_, ok) ] -> Alcotest.(check bool) "graceful completion is the bar" true ok
  | Ok _ -> Alcotest.fail "expected one cell"

let test_runner_reports_failing_checks () =
  let spec = spec_of_exn "suite s\nworkloads exp:a exp:b\n" in
  match Runner.run ~registry:(fake_registry ~ok:(fun id -> id = "a") [ "a"; "b" ]) spec with
  | Error e -> Alcotest.failf "runner: %s" e
  | Ok data ->
      Alcotest.(check (list bool)) "per-cell ok" [ true; false ] (List.map snd data)

(* Faulted and plain cells share the pool: each runs under its own
   plan, as do the sweeps it submits, whichever domain runs them. The
   storms' runs are dropped; the plain cells' metered runs stay for the
   caller. *)
let test_runner_arms_each_cell () =
  let module Arm = Core.Arm in
  let faults () = (Arm.current ()).Arm.faults in
  let seen = ref [] in
  let registry =
    { Runner.exp_ids = [ "a"; "b"; "c" ];
      exp_run =
        (fun id ~quick:_ ~seed:_ ->
          Some
            (fun () ->
              let sweep =
                Core.Pool.map_list (Core.Pool.global ()) ~key:"sweep"
                  ~f:(fun _ () -> faults ())
                  [ (); (); (); () ]
              in
              (match faults () with
              | Some (plan, seed) ->
                  Arm.publish ~label:(fun () -> id) Core.Obs.Recorder.null
                    Core.Check.Checker.null (Core.Fault.Injector.create ~plan ~seed)
              | None ->
                  Arm.publish ~label:(fun () -> id)
                    (Core.Obs.Recorder.create ~trace:false ~metrics:true ())
                    Core.Check.Checker.null Core.Fault.Injector.null);
              let cell = faults () :: sweep in
              (* [print] runs on the joining domain, in expansion order *)
              { Runner.print = (fun () -> seen := cell :: !seen); ok = true }));
    }
  in
  let spec = spec_of_exn "suite s\nworkloads exp:*\nfaults none oom-pressure:7\n" in
  match Test_parallel.with_jobs 4 (fun () -> Runner.run ~registry spec) with
  | Error e -> Alcotest.failf "runner: %s" e
  | Ok data ->
      let plans = List.map (fun ((c : Spec.cell), _) -> c.Spec.fault) data in
      Alcotest.(check int) "three stormed cells" 3 (List.length (List.filter Option.is_some plans));
      Alcotest.(check bool) "each cell and its sweep ran under its own plan" true
        (List.map (fun plan -> List.init 5 (fun _ -> plan)) plans = List.rev !seen);
      Alcotest.(check (list string)) "the storms' runs are dropped, the plain cells' kept"
        [ "a"; "b"; "c" ]
        (List.map
           (fun (r : Arm.run) ->
             if Core.Fault.Injector.armed r.Arm.injector then "stormed " ^ r.Arm.label
             else r.Arm.label)
           (Arm.drain ()))

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
    Alcotest.test_case "runner pure suite" `Quick test_runner_pure_suite_runs_cells;
    Alcotest.test_case "runner forces ok under faults" `Quick test_runner_forces_ok_under_faults;
    Alcotest.test_case "runner reports failing checks" `Quick test_runner_reports_failing_checks;
    Alcotest.test_case "runner arms each cell on a shared pool" `Quick test_runner_arms_each_cell;
    Alcotest.test_case "runner unknown exp id" `Quick test_runner_unknown_exp_id_errors;
    Alcotest.test_case "json round-trip" `Quick test_json_round_trip;
    Alcotest.test_case "json rejects garbage" `Quick test_json_rejects_garbage;
  ]

(* Tests of the benchmark's own helpers and contract: order statistics,
   metric names, digest stability and failure accounting. *)

open Perfbench

let feq = Alcotest.float 1e-12

let test_percentiles () =
  Alcotest.check feq "odd median" 2. (Stats.median [ 3.; 1.; 2. ]);
  Alcotest.check feq "even median" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.check feq "single" 5. (Stats.percentile 90. [ 5. ]);
  let hundred = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check feq "p50 nearest rank" 50. (Stats.percentile 50. hundred);
  Alcotest.check feq "p90 nearest rank" 90. (Stats.percentile 90. hundred);
  Alcotest.check feq "p100" 100. (Stats.percentile 100. hundred);
  Alcotest.check feq "mean" 50.5 (Stats.mean hundred);
  Alcotest.(check int) "ten beyond p90 of 100" 10 (Stats.beyond_p90 hundred);
  let n = Stats.samples_for_p90_tail 10 in
  Alcotest.(check int) "enough samples for a p90 tail of ten" 10
    (Stats.beyond_p90 (List.init n float_of_int));
  Alcotest.check_raises "no samples" (Invalid_argument "Stats.median: no samples") (fun () ->
      ignore (Stats.median []))

let test_names () =
  List.iter
    (fun (s, ok) -> Alcotest.(check bool) s ok (Stats.valid_name s))
    [ ("sim_ms_p50", true); ("sim.host_ns_per_event", true); ("a-b_c.9", true); ("", false);
      ("has space", false); ("slash/no", false); (String.make 65 'a', false) ]

let workload name = Option.get (Workloads.find name)

(* Two runs of one seed render the same result and, traced, the same
   counters. *)
let test_digest_stable () =
  List.iter
    (fun (w : Workloads.t) ->
      let factory = Core.Factory.ptmalloc () in
      let digest ~traced =
        let run () =
          Bench.simulate w ~seed:3 ~factory ~traced
        in
        let s =
          if traced then Bench.with_metrics run else run ()
        in
        Bench.digest s.Bench.outcome s.counters
      in
      let a = digest ~traced:false and b = digest ~traced:false in
      Alcotest.(check string) (w.name ^ " untraced") a b;
      let c = digest ~traced:true and d = digest ~traced:true in
      Alcotest.(check string) (w.name ^ " traced") c d;
      Alcotest.(check bool) (w.name ^ " counters enter the traced digest") true (a <> c))
    Workloads.all

let raising exn = { (workload "pairs-uncontended") with Workloads.name = "raises"; run = (fun ~seed:_ _ -> raise exn) }

(* A raising workload is tallied as failed; the driver carries on. *)
let test_failures_counted () =
  List.iter
    (fun exn ->
      let tally = Bench.tally () in
      let su = Bench.setup tally (raising exn) ~seeds:[| 1; 2 |] in
      Alcotest.(check bool) "no reference" true (su.Bench.reference = None);
      let sims = Bench.untraced tally (raising exn) su ~budget_s:0. ~min_n:6 in
      Alcotest.(check bool) "nothing passed" true (Array.for_all (( = ) []) sims);
      Alcotest.(check int) "attempted" (Bench.warmups + 1 + 6) tally.attempted;
      Alcotest.(check int) "all failed" tally.attempted tally.failed;
      Alcotest.check feq "failed share" 1. (Bench.failed_share tally);
      Alcotest.(check bool) "no end-to-end metrics" true (Bench.end_to_end tally sims = []))
    [ Failure "boom";
      Core.Engine.Stalled { Core.Engine.waiters = []; cycle = [] };
      Mb_fault.Injector.Alloc_failure { who = "test"; bytes = 40 } ]

(* A run whose result differs from its seed's reference fails the
   digest check. *)
let test_digest_mismatch () =
  let w = workload "pairs-uncontended" in
  let tally = Bench.tally () in
  let factory = Core.Factory.ptmalloc () in
  let reference = ref (Some "not a digest") in
  let r = Bench.attempt tally w ~seed:1 ~factory ~traced:false ~reference in
  Alcotest.(check bool) "rejected" true (r = None);
  Alcotest.(check int) "failed" 1 tally.failed

let json_names path key =
  let text = In_channel.with_open_text path In_channel.input_all in
  match Core.Suite.Json.of_string text with
  | Error e -> Alcotest.fail e
  | Ok j ->
      Option.get (Option.bind (Core.Suite.Json.member key j) Core.Suite.Json.to_list)
      |> List.map (fun m ->
             Option.get (Option.bind (Core.Suite.Json.member "name" m) Core.Suite.Json.to_str))

(* The metrics a short run prints are exactly the ones BENCHMARK.json
   declares, and every name is well formed. *)
let test_declared_metrics () =
  let w = workload "pairs-uncontended" in
  let tally = Bench.tally () in
  let su = Bench.setup tally w ~seeds:(Array.sub (Bench.seeds_of ~seed:1) 0 2) in
  let e2e = Bench.end_to_end tally (Bench.untraced tally w su ~budget_s:0. ~min_n:4) in
  let su1 = Bench.setup tally w ~seeds:[| 1 |] in
  let layers = Bench.per_layer tally w su1 ~seconds:0.3 in
  Alcotest.(check int) "no failures" 0 tally.failed;
  let names ms = List.map (fun m -> m.Bench.name) ms in
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " is a valid name") true (Stats.valid_name n))
    (names e2e @ names layers);
  let sort = List.sort compare in
  (* setup_s is measured by run.py around whole driver processes. *)
  Alcotest.(check (list string)) "end_to_end" (sort (json_names "../BENCHMARK.json" "end_to_end"))
    (sort ("setup_s" :: names e2e));
  Alcotest.(check (list string)) "per_layer" (sort (json_names "../BENCHMARK.json" "per_layer"))
    (sort (names layers))

let () =
  Alcotest.run "perfbench"
    [ ( "perfbench",
        [ Alcotest.test_case "percentile and median helpers" `Quick test_percentiles;
          Alcotest.test_case "metric name rule" `Quick test_names;
          Alcotest.test_case "digest stable over two runs" `Quick test_digest_stable;
          Alcotest.test_case "raising workload counted as failed" `Quick test_failures_counted;
          Alcotest.test_case "digest mismatch counted as failed" `Quick test_digest_mismatch;
          Alcotest.test_case "printed metrics match BENCHMARK.json" `Quick test_declared_metrics;
        ] );
    ]

(* The domain pool and the harness's determinism guarantee: whatever the
   pool width, results come back in submission order and run_all's
   output is byte-identical. *)

module Pool = Core.Pool

let squares pool = Pool.map_list pool ~key:"sq" ~f:(fun _ x -> x * x) [ 0; 1; 2; 3; 4; 5; 6 ]

let test_map_list_order () =
  Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check (list int)) "submission order" [ 0; 1; 4; 9; 16; 25; 36 ] (squares pool))

let test_width1_matches_width4 () =
  let seq = Pool.with_pool ~jobs:1 squares in
  let par = Pool.with_pool ~jobs:4 squares in
  Alcotest.(check (list int)) "same results" seq par

let test_nested_submit () =
  (* Width 2 = one worker: outer tasks must help run their sub-tasks or
     this deadlocks. *)
  Pool.with_pool ~jobs:2 (fun pool ->
      let outer =
        Pool.map_list pool ~key:"outer"
          ~f:(fun _ n ->
            let inner = Pool.map_list pool ~key:"inner" ~f:(fun _ i -> (n * 10) + i) [ 0; 1; 2 ] in
            List.fold_left ( + ) 0 inner)
          [ 1; 2; 3 ]
      in
      Alcotest.(check (list int)) "nested sums" [ 33; 63; 93 ] outer)

let test_exception_propagates () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let ok = Pool.submit pool ~key:"ok" (fun () -> 41) in
      let bad = Pool.submit pool ~key:"bad" (fun () -> failwith "boom") in
      Alcotest.(check int) "healthy future unaffected" 41 (Pool.await pool ok + 0);
      Alcotest.check_raises "await re-raises" (Failure "boom") (fun () ->
          ignore (Pool.await pool bad)))

let test_jobs_width () =
  Pool.with_pool ~jobs:3 (fun pool -> Alcotest.(check int) "width" 3 (Pool.jobs pool))

(* --- determinism: the harness output is independent of pool width ------ *)

let opts = Core.Exp_common.quick_opts

let bench1_params =
  { Core.Bench1.default with Core.Bench1.workers = 3; iterations = 2_000; paper_iterations = 2_000 }

let test_bench1_runs_deterministic () =
  let run jobs =
    Pool.with_pool ~jobs (fun pool ->
        let summaries, results = Core.Exp_common.bench1_runs ~pool bench1_params ~runs:4 in
        ( List.map (fun (s : Core.Summary.t) -> (s.Core.Summary.mean, s.Core.Summary.stddev)) summaries,
          List.map (fun (r : Core.Bench1.result) -> r.Core.Bench1.scaled_s) results ))
  in
  let seq = run 1 and par = run 4 in
  Alcotest.(check bool) "summaries and raw runs identical" true (seq = par)

(* The quick registry at one job, shared by the two tests below. *)
let quick_registry = lazy (Core.Experiments.run_all ~jobs:1 ~echo:false opts)

let test_run_all_deterministic () =
  (* Summary lines and the full printed text of every outcome are
     byte-identical between 1 and 4 jobs. *)
  let render outcomes =
    ( List.map Core.Outcome.to_string outcomes,
      List.map Core.Outcome.summary_line outcomes )
  in
  let text1, lines1 = render (Lazy.force quick_registry) in
  let text4, lines4 = render (Core.Experiments.run_all ~jobs:4 ~echo:false opts) in
  Alcotest.(check (list string)) "summary lines" lines1 lines4;
  Alcotest.(check (list string)) "full outcome text" text1 text4

(* Simulated behaviour pinned across commits: the MD5 of the whole
   quick registry's printed text. A change that is meant to alter a
   simulated result updates this digest in the same commit and says
   so; any other change must leave it alone. Recorded with OCaml
   5.1.1. *)
let quick_registry_md5 = "6e9802f64b7646aac4d66ba9d03d448d"

let test_run_all_matches_recorded_digest () =
  let text = String.concat "" (List.map Core.Outcome.to_string (Lazy.force quick_registry)) in
  Alcotest.(check string) "quick registry MD5" quick_registry_md5
    (Digest.to_hex (Digest.string text))

let suite =
  [ Alcotest.test_case "map_list keeps submission order" `Quick test_map_list_order;
    Alcotest.test_case "width 1 = width 4 results" `Quick test_width1_matches_width4;
    Alcotest.test_case "nested submit on narrow pool" `Quick test_nested_submit;
    Alcotest.test_case "exceptions re-raised at await" `Quick test_exception_propagates;
    Alcotest.test_case "jobs reports width" `Quick test_jobs_width;
    Alcotest.test_case "bench1_runs deterministic across widths" `Slow test_bench1_runs_deterministic;
    Alcotest.test_case "run_all byte-identical across widths" `Slow test_run_all_deterministic;
    Alcotest.test_case "run_all matches the recorded digest" `Slow
      test_run_all_matches_recorded_digest;
  ]

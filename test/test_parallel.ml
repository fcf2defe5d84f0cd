(* The domain pool and the harness's determinism guarantee: whatever the
   pool width, results come back in submission order and run_all's
   output is byte-identical; and every task runs under the arming its
   submitter had. *)

module Pool = Core.Pool
module Arm = Core.Arm

(* Run [f] on the global pool at width [jobs], then put the default
   width back so later suites do not run a wider pool than the host. *)
let with_jobs jobs f =
  Pool.set_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_jobs (Domain.recommended_domain_count ())) f

let squares () =
  Pool.map_list (Pool.global ()) ~key:"sq" ~f:(fun _ x -> x * x) [ 0; 1; 2; 3; 4; 5; 6 ]

let test_map_list_order () =
  with_jobs 4 (fun () ->
      Alcotest.(check (list int)) "submission order" [ 0; 1; 4; 9; 16; 25; 36 ] (squares ()))

let test_width1_matches_width4 () =
  let seq = with_jobs 1 squares in
  let par = with_jobs 4 squares in
  Alcotest.(check (list int)) "same results" seq par

let test_nested_submit () =
  (* Width 2 = one worker: outer tasks must help run their sub-tasks or
     this deadlocks. *)
  with_jobs 2 (fun () ->
      let pool = Pool.global () in
      let outer =
        Pool.map_list pool ~key:"outer"
          ~f:(fun _ n ->
            let inner = Pool.map_list pool ~key:"inner" ~f:(fun _ i -> (n * 10) + i) [ 0; 1; 2 ] in
            List.fold_left ( + ) 0 inner)
          [ 1; 2; 3 ]
      in
      Alcotest.(check (list int)) "nested sums" [ 33; 63; 93 ] outer)

let test_exception_propagates () =
  with_jobs 4 (fun () ->
      let pool = Pool.global () in
      let ok = Pool.submit pool ~key:"ok" (fun () -> 41) in
      let bad = Pool.submit pool ~key:"bad" (fun () -> failwith "boom") in
      Alcotest.(check int) "healthy future unaffected" 41 (Pool.await pool ok + 0);
      Alcotest.check_raises "await re-raises" (Failure "boom") (fun () ->
          ignore (Pool.await pool bad)))

let test_jobs_width () =
  with_jobs 3 (fun () -> Alcotest.(check int) "width" 3 (Pool.jobs (Pool.global ())))

let test_width1_stays_on_submitter () =
  let self = (Domain.self () :> int) in
  let domains =
    with_jobs 1 (fun () ->
        let pool = Pool.global () in
        Pool.map_list pool ~key:"outer"
          ~f:(fun _ () ->
            let inner =
              Pool.map_list pool ~key:"inner" ~f:(fun _ () -> (Domain.self () :> int)) [ (); () ]
            in
            (Domain.self () :> int) :: inner)
          [ (); (); () ])
  in
  Alcotest.(check (list int)) "every task on the submitting domain"
    (List.init 9 (fun _ -> self))
    (List.concat domains)

(* --- arming travels with each task ------------------------------------- *)

let armed_a = { Arm.off with Arm.metrics = true }

let armed_b = { Arm.off with Arm.check = true; faults = Some (Core.Fault.Plan.Slow_lock, 3) }

let test_task_keeps_submitters_arming () =
  with_jobs 4 (fun () ->
      let pool = Pool.global () in
      let ran = Atomic.make 0 in
      let futures =
        Arm.within armed_a (fun () ->
            List.init 8 (fun _ ->
                Pool.submit pool ~key:"a" (fun () ->
                    let seen = ((Domain.self () :> int), Arm.current ()) in
                    Atomic.incr ran;
                    seen)))
      in
      Arm.within armed_b (fun () ->
          (* Not awaiting until all eight have run keeps this domain
             from helping: every task ran on a worker. *)
          while Atomic.get ran < 8 do Domain.cpu_relax () done;
          let seen = List.map (Pool.await pool) futures in
          let self = (Domain.self () :> int) in
          List.iter
            (fun (domain, arm) ->
              Alcotest.(check bool) "ran on a worker" true (domain <> self);
              Alcotest.(check bool) "under the submitter's setting" true (arm = armed_a))
            seen;
          Alcotest.(check bool) "the submitter's own switch stands" true
            (Arm.current () = armed_b)))

let test_helper_gets_its_setting_back () =
  with_jobs 2 (fun () ->
      let pool = Pool.global () in
      let started = Atomic.make false and release = Atomic.make false in
      let blocker =
        Pool.submit pool ~key:"blocker" (fun () ->
            Atomic.set started true;
            while not (Atomic.get release) do Domain.cpu_relax () done)
      in
      Fun.protect
        ~finally:(fun () ->
          Atomic.set release true;
          Pool.await pool blocker)
        (fun () ->
          while not (Atomic.get started) do Domain.cpu_relax () done;
          (* The one worker is busy, so only this domain can run the
             tasks below: it helps while it awaits them. *)
          let futures =
            Arm.within armed_a (fun () ->
                List.init 3 (fun _ ->
                    Pool.submit pool ~key:"a" (fun () -> ((Domain.self () :> int), Arm.current ()))))
          in
          Arm.within armed_b (fun () ->
              let seen = List.map (Pool.await pool) futures in
              Alcotest.(check bool) "helped under the task's setting" true
                (List.for_all (fun s -> s = ((Domain.self () :> int), armed_a)) seen);
              Alcotest.(check bool) "own setting back after helping" true
                (Arm.current () = armed_b)));
      Alcotest.(check bool) "setting restored" true (Arm.current () = Arm.off))

(* --- determinism: the harness output is independent of pool width ------ *)

let opts = Core.Exp_common.quick_opts

let bench1_params =
  { Core.Bench1.default with Core.Bench1.workers = 3; iterations = 2_000; paper_iterations = 2_000 }

let test_bench1_runs_deterministic () =
  let run jobs =
    with_jobs jobs (fun () ->
        let summaries, results = Core.Exp_common.bench1_runs bench1_params ~runs:4 in
        ( List.map (fun (s : Core.Summary.t) -> (s.Core.Summary.mean, s.Core.Summary.stddev)) summaries,
          List.map (fun (r : Core.Bench1.result) -> r.Core.Bench1.scaled_s) results ))
  in
  let seq = run 1 and par = run 4 in
  Alcotest.(check bool) "summaries and raw runs identical" true (seq = par)

(* The quick registry at width 1, shared by the two tests below. *)
let quick_registry = lazy (with_jobs 1 (fun () -> Core.Experiments.run_all ~echo:false opts))

let test_run_all_deterministic () =
  (* Summary lines and the full printed text of every outcome are
     byte-identical between 1 and 4 jobs. *)
  let render outcomes =
    ( List.map Core.Outcome.to_string outcomes,
      List.map Core.Outcome.summary_line outcomes )
  in
  let text1, lines1 = render (Lazy.force quick_registry) in
  let text4, lines4 =
    render (with_jobs 4 (fun () -> Core.Experiments.run_all ~echo:false opts))
  in
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
    Alcotest.test_case "width 1 runs every task on the submitter" `Quick
      test_width1_stays_on_submitter;
    Alcotest.test_case "a task keeps its submitter's arming" `Quick
      test_task_keeps_submitters_arming;
    Alcotest.test_case "a helping domain gets its arming back" `Quick
      test_helper_gets_its_setting_back;
    Alcotest.test_case "bench1_runs deterministic across widths" `Slow test_bench1_runs_deterministic;
    Alcotest.test_case "run_all byte-identical across widths" `Slow test_run_all_deterministic;
    Alcotest.test_case "run_all matches the recorded digest" `Slow
      test_run_all_matches_recorded_digest;
  ]

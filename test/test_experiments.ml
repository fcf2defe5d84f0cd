(* Integration: every paper artifact and extension regenerates with its
   shape checks passing, in quick mode. This is the executable form of
   EXPERIMENTS.md's claims. *)

let opts = Core.Exp_common.quick_opts

let case (id, runner) =
  Alcotest.test_case id `Slow (fun () ->
      let outcome = runner opts in
      List.iter
        (fun (c : Core.Outcome.check) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s (%s)" id c.Core.Outcome.label c.Core.Outcome.detail)
            true c.Core.Outcome.pass)
        outcome.Core.Outcome.checks)

(* The experiments that build their own machines publish each one, so
   --check, --faults, --metrics and --trace report every run. *)
let test_ablations_publish () =
  List.iter
    (fun (id, runs) ->
      Core.Arm.set
        { Core.Arm.off with Core.Arm.check = true; faults = Some (Core.Fault.Plan.Slow_lock, 3) };
      let labels =
        Fun.protect
          ~finally:(fun () ->
            Core.Arm.set Core.Arm.off;
            ignore (Core.Arm.drain ()))
          (fun () ->
            ignore (Option.get (Core.Experiments.find id) opts : Core.Outcome.t);
            List.map (fun r -> r.Core.Arm.label) (Core.Arm.drain ()))
      in
      Alcotest.(check int) (id ^ ": published runs") runs (List.length labels);
      Alcotest.(check int) (id ^ ": distinct labels") runs
        (List.length (List.sort_uniq String.compare labels)))
    [ ("ablate-bkl", 2); ("ablate-crowding", 2); ("ablate-fastbins", 2); ("trace-replay", 4);
      ("ablate-deferred", 2) ]

let suite =
  List.map case Core.Experiments.all
  @ [ Alcotest.test_case "ablations publish every run" `Quick test_ablations_publish ]

type runner = Exp_common.opts -> Outcome.t

(* In paper order. *)
let paper_artifacts =
  [ ("table1", Exp_bench1.table1);
    ("fig1", Exp_bench1.fig1);
    ("fig2", Exp_bench1.fig2);
    ("table2", Exp_bench1.table2);
    ("fig3", Exp_bench1.fig3);
    ("table3", Exp_bench1.table3);
    ("fig4", Exp_bench1.fig4);
    ("table4", Exp_bench1.table4);
    ("predictor", Exp_bench2.predictor);
    ("fig5", Exp_bench2.fig5);
    ("fig6", Exp_bench2.fig6);
    ("fig7", Exp_bench2.fig7);
    ("fig8", Exp_bench2.fig8);
    ("bench3-baseline", Exp_bench3.single_thread_baseline);
    ("fig9", Exp_bench3.fig9);
    ("fig10", Exp_bench3.fig10);
    ("fig11", Exp_bench3.fig11);
  ]

(* Ablations and extensions beyond the paper's printed artifacts. *)
let extensions =
  [ ("ablate-spin", Exp_extra.ablate_spin);
    ("ablate-arenas", Exp_extra.ablate_arenas);
    ("ablate-atomics", Exp_extra.ablate_atomics);
    ("shootout", Exp_extra.shootout);
    ("latency-uptime", Exp_extra.latency_uptime);
    ("server-knee", Exp_extra.server_knee);
    ("trace-replay", Exp_extra.trace_replay);
    ("slab", Exp_extra.slab_contention);
    ("ablate-bkl", Exp_extra.ablate_bkl);
    ("ablate-fastbins", Exp_extra.ablate_fastbins);
    ("ablate-crowding", Exp_extra.ablate_crowding);
    ("larson", Exp_extra.larson);
    ("ablate-deferred", Exp_extra.ablate_deferred);
  ]

let all = paper_artifacts @ extensions

let find id = List.assoc_opt id all

let ids = List.map fst all

(* The suite layer (lib/suite) sits below this library, so it sees the
   registry only through this adapter record: ids in registry order plus
   a quiet per-id runner whose result carries its own printer. A suite
   cell printed through [print] is byte-identical to [run_all]'s echo of
   the same experiment. *)
let suite_registry =
  { Mb_suite.Runner.exp_ids = ids;
    exp_run =
      (fun id ~quick ~seed ->
        match find id with
        | None -> None
        | Some runner ->
            Some
              (fun () ->
                let outcome = runner { Exp_common.quick; seed } in
                { Mb_suite.Runner.print = (fun () -> print_string (Outcome.to_string outcome));
                  ok = Outcome.passed outcome;
                }));
  }

(* Every experiment is an independent deterministic computation, so the
   registry fans out across the domain pool. Futures are joined — and
   outcomes printed — in registry order from the calling domain, which
   makes the output byte-identical for any pool width (including the
   sequential width 1). *)
let run_all ?(echo = true) ?only opts =
  let selected =
    match only with
    | None -> all
    | Some wanted -> List.filter (fun (id, _) -> List.mem id wanted) all
  in
  let pool = Mb_parallel.Pool.global () in
  let futures =
    List.map
      (fun (id, runner) -> Mb_parallel.Pool.submit pool ~key:id (fun () -> runner opts))
      selected
  in
  List.map
    (fun future ->
      let outcome = Mb_parallel.Pool.await pool future in
      if echo then print_string (Outcome.to_string outcome);
      outcome)
    futures

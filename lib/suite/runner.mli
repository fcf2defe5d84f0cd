(** Expands a {!Spec} and runs every cell once, printing its result
    block.

    Cells are fanned out over {!Mb_parallel.Pool} exactly like the
    experiment registry (tasks print nothing; the joining domain prints
    in expansion order), so a suite whose cells are the registry
    produces output byte-identical to a direct registry run at any pool
    width. A cell with a fault plan runs under the caller's
    {!Mb_machine.Arm} setting with that plan added; since a pool task
    keeps the setting it was submitted under, faulted and plain cells
    share the pool. *)

type exp_result = {
  print : unit -> unit;  (** prints the outcome block ({!Core.Outcome.to_string}) *)
  ok : bool;             (** all of the experiment's checks passed *)
}

type exp_registry = {
  exp_ids : string list;
  (** registry order; [exp:*] expands to exactly this list *)
  exp_run : string -> quick:bool -> seed:int -> (unit -> exp_result) option;
  (** the per-id runner; [None] for an unknown id. The returned thunk
      performs the actual (pure, unprinted) computation. *)
}
(** The experiment registry, injected by the caller: the registry
    lives in [lib/core], which depends on this library, so the suite
    layer sees it only through this record
    ({!Core.Experiments.suite_registry} builds it). *)

val run : registry:exp_registry -> Spec.t -> ((Spec.cell * bool) list, string) result
(** Runs the suite on {!Mb_parallel.Pool.global} and returns each cell
    with its ok bit, in expansion order. Cells under an armed fault
    plan report ok when they complete gracefully — the paper's pass
    thresholds don't apply mid-storm, matching the [experiment
    --faults] exit-gate rule. When any cell has a plan, the runs kept
    in {!Mb_machine.Arm}'s registry are drained and dropped after the
    last cell: a storm's runs do not reach the caller's report.
    [Error] on expansion failures (unknown experiment ids, colliding
    cell keys). *)

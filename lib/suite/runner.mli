(** Expands a {!Spec} and runs every cell once, printing its result
    block.

    When the suite is {e pure} — every fault plan is [none] — cells
    are fanned out over {!Mb_parallel.Pool} exactly like the experiment
    registry (tasks print nothing; the joining domain prints in
    expansion order), so a suite whose cells are the registry produces
    output byte-identical to a direct registry run at any pool width.
    Fault arming is process-global, so a suite that arms faults runs
    its cells serially, each under its own plan. *)

type exp_result = {
  print : unit -> unit;  (** prints the outcome block, e.g. [Outcome.print] *)
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

val run :
  ?jobs:int ->
  registry:exp_registry ->
  Spec.t ->
  ((Spec.cell * bool) list, string) result
(** Runs the suite and returns each cell with its ok bit, in expansion
    order. [?jobs] forces a dedicated pool width for pure suites
    (default: the global pool). Cells under an armed fault plan report
    ok when they complete gracefully — the paper's pass thresholds
    don't apply mid-storm, matching the [experiment --faults]
    exit-gate rule. [Error] on expansion failures (unknown experiment
    ids, colliding cell keys). *)

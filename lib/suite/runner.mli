(** Expands a {!Spec} through the existing domain pool and meters each
    cell for the {!History} file.

    A run has two phases, mirroring the bench harness:

    {b Phase A — execute and print.} Every cell runs once and prints
    its result block. When the suite is {e pure} — every fault plan is
    [none] — cells are fanned out over {!Mb_parallel.Pool} exactly
    like the experiment registry (tasks print nothing; the joining
    domain prints in expansion order), so a suite whose cells are the
    registry produces output byte-identical to a direct registry run
    at any pool width. Fault arming is process-global, so a suite that
    arms faults runs its phase-A cells serially, each under its own
    plan.

    {b Phase B — meter.} Always serial, in expansion order: each cell
    re-runs [repeats] times under wall-clock and [Gc.minor_words]
    deltas, then once more with metrics observation armed to collect
    the headline simulation counters. Open-loop server cells also
    record their request-latency percentiles. Nothing prints; the
    results become the session's {!History.cell_data}. *)

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

val headline_counters : string list
(** The simulation counters phase B records per cell — the same
    headline set the bench harness embeds in [BENCH_kernels.json]. *)

val run :
  ?jobs:int ->
  registry:exp_registry ->
  Spec.t ->
  ((Spec.cell * History.cell_data) list, string) result
(** Runs the suite. [?jobs] forces a dedicated pool width for pure
    suites (default: the global pool). Cells under an armed fault
    plan report [ok = true] when they complete gracefully — the
    paper's pass thresholds don't apply mid-storm, matching the
    [experiment --faults] exit-gate rule. [Error] on expansion
    failures (unknown experiment ids, colliding cell keys). *)

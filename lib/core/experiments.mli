(** The experiment registry: every table and figure of the paper, plus
    the ablations and future-work extensions, addressable by id. *)

type runner = Exp_common.opts -> Outcome.t

val all : (string * runner) list

val find : string -> runner option

val ids : string list

val suite_registry : Mb_suite.Runner.exp_registry
(** The registry as {!Mb_suite.Runner} consumes it: ids in registry
    order, plus a quiet runner per id whose [print] emits exactly what
    {!run_all} would echo for that experiment. *)

val run_all : ?echo:bool -> ?only:string list -> Exp_common.opts -> Outcome.t list
(** Runs (a subset of) the registry, printing each outcome (unless
    [~echo:false]) and returning them in registry order.

    Experiments, and the sweeps inside them, execute on
    {!Mb_parallel.Pool.global}, whose width {!Mb_parallel.Pool.set_jobs}
    sets (default [Domain.recommended_domain_count ()]; the CLI's
    [--jobs] and [MALLOC_REPRO_JOBS]). Results and printed output are
    byte-identical for every width — parallelism only changes wall
    clock. *)

(** What new machines record, check and inject, and the registry of
    finished runs.

    One setting arms all three instruments: the CLI's [--trace],
    [--metrics], [--check] and [--faults] flags, the suite runner's
    per-cell fault plan, or a test sets it {e before} the runs it
    concerns. [Machine.create] reads it once and gives the new machine
    a fresh {!Mb_obs.Recorder.t}, {!Mb_check.Checker.t} and
    {!Mb_fault.Injector.t} for the channels that are on, and the shared
    null instrument for each one that is off. Instruments consume no
    simulated time or randomness, so an armed run computes the same
    results as a bare one.

    The setting is domain-local, and a {!Mb_parallel.Pool} task runs
    under the setting its submitter had when it submitted the task,
    whichever domain runs it. So tasks with different settings can
    share the pool, and no workload or experiment has to forward the
    setting to the runs it makes.

    Workloads {!publish} each finished run once; the arming caller
    {!drain}s the registry once, after every run is joined. *)

type t = {
  trace : bool;    (** record scheduling and lock events for the trace sink *)
  metrics : bool;  (** record named counters for the metrics sink *)
  check : bool;    (** run the dynamic correctness checker *)
  faults : (Mb_fault.Plan.t * int) option;  (** inject this plan with this seed *)
}

val off : t
(** Nothing armed: every domain's default. *)

val set : t -> unit
(** Replace the calling domain's setting. Call before the runs it
    concerns start; pool tasks already submitted keep the setting they
    were submitted under. *)

val current : unit -> t
(** The calling domain's setting. *)

val within : t -> (unit -> 'a) -> 'a
(** [within t f] runs [f] under [t] and then restores the calling
    domain's setting, even if [f] raises. *)

type run = {
  label : string;  (** the workload and every parameter that changes the simulation *)
  recorder : Mb_obs.Recorder.t;
  checker : Mb_check.Checker.t;
  injector : Mb_fault.Injector.t;
}
(** One finished run's instruments. Those that were off are the null
    instruments. *)

val publish :
  label:(unit -> string) ->
  Mb_obs.Recorder.t ->
  Mb_check.Checker.t ->
  Mb_fault.Injector.t ->
  unit
(** Keep a finished run if at least one of its instruments is on;
    otherwise do nothing, allocate nothing and never call [label].
    Domain-safe: runs publish once each, under a mutex. *)

val drain : unit -> run list
(** Remove and return every kept run, sorted by label (ties keep
    arrival order). Labels name every parameter that changes a
    simulation, so equal labels are equal runs, and the sorted list is
    the same whichever pool domain ran which task. *)

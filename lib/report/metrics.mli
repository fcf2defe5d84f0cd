(** Rendering of observed counters ({!Mb_obs.Recorder} metrics) as a
    fixed-width table or CSV.

    The input is the observed runs of [Mb_machine.Arm.drain]: labelled
    recorders, one per observed run, already sorted by label. *)

val to_table : (string * Mb_obs.Recorder.t) list -> Table.t
(** One row per (run, counter) pair in drain order, followed by a totals
    section summing each counter across runs (the cross-run view of e.g.
    [alloc.lock.contended]). *)

val to_csv : (string * Mb_obs.Recorder.t) list -> string
(** Same rows as {!to_table} (without totals) with header
    [run,counter,value]. *)

val print : (string * Mb_obs.Recorder.t) list -> unit
(** [to_table] straight to stdout. *)

val gc_table : before:Gc.stat -> after:Gc.stat -> Table.t
(** Deltas of the allocation-pressure fields of two [Gc.quick_stat]
    snapshots (minor/promoted/major words, collection counts): how hard
    the simulator itself leaned on the host GC between the snapshots. *)

val print_gc : before:Gc.stat -> after:Gc.stat -> unit
(** [gc_table] straight to stdout. *)

(** Rendering of observed counters ({!Mb_obs.Recorder} metrics) and
    host GC deltas as fixed-width tables.

    The input is the observed runs of [Mb_machine.Arm.drain]: labelled
    recorders, one per observed run, already sorted by label. *)

val print : (string * Mb_obs.Recorder.t) list -> unit
(** Prints one row per (run, counter) pair in drain order, followed by a
    totals section summing each counter across runs (the cross-run view
    of e.g. [alloc.lock.contended]). *)

val print_gc : before:Gc.stat -> after:Gc.stat -> unit
(** Prints the deltas of the allocation-pressure fields of two
    [Gc.quick_stat] snapshots (minor/promoted/major words, collection
    counts): how hard the simulator itself leaned on the host GC between
    the snapshots. *)

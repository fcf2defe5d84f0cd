(** Cross-session trend rendering over the {!History} file.

    The text report is two fixed-width tables — ns/run and GC minor
    words/run per cell, one column per session, oldest to newest, with
    a legend mapping the short column labels back to session ids,
    suites and hosts. The CSV export is long-format (one row per
    session x cell) so external tooling can pivot it however it
    likes. *)

val render : ?last:int -> History.t -> string
(** Text trend tables over the last [last] sessions (default 8). *)

val to_csv : ?last:int -> History.t -> string
(** [session,time_s,suite,host_cores,cell,ok,ns_per_run,
    minor_words_per_run,p50_ns,p95_ns,p99_ns] — percentile fields are
    empty for cells that don't record them. *)

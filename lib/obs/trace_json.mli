(** Chrome [trace_event] JSON sink.

    Serializes one or more labeled recorders into the JSON Object
    Format understood by [chrome://tracing] and {{:https://ui.perfetto.dev}
    Perfetto}: each run becomes one trace "process" (named by its
    label) and each simulated thread one lane inside it, so a
    multi-machine experiment renders as parallel swim-lane groups.

    Timestamps are converted from simulated nanoseconds to the
    format's microseconds. Within a lane, events are emitted sorted by
    start time, and each event occupies exactly one line of output —
    both properties the test suite relies on. *)

val to_string : (string * Recorder.t) list -> string
(** Render labeled recorders (the observed runs of
    [Mb_machine.Arm.drain], in drain order) to a complete JSON
    document. *)

val write_file : string -> (string * Recorder.t) list -> unit
(** [write_file path runs] writes {!to_string}[ runs] to [path], byte
    for byte, one line at a time: the document is never held whole in
    memory. *)

val event_total : (string * Recorder.t) list -> int
(** Total event count across runs (for the CLI's summary line). *)

(** The per-session result history: what turns the bench harness from a
    one-shot tool into a continuous-benchmarking system.

    Every suite run gets a session id; its per-cell results (host
    ns/run, host GC minor words/run, selected simulation counters, and
    the open-loop server's request percentiles) append to a JSON
    history file together with a schema version and a host block. The
    {!Report} module renders cross-session trend tables from the file
    and the {!Gate} module fails CI when the newest session regresses
    against the recorded trend on the same host. *)

val schema : int
(** Current history schema (1). {!load} rejects files from the
    future; older schemas would be migrated here. *)

type host = { cores : int; cpu_model : string }
(** Provenance of a session's wall-clock numbers. ns/run values are
    only comparable between sessions whose host blocks match — the
    gate filters its baseline set on exactly this record. *)

val current_host : unit -> host
(** Cores from [Domain.recommended_domain_count] and the cpu model
    from [/proc/cpuinfo] (["unknown"] where that fails). *)

val host_to_string : host -> string
(** One-line canonical rendering for reports and warnings. *)

type cell_data = {
  ok : bool;                          (** experiment checks passed (forced
                                          true under an armed fault plan) *)
  ns_per_run : float;                 (** host wall clock per execution *)
  minor_words_per_run : float;        (** host GC pressure per execution *)
  counters : (string * int) list;     (** headline simulation counters *)
  percentiles : (string * float) list;
      (** open-loop server cells: [p50_ns]/[p95_ns]/[p99_ns]; empty
          for other workloads *)
}

type session = {
  id : string;
  time_s : float;  (** unix epoch seconds at session start *)
  suite : string;
  mode : string;   (** ["quick"] or ["full"] *)
  seed : int;
  host : host;
  cells : (string * cell_data) list;  (** keyed by {!Spec.cell}[.key], expansion order *)
}

type t = { sessions : session list }
(** Chronological: oldest first, newest last. *)

val empty : t

val load : string -> (t, string) result
(** Reads a history file. A missing file is [Ok empty] (the first
    session creates it); a malformed or future-schema file is
    [Error]. *)

val append : string -> session -> (t, string) result
(** [append path session] loads [path], appends [session] and
    rewrites the file atomically (write to [path ^ ".tmp"], rename).
    Returns the new history. *)

val save : string -> t -> unit

val generate_id : unit -> string
(** [YYYYMMDD-HHMMSS-PID] (UTC), overridable for reproducible tests
    with [MALLOC_REPRO_SESSION_ID]. *)

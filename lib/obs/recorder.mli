(** Per-run observation recorder: named counters plus trace events.

    A recorder is the sink every instrumented layer (simulation engine,
    machine, allocators) writes into during one simulated run. Each
    {!Mb_machine.Machine} owns exactly one recorder, so a pool of
    domains running independent machines needs no locking: a recorder
    is only ever written from the task that owns its machine.

    Disabled recorders are branch-cheap: every emission function first
    loads one immutable boolean field and returns immediately when the
    corresponding channel is off. {!null} is the shared always-disabled
    recorder; instrumented code can call emission functions
    unconditionally against it without consuming memory or time beyond
    that single branch, which is what keeps un-observed runs
    byte-identical to an un-instrumented build.

    Recording never consumes {e simulated} time or randomness, so
    enabling a recorder cannot perturb a run's results either. *)

type t
(** A recorder: two independent channels (trace events and metrics
    counters), either of which may be disabled. *)

type event = {
  lane : int;       (** trace lane, one per simulated thread (engine pid) *)
  name : string;    (** short event label, e.g. ["run"] or ["park"] *)
  ts_ns : float;    (** start time in simulated nanoseconds *)
  dur_ns : float;   (** span duration; negative for instant events *)
  args : (string * string) list;  (** free-form key/value annotations *)
}
(** One trace event. Spans ([dur_ns >= 0]) render as boxes on their
    lane in a Chrome/Perfetto timeline; instants render as markers. *)

val null : t
(** The shared disabled recorder: both channels off, never records. *)

val create : ?trace:bool -> ?metrics:bool -> unit -> t
(** Fresh recorder with the given channels enabled (both default to
    [true]). [create ~trace:false ~metrics:false ()] is functionally
    {!null} but distinct. *)

val enabled : t -> bool
(** [true] iff at least one channel is on. *)

val tracing : t -> bool
(** [true] iff the event channel is on. *)

val metering : t -> bool
(** [true] iff the counter channel is on. *)

(** {1 Counters (metrics channel)} *)

val add : t -> string -> int -> unit
(** [add t key n] adds [n] to counter [key] (created at 0 on first
    use). No-op when metrics are off. *)

val set : t -> string -> int -> unit
(** [set t key v] overwrites counter [key] — used to snapshot counters
    maintained elsewhere (cache statistics, mutex acquisition counts)
    into the recorder at end of run; idempotent. No-op when metrics
    are off. *)

val counter : t -> string -> int
(** Current value of a counter; 0 if never written. *)

val counters : t -> (string * int) list
(** All counters, sorted by key. *)

(** {1 Events (trace channel)} *)

val span : t -> lane:int -> name:string -> ts_ns:float -> dur_ns:float ->
  ?args:(string * string) list -> unit -> unit
(** Record a completed span. No-op when tracing is off. *)

val instant : t -> lane:int -> name:string -> ts_ns:float ->
  ?args:(string * string) list -> unit -> unit
(** Record an instant event. No-op when tracing is off. *)

val set_lane : t -> int -> string -> unit
(** [set_lane t lane name] names a trace lane (shown as the thread name
    in trace viewers). Last writer wins. No-op when tracing is off. *)

val events : t -> event list
(** All recorded events, in emission order. *)

val lanes : t -> (int * string) list
(** Lane names, sorted by lane id. *)

val event_count : t -> int
(** Number of recorded events (cheaper than [List.length (events t)]). *)

(** {1 Aggregation} *)

val totals : (string * t) list -> (string * int) list
(** [totals runs] sums the counters of several labeled recorders into
    one sorted counter list — the cross-run metrics table. *)

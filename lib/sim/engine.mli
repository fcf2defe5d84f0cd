(** Discrete-event simulation engine.

    Simulated processes are ordinary OCaml functions run as coroutines via
    effect handlers: inside a process, {!delay} advances simulated time and
    {!park} suspends until something calls the supplied resume function.
    The engine is single-threaded and deterministic: events at equal times
    fire in scheduling order.

    Time is in simulated nanoseconds (a [float]); the engine itself attaches
    no meaning to the unit.

    When created with an enabled {!Mb_obs.Recorder.t}, the engine emits
    structured trace events — process spawn/exit and park/unpark — on one
    lane per process (the lane id is the {!pid}). Observation never
    consumes simulated time, so an observed run computes exactly the same
    schedule as an unobserved one. *)

type t
(** An engine instance: a clock plus a pending-event queue. *)

type pid = int
(** Process identifier, unique within an engine. *)

type waiter = {
  wpid : pid;            (** the parked process *)
  wname : string;        (** its display name *)
  wwhy : string;         (** what it waits for (see {!set_wait}); ["parked"]
                             when the parking layer recorded nothing *)
  wwaits_on : pid;       (** the pid it waits on, or [-1] if the target is
                             not a process (a cpu, an external event) *)
}
(** One stuck process in a stall report. *)

type stall = {
  waiters : waiter list;  (** every parked process, in pid order *)
  cycle : waiter list;    (** one cycle of the wait-for graph in following
                              order, or [[]] when the stall is not a
                              deadlock (e.g. a lost wakeup) *)
}
(** Structured diagnosis of a drained-queue-with-parked-processes
    stall. *)

exception Stalled of stall
(** Raised by {!run} when the event queue drains while parked processes
    remain — the simulation's notion of deadlock. A printer is
    registered, so an uncaught [Stalled] displays {!stall_message}. *)

val stall_message : stall -> string
(** Multi-line human-readable rendering of a stall report: a summary
    line, one line per waiter, and the deadlock cycle if one exists. *)

val create : ?obs:Mb_obs.Recorder.t -> unit -> t
(** [create ()] makes an idle engine at time 0. [obs] (default
    {!Mb_obs.Recorder.null}) receives the engine's trace events. *)

val now : t -> float
(** Current simulated time. Inlined into callers in other modules, so
    the time it returns is not boxed. *)

val spawn : t -> ?name:string -> (unit -> unit) -> pid
(** [spawn t f] registers [f] as a process starting at the current time.
    May be called before {!run} or from within a running process. If [f]
    raises, the exception propagates out of {!run}. [name] labels the
    process in traces and error messages; when omitted, the default
    ["proc-<pid>"] is only materialized if something actually needs it,
    so unobserved runs never pay for the formatting. *)

type handle [@@immediate]
(** A queued thunk event, for {!cancel}: the event's unique tie-break
    word, its sequence number and arena slot. *)

val no_event : handle
(** A handle that names no event, for callers that keep a handle slot
    while nothing is queued. {!cancel} raises on it. *)

val at : t -> float -> (unit -> unit) -> handle
(** [at t time thunk] schedules a bare callback (not a process: it must not
    perform {!delay} or {!park}) at absolute [time] and returns the
    event's handle. Inlined into callers in other modules, so [time]
    is not boxed.
    @raise Invalid_argument if [time] is earlier than {!now} or NaN. *)

val cancel : t -> handle -> unit
(** [cancel t h] removes the queued event [h] names: it never runs and
    never moves the clock, and its arena slot is free for the next
    event. Events at equal times keep their order. Cost: a scan of the
    pending events, which the simulated machines keep to a handful.
    @raise Invalid_argument if [h]'s event already ran or was
    cancelled, or [h] is {!no_event}. *)

val run : t -> unit
(** Drain the event queue. Returns when no events remain and no process is
    parked. @raise Stalled on deadlock. *)

val live : t -> int
(** Number of spawned processes that have not finished. *)

val delay : float -> unit
(** Advance this process's simulated time. Only valid inside a process
    spawned on some engine; raises [Effect.Unhandled] elsewhere, and
    [Invalid_argument] for a negative or NaN duration. *)

val delay_pending : t -> float -> unit
(** [delay_pending e ns] is exactly {!delay}[ ns], for a process that
    knows its engine: it is inlined into the caller, so [ns] is not
    boxed, and it performs an effect with no payload, so nothing is
    allocated for the effect either — this is the simulator's single
    hottest operation. When the woken process would be the next event
    anyway (wake-up strictly earlier than everything queued), the
    engine skips the suspend/resume round trip entirely and just
    advances the clock — observationally identical, far cheaper. Only
    valid inside a process spawned on engine [e]. *)

val runs_next : t -> float -> bool
(** [runs_next e time] is the test {!delay_pending} makes: whether an
    event at [time] would run before everything queued, its time being
    strictly earlier (at an equal time the queued event runs first).
    A [delay_pending] that ends at [time] advances the clock in place
    exactly when this holds, and otherwise queues the process. Inlined
    into callers in other modules, so [time] is not boxed. *)

val set_wait : t -> pid -> why:string -> waits_on:pid -> unit
(** [set_wait t pid ~why ~waits_on] records what a process is about to
    wait for, so a stall names it in the {!Stalled} report. Call just
    before parking; the record is cleared automatically when the
    process resumes. [waits_on] is the pid the process depends on
    ([-1] when the dependency is not a process) and is what the
    deadlock cycle finder follows. *)

val park : ((unit -> unit) -> unit) -> unit
(** [park register] suspends the calling process and passes its one-shot
    resume function to [register] (called before [park] returns control to
    the engine). Calling the resume function schedules the process to
    continue at the then-current simulated time; calling it twice raises
    [Invalid_argument]. *)

val suspend : t -> ((unit -> unit) -> unit) -> unit
(** Low-overhead {!park} for engine-level pollers: no parked-process
    bookkeeping, no trace instants, and the resume function re-enters
    the process with a direct continue instead of re-queueing it — so
    it must be called {e exactly once} per suspend, from a queued-thunk
    context (a callback scheduled with {!at}), and the caller must keep
    at least one pending event alive until then (the stall detector
    does not know about suspended-but-unparked processes). The resume
    handed to [register] is the same closure on every suspend of one
    process, so a caller may keep it; calling it while the process is
    not suspended raises [Invalid_argument]. The machine layer's lock
    spinner is the intended client. *)

val flush_observations : t -> unit
(** Snapshot the event queue's counters into the recorder:
    [sched.shard.pushes] (every event pushed), its two
    {!Timing_wheel} destinations, [sched.shard.ring_hits] and
    [sched.shard.heap_spills], which sum to the pushes, and
    [sched.shard.cancels], the events {!cancel} removed: pushes minus
    cancels is the number of events run.
    [sched.shard.wheel_hits] is reported too and is always 0: the
    queue has no wheel levels, and the name stays until the counter
    family is renamed. No-op unless metering is on; call once at end of
    run (the machine layer does). *)

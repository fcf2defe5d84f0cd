(** Per-machine fault injector: seeded decisions plus outcome counters.

    One injector is attached to each simulated machine (like
    {!Mb_check}'s checker). All of its decisions come from a private
    SplitMix64 stream seeded from the plan seed, {e independent} of the
    machine's workload RNG — so arming a plan never perturbs workload
    randomness, and the same plan+seed against the same workload yields
    an identical injected-event sequence.

    Every decision hook is branch-cheap when disarmed: {!null} answers
    "no fault" without drawing from any stream, which is what keeps the
    faults-off byte-identity guarantee. *)

type t

exception Alloc_failure of { who : string; bytes : int }
(** Structured allocation failure: [who] names the allocator (or
    ["Machine.spawn"] for thread stacks), [bytes] the request size.
    Replaces the historical [failwith "...: out of memory"] crash
    paths; raised by {!Mb_alloc.Allocator.out_of_memory} and caught by
    the instrument-layer retry loop and by workload degradation
    guards. A registered [Printexc] printer renders it readably. *)

val null : t
(** The disarmed injector: never injects, counts nothing. *)

val create : plan:Plan.t -> seed:int -> t
(** A fresh armed injector for one machine/run. *)

val armed : t -> bool

(** {1 Decision hooks}

    Called from {!Mb_machine.Machine} at the instrumented sites. Each
    hook only draws from the stream when its own plan is armed, so
    scenarios stay independent across seeds. *)

val veto_reserve : t -> now_ns:float -> load:int -> len:int -> bool
(** Should this page reservation (sbrk growth, anonymous mmap, thread
    stack) fail?  [load] is the current dynamic footprint in bytes
    ({!Mb_vm.Address_space.dynamic_bytes}), [len] the requested bytes,
    [now_ns] the simulated clock. [oom-pressure] vetoes when
    [load + len] exceeds a budget decaying over simulated time;
    [flaky-reserve] vetoes a seeded 1/8 of calls. Increments the
    injected-reserve counter when it answers [true]. *)

val preempt_now : t -> bool
(** Should an extra context switch fire at this lock-acquisition site?
    [preempt-storm] answers [true] for a seeded 1/64 of calls. *)

val stretch_cycles : t -> int
(** Extra cycles to hold a heap mutex before release. [slow-lock]
    stretches a seeded 1/8 of releases by ~1200 cycles; everyone else
    answers [0]. *)

(** {1 Outcome notes} *)

val note_survived : t -> unit
(** An injected failure was absorbed by retry/backoff (the caller got
    its memory after all). *)

val note_degraded : t -> unit
(** An injected failure exhausted retries and the workload degraded
    gracefully (skipped the operation) instead of crashing. *)

(** {1 Retry policy}

    Exposed so tests can assert the bounds. *)

val max_retries : int
(** Attempts made by {!Mb_alloc.Allocator.instrument}'s resilient
    malloc after the first failure (currently 4). *)

val backoff_cycles : int -> int
(** [backoff_cycles i] is the simulated-cycle delay before retry [i]
    (0-based): exponential, [2000 lsl i]. *)

(** {1 Counters} *)

val injected : t -> int
(** Total injected events: reserve vetoes + preempts + slow-lock
    stretches. *)

val injected_reserve : t -> int

val injected_preempt : t -> int

val injected_slowlock : t -> int

val survived : t -> int

val degraded : t -> int

(** Allocation-latency instrumentation (paper section 6 future work:
    "heap allocator latency should show little or no change as network
    servers remain up over time. We plan to create a benchmark to
    measure latency changes over server uptime").

    Wraps an allocator so every heap operation records (simulated start
    time, duration, op); the samples can then be sliced into uptime
    windows to detect drift, or split by op to see which entry point is
    the contended one. Historically the probe only saw [malloc], which
    made the server's calloc state-swap and realloc response-growth
    paths — the contended ones — invisible. *)

type op = Malloc | Calloc | Realloc | Free

val op_label : op -> string

type probe

val wrap : Mb_alloc.Allocator.t -> probe * Mb_alloc.Allocator.t
(** The returned allocator behaves identically (and shares stats) but
    feeds the probe from its [malloc] and [free] entry points. For the
    derived entry points, route calls through {!calloc} / {!realloc}
    below — calling [Allocator.calloc] on the wrapped allocator directly
    would record only the inner [malloc], not the zeroing/copying the
    caller actually waits for. *)

val calloc : probe -> Mb_alloc.Allocator.t -> Mb_machine.Machine.ctx -> count:int -> size:int -> int
(** [Allocator.calloc] timed end to end and recorded as one [Calloc]
    sample; the inner [malloc] record is suppressed so the operation is
    not double-counted. *)

val realloc : probe -> Mb_alloc.Allocator.t -> Mb_machine.Machine.ctx -> int -> int -> int
(** [Allocator.realloc] timed end to end as one [Realloc] sample, with
    inner malloc/free records suppressed. *)

val samples : probe -> (float * float) list
(** All (start_ns, duration_ns) pairs across every op, in collection
    order. *)

val samples_by : probe -> op -> (float * float) list
(** Like {!samples}, restricted to one op. *)

val count : probe -> int

val ops : op list
(** All ops, in a fixed report order. *)

val windows : probe -> window_ns:float -> (float * Mb_stats.Summary.t) list
(** Latency summaries per uptime window: [(window_start_ns, summary)] for
    each non-empty window, ascending. All ops pooled. *)

val drift : probe -> window_ns:float -> float
(** Mean latency of the last non-empty window divided by the first —
    1.0 means no drift. Requires at least one sample. *)

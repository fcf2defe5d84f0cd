(** Sorted ring plus one overflow heap over [(key, pk)] pairs — the
    event queue behind {!Engine}.

    [key] is a simulated time encoded with {!key_of_time} (an
    order-preserving integer image of the float);
    [pk] is an opaque tie-break whose integer order must encode the
    engine's sequence order. Pops deliver pairs in exact lexicographic
    [(key, pk)] order — identical to a sorted list, which is what the
    property tests check it against.

    Internally: a sorted ring buffer serves the near future in O(1)
    peek/pop and near-O(1) push, and holds the whole queue while it
    has at most {!ring_target} items; a 4-ary heap takes the pushes
    past the ring's gate beyond that. When a pop drains the ring, the
    heap's minimum key moves into it — every item with that key
    together, so a later push at the same key still sorts after them.
    {!remove} takes one item out wherever it sits, found by its
    tie-break (the engine's cancellation). *)

type t
(** A queue of [(key, pk)] pairs. *)

val create : unit -> t

val ring_target : int
(** Soft ring-size bound: while the heap is empty, pushes grow the ring
    up to this size before overflowing into the heap. *)

val key_of_time : float -> int
(** Order-preserving integer encoding of a non-negative time. Inlined
    into callers in other modules, so the time is not boxed. *)

val time_of_key : int -> float
(** Inverse of {!key_of_time}. Inlined into callers in other modules,
    so the time it returns is not boxed. *)

val push : t -> int -> int -> unit
(** [push t key pk] files one item. *)

val peek_key : t -> int
(** Key of the minimum item, or [max_int] when empty ([max_int] never
    encodes a real time: it would be a NaN). *)

val peek_pk : t -> int
(** Tie-break of the minimum item, or [max_int] when empty. *)

val pop : t -> unit
(** Drop the minimum item (read it first via the peeks). Precondition:
    not empty. *)

val remove : t -> int -> bool
(** [remove t pk] takes out the item whose tie-break is [pk] and
    returns [true], or returns [false] when no such item is queued.
    A removal that empties the ring while the heap holds items refills
    it, as a pop does. Tie-breaks must be unique for this to name one
    item; the engine's are. Cost: a scan of the ring, then of the
    heap, plus the shift or sift that closes the hole. *)

val length : t -> int
val is_empty : t -> bool

val ring_length : t -> int
(** Items in the sorted ring; the other [length t - ring_length t] are
    in the heap. The ring is empty only when the queue is. *)

val ring_hits : t -> int
(** Pushes that went straight into the sorted ring (fast path). *)

val heap_spills : t -> int
(** Pushes that overflowed into the heap. *)

val removals : t -> int
(** Items taken out by {!remove}. *)

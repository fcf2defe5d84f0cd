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

type t = {
  mutable rkeys : int array;  (** sorted ring: time keys *)
  mutable rpks : int array;   (** sorted ring: tie-breaks *)
  mutable rhead : int;        (** physical index of the ring head *)
  mutable rsize : int;
      (** items in the ring; 0 only when the whole queue is empty *)
  mutable gate : int;
      (** pushes with [key < gate] belong in the ring; above every ring
          key and at most every heap key *)
  mutable hkeys : int array;  (** overflow heap: time keys *)
  mutable hpks : int array;   (** overflow heap: tie-breaks *)
  mutable hsize : int;        (** items in the heap *)
  mutable ring_hits : int;    (** pushes that took the ring *)
  mutable heap_spills : int;  (** pushes that took the heap *)
  mutable removals : int;     (** items taken out by {!remove} *)
}
(** The representation is exposed for {!Engine}'s hot path: one push and
    one pop per simulated event cannot afford call boundaries, so the
    engine reads the ring head and retires ring items with direct field
    access, calling into this module only to sort-insert
    ({!ring_insert}), to overflow past the gate ({!push_overflow}) and to
    refill an empty ring ({!advance}). Everyone else should treat the
    type as abstract and use {!push}/{!peek_key}/{!pop}. *)

val create : unit -> t

val ring_target : int
(** Soft ring-size bound: while the heap is empty, pushes grow the ring
    up to this size before overflowing into the heap. *)

val key_of_time : float -> int
(** Order-preserving integer encoding of a non-negative time. *)

val time_of_key : int -> float
(** Inverse of {!key_of_time}. *)

val push : t -> int -> int -> unit
(** [push t key pk] files one item. *)

val ring_insert : t -> int -> int -> unit
(** Sorted-insert into the ring, growing it if full and bumping the
    gate on a tail append. Hot-path building block: the caller has
    already decided the item belongs in the ring ([key < gate], or the
    heap is empty and the ring below {!ring_target}). *)

val push_overflow : t -> int -> int -> unit
(** Push an item the caller has ruled out of the ring ([key >= gate],
    and the heap non-empty or the ring at {!ring_target}) onto the heap,
    counting a heap spill. The ring is never empty here: an empty ring
    means an empty queue, which takes the ring branch. *)

val advance : t -> unit
(** Refill an empty ring from the heap: its minimum key, with every
    item sharing it. Precondition: [hsize > 0]. Postcondition:
    [rsize > 0]. *)

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

val ring_hits : t -> int
(** Pushes that went straight into the sorted ring (fast path). *)

val heap_spills : t -> int
(** Pushes that overflowed into the heap. *)

val removals : t -> int
(** Items taken out by {!remove}. *)

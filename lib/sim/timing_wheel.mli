(** Hierarchical timing wheel over [(key, pk)] pairs — the event queue
    behind {!Engine}.

    [key] is a simulated time encoded with {!key_of_time} (an
    order-preserving integer image of the float);
    [pk] is an opaque tie-break whose integer order must encode the
    engine's sequence order. Pops deliver pairs in exact lexicographic
    [(key, pk)] order — identical to a sorted list, which is what the
    property tests check it against.

    Internally: a sorted ring buffer serves the near future in O(1)
    peek/pop and near-O(1) push; two wheel levels of 256 buckets
    (2^10 ns and 2^18 ns wide) absorb items past the ring's gate with
    O(1) amortized filing; a 4-ary heap takes everything beyond the
    wheels' ~67 ms span or past 2^52 ns. Buckets are only sorted when
    their time window is reached. *)

type t = {
  mutable rkeys : int array;  (** sorted ring: time keys *)
  mutable rpks : int array;   (** sorted ring: tie-breaks *)
  mutable rhead : int;        (** physical index of the ring head *)
  mutable rsize : int;
  mutable gate : int;  (** pushes with [key < gate] belong in the ring *)
  l1k : int array array;
  l1p : int array array;
  l1n : int array;
  l1occ : int array;
  mutable c1 : int;
  mutable l1_count : int;
  l2k : int array array;
  l2p : int array array;
  l2n : int array;
  l2occ : int array;
  mutable c2 : int;
  mutable l2_count : int;
  mutable hkeys : int array;
  mutable hpks : int array;
  mutable hsize : int;
  mutable size : int;
  mutable ring_hits : int;
  mutable wheel_hits : int;
  mutable heap_spills : int;
}
(** The representation is exposed for {!Engine}'s hot path: one push and
    one pop per simulated event cannot afford call boundaries, so the
    engine reads the ring head and retires ring items with direct field
    access, calling into this module only to sort-insert
    ({!ring_insert}), to file past the gate ({!push_overflow}) and to
    refill an empty ring ({!advance}). Everyone else should treat the
    type as abstract and use {!push}/{!peek_key}/{!pop}. *)

val create : unit -> t

val ring_target : int
(** Soft ring-size bound: while the wheels are empty, appends grow the
    ring up to this size before overflowing into the wheel levels. *)

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
    wheels and heap are empty) and has accounted for it in [size]. *)

val push_overflow : t -> int -> int -> unit
(** File an item the caller has ruled out of the ring ([key >= gate],
    wheels/heap non-empty) into L1/L2/heap. Does not touch [size];
    after it, callers must {!advance} if the ring is empty. *)

val advance : t -> unit
(** Refill an empty ring from the wheels/heap. Precondition:
    [size > 0]. Postcondition: [rsize > 0]. *)

val peek_key : t -> int
(** Key of the minimum item, or [max_int] when empty ([max_int] never
    encodes a real time: it would be a NaN). *)

val peek_pk : t -> int
(** Tie-break of the minimum item, or [max_int] when empty. *)

val pop : t -> unit
(** Drop the minimum item (read it first via the peeks). Precondition:
    not empty. *)

val length : t -> int
val is_empty : t -> bool

val ring_hits : t -> int
(** Pushes that went straight into the sorted ring (fast path). *)

val wheel_hits : t -> int
(** Pushes filed into an L1/L2 bucket. *)

val heap_spills : t -> int
(** Pushes that fell through to the far-future heap. *)

(** Open-addressing hash table with native [int] keys.

    A drop-in replacement for [(int, 'a) Hashtbl.t] on simulation hot
    paths. Three properties matter there:

    - no key boxing and no generic hashing: keys are immediates mixed
      with one multiply-and-shift (Fibonacci hashing), so a probe is a
      handful of arithmetic ops and one array load;
    - linear probing in a flat array: a lookup touches consecutive
      slots of one [int array] instead of walking a bucket list;
    - tombstone-free deletion: {!remove} backward-shifts the following
      probe chain, so tables that see heavy add/remove churn (the
      allocator's chunk index) never degrade or need periodic rehash.

    Lookups via {!find_exn} and membership tests allocate nothing;
    {!find_opt} is provided for cold paths that want an option.

    Any key except [min_int] is valid (negative keys included).
    The table is not thread-safe; like the rest of the simulation it is
    confined to the domain that owns the run. *)

type 'a t
(** A mutable table mapping [int] keys to ['a] values. *)

val create : ?initial:int -> unit -> 'a t
(** Fresh empty table. [initial] (default [16]) is a capacity hint;
    the table grows automatically past it. *)

val length : 'a t -> int
(** Number of bindings. *)

val mem : 'a t -> int -> bool
(** [mem t key] is [true] iff [key] is bound. Does not allocate. *)

val find_exn : 'a t -> int -> 'a
(** [find_exn t key] returns the binding of [key]. Does not allocate.
    @raise Not_found if [key] is unbound. *)

val find_opt : 'a t -> int -> 'a option
(** Option-returning lookup (allocates the [Some]); prefer
    {!find_exn} on hot paths. *)

val set : 'a t -> int -> 'a -> unit
(** [set t key v] binds [key] to [v], replacing any previous binding
    (i.e. [Hashtbl.replace] semantics). *)

val remove : 'a t -> int -> unit
(** Remove the binding of [key], if any. The vacated probe chain is
    compacted in place — no tombstones are left behind. *)

val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** Fold over every binding, in unspecified order. *)

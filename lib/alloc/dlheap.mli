(** A Doug Lea-style heap arena over simulated memory.

    This is the building block under both glibc's ptmalloc (one {!t} per
    arena) and the Solaris-model serial allocator (one {!t} under one
    lock): boundary-tagged chunks, exact-spacing small bins plus sorted
    large bins, split and coalesce, a wilderness ("top") chunk extended
    by [sbrk] (main heap) or carved from a pre-mapped region (sub-heap),
    direct [mmap] for requests at or above the threshold — the paper's
    "sbrk for allocations smaller than 32 pages, mmap for larger" — and
    an [mmap] fallback when [sbrk] hits a pre-existing mapping (the
    post-2.1.3 glibc behaviour discussed in section 3).

    A heap performs no locking; callers serialize access (that division
    of labour is exactly glibc's). All operations consume simulated time
    on the calling thread and fault pages on first touch. *)

type t
(** One heap arena: its chunk segment, bins, top chunk, and direct
    mmap list. *)

type params = {
  mmap_threshold : int;     (** requests >= this go to direct mmap (bytes) *)
  trim_threshold : int;     (** main-heap top larger than this is returned via negative sbrk *)
  top_pad : int;            (** extra bytes requested on each top extension *)
  sub_heap_bytes : int;     (** region size reserved for each sub-heap *)
  use_fastbins : bool;      (** glibc-2.3-style fast path: frees of chunks up to 80 bytes skip coalescing into per-size LIFO caches, consolidated in bulk before the heap would otherwise grow. Off by default — the study's subject is the 2.0/2.1 allocator; the [ablate-fastbins] bench measures what the evolution buys *)
  defer_coalescing : bool;  (** skip neighbour merges on small-chunk frees: the chunk is tagged free and LIFO-pushed into its exact-spacing bin (priced at {!Costs.t.deferred_free}), and the next request of its size takes it straight back from the bin; merges happen wholesale when the heap would otherwise grow. Off by default — a racing variant, not a change to the study's subject; the [ablate-deferred] bench measures it *)
  mmap_fallback : bool;     (** retry a failed [sbrk] arena growth with [mmap], the post-2.1.3 glibc behaviour the paper's section 3 describes; turning it off models the older libc that simply fails when the brk hits a mapping *)
}

val default_params : params
(** 32-page mmap threshold (the paper's figure), 128 KB trim threshold,
    4 KB top pad, 1 MB sub-heaps (early ptmalloc's HEAP_MAX_SIZE),
    fastbins off. *)

val fastbin_chunks : t -> int
(** Chunks currently parked in fastbins. *)

val consolidate : t -> Mb_machine.Machine.ctx -> int
(** Drain the fastbins through the normal coalescing path (glibc's
    [malloc_consolidate]); returns the number of chunks drained. *)

val header_bytes : int
(** Per-chunk bookkeeping overhead (8, as in dlmalloc). *)

val create_main : costs:Costs.t -> params:params -> stats:Astats.t -> t
(** The process's primary heap, growing at the break. Lazy: the first
    allocation performs the initial [sbrk]. A heap's costs never
    change, so each fixed charge is scaled ({!Costs.apply}) once, here
    and in {!create_sub}; only the bin-probe charge, which grows with
    the probe count, is scaled when it is charged. *)

val create_sub :
  Mb_machine.Machine.ctx -> costs:Costs.t -> params:params -> stats:Astats.t -> t option
(** A ptmalloc-style sub-heap: reserves [sub_heap_bytes] of address space
    with [mmap] immediately (hence needs a running thread) and carves its
    top chunk from it. [None] if the address space is exhausted. *)

val malloc : t -> Mb_machine.Machine.ctx -> int -> int
(** [malloc t ctx size] returns the user address of a block of at least
    [size] bytes, or [0] if this heap cannot satisfy it (sub-heap region
    full, or main heap blocked by both the brk ceiling and mmap
    exhaustion); no user address is ever [0]. [size] must be positive
    and at most {!Allocator.max_request}. Carving and splitting reuse
    the records of chunks that merged away, so a steady malloc/free
    cycle allocates nothing on the host. *)

val free : t -> Mb_machine.Machine.ctx -> int -> unit
(** Releases a block owned by this heap.
    @raise Invalid_argument on an address this heap does not own or a
    double free. *)

val owns : t -> int -> bool
(** Whether a user address lies in this heap's segment or one of its
    direct-mmapped chunks. How ptmalloc routes [free] to the right
    arena. *)

val usable_size : t -> int -> int
(** Reserved bytes behind a user address (>= the requested size). *)

(** {1 Introspection (tests, reports)} *)

val is_sub : t -> bool
(** True for sub-heaps ({!create_sub}), false for the main heap. *)

val segment_bounds : t -> int * int
(** Current [base, end) of the contiguous chunk segment. *)

val top_bytes : t -> int
(** Size of the wilderness chunk. *)

val free_bytes : t -> int
(** Bytes in binned free chunks (excluding top). *)

val live_chunks : t -> int
(** Number of currently allocated chunks (direct-mmapped included). *)

val used_bytes : t -> int
(** Bytes held by allocated chunks (headers included), excluding
    direct-mmapped blocks. *)

val mmapped_bytes : t -> int
(** Bytes in live direct-mmapped chunks. *)

val mmapped_count : t -> int
(** Number of live direct-mmapped chunks. *)

val set_params : t -> params -> unit
(** Replace the tunables (the [mallopt] path); affects subsequent
    operations only. *)

val params : t -> params
(** The tunables currently in force. *)

val validate : t -> (unit, string) result
(** Full structural check: the segment tiles exactly into chunks,
    boundary tags agree, no two adjacent free chunks, bin lists
    well-formed and correctly populated, large bins sorted. *)

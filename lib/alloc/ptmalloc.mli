(** Gloger's ptmalloc — the glibc 2.0/2.1 allocator the paper studies.

    Multiple {!Dlheap} arenas behind per-arena mutexes. A [malloc] tries
    the calling thread's last-used arena with a try-lock; on contention
    it walks the arena list try-locking each, and if every arena is busy
    it creates a new one — the paper's "simple way to grow the number of
    subheaps … nothing stops the heap list from growing without bound"
    (section 3). A [free] must lock the arena that owns the chunk, which
    is how storage allocated in one thread and freed in another leaks
    pages into arenas the freeing thread will not allocate from — the
    mechanism benchmark 2 measures.

    Each arena descriptor's lock word is written on every operation.
    Non-main arena descriptors are packed 16 bytes apart in a metadata
    line region whose base phase is drawn per instance (DESIGN.md's
    "cache sloshing" layout model behind Table 4); the main arena's
    descriptor lives alone in libc data. *)

type t
(** One ptmalloc instance: its arena list and per-thread affinity map. *)

val make :
  Mb_machine.Machine.proc ->
  ?costs:Costs.t ->
  ?params:Dlheap.params ->
  ?max_arenas:int ->
  unit ->
  t
(** [max_arenas] caps arena creation for the ablation study; unlimited by
    default. Costs default to {!Costs.glibc}. *)

val allocator : t -> Allocator.t
(** The uniform allocator record over this instance. *)

val arena_count : t -> int
(** Arenas currently in the list (never shrinks, matching the paper). *)

val arena_of_thread : t -> int -> int option
(** [arena_of_thread t tid] is the index of the arena the thread last
    used, if it has allocated. *)

val heap_bytes : t -> int
(** Total bytes of address space held by all arenas (brk extent plus
    sub-heap reservations actually used). *)

(** {1 mallopt / mallinfo}

    The tunables section 3 of the paper mentions ("an application can
    invoke mallopt(3)"). Changes apply to every existing arena and to
    arenas created later. *)

type tunable =
  | Mmap_threshold of int  (** M_MMAP_THRESHOLD: direct-mmap cutoff, bytes *)
  | Trim_threshold of int  (** M_TRIM_THRESHOLD: release top above this *)
  | Top_pad of int         (** M_TOP_PAD: slack kept on heap growth *)
  | Fastbins of bool       (** enable the glibc-2.3-style fast path (M_MXFAST-ish) *)
  | Defer_coalescing of bool
      (** defer small-chunk coalescing to bulk passes ({!Dlheap.params.defer_coalescing}) *)

val mallopt : t -> tunable -> unit
(** @raise Invalid_argument on non-positive thresholds. *)

type mallinfo = {
  arena : int;      (** bytes of heap segments (brk extent + sub-heap use) *)
  narenas : int;
  hblks : int;      (** live direct-mmapped chunks *)
  hblkhd : int;     (** bytes in direct-mmapped chunks *)
  uordblks : int;   (** bytes held by allocated chunks *)
  fordblks : int;   (** bytes in free chunks, including arena tops *)
  keepcost : int;   (** main-arena top size (what a trim could release) *)
}

val mallinfo : t -> mallinfo
(** Aggregate snapshot in the style of the C [mallinfo(3)] call. *)

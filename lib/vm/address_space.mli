(** A simulated per-process virtual address space.

    Models the facilities the paper's section 3 discusses: a [brk] line
    grown by {!sbrk}, anonymous mappings placed by {!mmap}, pre-existing
    fixed mappings (shared libraries) that {!sbrk} cannot grow past, and
    demand paging with first-touch minor-fault accounting — the statistic
    benchmark 2 reports.

    Addresses are plain [int]s; there is no backing store, only layout and
    residency bookkeeping. All sizes are in bytes. *)

type t

type addr = int

exception Segfault of addr
(** Raised when {!touch} hits an unmapped address. *)

type config = {
  page_size : int;        (** bytes per page; Linux x86 uses 4096 *)
  brk_base : addr;        (** bottom of the heap segment *)
  brk_ceiling : addr;     (** hard limit for [sbrk] growth (next mapping) *)
  mmap_base : addr;       (** where anonymous mapping placement starts *)
  mmap_top : addr;        (** exclusive upper bound of the mmap zone *)
}

val linux_x86 : config
(** Layout echoing 1999 Linux/x86: heap at 0x08xxxxxx growing up toward
    shared libraries at 0x40000000, mmap zone above the libraries. *)

val create : config -> t

val config : t -> config

val page_size : t -> int

(** {1 The brk segment} *)

val brk : t -> addr
(** Current break (end of the heap segment). Starts at [brk_base]. *)

val sbrk : t -> int -> addr option
(** [sbrk t delta] grows (or, negative [delta], shrinks) the heap segment.
    On success returns the {e previous} break — the base of the newly
    valid region, like the C call. Returns [None] if growth would pass
    [brk_ceiling] or collide with a mapping placed in the way, or if a
    shrink would go below [brk_base]. *)

(** {1 Anonymous mappings} *)

val mmap : t -> len:int -> addr option
(** [mmap t ~len] reserves a page-aligned anonymous region of at least
    [len] bytes (rounded up to pages), first-fit from [mmap_base].
    Returns [None] when the mmap zone is exhausted. *)

val munmap : t -> addr -> len:int -> unit
(** Releases a region previously returned by {!mmap} with the same
    (rounded) length, discarding residency of its pages.
    @raise Invalid_argument if no such mapping exists. *)

val map_fixed : t -> addr -> len:int -> unit
(** Installs a fixed mapping (e.g. a shared library) that occupies address
    space; used to model the paper's observation that [sbrk] cannot
    allocate around pre-existing maps.
    @raise Invalid_argument on overlap with an existing region. *)

(** {1 Demand paging} *)

val touch : t -> addr -> len:int -> int
(** [touch t addr ~len] simulates the CPU accessing [len] bytes at [addr]:
    every page in the range that is mapped but not yet resident takes a
    minor fault and becomes resident. Returns the number of faults
    incurred by this call. @raise Segfault on unmapped addresses. *)

val is_mapped : t -> addr -> bool

(** {1 Accounting} *)

val minor_faults : t -> int
(** Total minor faults since creation — the paper's benchmark 2 metric. *)

val resident_pages : t -> int

val mapped_bytes : t -> int
(** Bytes covered by the brk segment plus all live mappings. *)

val dynamic_bytes : t -> int
(** Bytes the process acquired at runtime: brk extent plus live
    anonymous mappings, {e excluding} fixed maps (shared libraries).
    This is the footprint the fault layer's [oom-pressure] plan
    budgets against — fixed maps are loader baggage, not allocator
    demand. *)

val sbrk_calls : t -> int

val mmap_calls : t -> int

val munmap_calls : t -> int

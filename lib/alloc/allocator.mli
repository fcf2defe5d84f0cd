(** The common allocator interface.

    An allocator is a record of closures over its hidden state, so that
    wrappers (e.g. {!Aligned}) and the benchmark drivers can treat every
    implementation — ptmalloc, the serial Solaris model, the per-thread
    baseline, the slab allocator — uniformly, the way the paper treats
    each [malloc] as a black box.

    Addresses returned by [malloc] are user-data addresses in the owning
    process's simulated address space; the caller may {!Mb_machine.Machine.write_mem}
    them. [malloc] consumes simulated time on the calling thread. *)

type t = {
  name : string;
  malloc : Mb_machine.Machine.ctx -> int -> int;
      (** [malloc ctx size] returns the user address of a new block of at
          least [size] bytes.
          @raise Mb_fault.Injector.Alloc_failure when the address space
          or arena space is exhausted (see {!out_of_memory}). *)
  free : Mb_machine.Machine.ctx -> int -> unit;
      (** [free ctx addr] releases a block previously returned by
          [malloc]. @raise Invalid_argument on a bad address (the
          simulation's equivalent of heap corruption). *)
  usable_size : int -> int;
      (** Bytes actually reserved for the block at a user address
          (chunk size minus header) — the allocator's internal
          fragmentation, inspectable for tests. *)
  stats : Astats.t;
  validate : unit -> (unit, string) result;
      (** Full heap-invariant check (boundary tags, bin membership,
          overlap freedom) and, for perthread, Hoard and slab, the
          books: the objects the heap counts live against those its
          callers and caches hold. [Error msg] pinpoints the first
          violation. *)
  origins : (int, int) Hashtbl.t;
      (** {!memalign} bookkeeping (aligned -> raw address); create with
          [Hashtbl.create 8]. Wrappers that share the inner allocator's
          state should share this table too. *)
}

val out_of_memory : ?bytes:int -> string -> 'a
(** Raise {!Mb_fault.Injector.Alloc_failure} naming the allocator and,
    when known, the request size. Every allocator's exhaustion path
    funnels through here, which is what lets {!instrument}'s retry loop
    and the workloads' degradation guards catch one structured
    exception instead of pattern-matching [Failure] strings. *)

val max_request : int
(** The largest request size any allocator accepts ([max_int / 2]): far
    beyond every simulated address space, and small enough that no
    chunk-size or page round-up of it can overflow. *)

val instrument : Mb_machine.Machine.proc -> t -> t
(** [instrument proc t] is [t], the allocator of process [proc], with
    [malloc]/[free] wrapped for correctness:

    - [malloc] of more than {!max_request} bytes raises
      [Alloc_failure] before the allocator sees it, as glibc fails a
      request it cannot represent, and is never retried;
    - [free] routes through the {!field-origins} table, so a raw [free]
      of a {!memalign}'d user address releases the chunk it was carved
      from instead of corrupting the heap;
    - when the machine's {!Mb_fault.Injector.t} is armed, an
      [Alloc_failure] from the underlying allocator is retried up to
      {!Mb_fault.Injector.max_retries} times with exponential backoff
      in {e simulated} time ({!Mb_fault.Injector.backoff_cycles}), so
      injected reservation failures are survived deterministically;
      only an exhausted retry budget lets the failure surface;
    - when the machine's {!Mb_check.Checker.t} is armed, block
      lifetimes are reported to it ([on_alloc]/[on_free]) and
      allocator-internal accesses run inside runtime-suppression
      brackets; a double-free is recorded as a finding and suppressed
      rather than crashing the run.

    Every concrete allocator constructor applies this to what it
    returns. The wrapper shares the inner allocator's state (stats,
    origins, validate).

    A machine's checker and injector are fixed when it is created, so
    [instrument] reads the arming of [proc]'s machine once, here. With
    neither armed, [malloc] is [t.malloc] behind the {!max_request}
    comparison, and [free] is the origins-routed [t.free], which reads
    the table's length and probes it only when it is not empty (when
    {!memalign} has left an entry). With either armed, every call takes
    the checked and fault-tolerant path above and reads the instruments
    from its [ctx]. *)

(** {1 Derived entry points}

    The rest of the C allocation API, built portably on [malloc]/[free]/
    [usable_size] the way early libc shims did. Costs are charged to the
    calling thread: zeroing and copying consume cycles proportional to
    the bytes moved. *)

val calloc : t -> Mb_machine.Machine.ctx -> count:int -> size:int -> int
(** [calloc t ctx ~count ~size] allocates [count * size] zeroed bytes
    (the zeroing both costs time and demand-pages the block).
    @raise Invalid_argument on overflowing [count * size]. *)

val realloc : t -> Mb_machine.Machine.ctx -> int -> int -> int
(** [realloc t ctx addr new_size] grows or shrinks a block. Returns the
    (possibly moved) address; shrinking and fitting growth are in-place,
    a real move copies the old contents at memcpy cost. [realloc t ctx
    addr 0] frees and returns 0; [realloc t ctx 0 n] is [malloc n].
    [addr] may be a {!memalign}'d block: the raw chunk is sized and
    freed through the {!field-origins} table (and the origin entry
    retired when the block moves). *)

val memalign : t -> Mb_machine.Machine.ctx -> alignment:int -> int -> int
(** [memalign t ctx ~alignment size] returns a block aligned to
    [alignment] (a power of two). Over-allocates and remembers the
    original address, like the classic portable implementation; blocks
    from [memalign] must be released with {!free_aligned}. *)

val free_aligned : t -> Mb_machine.Machine.ctx -> int -> unit
(** Releases a {!memalign} block (also accepts plain [malloc] blocks,
    so callers can treat the two uniformly). *)

val zero_cost_cycles : int -> int
(** Cycles charged to zero [n] bytes (exposed for tests). *)

val copy_cost_cycles : int -> int
(** Cycles charged to copy [n] bytes (exposed for tests). *)

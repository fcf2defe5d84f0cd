(** Mutable allocation statistics shared by all allocator implementations.

    Counters cover the quantities the paper reasons about: operation
    volume, live bytes, arena population, and how often lock contention
    redirected or delayed an operation. *)

type t = {
  mutable mallocs : int;
  mutable frees : int;
  mutable bytes_requested : int;   (** sum of malloc sizes *)
  mutable live_bytes : int;        (** requested bytes currently allocated *)
  mutable live_objects : int;
  mutable peak_live_bytes : int;
  mutable arenas_created : int;    (** subheaps ever created (never shrinks) *)
  mutable arena_switches : int;    (** ops served by a different arena than the thread's cached one *)
  mutable contended_ops : int;     (** ops that found their first-choice lock busy *)
  mutable foreign_frees : int;     (** frees of chunks owned by another arena/thread *)
  mutable mmapped_chunks : int;    (** requests served by direct mmap *)
  mutable grow_failures : int;     (** sbrk/sub-heap exhaustion events *)
  mutable deferred_frees : int;    (** frees binned with coalescing deferred *)
  mutable consolidations : int;    (** bulk deferred-coalescing passes *)
}

val create : unit -> t
(** A zeroed counter set. *)

val record_malloc : t -> int -> unit
(** [record_malloc t size] accounts one successful allocation. *)

val record_free : t -> int -> unit
(** [record_free t size] accounts one release of [size] requested bytes. *)

val live_bytes : t -> int
(** Requested bytes currently allocated. *)

val publish : t -> Mb_obs.Recorder.t -> unit
(** [publish t obs] adds the counters to [obs] under [alloc.*] keys
    (e.g. [alloc.arena.created], [alloc.free.foreign]). Addition, not
    assignment, so several allocators publishing into one recorder
    accumulate. No-op on a recorder without metrics enabled. *)

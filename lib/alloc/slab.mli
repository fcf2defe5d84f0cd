(** A kernel-style slab allocator (Bonwick), modelling the paper's
    closing observation: "the kernel's slab allocator uses a single spin
    lock in each slab cache … this has the same performance implications
    as using a single spin lock at the user level."

    Objects of one size class are carved from page-multiple slabs; each
    size-class cache keeps partial/full slab lists under its own lock.
    Same-size-heavy workloads (like benchmark 1) therefore serialize on
    one cache lock exactly as the paper predicts; mixed-size workloads
    spread across cache locks. *)

type t
(** One slab allocator instance: its size-class caches and slabs. *)

val make : Mb_machine.Machine.proc -> ?costs:Costs.t -> ?slab_pages:int -> unit -> t
(** [slab_pages] (default 1) pages per slab. Costs default to
    {!Costs.glibc}. *)

val allocator : t -> Allocator.t
(** The uniform allocator record over this instance. *)

val cache_count : t -> int
(** Distinct size-class caches instantiated so far. *)

val slab_count : t -> int
(** Slabs currently mapped. *)

(** The single-lock allocator: one {!Dlheap} behind one process-wide
    mutex — the structure of the Solaris 2.6 libc allocator whose Table 2
    collapse motivates the paper, and of any "thread-safe by adding a
    single lock" vendor malloc (section 1).

    Whether the contention turns into a convoy is the machine's choice:
    on the [dual_ultrasparc] preset (no adaptive spin) every contended
    acquisition blocks; on a Linux preset it spins first. The
    [ablate-spin] bench isolates exactly that difference. *)

type t
(** One serial-allocator instance: a heap, its mutex, and statistics. *)

val make : Mb_machine.Machine.proc -> ?costs:Costs.t -> ?params:Dlheap.params -> unit -> t
(** Costs default to {!Costs.solaris} (the paper's fastest
    single-threaded allocator). *)

val allocator : t -> Allocator.t
(** The uniform allocator record over this instance. *)

val lock_contentions : t -> int
(** Acquisitions of the single lock that found it held. *)

val lock_acquisitions : t -> int
(** Total acquisitions of the single lock (two per malloc/free pair). *)

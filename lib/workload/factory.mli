(** Allocator factories: named recipes the benchmark drivers instantiate
    once per simulated process, so a workload can be run against any
    allocator (and, in process mode, give each process its own). *)

type t = {
  label : string;
      (** the allocator's name; a non-default {!ptmalloc} adds its
          options, as in ["ptmalloc arenas<=1"], so that run labels tell
          its simulations apart *)
  create : Mb_machine.Machine.proc -> Mb_alloc.Allocator.t;
}

val ptmalloc : ?costs:Mb_alloc.Costs.t -> ?max_arenas:int -> unit -> t
(** glibc's allocator, the paper's subject. *)

val serial_solaris : unit -> t
(** One lock, Solaris cost model — Table 2's allocator. *)

val serial_glibc : unit -> t
(** dlmalloc behind a single lock with glibc costs: the "add one lock to a
    UP allocator" design the paper's section 2 quotes Berger & Blumofe
    against; used by the ablation benches. *)

val perthread : unit -> t
(** Hoard-style per-thread caches (the fix iPlanet shipped). *)

val slab : unit -> t
(** Kernel-style slab allocator (future-work section). *)

val hoard : unit -> t
(** The Hoard allocator (Berger & Blumofe), cited in sections 2 and 6. *)

val aligned : line_size:int -> t -> t
(** Wrap a factory so every allocation is cache-line aligned. *)

val by_name : string -> t option
(** "ptmalloc" | "serial" | "serial-glibc" | "perthread" | "slab" | "hoard". *)

val names : string list

(** Shared post-run hook for the workload drivers.

    Every workload calls {!publish} once after {!Mb_machine.Machine.run}
    returns: it folds the allocators' {!Mb_alloc.Astats} counters into
    the machine's recorder when the run is observed, and hands the
    machine's recorder, checker and fault injector to
    {!Mb_machine.Arm.publish} as one run. With nothing armed it formats
    no label and keeps nothing, so workloads stay oblivious to whether
    anyone is watching. *)

val publish :
  Mb_machine.Machine.t -> Mb_alloc.Allocator.t list -> label:(unit -> string) -> unit
(** [publish m allocators ~label] — see above. [label ()] must name the
    workload, the machine ({!Mb_machine.Configs.label}) and every
    parameter that changes the simulation: {!Mb_machine.Arm.drain}
    sorts by it, and equal labels must mean equal runs for sink output
    to be the same at every pool width. *)

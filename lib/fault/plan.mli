(** Named fault scenarios and the [--faults PLAN[:SEED]] syntax.

    A plan names {e what} to break; the seed fixes {e when}. Together
    they make an injected-fault schedule a reproducible artifact: the
    same plan and seed against the same workload produce byte-identical
    output, which is what lets CI gate on fault runs at all. *)

type t =
  | Oom_pressure   (** shrink the usable address space over simulated
                       time: reservations past a decaying budget fail *)
  | Flaky_reserve  (** fail a seeded fraction of page reservations
                       (sbrk growth, mmap, thread-stack maps) *)
  | Preempt_storm  (** inject extra context switches at lock
                       acquisition sites *)
  | Slow_lock      (** stretch heap-mutex hold times by a seeded
                       extra delay before release *)

val all : (string * t) list
(** Plan names in parse order: ["oom-pressure"], ["flaky-reserve"],
    ["preempt-storm"], ["slow-lock"]. *)

val label : t -> string

val parse : string -> ((t * int) option, string) result
(** [parse s] reads [PLAN[:SEED]]. ["none"] parses to [Ok None] —
    faults stay disarmed and the run is byte-identical to a plain one.
    The seed defaults to 1. [Error msg] on an unknown plan or a
    malformed seed. *)

val to_string : (t * int) option -> string
(** Round-trips {!parse}: [None] prints as ["none"]. *)

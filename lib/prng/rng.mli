(** Deterministic pseudo-random number generation for the simulator.

    Every stochastic decision in the reproduction flows from one of these
    generators, so identical seeds yield bit-identical experiment results.
    The core generator is SplitMix64 (Steele, Lea & Flood 2014): tiny state,
    excellent statistical quality for simulation purposes, and cheap
    splitting into independent streams. *)

type t
(** Mutable generator state. Not thread-safe; each simulated thread takes
    its own split stream. *)

val create : seed:int -> t
(** [create ~seed] makes a generator from a 63-bit seed. Equal seeds give
    equal streams. *)

val split : t -> t
(** [split t] derives a statistically independent generator and advances
    [t]. Used to give each simulated thread or run its own stream. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. Requires
    [lo <= hi]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. Requires [bound > 0.]. *)

val bool : t -> bool
(** Fair coin. *)

val jitter : t -> float -> float
(** [jitter t pct] is a multiplicative noise factor uniform in
    [\[1 -. pct, 1 +. pct\]]; used to perturb per-operation costs so that
    different seeds explore different event interleavings. Inlined into
    callers in other modules, so the draw is not boxed. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean; used by the
    server workload's inter-arrival times. *)

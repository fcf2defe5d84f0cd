(** Open-loop arrival processes for the server workload.

    A closed-loop driver (fixed threads, next request issued when the
    previous one finishes) can never push an allocator past saturation:
    when the server slows down, the offered load politely slows with it.
    An open-loop process issues requests on its own clock regardless of
    how the server is doing — which is what makes the saturation knee
    (the paper's Table 2 collapse, rediscovered as a latency cliff)
    visible at all.

    Streams are deterministic: the same seeded {!Mb_prng.Rng.t} and
    process produce the same arrival times, so sweeps are reproducible
    and byte-identical at any pool width. *)

type process =
  | Poisson of { rate_rps : float }
      (** Memoryless arrivals at a constant mean rate (requests/s). *)
  | Bursty of { base_rps : float; burst_rps : float; on_s : float; off_s : float }
      (** On/off modulation: [burst_rps] for [on_s] seconds, then
          [base_rps] for [off_s] seconds, repeating. *)
  | Diurnal of { low_rps : float; high_rps : float; period_s : float }
      (** Triangle-wave ramp between [low_rps] and [high_rps] over each
          [period_s]-second cycle — a whole diurnal load curve
          compressed into simulated seconds. *)

type t
(** A generator: a process plus the RNG state and current stream time. *)

val create : rng:Mb_prng.Rng.t -> process -> t
(** Stream time starts at 0 ns. Raises [Invalid_argument] on
    non-positive rates or phase lengths. *)

val next : t -> float
(** Absolute simulated time (ns) of the next arrival; strictly
    increasing. Gaps are exponential at the rate in force when the
    previous arrival happened. *)

val mean_rps : process -> float
(** Long-run mean rate: the configured rate for Poisson, the
    duty-cycle-weighted mean for bursty, the midpoint for diurnal. *)

val to_string : process -> string
(** [poisson:RATE], [bursty:BASE:BURST:ON_S:OFF_S],
    [diurnal:LOW:HIGH:PERIOD_S] — accepted back by {!of_string}. *)

val of_string : string -> process
(** Parses the {!to_string} forms (case-insensitive). Raises
    [Invalid_argument] with a usage hint on anything else. *)

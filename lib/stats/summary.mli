(** Summary statistics over a sample of floats.

    Used to aggregate repeated simulation runs into the averages and
    standard deviations the paper reports (e.g. "23.280357 s, s=0.005543"). *)

type t = {
  n : int;            (** sample size *)
  mean : float;
  stddev : float;     (** sample standard deviation (n-1 denominator) *)
  min : float;
  max : float;
  sum : float;
}

val of_list : float list -> t
(** [of_list xs] summarizes a non-empty sample. Raises
    [Invalid_argument] on the empty list. *)

val of_array : float array -> t

val percentile : float array -> float -> float
(** [percentile xs p] for [p] in [\[0, 100\]], by linear interpolation
    between closest ranks. Does not modify the input. *)

val sorted : float array -> float array
(** An ascending sorted copy, in [compare]'s order. *)

val percentile_sorted : float array -> float -> float
(** {!percentile} of a sample already sorted by {!sorted}: sort once,
    then read several percentiles. *)

val spread : t -> float
(** (max - min) / min — the paper's "relative difference between the
    minimum and maximum" metric from section 5.2. 0 when min is 0. *)

(** Ordinary least-squares linear regression.

    Used to check the paper's linearity claims: Figure 1's slope should be
    (single-thread time) / (CPU count), Figure 8's fault counts should track
    the predictor's slope, and so on. *)

type t = {
  slope : float;
  intercept : float;
  r2 : float;      (** coefficient of determination; 1.0 for a perfect fit *)
  n : int;
}

val fit : (float * float) list -> t
(** [fit points] fits y = slope * x + intercept. Requires at least two
    points with distinct x values; raises [Invalid_argument] otherwise. *)

(** Fixed-width histograms.

    Used to print the bimodality of Table 4's run times (its 12.6 s /
    14.8 s clusters). *)

type t

val create : lo:float -> hi:float -> bins:int -> t
(** [create ~lo ~hi ~bins] covers [\[lo, hi)] with [bins] equal bins.
    Samples outside the range are not clamped into the edge bins: they
    are tallied in separate {!underflow} / {!overflow} counters, so the
    edge bins hold only in-range samples. Requires [lo < hi] and [bins > 0]. *)

val add : t -> float -> unit
(** Adds one sample. Raises [Invalid_argument] on NaN — a NaN sample is
    always a caller bug, and the old behaviour of filing it in bin 0
    corrupted the distribution silently. *)

val count : t -> int
(** Total number of samples added, including out-of-range ones. *)

val underflow : t -> int
(** Samples below [lo]. *)

val overflow : t -> int
(** Samples at or above [hi]. *)

val binned : t -> int
(** Samples that landed in a bin: [count - underflow - overflow]. *)

val bin_count : t -> int -> int
(** [bin_count t i] is the number of samples in bin [i]. *)

val pp : Format.formatter -> t -> unit
(** ASCII bar rendering, one line per non-empty bin, plus underflow /
    overflow lines when non-zero. *)

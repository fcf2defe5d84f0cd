(** Labeled (x, y) data series — the unit of exchange between workloads,
    experiment harnesses, plots, and CSV export. A figure in the paper is a
    list of series sharing an x axis. *)

type point = {
  x : float;
  y : float;          (** the headline value (typically a mean) *)
  err : float;        (** error bar half-height, e.g. a standard deviation *)
}

type t = {
  label : string;
  points : point list;
}

val make : label:string -> (float * float) list -> t
(** Series with zero error bars. *)

val of_summaries : label:string -> (float * Summary.t) list -> t
(** Each point takes y = mean and err = stddev of its summary. *)

val xs : t -> float list

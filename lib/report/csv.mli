(** Minimal CSV export for data series, so figures can be re-plotted with
    external tooling. *)

val of_series : Mb_stats.Series.t list -> string
(** Wide format: first column [x], one [y] and [err] column pair per
    series, rows joined on x (missing points are empty fields). Each
    row ends with ['\n'], and a field with a comma, quote or newline is
    quoted as RFC 4180 says. *)

val write_file : string -> string -> unit
(** [write_file path contents]. *)

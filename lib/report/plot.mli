(** ASCII line plots: enough to eyeball the shape of every figure in the
    paper directly in the benchmark output. Multiple series share axes;
    each gets a distinct glyph. *)

val render :
  ?width:int ->
  ?height:int ->
  title:string ->
  x_label:string ->
  y_label:string ->
  Mb_stats.Series.t list ->
  string
(** Plots all points of all series on a [width] x [height] character
    canvas with axis annotations and a legend. Y starts at 0 (the paper's
    figures all do), X spans the data. *)

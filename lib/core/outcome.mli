(** The result of reproducing one paper artifact (table or figure):
    rendered text for the harness output, the underlying data series, and
    machine-checkable shape assertions ("who wins, by roughly what
    factor") that the test suite also runs. *)

type check = {
  label : string;
  pass : bool;
  detail : string;  (** the numbers behind the verdict *)
}

type t = {
  id : string;             (** "table1", "fig9", "ablate-spin", ... *)
  title : string;
  text : string;           (** tables and ASCII plots, ready to print *)
  series : Mb_stats.Series.t list;
  checks : check list;
}

val check : string -> bool -> ('a, unit, string, check) format4 -> 'a
(** [check label pass fmt ...] builds a check with a formatted detail. *)

val passed : t -> bool
(** All checks pass. *)

val summary_line : t -> string
(** One line: id, pass/fail counts. *)

val to_string : t -> string
(** The outcome block the harness prints: header, rendered body, check
    lines, trailing blank line. *)

(** The trend-aware CI regression gate over the session history.

    The fresh session (the newest in the history) is compared against
    a baseline built from the last [n] earlier sessions recorded {e on
    the same host} (equal {!History.host} blocks — wall-clock numbers
    from another machine are not a baseline). Each cell's baseline
    value is the median over those sessions, which rides out one noisy
    CI run; the per-cell ratios fresh/baseline are then normalized by
    their median across cells to cancel whatever uniform speed factor
    this particular run carried (a cold file cache, a busy neighbour).

    A cell whose normalized ns/run ratio exceeds [threshold] fails;
    a cell whose raw minor-words ratio exceeds [gc_threshold] fails
    (GC words are host-independent, so no normalization applies).
    Cells only present in the fresh session warn (new benchmarks land
    before their baseline does), as do cells that every baseline
    session had but the fresh one dropped. With no same-host earlier
    session there is nothing to gate against: the verdict passes with
    a warning, which is what lets the first session on a new CI image
    seed its own baseline. *)

type verdict = {
  lines : string list;        (** the printed report, in order *)
  warnings : string list;
  regressions : string list;  (** cell keys over [threshold] *)
  gc_regressions : string list;
  ok : bool;
}

val check :
  ?last:int ->
  ?threshold:float ->
  ?gc_threshold:float ->
  ?scale_first:float ->
  History.t ->
  (verdict, string) result
(** [check history] gates the newest session. [?last] is the baseline
    window (default 5 sessions); [?threshold] the normalized ns/run
    ratio limit and [?gc_threshold] the raw minor-words ratio limit
    (both default 1.25). [?scale_first] is the self-test hook: multiply
    the fresh session's first cell's ns/run by this factor before
    gating, so CI can assert the gate {e demonstrably fails} on a
    synthetic regression without doctoring the history file. [Error],
    naming the argument, when [last < 1] or when [threshold],
    [gc_threshold] or [scale_first] is NaN, infinite or at most 1.0 (a
    gate that would pass anything, or fail a flat trend); also when the
    history holds no sessions at all. *)

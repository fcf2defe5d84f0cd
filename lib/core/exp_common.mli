(** Shared machinery for the experiment harness. *)

type opts = {
  quick : bool;  (** shrink iteration counts for the test suite *)
  seed : int;
}

val quick_opts : opts

val pick : opts -> full:'a -> quick:'a -> 'a

val bench1_runs :
  Mb_workload.Bench1.params ->
  runs:int ->
  Mb_stats.Summary.t list * Mb_workload.Bench1.result list
(** Repeats a benchmark-1 configuration over [runs] seeds and summarizes
    each worker position's scaled time across runs (position 0 = first
    worker, etc.), plus the raw results. The repeats run on
    {!Mb_parallel.Pool.global} and are joined in submission order, so
    the result is independent of pool width. *)

val mean_of : Mb_stats.Summary.t list -> float
(** Grand mean across the per-worker summaries. *)

val single_thread_time : Mb_workload.Bench1.params -> float
(** Scaled single-worker run with the same configuration — the paper's
    "single thread timing" baseline. *)

val paper_series : label:string -> (float * float) list -> Mb_stats.Series.t

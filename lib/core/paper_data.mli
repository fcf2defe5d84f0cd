(** The numbers the paper reports, transcribed for side-by-side
    comparison in the harness output and EXPERIMENTS.md. Values read off
    figures (rather than printed in tables) are marked derived in the
    comments and carry the uncertainty of reading a 2000-era plot. *)

(** {1 Benchmark 1} *)

(** Dual Pentium Pro single-thread 10M-pair run: 23.280357 s. *)
val ppro_single_thread_s : float

(** Table 1: two threads sharing a heap. *)
val table1_threads_s : float list

(** Table 1: two processes, private heaps. *)
val table1_processes_s : float list

(** Elapsed vs thread count on the dual Pentium Pro, derived from the
    text's slope law max(m, m*t/n) with m = 23.3, n = 2. *)
val fig1_derived : (float * float) list

(** The x axis of figure 2. *)
val fig2_threads : int list

(** Solaris single-thread run: 6.0535318 s. *)
val sparc_single_thread_s : float

val table2_threads_s : float list

val table2_processes_s : float list

(** 4-way Xeon single-thread run: 10.393376 s. *)
val xeon_single_thread_s : float

val table3_threads_s : float list

val table3_processes_s : float list

(** The fifteen 3-thread run times of Table 4 (bimodal: ~12.58 / ~14.85). *)
val table4_runs_s : float list

(** {1 Benchmark 2 — the minor-fault predictor mpf = 14 + 1.1*t*r + 127.6*t} *)

val predictor_per_round_thread : float

val predictor_per_thread : float

(** {1 Benchmark 3} *)

(** Single-thread 100M-write run: 2.102 s, independent of object size. *)
val bench3_single_thread_s : float

(** Request sizes swept by figures 9-11 (3 to 52 bytes). *)
val bench3_sizes : int list

(** "sometimes by as much as a factor of four". *)
val bench3_max_slowdown : float

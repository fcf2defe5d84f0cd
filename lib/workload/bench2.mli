(** Benchmark 2 — unbounded memory consumption (paper section 4.2).

    The main thread allocates [objects_per_thread] fixed-size objects per
    chain into address arrays, then starts one worker per chain. A worker
    replaces a random subset of its array's objects one at a time (each
    replacement frees an object allocated by an *earlier thread* and
    allocates a new one from whatever arena the worker lands on), then
    creates its successor and exits. Each generation is a "round".

    Because the total number of live objects is fixed, a perfect
    allocator touches a constant number of pages regardless of rounds;
    a real one leaks pages into arenas the current threads no longer
    allocate from. The reported metric is the process's minor-fault
    count, exactly what the paper reads from [time]. *)

type params = {
  machine : Mb_machine.Machine.config;
  seed : int;
  threads : int;                 (** concurrent replacement chains *)
  rounds : int;                  (** generations per chain *)
  objects_per_thread : int;      (** 10_000 in the paper *)
  replacements_per_round : int;  (** size of the "random subset" *)
  size : int;                    (** 40 bytes in the paper *)
  factory : Factory.t;
}

val default : params
(** 1 thread, 1 round, 10k objects of 40 B, 2k replacements, ptmalloc on
    the uniprocessor K6. *)

type result = {
  params : params;
  minor_faults : int;
  resident_pages : int;
  mapped_bytes : int;
  sbrk_calls : int;
  mmap_calls : int;
  arenas_created : int;
  foreign_frees : int;
  elapsed_s : float;
  degraded_ops : int;  (** replacements/populations skipped after the
                           fault layer's retries ran out; 0 unless a
                           [--faults] plan is armed *)
}

val run : params -> result

val paper_predictor : threads:int -> rounds:int -> float
(** The paper's fitted lower bound: [14 + 1.1*t*r + 127.6*t]. *)

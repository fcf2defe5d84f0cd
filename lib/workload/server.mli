(** A network-server-shaped workload, modelled on the paper's iPlanet
    directory server description (section 2): a single multithreaded
    process handling many small requests, keeping per-connection state
    that any worker may later release — so storage is routinely freed by
    a different thread than allocated it, under lock contention.

    Two drive modes:

    - {b Closed loop} (the original workload, [open_loop = None]): a
      fixed set of worker threads each issue a fixed number of requests
      back to back. Throughput is whatever the allocator allows — the
      offered load politely slows down with the server, so saturation is
      invisible.
    - {b Open loop} ([open_loop = Some _]): an acceptor thread issues
      requests on its own clock from a deterministic {!Arrivals}
      process, regardless of how the server is doing. Requests carry
      mixed classes (read/write/update), connections churn (close and
      reopen with per-connection alloc/free lifecycles), and per-request
      latency — enqueue to completion in simulated ns — feeds
      exact percentiles. Push the offered rate
      past capacity and the latency cliff (the paper's Table 2 collapse
      under realistic traffic) appears in p95/p99.

    Used by the examples, the allocator shootout, the latency-over-uptime
    extension, and the server-knee load sweep. *)

type server_model =
  | Thread_pool of { queue_capacity : int }
      (** A fixed pool of [threads] workers pulling from one bounded
          FIFO; a full queue sheds (drops) arrivals. *)
  | Thread_per_connection
      (** One dedicated thread per connection slot; when a connection
          churns, its thread exits and a freshly spawned one takes over,
          so thread create/teardown costs ride the churn rate. *)

type open_loop = {
  process : Arrivals.process;      (** the arrival stream *)
  total_requests : int;            (** arrivals to generate *)
  model : server_model;
  churn_mean_requests : int;       (** mean requests per connection
                                       lifetime; 0 disables churn *)
  read_pct : int;                  (** percent of requests that are reads *)
  write_pct : int;                 (** percent writes; the remainder are
                                       updates (state swaps) *)
}

type params = {
  machine : Mb_machine.Machine.config;
  seed : int;
  threads : int;             (** pool size (ignored by [Thread_per_connection]) *)
  requests_per_thread : int; (** closed loop only *)
  connections : int;
  think_cycles : int;        (** non-allocator work per request *)
  factory : Factory.t;
  probe_latency : bool;      (** wrap the allocator with {!Latency} *)
  open_loop : open_loop option;
}

val default : params

val default_open : open_loop
(** A mid-load Poisson pool configuration to build on with record
    update syntax. *)

val model_label : server_model -> string

type request_stats = {
  completed : int;
  dropped : int;             (** arrivals shed by a full pool queue *)
  churned : int;             (** connection close/reopen cycles *)
  offered_rps : float;       (** generated arrival rate over the stream *)
  throughput_rps : float;    (** completions over the time to last completion *)
  mean_ns : float;
  p50_ns : float;
  p95_ns : float;
  p99_ns : float;
  max_ns : float;
  by_class : (string * int) list;  (** completions per request class *)
}
(** Per-request latency (enqueue to completion) and throughput for an
    open-loop run. Percentiles are computed from the exact sample
    array. *)

type result = {
  params : params;
  elapsed_s : float;              (** makespan: slowest worker (closed) or
                                      last completion (open) *)
  requests_per_second : float;    (** aggregate simulated throughput *)
  per_thread_s : float list;      (** fixed workers only; empty for
                                      [Thread_per_connection] *)
  foreign_frees : int;
  arenas : int;
  contended_ops : int;
  latency : probe_result option;  (** when [probe_latency] and at least
                                      one sample was recorded *)
  degraded_ops : int;             (** request allocations skipped or kept
                                      in place after the fault layer's
                                      retries ran out; 0 unless a
                                      [--faults] plan is armed *)
  requests : request_stats option;  (** when [open_loop] *)
}

and probe_result = {
  malloc_mean_ns : float;         (** malloc-tagged samples only *)
  malloc_p99_ns : float;
  drift : float;                  (** last-window mean / first-window mean,
                                      all ops pooled; windows are 1/8 of
                                      the slowest worker's elapsed time *)
  window_means : (float * float) list;  (** (uptime_ns, mean latency ns) *)
  op_stats : op_stat list;        (** per-op latency, ops with samples only *)
}

and op_stat = {
  op : string;                    (** malloc / calloc / realloc / free *)
  op_count : int;
  op_mean_ns : float;
  op_p99_ns : float;
}

val run : params -> result

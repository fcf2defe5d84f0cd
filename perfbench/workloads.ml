(* The three workloads. Each runs one fresh simulation through a
   workload's public [run] function and renders the simulated result
   exactly (floats in hex), so two runs of one seed can be compared by
   digest. The allocator factory is an argument: the benchmark wraps it to
   see the allocators and processes a run creates. *)

module B1 = Core.Bench1
module B2 = Core.Bench2
module S = Core.Server

type outcome = {
  result : string;  (** exact rendering of the simulated result *)
  p99_us : float;   (** simulated request-latency p99; 0 for closed workloads *)
  dropped : int;    (** requests shed by a full queue; 0 for closed workloads *)
}

type t = {
  name : string;
  machine : Core.Machine.config;
  empty_at_end : bool;  (** every byte allocated is freed by the end of a run *)
  run : seed:int -> Core.Factory.t -> outcome;
}

let closed result = { result; p99_us = 0.; dropped = 0 }

let floats xs = String.concat "," (List.map (Printf.sprintf "%h") xs)

(* Paper Fig 8: 7 replacement chains on 4 CPUs. Contended arena mutexes,
   release-driven spinner wakes, cross-thread frees and heap growth. *)
let leak_contended =
  let machine = Core.Configs.quad_xeon in
  { name = "leak-contended";
    machine;
    empty_at_end = false;
    run =
      (fun ~seed factory ->
        let r =
          B2.run
            { B2.default with
              B2.machine;
              seed;
              threads = 7;
              rounds = 4;
              objects_per_thread = 400;
              replacements_per_round = 150;
              factory;
            }
        in
        closed
          (Printf.sprintf "faults=%d resident=%d mapped=%d sbrk=%d mmap=%d arenas=%d foreign=%d elapsed=%h degraded=%d"
             r.B2.minor_faults r.resident_pages r.mapped_bytes r.sbrk_calls r.mmap_calls
             r.arenas_created r.foreign_frees r.elapsed_s r.degraded_ops));
  }

(* Paper Table 1: two workers' malloc/free pairs with almost no
   contention, so the engine's delay fast path and Dlheap's exact-fit
   path carry the run. *)
let pairs_uncontended =
  let machine = Core.Configs.dual_pentium_pro in
  { name = "pairs-uncontended";
    machine;
    empty_at_end = true;
    run =
      (fun ~seed factory ->
        let r =
          B1.run
            { B1.machine;
              seed;
              factory;
              workers = 2;
              mode = B1.Threads;
              size = 512;
              iterations = 5_000;
              paper_iterations = 5_000;
            }
        in
        closed
          (Printf.sprintf "elapsed=%s ctx=%d contended=%d arenas=%d blocks=%d util=%h degraded=%d"
             (floats r.B1.elapsed_s) r.ctx_switches r.lock_contended_ops r.arenas r.blocks
             r.utilization r.degraded_ops));
  }

(* The open-loop server pool: timer sleeps and wait-queue handoffs in the
   engine, mixed sizes with calloc and realloc in the allocator, heavy
   line transfers in the cache. *)
let server_open =
  let machine = Core.Configs.quad_xeon in
  { name = "server-open";
    machine;
    empty_at_end = true;
    run =
      (fun ~seed factory ->
        let r =
          S.run
            { S.default with
              S.machine;
              seed;
              factory;
              threads = 4;
              connections = 64;
              open_loop =
                Some
                  { S.process = Core.Arrivals.Poisson { rate_rps = 450_000. };
                    total_requests = 2_000;
                    model = S.Thread_pool { queue_capacity = 256 };
                    churn_mean_requests = 32;
                    read_pct = 60;
                    write_pct = 25;
                  };
            }
        in
        match r.S.requests with
        | None -> failwith "server-open: open-loop run returned no request statistics"
        | Some q ->
            { result =
                Printf.sprintf
                  "elapsed=%h rps=%h foreign=%d arenas=%d contended=%d degraded=%d completed=%d dropped=%d churned=%d offered=%h thr=%h mean=%h p50=%h p95=%h p99=%h max=%h classes=%s"
                  r.S.elapsed_s r.requests_per_second r.foreign_frees r.arenas r.contended_ops
                  r.degraded_ops q.S.completed q.dropped q.churned q.offered_rps q.throughput_rps
                  q.mean_ns q.p50_ns q.p95_ns q.p99_ns q.max_ns
                  (String.concat "," (List.map (fun (c, n) -> Printf.sprintf "%s:%d" c n) q.by_class));
              p99_us = q.p99_ns /. 1e3;
              dropped = q.dropped;
            });
  }

let all = [ leak_contended; pairs_uncontended; server_open ]

let find name = List.find_opt (fun w -> w.name = name) all

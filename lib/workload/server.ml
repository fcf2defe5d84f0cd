module M = Mb_machine.Machine
module A = Mb_alloc.Allocator
module Rng = Mb_prng.Rng
module Fault = Mb_fault.Injector
module Summary = Mb_stats.Summary

type server_model =
  | Thread_pool of { queue_capacity : int }
  | Thread_per_connection

type open_loop = {
  process : Arrivals.process;
  total_requests : int;
  model : server_model;
  churn_mean_requests : int;
  read_pct : int;
  write_pct : int;
}

type params = {
  machine : M.config;
  seed : int;
  threads : int;
  requests_per_thread : int;
  connections : int;
  think_cycles : int;
  factory : Factory.t;
  probe_latency : bool;
  open_loop : open_loop option;
}

let default =
  { machine = Mb_machine.Configs.quad_xeon;
    seed = 1;
    threads = 4;
    requests_per_thread = 2_000;
    connections = 256;
    think_cycles = 1_500;
    factory = Factory.ptmalloc ();
    probe_latency = false;
    open_loop = None;
  }

let default_open =
  { process = Arrivals.Poisson { rate_rps = 200_000. };
    total_requests = 10_000;
    model = Thread_pool { queue_capacity = 1_024 };
    churn_mean_requests = 64;
    read_pct = 60;
    write_pct = 25;
  }

let model_label = function
  | Thread_pool { queue_capacity } -> Printf.sprintf "pool(queue %d)" queue_capacity
  | Thread_per_connection -> "thread-per-connection"

type request_stats = {
  completed : int;
  dropped : int;
  churned : int;
  offered_rps : float;
  throughput_rps : float;
  mean_ns : float;
  p50_ns : float;
  p95_ns : float;
  p99_ns : float;
  max_ns : float;
  by_class : (string * int) list;
}

type result = {
  params : params;
  elapsed_s : float;
  requests_per_second : float;
  per_thread_s : float list;
  foreign_frees : int;
  arenas : int;
  contended_ops : int;
  latency : probe_result option;
  degraded_ops : int;
  requests : request_stats option;
}

and probe_result = {
  malloc_mean_ns : float;
  malloc_p99_ns : float;
  drift : float;
  window_means : (float * float) list;
  op_stats : op_stat list;
}

and op_stat = {
  op : string;
  op_count : int;
  op_mean_ns : float;
  op_p99_ns : float;
}

let state_bytes = 40  (* per-connection state: the paper's typical size *)

let max_bufs = 4  (* scratch buffers per request, in any class or loop *)

(* An accepted request travelling from the arrival stream to a worker. *)
type request = { arrival_ns : float; cls : Trace.req_class; conn : int }

(* Probe-completed latency summary. The probe's malloc_* fields keep
   their historic malloc-only meaning (the uptime-drift experiment
   compares them across windows); the per-op table is where the newly
   visible calloc/realloc/free paths report. [window_basis_ns] is the
   slowest worker's elapsed time (closed loop / pool) or the last
   completion time (thread-per-connection) — never worker 0's alone,
   which skewed drift whenever worker 0 finished early, and divided by
   zero samples when a fault plan degraded worker 0 to nothing. *)
let finish_probe probe ~window_basis_ns =
  match probe with
  | None -> None
  | Some p when Latency.count p = 0 -> None
  | Some p ->
      let window_ns = if window_basis_ns > 0. then window_basis_ns /. 8. else 1. in
      let durations samples = Array.of_list (List.map snd samples) in
      let mallocs = durations (Latency.samples_by p Latency.Malloc) in
      let base = if Array.length mallocs > 0 then mallocs else durations (Latency.samples p) in
      let op_stats =
        List.filter_map
          (fun o ->
            let ds = durations (Latency.samples_by p o) in
            if Array.length ds = 0 then None
            else
              Some
                { op = Latency.op_label o;
                  op_count = Array.length ds;
                  op_mean_ns = (Summary.of_array ds).Summary.mean;
                  op_p99_ns = Summary.percentile ds 99.;
                })
          Latency.ops
      in
      Some
        { malloc_mean_ns = (Summary.of_array base).Summary.mean;
          malloc_p99_ns = Summary.percentile base 99.;
          drift = Latency.drift p ~window_ns;
          window_means =
            List.map (fun (t, s) -> (t, s.Summary.mean)) (Latency.windows p ~window_ns);
          op_stats;
        }

(* Latency percentiles over the collected per-request samples, read
   from the exact sample array. *)
let finish_requests ~completed ~dropped ~churned ~offered_rps ~last_completion_ns ~lat ~lat_n
    ~class_counts =
  let samples = Array.sub lat 0 lat_n in
  let ranked = Summary.sorted samples in
  let pct p = if lat_n = 0 then 0. else Summary.percentile_sorted ranked p in
  let mean_ns = if lat_n = 0 then 0. else (Summary.of_array samples).Summary.mean in
  let max_ns = Array.fold_left Float.max 0. samples in
  { completed;
    dropped;
    churned;
    offered_rps;
    throughput_rps =
      (if last_completion_ns > 0. then float_of_int completed /. (last_completion_ns /. 1e9) else 0.);
    mean_ns;
    p50_ns = pct 50.;
    p95_ns = pct 95.;
    p99_ns = pct 99.;
    max_ns;
    by_class = List.map (fun c -> (Trace.class_label c, class_counts c)) [ Trace.Read; Trace.Write; Trace.Update ];
  }

let publish_request_counters m (rs : request_stats) =
  let obs = M.observer m in
  if Mb_obs.Recorder.enabled obs then begin
    let set k v = Mb_obs.Recorder.set obs k v in
    set "server.req.completed" rs.completed;
    set "server.req.dropped" rs.dropped;
    set "server.conn.churned" rs.churned;
    set "server.req.offered_rps" (int_of_float rs.offered_rps);
    set "server.req.throughput_rps" (int_of_float rs.throughput_rps);
    set "server.req.p50_ns" (int_of_float rs.p50_ns);
    set "server.req.p95_ns" (int_of_float rs.p95_ns);
    set "server.req.p99_ns" (int_of_float rs.p99_ns);
    List.iter (fun (c, n) -> set ("server.req." ^ c) n) rs.by_class
  end

let run params =
  if params.threads <= 0 || params.connections <= 0 then invalid_arg "Server.run: bad params";
  (match params.open_loop with
  | None -> ()
  | Some op ->
      if op.total_requests <= 0 then invalid_arg "Server.run: total_requests <= 0";
      if op.churn_mean_requests < 0 then invalid_arg "Server.run: churn_mean_requests < 0";
      if op.read_pct < 0 || op.write_pct < 0 || op.read_pct + op.write_pct > 100 then
        invalid_arg "Server.run: request-class mix must be percentages summing to <= 100";
      (match op.model with
      | Thread_pool { queue_capacity } ->
          if queue_capacity <= 0 then invalid_arg "Server.run: queue_capacity <= 0"
      | Thread_per_connection -> ()));
  let m = M.create ~seed:params.seed params.machine in
  let proc = M.create_proc m ~name:"server" () in
  let raw_alloc = params.factory.Factory.create proc in
  let probe, alloc =
    if params.probe_latency then
      let p, a = Latency.wrap raw_alloc in
      (Some p, a)
    else (None, raw_alloc)
  in
  (* Derived allocator entry points, routed through the probe when armed
     so calloc/realloc are timed end to end rather than only their inner
     malloc (or, before the probe also wrapped free, not at all). *)
  let calloc ctx ~count ~size =
    match probe with
    | Some p -> Latency.calloc p alloc ctx ~count ~size
    | None -> A.calloc alloc ctx ~count ~size
  in
  let realloc ctx addr size =
    match probe with
    | Some p -> Latency.realloc p alloc ctx addr size
    | None -> A.realloc alloc ctx addr size
  in
  (* The connection table: slot i holds the address of connection i's
     current state object, installed by whichever worker served it last. *)
  let conn_lock = M.Mutex.create m ~name:"conntab" () in
  let conns = Array.make params.connections 0 in
  let workers = ref [] in
  let degraded_ops = ref 0 in
  (* Each allocation in a request degrades independently under a fault
     plan: a failed state swap keeps the old state, a failed buffer is
     skipped, a failed realloc keeps the original response — the
     request itself always completes. *)
  let note ctx =
    Fault.note_degraded (M.ctx_fault ctx);
    incr degraded_ops
  in
  (* Swap a connection's state object: free the old one (allocated by
     some other thread) and install a fresh, zeroed one. Shared by the
     closed-loop request body, the update class, and connection churn. *)
  let swap_state ctx c =
    match calloc ctx ~count:1 ~size:state_bytes with
    | fresh ->
        M.Mutex.lock conn_lock ctx;
        let old = conns.(c) in
        conns.(c) <- fresh;
        M.Mutex.unlock conn_lock ctx;
        if old <> 0 then alloc.A.free ctx old
    | exception Fault.Alloc_failure _ -> note ctx
  in
  (* A request's [n] scratch buffers go into its worker's [bufs] (at
     least [max_bufs] long), in allocation order; a failed one is
     skipped. Returns how many were kept. Reusing one array per worker
     keeps the request path free of host allocation. *)
  let alloc_bufs ctx rng dist bufs n =
    let kept = ref 0 in
    for _ = 1 to n do
      let size = dist rng in
      match alloc.A.malloc ctx size with
      | user ->
          M.touch_range ctx user ~len:(min size 256);
          bufs.(!kept) <- user;
          incr kept
      | exception Fault.Alloc_failure _ -> note ctx
    done;
    !kept
  in
  let free_bufs ctx bufs kept =
    for i = 0 to kept - 1 do
      alloc.A.free ctx bufs.(i)
    done
  in
  (* A response buffer that sometimes outgrows its first estimate, the
     classic realloc pattern. [grow_1_in] is the growth probability. *)
  let response_buf ctx rng ~grow_1_in =
    let response =
      match alloc.A.malloc ctx 128 with
      | user -> user
      | exception Fault.Alloc_failure _ ->
          note ctx;
          0
    in
    if response <> 0 && Rng.int rng grow_1_in = 0 then
      match realloc ctx response (256 + Rng.int rng 2048) with
      | moved -> moved
      | exception Fault.Alloc_failure _ ->
          note ctx;
          response
    else response
  in
  (* The closed-loop request body: state swap + scratch buffers +
     response, unchanged from the original workload. *)
  let handle_request ctx rng bufs =
    let c = Rng.int rng params.connections in
    swap_state ctx c;
    let kept = alloc_bufs ctx rng Trace.server_size_dist bufs (2 + Rng.int rng 3) in
    let response = response_buf ctx rng ~grow_1_in:4 in
    M.work ctx params.think_cycles;
    if response <> 0 then alloc.A.free ctx response;
    free_bufs ctx bufs kept
  in
  (* The open-loop request body: behaviour depends on the request class. *)
  let handle_open ctx rng bufs (req : request) =
    match req.cls with
    | Trace.Read ->
        let kept = alloc_bufs ctx rng Trace.server_size_dist bufs (1 + Rng.int rng 3) in
        M.work ctx params.think_cycles;
        free_bufs ctx bufs kept
    | Trace.Write ->
        let kept = alloc_bufs ctx rng Trace.write_size_dist bufs 2 in
        let response = response_buf ctx rng ~grow_1_in:2 in
        M.work ctx (2 * params.think_cycles);
        if response <> 0 then alloc.A.free ctx response;
        free_bufs ctx bufs kept
    | Trace.Update ->
        swap_state ctx req.conn;
        let kept = alloc_bufs ctx rng Trace.update_size_dist bufs (1 + Rng.int rng 2) in
        M.work ctx params.think_cycles;
        free_bufs ctx bufs kept
  in
  let drain_conns ctx =
    Array.iteri
      (fun i addr ->
        if addr <> 0 then begin
          alloc.A.free ctx addr;
          conns.(i) <- 0
        end)
      conns
  in
  (* --- per-run accounting shared by both open-loop models ------------- *)
  let completed = ref 0 in
  let dropped = ref 0 in
  let churned = ref 0 in
  let last_arrival_ns = ref 0. in
  let last_completion_ns = ref 0. in
  let class_counts = Array.make 3 0 in
  let class_index = function Trace.Read -> 0 | Trace.Write -> 1 | Trace.Update -> 2 in
  let lat = ref (Array.make 4_096 0.) in
  let lat_n = ref 0 in
  let[@inline] push_latency d =
    if !lat_n = Array.length !lat then begin
      let bigger = Array.make (2 * !lat_n) 0. in
      Array.blit !lat 0 bigger 0 !lat_n;
      lat := bigger
    end;
    !lat.(!lat_n) <- d;
    incr lat_n
  in
  let complete ctx (req : request) =
    let now = M.now ctx in
    push_latency (now -. req.arrival_ns);
    incr completed;
    class_counts.(class_index req.cls) <- class_counts.(class_index req.cls) + 1;
    last_completion_ns := now
  in
  (* Connection-churn budgets: how many more requests a connection
     serves before it closes and a fresh one reuses the slot. Budgets
     are sampled uniformly on [1, 2*mean] so churn spreads instead of
     synchronizing. *)
  let open_cfg = params.open_loop in
  let churn_mean = match open_cfg with Some o -> o.churn_mean_requests | None -> 0 in
  let sample_budget rng = 1 + Rng.int rng (2 * churn_mean) in
  let budgets =
    if churn_mean > 0 then
      let brng = Rng.create ~seed:((params.seed * 31) + 7) in
      Array.init params.connections (fun _ -> sample_budget brng)
    else Array.make (max params.connections 1) max_int
  in
  (* Decrement the connection's budget; when it runs out the connection
     closes: its state is released and a fresh zeroed state takes the
     slot. Returns true when the connection churned. *)
  let churn_step ctx rng c =
    if churn_mean = 0 then false
    else begin
      budgets.(c) <- budgets.(c) - 1;
      if budgets.(c) > 0 then false
      else begin
        budgets.(c) <- sample_budget rng;
        incr churned;
        swap_state ctx c;
        true
      end
    end
  in
  let sample_class rng op =
    let p = Rng.int rng 100 in
    if p < op.read_pct then Trace.Read
    else if p < op.read_pct + op.write_pct then Trace.Write
    else Trace.Update
  in
  (* --- drivers --------------------------------------------------------- *)
  let closed_driver ctx =
    let ws =
      List.init params.threads (fun i ->
          M.spawn proc ~name:(Printf.sprintf "worker-%d" i) (fun wctx ->
              let rng = M.ctx_rng wctx in
              let bufs = Array.make max_bufs 0 in
              for _ = 1 to params.requests_per_thread do
                handle_request wctx rng bufs
              done))
    in
    workers := ws;
    List.iter (fun w -> M.join ctx w) ws;
    (* Drain the connection table so the heap can be validated empty. *)
    drain_conns ctx
  in
  (* Thread pool: a bounded FIFO between the acceptor and a fixed pool.
     The acceptor paces itself with [sleep_until] — open loop: arrivals
     keep coming at the process's rate no matter how far behind the
     pool is. A full queue sheds load (the request is dropped, counted,
     and never seen by a worker). *)
  let pool_driver op queue_capacity ctx =
    let reqq : request Queue.t = Queue.create () in
    let wq = M.Waitq.create m ~name:"request queue" () in
    let accepting = ref true in
    let ws =
      List.init params.threads (fun i ->
          M.spawn proc ~name:(Printf.sprintf "worker-%d" i) (fun wctx ->
              let rng = M.ctx_rng wctx in
              let bufs = Array.make max_bufs 0 in
              let rec loop () =
                if not (Queue.is_empty reqq) then begin
                  let req = Queue.take reqq in
                  handle_open wctx rng bufs req;
                  complete wctx req;
                  ignore (churn_step wctx rng req.conn : bool);
                  loop ()
                end
                else if !accepting then begin
                  (* No simulated-time op between this check and the
                     park: a wake cannot be lost. *)
                  M.Waitq.wait wq wctx;
                  loop ()
                end
              in
              loop ()))
    in
    workers := ws;
    let arr = Arrivals.create ~rng:(M.ctx_rng ctx) op.process in
    let arng = M.ctx_rng ctx in
    for _ = 1 to op.total_requests do
      let t = Arrivals.next arr in
      M.sleep_until ctx t;
      last_arrival_ns := t;
      let req = { arrival_ns = t; cls = sample_class arng op; conn = Rng.int arng params.connections } in
      if Queue.length reqq >= queue_capacity then incr dropped
      else begin
        Queue.push req reqq;
        ignore (M.Waitq.wake_one wq ctx : bool)
      end
    done;
    accepting := false;
    ignore (M.Waitq.wake_all wq ctx : int);
    List.iter (fun w -> M.join ctx w) ws;
    drain_conns ctx
  in
  (* Thread per connection: each slot has its own queue and a dedicated
     thread. When a connection churns, its thread exits and a freshly
     spawned thread takes over the slot — so thread create/teardown
     costs (stack mmap, first-touch faults) ride the churn rate, which
     is exactly the per-connection lifecycle cost this model exists to
     expose. *)
  let tpc_driver op ctx =
    let queues = Array.init params.connections (fun _ -> (Queue.create () : request Queue.t)) in
    let waitqs = Array.init params.connections (fun _ -> M.Waitq.create m ~name:"connection" ()) in
    let accepting = ref true in
    let active = ref params.connections in
    let all_done = M.Latch.create m in
    (* A slot's threads share its buffer array: a thread hands the slot
       on only after its last request is freed. *)
    let rec serve slot bufs wctx =
      let rng = M.ctx_rng wctx in
      if not (Queue.is_empty queues.(slot)) then begin
        let req = Queue.take queues.(slot) in
        handle_open wctx rng bufs req;
        complete wctx req;
        if churn_step wctx rng slot then begin
          (* Hand the slot to a successor thread and retire. *)
          ignore (M.spawn proc ~name:"conn" (fun c -> serve slot bufs c) : M.thread)
        end
        else serve slot bufs wctx
      end
      else if !accepting then begin
        M.Waitq.wait waitqs.(slot) wctx;
        serve slot bufs wctx
      end
      else begin
        decr active;
        if !active = 0 then M.Latch.signal all_done wctx
      end
    in
    for slot = 0 to params.connections - 1 do
      let bufs = Array.make max_bufs 0 in
      ignore (M.spawn proc ~name:"conn" (fun c -> serve slot bufs c) : M.thread)
    done;
    let arr = Arrivals.create ~rng:(M.ctx_rng ctx) op.process in
    let arng = M.ctx_rng ctx in
    for _ = 1 to op.total_requests do
      let t = Arrivals.next arr in
      M.sleep_until ctx t;
      last_arrival_ns := t;
      let conn = Rng.int arng params.connections in
      let req = { arrival_ns = t; cls = sample_class arng op; conn } in
      Queue.push req queues.(conn);
      ignore (M.Waitq.wake_one waitqs.(conn) ctx : bool)
    done;
    accepting := false;
    Array.iter (fun q -> ignore (M.Waitq.wake_all q ctx : int)) waitqs;
    M.Latch.wait all_done ctx;
    drain_conns ctx
  in
  let main =
    M.spawn proc ~name:"acceptor" (fun ctx ->
        match params.open_loop with
        | None -> closed_driver ctx
        | Some ({ model = Thread_pool { queue_capacity }; _ } as op) ->
            pool_driver op queue_capacity ctx
        | Some ({ model = Thread_per_connection; _ } as op) -> tpc_driver op ctx)
  in
  ignore main;
  M.run m;
  (match alloc.A.validate () with
  | Ok () -> ()
  | Error msg -> failwith (Printf.sprintf "Server: heap invariant broken: %s" msg));
  let requests =
    match params.open_loop with
    | None -> None
    | Some op ->
        let offered_rps =
          if !last_arrival_ns > 0. then
            float_of_int op.total_requests /. (!last_arrival_ns /. 1e9)
          else 0.
        in
        Some
          (finish_requests ~completed:!completed ~dropped:!dropped ~churned:!churned
             ~offered_rps ~last_completion_ns:!last_completion_ns ~lat:!lat ~lat_n:!lat_n
             ~class_counts:(fun c -> class_counts.(class_index c)))
  in
  (match requests with None -> () | Some rs -> publish_request_counters m rs);
  Obs_hook.publish m [ raw_alloc ] ~label:(fun () ->
      let common =
        Printf.sprintf "server %s %s t=%d conn=%d think=%d latency=%b"
          params.factory.Factory.label (Mb_machine.Configs.label params.machine) params.threads
          params.connections params.think_cycles params.probe_latency
      in
      match params.open_loop with
      | None -> Printf.sprintf "%s req=%d seed=%d" common params.requests_per_thread params.seed
      | Some op ->
          Printf.sprintf "%s %s %s req=%d churn=%d mix=%d:%d seed=%d" common
            (Arrivals.to_string op.process) (model_label op.model) op.total_requests
            op.churn_mean_requests op.read_pct op.write_pct params.seed);
  let per_thread_s = List.map (fun w -> M.elapsed_ns w /. 1e9) !workers in
  let slowest_worker_ns = List.fold_left (fun acc w -> Float.max acc (M.elapsed_ns w)) 0. !workers in
  let elapsed_s =
    match params.open_loop with
    | None -> slowest_worker_ns /. 1e9
    | Some _ -> !last_completion_ns /. 1e9
  in
  let requests_per_second =
    match requests with
    | Some rs -> rs.throughput_rps
    | None ->
        let total = params.threads * params.requests_per_thread in
        if elapsed_s > 0. then float_of_int total /. elapsed_s else 0.
  in
  let window_basis_ns =
    match params.open_loop with
    | None | Some { model = Thread_pool _; _ } ->
        if slowest_worker_ns > 0. then slowest_worker_ns else !last_completion_ns
    | Some { model = Thread_per_connection; _ } -> !last_completion_ns
  in
  { params;
    elapsed_s;
    requests_per_second;
    per_thread_s;
    foreign_frees = alloc.A.stats.Mb_alloc.Astats.foreign_frees;
    arenas = alloc.A.stats.Mb_alloc.Astats.arenas_created;
    contended_ops = alloc.A.stats.Mb_alloc.Astats.contended_ops;
    latency = finish_probe probe ~window_basis_ns;
    degraded_ops = !degraded_ops;
    requests;
  }

module M = Mb_machine.Machine
module A = Mb_alloc.Allocator
module Fault = Mb_fault.Injector

type mode = Threads | Processes

type params = {
  machine : M.config;
  seed : int;
  workers : int;
  mode : mode;
  iterations : int;
  size : int;
  factory : Factory.t;
  paper_iterations : int;
}

let default =
  { machine = Mb_machine.Configs.dual_pentium_pro;
    seed = 1;
    workers = 2;
    mode = Threads;
    iterations = 50_000;
    size = 512;
    factory = Factory.ptmalloc ();
    paper_iterations = 10_000_000;
  }

type result = {
  params : params;
  elapsed_s : float list;
  scaled_s : float list;
  ctx_switches : int;
  lock_contended_ops : int;
  arenas : int;
  blocks : int;
  utilization : float;
  degraded_ops : int;
}

(* A malloc that still fails after the instrument layer's retries is
   skipped (no free to balance) and counted, so the run completes under
   an armed fault plan instead of dying — the degradation the fault
   layer exists to measure. [degraded.(i)] is host-side bookkeeping;
   the guard consumes no simulated time, so faults-off runs are
   byte-identical. *)
let worker_body alloc iterations size degraded i ctx =
  let fault = M.ctx_fault ctx in
  for _ = 1 to iterations do
    match alloc.A.malloc ctx size with
    | user -> alloc.A.free ctx user
    | exception Fault.Alloc_failure _ ->
        Fault.note_degraded fault;
        degraded.(i) <- degraded.(i) + 1
  done

let run params =
  if params.workers <= 0 then invalid_arg "Bench1.run: workers <= 0";
  if params.iterations <= 0 then invalid_arg "Bench1.run: iterations <= 0";
  let m = M.create ~seed:params.seed params.machine in
  let degraded = Array.make params.workers 0 in
  let allocators, threads =
    match params.mode with
    | Threads ->
        let proc = M.create_proc m ~name:"shared" () in
        let alloc = params.factory.Factory.create proc in
        let threads =
          List.init params.workers (fun i ->
              M.spawn proc ~name:(Printf.sprintf "worker-%d" i)
                (worker_body alloc params.iterations params.size degraded i))
        in
        ([ alloc ], threads)
    | Processes ->
        let pairs =
          List.init params.workers (fun i ->
              let proc = M.create_proc m ~name:(Printf.sprintf "proc-%d" i) () in
              let alloc = params.factory.Factory.create proc in
              let th =
                M.spawn proc ~name:(Printf.sprintf "worker-%d" i)
                  (worker_body alloc params.iterations params.size degraded i)
              in
              (alloc, th))
        in
        (List.map fst pairs, List.map snd pairs)
  in
  M.run m;
  List.iter
    (fun alloc ->
      match alloc.A.validate () with
      | Ok () -> ()
      | Error msg -> failwith (Printf.sprintf "Bench1: heap invariant broken: %s" msg))
    allocators;
  Obs_hook.publish m allocators ~label:(fun () ->
      Printf.sprintf "bench1 %s %s %s w=%d it=%d sz=%d seed=%d" params.factory.Factory.label
        (Mb_machine.Configs.label params.machine)
        (match params.mode with Threads -> "threads" | Processes -> "processes")
        params.workers params.iterations params.size params.seed);
  let elapsed_s = List.map (fun th -> M.elapsed_ns th /. 1e9) threads in
  let scale = float_of_int params.paper_iterations /. float_of_int params.iterations in
  let makespan_cycles = M.now_ns m /. M.cycles_to_ns m 1.0 in
  { params;
    elapsed_s;
    scaled_s = List.map (fun s -> s *. scale) elapsed_s;
    ctx_switches = M.total_ctx_switches m;
    lock_contended_ops =
      List.fold_left (fun acc a -> acc + a.A.stats.Mb_alloc.Astats.contended_ops) 0 allocators;
    arenas =
      List.fold_left (fun acc a -> acc + a.A.stats.Mb_alloc.Astats.arenas_created) 0 allocators;
    blocks = List.fold_left (fun acc th -> acc + (M.thread_stats th).M.blocks) 0 threads;
    utilization =
      (if makespan_cycles > 0. then
         M.busy_cycles m /. (float_of_int params.machine.M.cpus *. makespan_cycles)
       else 0.);
    degraded_ops = Array.fold_left ( + ) 0 degraded;
  }

let mean_scaled r = List.fold_left ( +. ) 0. r.scaled_s /. float_of_int (List.length r.scaled_s)

let max_scaled r = List.fold_left max 0. r.scaled_s

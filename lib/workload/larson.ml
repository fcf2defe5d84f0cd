module M = Mb_machine.Machine
module A = Mb_alloc.Allocator
module As = Mb_vm.Address_space
module Rng = Mb_prng.Rng
module Fault = Mb_fault.Injector

type params = {
  machine : M.config;
  seed : int;
  threads : int;
  rounds : int;
  slots_per_thread : int;
  ops_per_round : int;
  min_size : int;
  max_size : int;
  factory : Factory.t;
}

let default =
  { machine = Mb_machine.Configs.quad_xeon;
    seed = 1;
    threads = 4;
    rounds = 2;
    slots_per_thread = 1_000;
    ops_per_round = 2_000;
    min_size = 10;
    max_size = 500;
    factory = Factory.ptmalloc ();
  }

type result = {
  params : params;
  elapsed_s : float;
  throughput_ops_s : float;
  minor_faults : int;
  mapped_bytes : int;
  live_bytes : int;
  arenas : int;
  foreign_frees : int;
  degraded_ops : int;
}

let run params =
  if params.threads <= 0 || params.rounds <= 0 then invalid_arg "Larson.run: bad params";
  if params.min_size <= 0 || params.max_size < params.min_size then
    invalid_arg "Larson.run: bad size range";
  let m = M.create ~seed:params.seed params.machine in
  let proc = M.create_proc m ~name:"larson" () in
  let alloc = params.factory.Factory.create proc in
  let latch = M.Latch.create m in
  let chains_left = ref params.threads in
  let random_size rng = Rng.int_in rng params.min_size params.max_size in
  (* Per-chain degradation counters; slot [threads] is the main thread's
     pre-population phase. Empty slots are already encoded as 0, so a
     failed replacement just leaves the slot empty. *)
  let degraded = Array.make (params.threads + 1) 0 in
  (* A worker churns random slots with random sizes, then hands its array
     to a successor — Larson's thread-recycling stress. *)
  let rec worker chain round (slots : int array) ctx =
    let rng = M.ctx_rng ctx in
    let fault = M.ctx_fault ctx in
    for _ = 1 to params.ops_per_round do
      let j = Rng.int rng (Array.length slots) in
      if slots.(j) <> 0 then alloc.A.free ctx slots.(j);
      let size = random_size rng in
      match alloc.A.malloc ctx size with
      | user ->
          M.touch_range ctx user ~len:size;
          slots.(j) <- user
      | exception Fault.Alloc_failure _ ->
          Fault.note_degraded fault;
          degraded.(chain) <- degraded.(chain) + 1;
          slots.(j) <- 0
    done;
    if round < params.rounds then
      ignore
        (M.spawn (M.proc ctx)
           ~name:(Printf.sprintf "larson-%d-%d" chain (round + 1))
           (worker chain (round + 1) slots))
    else begin
      decr chains_left;
      if !chains_left = 0 then M.Latch.signal latch ctx
    end
  in
  let arrays = Array.init params.threads (fun _ -> Array.make params.slots_per_thread 0) in
  let main =
    M.spawn proc ~name:"main" (fun ctx ->
        let rng = M.ctx_rng ctx in
        let fault = M.ctx_fault ctx in
        (* Pre-populate every slot, Larson-style. *)
        Array.iter
          (fun slots ->
            Array.iteri
              (fun j _ ->
                let size = random_size rng in
                match alloc.A.malloc ctx size with
                | user ->
                    M.touch_range ctx user ~len:size;
                    slots.(j) <- user
                | exception Fault.Alloc_failure _ ->
                    Fault.note_degraded fault;
                    degraded.(params.threads) <- degraded.(params.threads) + 1)
              slots)
          arrays;
        Array.iteri
          (fun i slots ->
            ignore (M.spawn proc ~name:(Printf.sprintf "larson-%d-1" i) (worker i 1 slots)))
          arrays;
        M.Latch.wait latch ctx;
        (* Drain everything so the heap can be checked empty. *)
        Array.iter
          (fun slots ->
            Array.iteri
              (fun j user ->
                if user <> 0 then begin
                  alloc.A.free ctx user;
                  slots.(j) <- 0
                end)
              slots)
          arrays)
  in
  M.run m;
  (match alloc.A.validate () with
  | Ok () -> ()
  | Error msg -> failwith (Printf.sprintf "Larson: heap invariant broken: %s" msg));
  Obs_hook.publish m [ alloc ] ~label:(fun () ->
      Printf.sprintf "larson %s %s t=%d r=%d slots=%d ops=%d sz=%d-%d seed=%d"
        params.factory.Factory.label (Mb_machine.Configs.label params.machine) params.threads
        params.rounds params.slots_per_thread params.ops_per_round params.min_size
        params.max_size params.seed);
  let vm = M.proc_vm proc in
  let elapsed_s = M.elapsed_ns main /. 1e9 in
  let total_ops = params.threads * params.rounds * params.ops_per_round in
  { params;
    elapsed_s;
    throughput_ops_s = (if elapsed_s > 0. then float_of_int total_ops /. elapsed_s else 0.);
    minor_faults = As.minor_faults vm;
    mapped_bytes = As.mapped_bytes vm;
    live_bytes = alloc.A.stats.Mb_alloc.Astats.live_bytes;
    arenas = alloc.A.stats.Mb_alloc.Astats.arenas_created;
    foreign_frees = alloc.A.stats.Mb_alloc.Astats.foreign_frees;
    degraded_ops = Array.fold_left ( + ) 0 degraded;
  }

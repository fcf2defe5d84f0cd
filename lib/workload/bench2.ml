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
  objects_per_thread : int;
  replacements_per_round : int;
  size : int;
  factory : Factory.t;
}

let default =
  { machine = Mb_machine.Configs.uni_k6;
    seed = 1;
    threads = 1;
    rounds = 1;
    objects_per_thread = 10_000;
    replacements_per_round = 2_000;
    size = 40;
    factory = Factory.ptmalloc ();
  }

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
  degraded_ops : int;
}

let run params =
  if params.threads <= 0 || params.rounds <= 0 then invalid_arg "Bench2.run: bad params";
  let m = M.create ~seed:params.seed params.machine in
  let proc = M.create_proc m ~name:"bench2" () in
  let alloc = params.factory.Factory.create proc in
  let latch = M.Latch.create m in
  let chains_left = ref params.threads in
  (* Per-chain degradation counters (slot [threads] belongs to the main
     thread's population phase). A slot holding 0 in an address array
     marks an object whose allocation was skipped under faults: frees
     of such slots are skipped too. *)
  let degraded = Array.make (params.threads + 1) 0 in
  (* A worker replaces objects (freeing storage allocated by its
     predecessor thread while the heap is under contention — the paper's
     two conditions for leakage), then hands the array to a fresh thread. *)
  let rec worker chain round arr ctx =
    let rng = M.ctx_rng ctx in
    let fault = M.ctx_fault ctx in
    for _ = 1 to params.replacements_per_round do
      let j = Rng.int rng (Array.length arr) in
      if arr.(j) <> 0 then alloc.A.free ctx arr.(j);
      match alloc.A.malloc ctx params.size with
      | user ->
          M.touch_range ctx user ~len:params.size;
          arr.(j) <- user
      | exception Fault.Alloc_failure _ ->
          Fault.note_degraded fault;
          degraded.(chain) <- degraded.(chain) + 1;
          arr.(j) <- 0
    done;
    if round < params.rounds then
      ignore (M.spawn (M.proc ctx) ~name:(Printf.sprintf "c%d-r%d" chain (round + 1)) (worker chain (round + 1) arr))
    else begin
      decr chains_left;
      if !chains_left = 0 then M.Latch.signal latch ctx
    end
  in
  let main =
    M.spawn proc ~name:"main" (fun ctx ->
        let fault = M.ctx_fault ctx in
        let degraded_alloc size =
          match alloc.A.malloc ctx size with
          | user ->
              M.touch_range ctx user ~len:size;
              user
          | exception Fault.Alloc_failure _ ->
              Fault.note_degraded fault;
              degraded.(params.threads) <- degraded.(params.threads) + 1;
              0
        in
        let arrays =
          Array.init params.threads (fun _ ->
              Array.init params.objects_per_thread (fun _ -> degraded_alloc params.size))
        in
        (* The address arrays themselves live on the heap too. *)
        let array_bytes = params.objects_per_thread * 4 in
        let array_blocks = Array.map (fun _ -> degraded_alloc array_bytes) arrays in
        Array.iteri
          (fun i arr -> ignore (M.spawn proc ~name:(Printf.sprintf "c%d-r1" i) (worker i 1 arr)))
          arrays;
        M.Latch.wait latch ctx;
        Array.iter (fun user -> if user <> 0 then alloc.A.free ctx user) array_blocks)
  in
  M.run m;
  (match alloc.A.validate () with
  | Ok () -> ()
  | Error msg -> failwith (Printf.sprintf "Bench2: heap invariant broken: %s" msg));
  Obs_hook.publish m [ alloc ] ~label:(fun () ->
      Printf.sprintf "bench2 %s %s t=%d r=%d obj=%d repl=%d sz=%d seed=%d"
        params.factory.Factory.label (Mb_machine.Configs.label params.machine) params.threads
        params.rounds params.objects_per_thread params.replacements_per_round params.size
        params.seed);
  let vm = M.proc_vm proc in
  { params;
    minor_faults = As.minor_faults vm;
    resident_pages = As.resident_pages vm;
    mapped_bytes = As.mapped_bytes vm;
    sbrk_calls = As.sbrk_calls vm;
    mmap_calls = As.mmap_calls vm;
    arenas_created = alloc.A.stats.Mb_alloc.Astats.arenas_created;
    foreign_frees = alloc.A.stats.Mb_alloc.Astats.foreign_frees;
    elapsed_s = M.elapsed_ns main /. 1e9;
    degraded_ops = Array.fold_left ( + ) 0 degraded;
  }

let paper_predictor ~threads ~rounds =
  14. +. (1.1 *. float_of_int threads *. float_of_int rounds) +. (127.6 *. float_of_int threads)

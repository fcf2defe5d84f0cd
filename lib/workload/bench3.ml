module M = Mb_machine.Machine
module A = Mb_alloc.Allocator
module Rng = Mb_prng.Rng
module Coherence = Mb_cache.Coherence
module Fault = Mb_fault.Injector

type params = {
  machine : M.config;
  seed : int;
  threads : int;
  object_size : int;
  writes : int;
  aligned : bool;
  factory : Factory.t;
  paper_writes : int;
  loop_cycles : int;
}

let default =
  { machine = Mb_machine.Configs.quad_xeon;
    seed = 1;
    threads = 2;
    object_size = 40;
    writes = 1_000_000;
    aligned = false;
    factory = Factory.ptmalloc ();
    paper_writes = 100_000_000;
    loop_cycles = 8;
  }

type result = {
  params : params;
  elapsed_s : float;
  scaled_s : float;
  transfers : int;
  shared_lines : int;
  addresses : int list;
  degraded_ops : int;
}

let batch = 1_000

let writer_body params obj ctx =
  let front = obj in
  let back = obj + params.object_size - 1 in
  let remaining = ref params.writes in
  while !remaining > 0 do
    let n = min batch !remaining in
    M.write_mem_repeated ctx front ~count:n;
    M.write_mem_repeated ctx back ~count:n;
    M.work ctx (params.loop_cycles * n);
    remaining := !remaining - n
  done

let run params =
  if params.threads <= 0 then invalid_arg "Bench3.run: threads <= 0";
  if params.object_size <= 0 then invalid_arg "Bench3.run: object_size <= 0";
  let m = M.create ~seed:params.seed params.machine in
  let proc = M.create_proc m ~name:"bench3" () in
  let factory =
    if params.aligned then
      Factory.aligned ~line_size:params.machine.M.cache.Coherence.line_size params.factory
    else params.factory
  in
  let alloc = factory.Factory.create proc in
  let objects = ref [] in
  let workers = ref [] in
  let degraded = ref 0 in
  let main =
    M.spawn proc ~name:"main" (fun ctx ->
        let fault = M.ctx_fault ctx in
        (* Model malloc's run-to-run address nondeterminism: a random
           amount of start-up allocation shifts where the objects land. *)
        let rng = M.ctx_rng ctx in
        let warmups = Rng.int rng 8 in
        for _ = 1 to warmups do
          match alloc.A.malloc ctx (8 + Rng.int rng 248) with
          | (_ : int) -> ()
          | exception Fault.Alloc_failure _ ->
              Fault.note_degraded fault;
              incr degraded
        done;
        (* A thread whose object allocation fails under a fault plan has
           nothing to write: it is skipped (and counted), and the
           sharing analysis below sees only the objects that exist. *)
        let objs =
          List.filter_map
            (fun (_ : int) ->
              match alloc.A.malloc ctx params.object_size with
              | user -> Some user
              | exception Fault.Alloc_failure _ ->
                  Fault.note_degraded fault;
                  incr degraded;
                  None)
            (List.init params.threads Fun.id)
        in
        objects := objs;
        let ws = List.map (fun obj -> M.spawn proc (writer_body params obj)) objs in
        workers := ws;
        List.iter (fun w -> M.join ctx w) ws)
  in
  ignore main;
  M.run m;
  Obs_hook.publish m [ alloc ] ~label:(fun () ->
      Printf.sprintf "bench3 %s %s t=%d sz=%d writes=%d loop=%d seed=%d" factory.Factory.label
        (Mb_machine.Configs.label params.machine) params.threads params.object_size params.writes
        params.loop_cycles params.seed);
  let elapsed_s =
    List.fold_left (fun acc w -> max acc (M.elapsed_ns w /. 1e9)) 0. !workers
  in
  let line_size = params.machine.M.cache.Coherence.line_size in
  let shared_lines =
    (* Lines written by more than one thread, from the object layout. *)
    let table = Hashtbl.create 16 in
    List.iteri
      (fun i obj ->
        List.iter
          (fun addr ->
            let line = addr / line_size in
            let owners = match Hashtbl.find_opt table line with Some s -> s | None -> [] in
            if not (List.mem i owners) then Hashtbl.replace table line (i :: owners))
          [ obj; obj + params.object_size - 1 ])
      !objects;
    Hashtbl.fold (fun _ owners acc -> if List.length owners > 1 then acc + 1 else acc) table 0
  in
  { params;
    elapsed_s;
    scaled_s = elapsed_s *. (float_of_int params.paper_writes /. float_of_int params.writes);
    transfers = Coherence.transfers (M.cache m);
    shared_lines;
    addresses = !objects;
    degraded_ops = !degraded;
  }

let sweep params ~sizes ~runs =
  List.map
    (fun size ->
      let samples =
        List.init runs (fun i ->
            let r = run { params with object_size = size; seed = params.seed + (i * 7919) } in
            r.scaled_s)
      in
      (size, Mb_stats.Summary.of_list samples))
    sizes

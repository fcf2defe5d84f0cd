module M = Mb_machine.Machine

let class_limit = 512

let nclasses = (class_limit / 8) + 1

(* Size class of a request: 8-byte spacing up to [class_limit]. *)
let class_of size = (size + 7) / 8

type t = {
  proc : M.proc;
  global : Dlheap.t;
  gmutex : M.Mutex.t;
  stats : Astats.t;        (* the facade's view *)
  caches : (int, int list array * int array) Hashtbl.t;  (* tid -> (per-class lists, counts) *)
  sizes : (int, int) Hashtbl.t;  (* user addr -> class bytes, for cached routing *)
  batch : int;
  cache_limit : int;
  fast_cycles : int;  (* cache-hit path, scaled once at creation *)
}

let make proc ?(costs = Costs.glibc) ?(params = Dlheap.default_params) ?(batch = 16) ?(cache_limit = 64) () =
  let stats = Astats.create () in
  (* The shared heap keeps its own accounting, which nothing reads. *)
  let global = Dlheap.create_main ~costs ~params ~stats:(Astats.create ()) in
  stats.Astats.arenas_created <- 1;
  { proc;
    global;
    gmutex = M.Mutex.create (M.proc_machine proc) ~name:"perthread-global" ~heap:true ();
    stats;
    caches = Hashtbl.create 16;
    sizes = Hashtbl.create 1024;
    batch;
    cache_limit;
    fast_cycles = Costs.apply costs 40;
  }

let cache_for t tid =
  match Hashtbl.find_opt t.caches tid with
  | Some c -> c
  | None ->
      let c = (Array.make nclasses [], Array.make nclasses 0) in
      Hashtbl.replace t.caches tid c;
      c

let with_global t ctx f =
  if not (M.Mutex.try_lock t.gmutex ctx) then begin
    t.stats.Astats.contended_ops <- t.stats.Astats.contended_ops + 1;
    M.Mutex.lock t.gmutex ctx
  end;
  (* Exception-safe: see Serial.with_lock. *)
  Fun.protect ~finally:(fun () -> M.Mutex.unlock t.gmutex ctx) f

let global_malloc t ctx size =
  match Dlheap.malloc t.global ctx size with
  | 0 -> Allocator.out_of_memory ~bytes:size "perthread"
  | user -> user

let malloc t ctx size =
  if size <= 0 then invalid_arg "Perthread.malloc: size <= 0";
  if size > class_limit then begin
    let user = with_global t ctx (fun () -> global_malloc t ctx size) in
    (* Record usable bytes so the later free (which can only see the
       chunk size) balances exactly. *)
    Astats.record_malloc t.stats (Dlheap.usable_size t.global user);
    user
  end
  else begin
    let cls = class_of size in
    let cls_bytes = cls * 8 in
    let lists, counts = cache_for t (M.tid ctx) in
    M.work ctx t.fast_cycles;
    let user =
      match lists.(cls) with
      | user :: rest ->
          lists.(cls) <- rest;
          counts.(cls) <- counts.(cls) - 1;
          user
      | [] ->
          (* Refill a batch from the shared heap under one lock. *)
          let blocks =
            with_global t ctx (fun () -> List.init t.batch (fun _ -> global_malloc t ctx cls_bytes))
          in
          List.iter (fun u -> Hashtbl.replace t.sizes u cls_bytes) blocks;
          (match blocks with
          | user :: rest ->
              lists.(cls) <- rest;
              counts.(cls) <- List.length rest;
              user
          | [] -> Allocator.out_of_memory ~bytes:cls_bytes "perthread")
    in
    M.write_mem ctx (user - Dlheap.header_bytes);
    Astats.record_malloc t.stats cls_bytes;
    user
  end

let free t ctx user =
  match Hashtbl.find_opt t.sizes user with
  | None ->
      (* A large block: straight back to the shared heap. *)
      let size = Dlheap.usable_size t.global user in
      with_global t ctx (fun () -> Dlheap.free t.global ctx user);
      Astats.record_free t.stats size
  | Some cls_bytes ->
      let cls = class_of cls_bytes in
      let lists, counts = cache_for t (M.tid ctx) in
      M.work ctx t.fast_cycles;
      Astats.record_free t.stats cls_bytes;
      lists.(cls) <- user :: lists.(cls);
      counts.(cls) <- counts.(cls) + 1;
      if counts.(cls) > t.cache_limit then begin
        (* Flush half the magazine back to the shared heap. *)
        let keep = t.cache_limit / 2 in
        let rec split i acc rest =
          if i = 0 then (List.rev acc, rest)
          else match rest with [] -> (List.rev acc, []) | x :: xs -> split (i - 1) (x :: acc) xs
        in
        let kept, flushed = split keep [] lists.(cls) in
        lists.(cls) <- kept;
        counts.(cls) <- keep;
        with_global t ctx (fun () ->
            List.iter
              (fun u ->
                Hashtbl.remove t.sizes u;
                Dlheap.free t.global ctx u)
              flushed)
      end

let usable_size t user =
  match Hashtbl.find_opt t.sizes user with
  | Some cls_bytes -> cls_bytes
  | None -> Dlheap.usable_size t.global user

let cached_objects t =
  Hashtbl.fold (fun _ (_, counts) acc -> acc + Array.fold_left ( + ) 0 counts) t.caches 0

let global_lock_acquisitions t = M.Mutex.acquisitions t.gmutex

let allocator t =
  Allocator.instrument t.proc
  { Allocator.name = "perthread";
    malloc = (fun ctx size -> malloc t ctx size);
    free = (fun ctx user -> free t ctx user);
    usable_size = (fun user -> usable_size t user);
    stats = t.stats;
    origins = Hashtbl.create 8;
    validate = (fun () -> Dlheap.validate t.global);
  }

module M = Mb_machine.Machine

type superblock = {
  base : int;
  class_bytes : int;
  capacity : int;
  mutable free_blocks : int list;
  mutable in_use : int;
  mutable owner : int;  (* heap index; 0 = global *)
}

type heap = {
  index : int;
  lock : M.Mutex.t;
  (* superblocks by size-class index *)
  blocks : superblock list array;
  mutable used : int;      (* blocks in use across the heap, in bytes *)
  mutable held : int;      (* capacity held across the heap, in bytes *)
}

type t = {
  proc : M.proc;
  stats : Astats.t;
  heaps : heap array;              (* heaps.(0) is the global heap *)
  owners : (int, superblock) Hashtbl.t;  (* block addr -> superblock *)
  superblock_bytes : int;
  empty_fraction : float;
  slack : int;
  mm_large : (int, int) Hashtbl.t;
  mutable nsuperblocks : int;
  mutable transfers : int;
  op_cycles : int;  (* scaled once, at creation *)
}

(* Size classes: 8-byte steps to 64, then powers of two to half a
   superblock. *)
let class_bytes_of_index i = if i < 8 then 8 * (i + 1) else 64 lsl (i - 7)

let class_index size =
  if size <= 64 then (size + 7) / 8 - 1
  else begin
    let rec find i = if class_bytes_of_index i >= size then i else find (i + 1) in
    find 8
  end

let nclasses = 14  (* up to class_bytes_of_index 13 = 4096 *)

let make proc ?(costs = Costs.glibc) ?heap_count ?(superblock_bytes = 8192) ?(empty_fraction = 0.25)
    ?(slack = 4) () =
  let machine = M.proc_machine proc in
  let cpus = (M.config machine).M.cpus in
  let heap_count = match heap_count with Some n -> n | None -> max 1 cpus in
  let mk_heap index =
    { index;
      lock = M.Mutex.create machine ~name:(Printf.sprintf "hoard-heap-%d" index) ~heap:true ();
      blocks = Array.make nclasses [];
      used = 0;
      held = 0;
    }
  in
  { proc;
    stats = Astats.create ();
    heaps = Array.init (heap_count + 1) mk_heap;
    owners = Hashtbl.create 1024;
    superblock_bytes;
    empty_fraction;
    slack;
    mm_large = Hashtbl.create 16;
    nsuperblocks = 0;
    transfers = 0;
    op_cycles = Costs.apply costs 50;
  }

let heap_of_thread t tid = 1 + (tid mod (Array.length t.heaps - 1))

let large_threshold t = t.superblock_bytes / 2

let with_heap t heap ctx f =
  if not (M.Mutex.try_lock heap.lock ctx) then begin
    t.stats.Astats.contended_ops <- t.stats.Astats.contended_ops + 1;
    M.Mutex.lock heap.lock ctx
  end;
  (* Exception-safe: see Serial.with_lock (malloc nests heap + global
     locks, so a leak here would wedge every thread of the process). *)
  Fun.protect ~finally:(fun () -> M.Mutex.unlock heap.lock ctx) f

let new_superblock t ctx cls owner_index =
  match M.mmap ctx ~len:t.superblock_bytes with
  | None -> Allocator.out_of_memory ~bytes:t.superblock_bytes "hoard"
  | Some base ->
      let class_bytes = class_bytes_of_index cls in
      let capacity = t.superblock_bytes / class_bytes in
      let sb =
        { base;
          class_bytes;
          capacity;
          free_blocks = List.init capacity (fun i -> base + (i * class_bytes));
          in_use = 0;
          owner = owner_index;
        }
      in
      List.iter (fun b -> Hashtbl.replace t.owners b sb) sb.free_blocks;
      t.nsuperblocks <- t.nsuperblocks + 1;
      t.stats.Astats.arenas_created <- t.stats.Astats.arenas_created + 1;
      sb

(* Move [sb] from [src] to [dst] (both locked by the caller as needed). *)
let move_superblock t sb src dst =
  let cls = class_index sb.class_bytes in
  src.blocks.(cls) <- List.filter (fun s -> s != sb) src.blocks.(cls);
  dst.blocks.(cls) <- sb :: dst.blocks.(cls);
  let bytes = sb.capacity * sb.class_bytes in
  let used = sb.in_use * sb.class_bytes in
  src.held <- src.held - bytes;
  src.used <- src.used - used;
  dst.held <- dst.held + bytes;
  dst.used <- dst.used + used;
  sb.owner <- dst.index;
  t.transfers <- t.transfers + 1

let malloc t ctx size =
  if size <= 0 then invalid_arg "Hoard.malloc: size <= 0";
  M.work ctx t.op_cycles;
  if size > large_threshold t then begin
    let len = (size + 4095) / 4096 * 4096 in
    match M.mmap ctx ~len with
    | None -> Allocator.out_of_memory ~bytes:len "hoard (large)"
    | Some base ->
        Hashtbl.replace t.mm_large base len;
        t.stats.Astats.mmapped_chunks <- t.stats.Astats.mmapped_chunks + 1;
        Astats.record_malloc t.stats len;
        base
  end
  else begin
    let cls = class_index size in
    let heap = t.heaps.(heap_of_thread t (M.tid ctx)) in
    with_heap t heap ctx (fun () ->
        let sb =
          match List.find_opt (fun sb -> sb.free_blocks <> []) heap.blocks.(cls) with
          | Some sb -> sb
          | None ->
              (* Pull from the global heap, or map a fresh superblock. *)
              let global = t.heaps.(0) in
              with_heap t global ctx (fun () ->
                  match List.find_opt (fun sb -> sb.free_blocks <> []) global.blocks.(cls) with
                  | Some sb ->
                      move_superblock t sb global heap;
                      sb
                  | None ->
                      let sb = new_superblock t ctx cls heap.index in
                      heap.blocks.(cls) <- sb :: heap.blocks.(cls);
                      heap.held <- heap.held + (sb.capacity * sb.class_bytes);
                      sb)
        in
        match sb.free_blocks with
        | [] -> invalid_arg "Hoard.malloc: chosen superblock has no space"
        | user :: rest ->
            sb.free_blocks <- rest;
            sb.in_use <- sb.in_use + 1;
            heap.used <- heap.used + sb.class_bytes;
            M.write_mem ctx user;
            Astats.record_malloc t.stats sb.class_bytes;
            user)
  end

(* The emptiness invariant: keep u(h) >= held - slack*S and
   u(h) >= (1 - f) * held, else ship the emptiest superblock to the
   global heap. *)
let enforce_invariant t heap ctx =
  if heap.index <> 0 then begin
    let slack_bytes = t.slack * t.superblock_bytes in
    if
      heap.held - heap.used > slack_bytes
      && float_of_int heap.used < (1. -. t.empty_fraction) *. float_of_int heap.held
    then begin
      (* find the emptiest superblock across classes *)
      let emptiest = ref None in
      Array.iter
        (List.iter (fun sb ->
             let fullness = float_of_int sb.in_use /. float_of_int sb.capacity in
             match !emptiest with
             | Some (best, _) when best <= fullness -> ()
             | _ -> emptiest := Some (fullness, sb)))
        heap.blocks;
      match !emptiest with
      | Some (_, sb) ->
          let global = t.heaps.(0) in
          with_heap t global ctx (fun () -> move_superblock t sb heap global)
      | None -> ()
    end
  end

let free t ctx user =
  M.work ctx t.op_cycles;
  match Hashtbl.find_opt t.mm_large user with
  | Some len ->
      Hashtbl.remove t.mm_large user;
      M.munmap ctx user ~len;
      Astats.record_free t.stats len
  | None -> (
      match Hashtbl.find_opt t.owners user with
      | None -> invalid_arg "Hoard.free: unknown address"
      | Some sb ->
          (* Lock the owning heap; ownership may move between the lookup
             and the lock, so re-read after acquiring. *)
          let rec lock_owner () =
            let heap = t.heaps.(sb.owner) in
            if not (M.Mutex.try_lock heap.lock ctx) then begin
              t.stats.Astats.contended_ops <- t.stats.Astats.contended_ops + 1;
              M.Mutex.lock heap.lock ctx
            end;
            if sb.owner = heap.index then heap
            else begin
              M.Mutex.unlock heap.lock ctx;
              lock_owner ()
            end
          in
          let heap = lock_owner () in
          if heap.index <> heap_of_thread t (M.tid ctx) then
            t.stats.Astats.foreign_frees <- t.stats.Astats.foreign_frees + 1;
          sb.free_blocks <- user :: sb.free_blocks;
          sb.in_use <- sb.in_use - 1;
          heap.used <- heap.used - sb.class_bytes;
          Astats.record_free t.stats sb.class_bytes;
          enforce_invariant t heap ctx;
          M.Mutex.unlock heap.lock ctx)

let usable_size t user =
  match Hashtbl.find_opt t.mm_large user with
  | Some len -> len
  | None -> (
      match Hashtbl.find_opt t.owners user with
      | Some sb -> sb.class_bytes
      | None -> invalid_arg "Hoard.usable_size: unknown address")

let validate t =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let exception Bad of string in
  try
    Array.iter
      (fun heap ->
        let used = ref 0 and held = ref 0 in
        Array.iteri
          (fun cls sbs ->
            List.iter
              (fun sb ->
                if sb.owner <> heap.index then
                  raise (Bad (Printf.sprintf "sb 0x%x owner %d on heap %d" sb.base sb.owner heap.index));
                if class_index sb.class_bytes <> cls then
                  raise (Bad (Printf.sprintf "sb 0x%x misfiled class" sb.base));
                if List.length sb.free_blocks + sb.in_use <> sb.capacity then
                  raise (Bad (Printf.sprintf "sb 0x%x free+used <> capacity" sb.base));
                used := !used + (sb.in_use * sb.class_bytes);
                held := !held + (sb.capacity * sb.class_bytes))
              sbs)
          heap.blocks;
        if !used <> heap.used then
          raise (Bad (Printf.sprintf "heap %d used %d <> %d" heap.index heap.used !used));
        if !held <> heap.held then
          raise (Bad (Printf.sprintf "heap %d held %d <> %d" heap.index heap.held !held)))
      t.heaps;
    Ok ()
  with Bad m -> fail "%s" m

let superblock_count t = t.nsuperblocks

let global_superblocks t =
  Array.fold_left (fun acc sbs -> acc + List.length sbs) 0 t.heaps.(0).blocks

let transfers_to_global t = t.transfers

let held_bytes t = Array.fold_left (fun acc h -> acc + h.held) 0 t.heaps

let allocator t =
  Allocator.instrument t.proc
  { Allocator.name = "hoard";
    malloc = (fun ctx size -> malloc t ctx size);
    free = (fun ctx user -> free t ctx user);
    usable_size = (fun user -> usable_size t user);
    stats = t.stats;
    origins = Hashtbl.create 8;
    validate = (fun () -> validate t);
  }

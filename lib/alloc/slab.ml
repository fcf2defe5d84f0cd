module M = Mb_machine.Machine

type slab = {
  base : int;
  cache_size : int;        (* object size of the owning cache *)
  mutable free_objs : int list;
  mutable in_use : int;
  capacity : int;
}

type cache = {
  obj_size : int;
  lock : M.Mutex.t;
  mutable partial : slab list;   (* slabs with both free and used objects (or all free) *)
  mutable full : slab list;
  mutable nslabs : int;
}

type t = {
  proc : M.proc;
  stats : Astats.t;
  caches : (int, cache) Hashtbl.t;       (* obj_size -> cache *)
  objects : (int, slab) Hashtbl.t;       (* user addr -> owning slab *)
  slab_pages : int;
  large_threshold : int;
  mm_large : (int, int) Hashtbl.t;       (* large objects: user addr -> mapped len *)
  op_cycles : int;                       (* scaled once, at creation *)
}

(* Power-of-two size classes from 16 bytes, like the historical kmalloc. *)
let size_class size =
  let rec grow c = if c >= size then c else grow (c * 2) in
  grow 16

let make proc ?(costs = Costs.glibc) ?(slab_pages = 4) () =
  { proc;
    stats = Astats.create ();
    caches = Hashtbl.create 16;
    objects = Hashtbl.create 1024;
    slab_pages;
    large_threshold = slab_pages * 4096 / 2;
    mm_large = Hashtbl.create 16;
    op_cycles = Costs.apply costs 60;
  }

let cache_for t cls =
  match Hashtbl.find_opt t.caches cls with
  | Some c -> c
  | None ->
      let c =
        { obj_size = cls;
          lock =
            M.Mutex.create (M.proc_machine t.proc)
              ~name:(Printf.sprintf "kmem-%d" cls) ~heap:true ();
          partial = [];
          full = [];
          nslabs = 0;
        }
      in
      Hashtbl.replace t.caches cls c;
      t.stats.Astats.arenas_created <- t.stats.Astats.arenas_created + 1;
      c

let with_cache t cache ctx f =
  if not (M.Mutex.try_lock cache.lock ctx) then begin
    t.stats.Astats.contended_ops <- t.stats.Astats.contended_ops + 1;
    M.Mutex.lock cache.lock ctx
  end;
  (* Exception-safe: see Serial.with_lock. *)
  Fun.protect ~finally:(fun () -> M.Mutex.unlock cache.lock ctx) f

let grow_cache t cache ctx =
  let len = t.slab_pages * 4096 in
  match M.mmap ctx ~len with
  | None -> Allocator.out_of_memory ~bytes:len "slab"
  | Some base ->
      let capacity = len / cache.obj_size in
      let slab =
        { base;
          cache_size = cache.obj_size;
          free_objs = List.init capacity (fun i -> base + (i * cache.obj_size));
          in_use = 0;
          capacity;
        }
      in
      cache.partial <- slab :: cache.partial;
      cache.nslabs <- cache.nslabs + 1;
      slab

let malloc t ctx size =
  if size <= 0 then invalid_arg "Slab.malloc: size <= 0";
  M.work ctx t.op_cycles;
  if size > t.large_threshold then begin
    let len = (size + 4095) / 4096 * 4096 in
    match M.mmap ctx ~len with
    | None -> Allocator.out_of_memory ~bytes:len "slab (large)"
    | Some base ->
        Hashtbl.replace t.mm_large base len;
        t.stats.Astats.mmapped_chunks <- t.stats.Astats.mmapped_chunks + 1;
        Astats.record_malloc t.stats len;
        base
  end
  else begin
    let cls = size_class size in
    let cache = cache_for t cls in
    with_cache t cache ctx (fun () ->
        let slab = match cache.partial with s :: _ -> s | [] -> grow_cache t cache ctx in
        match slab.free_objs with
        | [] -> invalid_arg "Slab.malloc: partial slab with no free objects"
        | user :: rest ->
            slab.free_objs <- rest;
            slab.in_use <- slab.in_use + 1;
            if rest = [] then begin
              cache.partial <- List.filter (fun s -> s != slab) cache.partial;
              cache.full <- slab :: cache.full
            end;
            Hashtbl.replace t.objects user slab;
            M.write_mem ctx user;
            Astats.record_malloc t.stats cls;
            user)
  end

let free t ctx user =
  M.work ctx t.op_cycles;
  match Hashtbl.find_opt t.mm_large user with
  | Some len ->
      Hashtbl.remove t.mm_large user;
      M.munmap ctx user ~len;
      Astats.record_free t.stats len
  | None -> (
      match Hashtbl.find_opt t.objects user with
      | None -> invalid_arg "Slab.free: unknown address"
      | Some slab ->
          let cache = cache_for t slab.cache_size in
          with_cache t cache ctx (fun () ->
              Hashtbl.remove t.objects user;
              let was_full = slab.free_objs = [] in
              slab.free_objs <- user :: slab.free_objs;
              slab.in_use <- slab.in_use - 1;
              if was_full then begin
                cache.full <- List.filter (fun s -> s != slab) cache.full;
                cache.partial <- slab :: cache.partial
              end;
              (* Reclaim fully empty slabs beyond the first, kernel-style. *)
              if slab.in_use = 0 && List.length cache.partial > 1 then begin
                cache.partial <- List.filter (fun s -> s != slab) cache.partial;
                cache.nslabs <- cache.nslabs - 1;
                List.iter (fun o -> Hashtbl.remove t.objects o) slab.free_objs;
                M.munmap ctx slab.base ~len:(t.slab_pages * 4096)
              end;
              Astats.record_free t.stats slab.cache_size))

let usable_size t user =
  match Hashtbl.find_opt t.mm_large user with
  | Some len -> len
  | None -> (
      match Hashtbl.find_opt t.objects user with
      | Some slab -> slab.cache_size
      | None -> invalid_arg "Slab.usable_size: unknown address")

(* Besides each slab's own shape, the books: the objects in use in slabs
   are the entries of [objects], and those plus the large mappings are
   the objects callers hold. *)
let validate t =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let in_use = ref 0 in
  let check_slab cache expect_full slab =
    in_use := !in_use + slab.in_use;
    let free = List.length slab.free_objs in
    if free + slab.in_use <> slab.capacity then
      fail "slab 0x%x: free %d + in_use %d <> capacity %d" slab.base free slab.in_use slab.capacity
    else if expect_full && free <> 0 then fail "slab 0x%x on full list has free objects" slab.base
    else if (not expect_full) && free = 0 then fail "slab 0x%x on partial list is full" slab.base
    else if List.exists (fun o -> o < slab.base || o >= slab.base + (slab.capacity * cache.obj_size)) slab.free_objs
    then fail "slab 0x%x has out-of-range free object" slab.base
    else Ok ()
  in
  let exception Bad of string in
  try
    Hashtbl.iter
      (fun _ cache ->
        List.iter
          (fun s -> match check_slab cache false s with Error m -> raise (Bad m) | Ok () -> ())
          cache.partial;
        List.iter
          (fun s -> match check_slab cache true s with Error m -> raise (Bad m) | Ok () -> ())
          cache.full)
      t.caches;
    let objects = Hashtbl.length t.objects
    and large = Hashtbl.length t.mm_large
    and live = t.stats.Astats.live_objects in
    if !in_use <> objects then fail "slab: %d objects in use in slabs, %d in the object table" !in_use objects
    else if objects + large <> live then
      fail "slab: %d objects in slabs and %d large mappings, but %d live objects" objects large live
    else Ok ()
  with Bad m -> Error m

let cache_count t = Hashtbl.length t.caches

let slab_count t = Hashtbl.fold (fun _ c acc -> acc + c.nslabs) t.caches 0

let allocator t =
  Allocator.instrument t.proc
  { Allocator.name = "slab";
    malloc = (fun ctx size -> malloc t ctx size);
    free = (fun ctx user -> free t ctx user);
    usable_size = (fun user -> usable_size t user);
    stats = t.stats;
    origins = Hashtbl.create 8;
    validate = (fun () -> validate t);
  }

module M = Mb_machine.Machine
module Rng = Mb_prng.Rng

type arena = {
  heap : Dlheap.t;
  mutex : M.Mutex.t;
  descriptor : int;  (* hot lock word; written on every op under the lock *)
  aindex : int;
  mutable slot : int;  (* position in [t.arenas], set when appended;
                          creations can finish out of [aindex] order *)
}

type t = {
  proc : M.proc;
  costs : Costs.t;
  mutable params : Dlheap.params;
  stats : Astats.t;
  mutable arenas : arena array;     (* creation order; main arena first.
                                       Capacity array: only slots
                                       0 .. n_arenas-1 are live, so
                                       appending an arena is amortized
                                       O(1) instead of an O(n) copy. *)
  mutable n_arenas : int;
  mutable tl_slot : int array;      (* thread id -> slot of its last-used
                                       arena, or -1; read on every malloc
                                       and free. Tids are small
                                       machine-wide counters, so this
                                       grows on demand. *)
  mutable meta_base : int;          (* descriptor region; -1 until mapped *)
  meta_phase : int;                 (* per-run layout phase, 0..31 *)
  max_arenas : int option;
  mutable arenas_reserved : int;    (* slots claimed, including in-flight
                                       creations that have not yet been
                                       appended — guards the cap across
                                       the time arena setup consumes *)
  arena_init_cycles : int;
  probe_cycles : int;  (* a scan's try of one other arena *)
  owns_cycles : int;  (* [free]'s ownership test of one arena *)
}

let descriptor_stride = 16

let main_descriptor = M.libc_data_address + 0x200

let make proc ?(costs = Costs.glibc) ?(params = Dlheap.default_params) ?max_arenas () =
  let stats = Astats.create () in
  let main_heap = Dlheap.create_main ~costs ~params ~stats in
  let machine = M.proc_machine proc in
  let main =
    { heap = main_heap;
      mutex = M.Mutex.create machine ~name:"arena-0" ~heap:true ();
      descriptor = main_descriptor;
      aindex = 0;
      slot = 0;
    }
  in
  stats.Astats.arenas_created <- 1;
  { proc;
    costs;
    params;
    stats;
    arenas = Array.make 4 main;  (* slots >= n_arenas are padding *)
    n_arenas = 1;
    tl_slot = Array.make 16 (-1);
    meta_base = -1;
    meta_phase = Rng.int (M.rng machine) 32;
    max_arenas;
    arenas_reserved = 1;
    arena_init_cycles = Costs.apply costs 2500;
    probe_cycles = Costs.apply costs costs.Costs.bin_probe;
    owns_cycles = Costs.apply costs 2;
  }

let arena_count t = t.n_arenas

(* Live prefix of the capacity array; for cold accessors only. *)
let live_arenas t = Array.sub t.arenas 0 t.n_arenas

(* Amortized-growth append: double the capacity when full. *)
let push_arena t arena =
  let cap = Array.length t.arenas in
  if t.n_arenas = cap then begin
    let narr = Array.make (2 * cap) arena in
    Array.blit t.arenas 0 narr 0 cap;
    t.arenas <- narr
  end;
  arena.slot <- t.n_arenas;
  t.arenas.(t.n_arenas) <- arena;
  t.n_arenas <- t.n_arenas + 1

let fold_arenas t f init =
  let acc = ref init in
  for i = 0 to t.n_arenas - 1 do
    acc := f !acc t.arenas.(i)
  done;
  !acc

(* Slot of the arena [tid] last used, or -1 if it has not allocated. *)
let last_slot t tid = if tid < Array.length t.tl_slot then t.tl_slot.(tid) else -1

let arena_of_thread t tid =
  match last_slot t tid with -1 -> None | s -> Some t.arenas.(s).aindex

let arena_live_chunks t =
  Array.to_list (Array.map (fun a -> Dlheap.live_chunks a.heap) (live_arenas t))

let arena_free_bytes t =
  Array.to_list (Array.map (fun a -> Dlheap.free_bytes a.heap) (live_arenas t))

let heap_bytes t =
  fold_arenas t
    (fun acc a ->
      let base, stop = Dlheap.segment_bounds a.heap in
      acc + (stop - base))
    0

(* Create a fresh arena, lock it, append it to the list, and return it
   with its mutex held. The lock is taken before the arena is published,
   as glibc's [_int_new_arena] does: [try_lock] charges its cycles before
   it looks at the owner, so an arena published first could be taken by
   another thread's scan during that charge. Its descriptor is packed at
   [meta_base + phase + 16 * (index - 1)], so two consecutively created
   arenas may share a cache line depending on the per-run phase — the
   Table 4 sloshing model. *)
let create_arena t ctx =
  (* Claim the slot before consuming any simulated time, or two threads
     could both pass the cap check while one is mid-creation. *)
  match t.max_arenas with
  | Some cap when t.arenas_reserved >= cap -> None
  | Some _ | None -> (
      let aindex = t.arenas_reserved in
      t.arenas_reserved <- aindex + 1;
      M.work ctx t.arena_init_cycles;
      if t.meta_base < 0 then begin
        match M.mmap ctx ~len:4096 with
        | Some base -> if t.meta_base < 0 then t.meta_base <- base
        | None -> Allocator.out_of_memory ~bytes:4096 "ptmalloc (arena metadata)"
      end;
      match Dlheap.create_sub ctx ~costs:t.costs ~params:t.params ~stats:t.stats with
      | None ->
          t.arenas_reserved <- t.arenas_reserved - 1;
          None
      | Some heap ->
          let arena =
            { heap;
              mutex =
                M.Mutex.create (M.proc_machine t.proc)
                  ~name:(Printf.sprintf "arena-%d" aindex) ~heap:true ();
              descriptor = t.meta_base + t.meta_phase + (descriptor_stride * (aindex - 1));
              aindex;
              slot = -1;
            }
          in
          let obs = M.ctx_obs ctx in
          if Mb_obs.Recorder.tracing obs then
            Mb_obs.Recorder.instant obs ~lane:(M.lane ctx)
              ~name:(Printf.sprintf "arena-create %d" aindex)
              ~ts_ns:(M.now ctx) ();
          (* [try_lock], not [lock]: [lock] draws from the fault
             injector's preempt-storm stream. Nothing else can see the
             mutex yet, so it cannot fail. *)
          let locked = M.Mutex.try_lock arena.mutex ctx in
          assert locked;
          push_arena t arena;
          Some arena)

(* The heart of ptmalloc: find an arena we can lock without waiting.
   Returns with the arena's mutex held. *)
let acquire_arena t ctx =
  let preferred = match last_slot t (M.tid ctx) with -1 -> t.arenas.(0) | s -> t.arenas.(s) in
  if M.Mutex.try_lock preferred.mutex ctx then preferred
  else begin
    t.stats.Astats.contended_ops <- t.stats.Astats.contended_ops + 1;
    let rec scan i =
      if i >= t.n_arenas then None
      else begin
        let a = t.arenas.(i) in
        if a != preferred then begin
          M.work ctx t.probe_cycles;
          if M.Mutex.try_lock a.mutex ctx then Some a else scan (i + 1)
        end
        else scan (i + 1)
      end
    in
    match scan 0 with
    | Some a -> a
    | None -> (
        match create_arena t ctx with
        | Some a -> a
        | None ->
            (* Cannot create more arenas (cap or exhaustion): wait for
               the preferred one. *)
            M.Mutex.lock preferred.mutex ctx;
            preferred)
  end

(* Record [arena] as the thread's last-used one; written only when it
   changes. *)
let remember t ctx arena =
  let tid = M.tid ctx in
  match last_slot t tid with
  | s when s = arena.slot -> ()
  | -1 ->
      let len = Array.length t.tl_slot in
      if tid >= len then begin
        let grown = Array.make (if tid < 2 * len then 2 * len else tid + 1) (-1) in
        Array.blit t.tl_slot 0 grown 0 len;
        t.tl_slot <- grown
      end;
      t.tl_slot.(tid) <- arena.slot
  | _ ->
      t.stats.Astats.arena_switches <- t.stats.Astats.arena_switches + 1;
      t.tl_slot.(tid) <- arena.slot

let rec malloc_with t ctx arena size attempts =
  M.write_mem ctx arena.descriptor;
  match Dlheap.malloc arena.heap ctx size with
  | 0 ->
      (* This arena's region is full: move to a fresh arena (bounded
         retries so address-space exhaustion terminates). *)
      M.Mutex.unlock arena.mutex ctx;
      if attempts >= 3 then Allocator.out_of_memory ~bytes:size "ptmalloc"
      else begin
        match create_arena t ctx with
        | Some fresh -> malloc_with t ctx fresh size (attempts + 1)
        | None -> Allocator.out_of_memory ~bytes:size "ptmalloc"
      end
  | user ->
      M.Mutex.unlock arena.mutex ctx;
      remember t ctx arena;
      user

let malloc t ctx size =
  let arena = acquire_arena t ctx in
  malloc_with t ctx arena size 0

(* Index of the first of arenas [i .. n-1] that owns [user], or -1,
   charging each arena probed. [n] is fixed when the scan starts, though
   the charges let other threads create arenas meanwhile. *)
let rec owning_arena t ctx user n i =
  if i >= n then -1
  else begin
    M.work ctx t.owns_cycles;
    if Dlheap.owns t.arenas.(i).heap user then i else owning_arena t ctx user n (i + 1)
  end

let free t ctx user =
  match owning_arena t ctx user t.n_arenas 0 with
  | -1 -> invalid_arg "ptmalloc.free: address not owned by any arena"
  | i ->
      let arena = t.arenas.(i) in
      (match last_slot t (M.tid ctx) with
      | -1 -> ()
      | s -> if s <> i then t.stats.Astats.foreign_frees <- t.stats.Astats.foreign_frees + 1);
      (* free must take the owning arena's lock and wait if necessary. *)
      if not (M.Mutex.try_lock arena.mutex ctx) then begin
        t.stats.Astats.contended_ops <- t.stats.Astats.contended_ops + 1;
        M.Mutex.lock arena.mutex ctx
      end;
      M.write_mem ctx arena.descriptor;
      Dlheap.free arena.heap ctx user;
      M.Mutex.unlock arena.mutex ctx

let usable_size t user =
  let rec scan i =
    if i >= t.n_arenas then invalid_arg "ptmalloc.usable_size: unknown address"
    else if Dlheap.owns t.arenas.(i).heap user then Dlheap.usable_size t.arenas.(i).heap user
    else scan (i + 1)
  in
  scan 0

let validate t =
  let rec check i =
    if i >= t.n_arenas then Ok ()
    else
      match Dlheap.validate t.arenas.(i).heap with
      | Ok () -> check (i + 1)
      | Error msg -> Error (Printf.sprintf "arena %d: %s" i msg)
  in
  check 0

(* --- mallopt / mallinfo (paper section 3: "an application can invoke
   mallopt(3) to enable some of these features") ------------------------ *)

type tunable =
  | Mmap_threshold of int
  | Trim_threshold of int
  | Top_pad of int
  | Fastbins of bool
  | Defer_coalescing of bool

let mallopt t tunable =
  let params =
    match tunable with
    | Mmap_threshold v ->
        if v <= 0 then invalid_arg "mallopt: M_MMAP_THRESHOLD <= 0";
        { t.params with Dlheap.mmap_threshold = v }
    | Trim_threshold v ->
        if v < 0 then invalid_arg "mallopt: M_TRIM_THRESHOLD < 0";
        { t.params with Dlheap.trim_threshold = v }
    | Top_pad v ->
        if v < 0 then invalid_arg "mallopt: M_TOP_PAD < 0";
        { t.params with Dlheap.top_pad = v }
    | Fastbins v -> { t.params with Dlheap.use_fastbins = v }
    | Defer_coalescing v -> { t.params with Dlheap.defer_coalescing = v }
  in
  t.params <- params;
  for i = 0 to t.n_arenas - 1 do
    Dlheap.set_params t.arenas.(i).heap params
  done

type mallinfo = {
  arena : int;      (* bytes of heap segments (brk extent + sub-heap use) *)
  narenas : int;
  hblks : int;      (* live direct-mmapped chunks *)
  hblkhd : int;     (* bytes in them *)
  uordblks : int;   (* bytes in allocated chunks *)
  fordblks : int;   (* bytes in free chunks, including tops *)
  keepcost : int;   (* main-arena top size (releasable via trim) *)
}

let mallinfo t =
  { arena = heap_bytes t;
    narenas = t.n_arenas;
    hblks = fold_arenas t (fun acc a -> acc + Dlheap.mmapped_count a.heap) 0;
    hblkhd = fold_arenas t (fun acc a -> acc + Dlheap.mmapped_bytes a.heap) 0;
    uordblks = fold_arenas t (fun acc a -> acc + Dlheap.used_bytes a.heap) 0;
    fordblks =
      fold_arenas t (fun acc a -> acc + Dlheap.free_bytes a.heap + Dlheap.top_bytes a.heap) 0;
    keepcost = Dlheap.top_bytes t.arenas.(0).heap;
  }

let allocator t =
  Allocator.instrument t.proc
  { Allocator.name = "ptmalloc";
    malloc = (fun ctx size -> malloc t ctx size);
    free = (fun ctx user -> free t ctx user);
    usable_size = (fun user -> usable_size t user);
    stats = t.stats;
    origins = Hashtbl.create 8;
    validate = (fun () -> validate t);
  }

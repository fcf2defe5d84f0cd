module M = Mb_machine.Machine

type t = {
  proc : M.proc;
  heap : Dlheap.t;
  mutex : M.Mutex.t;
  descriptor : int;  (* the allocator's hot lock word in libc data *)
  stats : Astats.t;
}

let make proc ?(costs = Costs.solaris) ?(params = Dlheap.default_params) () =
  let stats = Astats.create () in
  let heap = Dlheap.create_main ~costs ~params ~stats in
  stats.Astats.arenas_created <- 1;
  { proc;
    heap;
    mutex = M.Mutex.create (M.proc_machine proc) ~name:"malloc-lock" ~heap:true ();
    descriptor = M.libc_data_address + 0x100;
    stats;
  }

let with_lock t ctx f =
  if not (M.Mutex.try_lock t.mutex ctx) then begin
    t.stats.Astats.contended_ops <- t.stats.Astats.contended_ops + 1;
    M.Mutex.lock t.mutex ctx
  end;
  M.write_mem ctx t.descriptor;
  (* Exception-safe: an [Alloc_failure] escaping [f] must not leave the
     heap lock held, or the next malloc deadlocks the simulation. *)
  Fun.protect ~finally:(fun () -> M.Mutex.unlock t.mutex ctx) f

let malloc t ctx size =
  with_lock t ctx (fun () ->
      match Dlheap.malloc t.heap ctx size with
      | 0 -> Allocator.out_of_memory ~bytes:size "serial"
      | user -> user)

let free t ctx user = with_lock t ctx (fun () -> Dlheap.free t.heap ctx user)

let allocator t =
  Allocator.instrument t.proc
  { Allocator.name = "serial";
    malloc = (fun ctx size -> malloc t ctx size);
    free = (fun ctx user -> free t ctx user);
    usable_size = (fun user -> Dlheap.usable_size t.heap user);
    stats = t.stats;
    origins = Hashtbl.create 8;
    validate = (fun () -> Dlheap.validate t.heap);
  }

let lock_contentions t = M.Mutex.contentions t.mutex

let lock_acquisitions t = M.Mutex.acquisitions t.mutex

let heap t = t.heap

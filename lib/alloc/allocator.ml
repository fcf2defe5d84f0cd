module M = Mb_machine.Machine
module Check = Mb_check.Checker
module Fault = Mb_fault.Injector

type t = {
  name : string;
  malloc : M.ctx -> int -> int;
  free : M.ctx -> int -> unit;
  usable_size : int -> int;
  stats : Astats.t;
  validate : unit -> (unit, string) result;
  origins : (int, int) Hashtbl.t;
}

let out_of_memory ?(bytes = 0) who = raise (Fault.Alloc_failure { who; bytes })

let max_request = max_int / 2

(* Cost model for the derived entry points: a 1999-class CPU moves or
   clears roughly 8 bytes per cycle from/to cache. *)
let zero_cost_cycles bytes = (bytes + 7) / 8

let copy_cost_cycles bytes = (bytes + 7) / 8 * 2  (* load + store *)

let calloc t ctx ~count ~size =
  if count < 0 || size < 0 then invalid_arg "Allocator.calloc: negative";
  if size > 0 && count > max_int / size then invalid_arg "Allocator.calloc: overflow";
  let bytes = max 1 (count * size) in
  let user = t.malloc ctx bytes in
  M.work ctx (zero_cost_cycles bytes);
  M.touch_range ctx user ~len:bytes;
  user

let memalign t ctx ~alignment size =
  if alignment <= 0 || alignment land (alignment - 1) <> 0 then
    invalid_arg "Allocator.memalign: alignment not a power of two";
  let raw = t.malloc ctx (size + alignment) in
  let user = (raw + alignment - 1) / alignment * alignment in
  if user <> raw then Hashtbl.replace t.origins user raw;
  user

let free_aligned t ctx user =
  match Hashtbl.find_opt t.origins user with
  | Some raw ->
      Hashtbl.remove t.origins user;
      t.free ctx raw
  | None -> t.free ctx user

let realloc t ctx addr new_size =
  if new_size < 0 then invalid_arg "Allocator.realloc: negative size";
  if addr = 0 then if new_size = 0 then 0 else t.malloc ctx new_size
  else if new_size = 0 then begin
    free_aligned t ctx addr;
    0
  end
  else begin
    (* [addr] may be a memalign'd block: size and free the raw chunk it
       was carved from, not the aligned user address — the latter is not
       a chunk boundary and freeing it corrupts the simulated heap. *)
    let raw = match Hashtbl.find_opt t.origins addr with Some r -> r | None -> addr in
    let old_usable = t.usable_size raw - (addr - raw) in
    if old_usable >= new_size then addr  (* shrink or fitting growth: in place *)
    else begin
      let fresh = t.malloc ctx new_size in
      M.work ctx (copy_cost_cycles old_usable);
      M.touch_range ctx fresh ~len:old_usable;
      if raw <> addr then Hashtbl.remove t.origins addr;
      t.free ctx raw;
      fresh
    end
  end

(* Origins-aware free: a raw [free] of a memalign'd user address must
   release the chunk it was carved from, exactly as {!free_aligned}
   does — without this, workloads that mix memalign blocks into a plain
   free path corrupt the simulated heap. While the table is empty (no
   memalign'd block is live), the probe is skipped. *)
let free_routed t ctx user =
  if Hashtbl.length t.origins = 0 then t.free ctx user
  else
    match Hashtbl.find_opt t.origins user with
    | Some raw ->
        Hashtbl.remove t.origins user;
        t.free ctx raw
    | None -> t.free ctx user

(* [instrument]'s wrappers for a machine whose checker or injector is
   armed. *)
let armed_wrappers t =
  (* Retry-with-backoff under an armed fault plan: an [Alloc_failure]
     from the underlying allocator (a vetoed or genuinely exhausted
     reservation) backs off in {e simulated} time — so schedules stay
     deterministic — and retries up to [Fault.max_retries] times before
     letting the failure surface to the workload's degradation guard.
     With faults off this is the bare [t.malloc] call. *)
  let rec malloc_attempt fault ctx size i =
    match t.malloc ctx size with
    | user ->
        if i > 0 then Fault.note_survived fault;
        user
    | exception Fault.Alloc_failure _ when i < Fault.max_retries ->
        M.work_exact ctx (Fault.backoff_cycles i);
        malloc_attempt fault ctx size (i + 1)
  in
  let malloc_resilient ctx size =
    let fault = M.ctx_fault ctx in
    if not (Fault.armed fault) then t.malloc ctx size
    else malloc_attempt fault ctx size 0
  in
  let malloc ctx size =
    if size > max_request then out_of_memory ~bytes:size t.name;
    let chk = M.ctx_check ctx in
    if not (Check.armed chk) then malloc_resilient ctx size
    else begin
      let tid = M.tid ctx in
      (* Allocator-internal accesses (headers, arena metadata) migrate
         between locks by design; bracket them out of the detectors. *)
      Check.enter_runtime chk ~tid;
      let user =
        Fun.protect
          ~finally:(fun () -> Check.exit_runtime chk ~tid)
          (fun () -> malloc_resilient ctx size)
      in
      Check.on_alloc chk ~tid ~asid:(M.asid ctx) ~addr:user ~len:(t.usable_size user);
      user
    end
  in
  let free ctx user =
    let chk = M.ctx_check ctx in
    if not (Check.armed chk) then free_routed t ctx user
    else begin
      let tid = M.tid ctx in
      (* A double-free is recorded and suppressed (on_free returns
         false), the way a hardened allocator refuses: the run survives
         to report every finding instead of dying on the first. *)
      if Check.on_free chk ~tid ~asid:(M.asid ctx) ~addr:user then begin
        Check.enter_runtime chk ~tid;
        Fun.protect
          ~finally:(fun () -> Check.exit_runtime chk ~tid)
          (fun () -> free_routed t ctx user)
      end
    end
  in
  { t with malloc; free }

(* A machine's checker and injector are fixed when it is created, so
   with neither armed the wrappers would only ever take their unarmed
   branches: leave them out. *)
let instrument proc t =
  let m = M.proc_machine proc in
  if Check.armed (M.checker m) || Fault.armed (M.fault m) then armed_wrappers t
  else
    { t with
      malloc =
        (fun ctx size ->
          if size > max_request then out_of_memory ~bytes:size t.name;
          t.malloc ctx size);
      free = (fun ctx user -> free_routed t ctx user);
    }

module M = Mb_machine.Machine
module A = Mb_alloc.Allocator
module Rng = Mb_prng.Rng
module Fault = Mb_fault.Injector

type op =
  | Alloc of { slot : int; size : int }
  | Free of { slot : int }

type t = op array

let server_size_dist rng =
  let p = Rng.int rng 100 in
  if p < 70 then 40
  else if p < 90 then 16 + Rng.int rng 113
  else if p < 99 then 128 + Rng.int rng (2048 - 128)
  else 8192

type req_class = Read | Write | Update

let class_label = function Read -> "read" | Write -> "write" | Update -> "update"

(* Writes carry payloads: mostly medium buffers, a tail of full 8 KB
   blocks — the large end of the paper's size observation. *)
let write_size_dist rng =
  let p = Rng.int rng 100 in
  if p < 40 then 128 + Rng.int rng (1024 - 128)
  else if p < 85 then 1024 + Rng.int rng (4096 - 1024)
  else 8192

(* Updates mutate existing per-connection state in place: the 40-byte
   state record size dominates, plus small scratch strings. *)
let update_size_dist rng =
  let p = Rng.int rng 100 in
  if p < 60 then 40
  else if p < 95 then 16 + Rng.int rng 49
  else 256 + Rng.int rng 256

let generate ~rng ~ops ~slots ?(size_of = server_size_dist) () =
  if ops <= 0 || slots <= 0 then invalid_arg "Trace.generate: bad params";
  let full = Array.make slots false in
  let nfull = ref 0 in
  (* Track an empty and a full slot cheaply by rejection sampling; slot
     counts are small so this stays fast. *)
  let rec find_with state =
    let s = Rng.int rng slots in
    if full.(s) = state then s else find_with state
  in
  Array.init ops (fun _ ->
      let do_alloc =
        if !nfull = 0 then true else if !nfull = slots then false else Rng.bool rng
      in
      if do_alloc then begin
        let slot = find_with false in
        full.(slot) <- true;
        incr nfull;
        Alloc { slot; size = size_of rng }
      end
      else begin
        let slot = find_with true in
        full.(slot) <- false;
        decr nfull;
        Free { slot }
      end)

let validate t ~slots =
  let full = Array.make slots false in
  let bad = ref None in
  Array.iteri
    (fun i op ->
      if !bad = None then
        match op with
        | Alloc { slot; size } ->
            if slot < 0 || slot >= slots then bad := Some (Printf.sprintf "op %d: slot out of range" i)
            else if size <= 0 then bad := Some (Printf.sprintf "op %d: non-positive size" i)
            else if full.(slot) then bad := Some (Printf.sprintf "op %d: double alloc of slot %d" i slot)
            else full.(slot) <- true
        | Free { slot } ->
            if slot < 0 || slot >= slots then bad := Some (Printf.sprintf "op %d: slot out of range" i)
            else if not full.(slot) then bad := Some (Printf.sprintf "op %d: free of empty slot %d" i slot)
            else full.(slot) <- false)
    t;
  match !bad with Some msg -> Error msg | None -> Ok ()

let replay alloc ctx t ~slots =
  let fault = M.ctx_fault ctx in
  let degraded = ref 0 in
  let addrs = Array.make slots 0 in
  Array.iter
    (function
      | Alloc { slot; size } -> (
          match alloc.A.malloc ctx size with
          | user ->
              M.touch_range ctx user ~len:size;
              addrs.(slot) <- user
          | exception Fault.Alloc_failure _ ->
              Fault.note_degraded fault;
              incr degraded;
              addrs.(slot) <- 0)
      | Free { slot } ->
          (* The slot's alloc may itself have been skipped under faults. *)
          if addrs.(slot) <> 0 then alloc.A.free ctx addrs.(slot);
          addrs.(slot) <- 0)
    t;
  Array.iteri (fun slot addr -> if addr <> 0 then alloc.A.free ctx addrs.(slot)) addrs;
  !degraded

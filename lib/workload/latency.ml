module M = Mb_machine.Machine
module A = Mb_alloc.Allocator

type op = Malloc | Calloc | Realloc | Free

let op_label = function
  | Malloc -> "malloc"
  | Calloc -> "calloc"
  | Realloc -> "realloc"
  | Free -> "free"

type sample = { s_start : float; s_dur : float; s_op : op }

type probe = {
  mutable samples : sample list; (* newest first *)
  mutable n : int;
  (* Set while timing a derived op (calloc/realloc) as a whole, so the
     malloc/free calls it makes internally are not double-counted. *)
  mutable suppress : bool;
}

let record probe op t0 t1 =
  if not probe.suppress then begin
    probe.samples <- { s_start = t0; s_dur = t1 -. t0; s_op = op } :: probe.samples;
    probe.n <- probe.n + 1
  end

let wrap (inner : A.t) =
  let probe = { samples = []; n = 0; suppress = false } in
  let malloc ctx size =
    let t0 = M.now ctx in
    let user = inner.A.malloc ctx size in
    record probe Malloc t0 (M.now ctx);
    user
  in
  let free ctx addr =
    let t0 = M.now ctx in
    inner.A.free ctx addr;
    record probe Free t0 (M.now ctx)
  in
  (probe, { inner with A.name = inner.A.name ^ "+latency"; malloc; free })

(* Derived ops are timed end to end — the zeroing/copying cost is part
   of what the caller waits for — with the inner malloc/free records
   suppressed for the duration. The suppress flag must be cleared even
   when the allocation faults ([Alloc_failure] escapes to the caller). *)
let timed probe op ctx f =
  let t0 = M.now ctx in
  probe.suppress <- true;
  match f () with
  | user ->
      probe.suppress <- false;
      record probe op t0 (M.now ctx);
      user
  | exception e ->
      probe.suppress <- false;
      raise e

let calloc probe alloc ctx ~count ~size =
  timed probe Calloc ctx (fun () -> A.calloc alloc ctx ~count ~size)

let realloc probe alloc ctx addr new_size =
  timed probe Realloc ctx (fun () -> A.realloc alloc ctx addr new_size)

let samples probe = List.rev_map (fun s -> (s.s_start, s.s_dur)) probe.samples

let samples_by probe op =
  List.rev_map (fun s -> (s.s_start, s.s_dur))
    (List.filter (fun s -> s.s_op = op) probe.samples)

let count probe = probe.n

let ops = [ Malloc; Calloc; Realloc; Free ]

let windows probe ~window_ns =
  if window_ns <= 0. then invalid_arg "Latency.windows: window_ns <= 0";
  let table = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let w = int_of_float (s.s_start /. window_ns) in
      Hashtbl.replace table w (s.s_dur :: (try Hashtbl.find table w with Not_found -> [])))
    probe.samples;
  Hashtbl.fold (fun w ds acc -> (float_of_int w *. window_ns, Mb_stats.Summary.of_list ds) :: acc) table []
  |> List.sort compare

let drift probe ~window_ns =
  match windows probe ~window_ns with
  | [] -> invalid_arg "Latency.drift: no samples"
  | [ (_, only) ] -> ignore only; 1.0
  | (_, first) :: rest ->
      let _, last = List.nth rest (List.length rest - 1) in
      last.Mb_stats.Summary.mean /. first.Mb_stats.Summary.mean

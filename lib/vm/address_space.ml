module Int_map = Map.Make (Int)
module Int_table = Mb_sim.Int_table

type addr = int

exception Segfault of addr

type config = {
  page_size : int;
  brk_base : addr;
  brk_ceiling : addr;
  mmap_base : addr;
  mmap_top : addr;
}

type region_kind = Anon | Fixed

type region = { len : int; kind : region_kind }

type t = {
  config : config;
  mutable brk : addr;
  mutable anon_bytes : int;            (* total length of live Anon regions *)
  mutable regions : region Int_map.t;  (* keyed by region start address *)
  resident : unit Int_table.t;         (* page-index set: probed once per
                                          simulated page touch, so open
                                          addressing, not Hashtbl buckets *)
  mutable minor_faults : int;
  mutable sbrk_calls : int;
  mutable mmap_calls : int;
  mutable munmap_calls : int;
}

let linux_x86 =
  { page_size = 4096;
    brk_base = 0x0804_8000 + 0x0010_0000;  (* text+data below, heap above *)
    brk_ceiling = 0x4000_0000;             (* ld.so / shared libraries *)
    mmap_base = 0x4020_0000;               (* above the library maps *)
    mmap_top = 0xC000_0000;                (* 3 GB user space limit *)
  }

let create config =
  if config.page_size <= 0 then invalid_arg "Address_space.create: page_size";
  if config.brk_base >= config.brk_ceiling then invalid_arg "Address_space.create: brk range";
  if config.mmap_base >= config.mmap_top then invalid_arg "Address_space.create: mmap range";
  { config;
    brk = config.brk_base;
    anon_bytes = 0;
    regions = Int_map.empty;
    resident = Int_table.create ~initial:1024 ();
    minor_faults = 0;
    sbrk_calls = 0;
    mmap_calls = 0;
    munmap_calls = 0;
  }

let config t = t.config

let page_size t = t.config.page_size

let brk t = t.brk

let round_up_pages t len =
  let p = t.config.page_size in
  (len + p - 1) / p * p

(* Regions strictly below [hi] whose extent may overlap [lo, hi). *)
let overlaps t lo hi =
  (* Candidate 1: the region starting at or after lo but before hi. *)
  let starts_inside =
    match Int_map.find_first_opt (fun start -> start >= lo) t.regions with
    | Some (start, _) when start < hi -> true
    | _ -> false
  in
  if starts_inside then true
  else
    (* Candidate 2: the last region starting before lo may extend into it. *)
    match Int_map.find_last_opt (fun start -> start < lo) t.regions with
    | Some (start, r) -> start + r.len > lo
    | None -> false

let sbrk t delta =
  t.sbrk_calls <- t.sbrk_calls + 1;
  let old_brk = t.brk in
  let new_brk = old_brk + delta in
  if new_brk < t.config.brk_base then None
  else if new_brk > t.config.brk_ceiling then None
  else if delta > 0 && overlaps t old_brk new_brk then None
  else begin
    t.brk <- new_brk;
    if delta < 0 then begin
      (* Shrinking releases residency of the vacated pages. *)
      let p = t.config.page_size in
      let first = (new_brk + p - 1) / p and last = (old_brk + p - 1) / p in
      for page = first to last - 1 do
        Int_table.remove t.resident page
      done
    end;
    Some old_brk
  end

let find_gap t len =
  (* First-fit scan of the mmap zone. Regions are sorted by start, so we
     walk them in order tracking the end of the previous one. *)
  let cfg = t.config in
  let result = ref None in
  let cursor = ref cfg.mmap_base in
  (try
     Int_map.iter
       (fun start r ->
         let stop = start + r.len in
         if start >= cfg.mmap_top then raise Exit;
         if stop <= !cursor then ()
         else if start >= !cursor + len && !cursor + len <= cfg.mmap_top then begin
           result := Some !cursor;
           raise Exit
         end
         else cursor := max !cursor stop)
       t.regions
   with Exit -> ());
  match !result with
  | Some _ as found -> found
  | None ->
      if !cursor >= cfg.mmap_base && !cursor + len <= cfg.mmap_top then Some !cursor else None

let mmap t ~len =
  t.mmap_calls <- t.mmap_calls + 1;
  if len <= 0 then invalid_arg "Address_space.mmap: len <= 0";
  let len = round_up_pages t len in
  match find_gap t len with
  | None -> None
  | Some start ->
      t.regions <- Int_map.add start { len; kind = Anon } t.regions;
      t.anon_bytes <- t.anon_bytes + len;
      Some start

let munmap t addr ~len =
  t.munmap_calls <- t.munmap_calls + 1;
  let len = round_up_pages t len in
  (match Int_map.find_opt addr t.regions with
  | Some r when r.kind = Anon && r.len = len -> ()
  | Some _ -> invalid_arg "Address_space.munmap: length or kind mismatch"
  | None -> invalid_arg "Address_space.munmap: no mapping at address");
  t.regions <- Int_map.remove addr t.regions;
  t.anon_bytes <- t.anon_bytes - len;
  let p = t.config.page_size in
  for page = addr / p to (addr + len - 1) / p do
    Int_table.remove t.resident page
  done

let map_fixed t addr ~len =
  if len <= 0 then invalid_arg "Address_space.map_fixed: len <= 0";
  let len = round_up_pages t len in
  if overlaps t addr (addr + len) then invalid_arg "Address_space.map_fixed: overlap";
  t.regions <- Int_map.add addr { len; kind = Fixed } t.regions

let is_mapped t addr =
  (addr >= t.config.brk_base && addr < t.brk)
  ||
  match Int_map.find_last_opt (fun start -> start <= addr) t.regions with
  | Some (start, r) -> addr < start + r.len
  | None -> false

(* Page walk for [touch], as a top-level function (a local [rec] would
   be a closure allocation per call, and touch runs on every simulated
   memory access). *)
let rec touch_pages t addr p last page faults =
  if page > last then faults
  else if Int_table.mem t.resident page then touch_pages t addr p last (page + 1) faults
  else begin
    (* Check the first unmapped byte of the page range we access. *)
    let probe = if addr > page * p then addr else page * p in
    if not (is_mapped t probe) then raise (Segfault probe);
    Int_table.set t.resident page ();
    t.minor_faults <- t.minor_faults + 1;
    touch_pages t addr p last (page + 1) (faults + 1)
  end

let touch t addr ~len =
  if len <= 0 then invalid_arg "Address_space.touch: len <= 0";
  let p = t.config.page_size in
  let first = addr / p in
  let last = (addr + len - 1) / p in
  (* Fast path: the access stays on one already-resident page — the
     overwhelmingly common case once a benchmark's working set is warm. *)
  if first = last && Int_table.mem t.resident first then 0
  else touch_pages t addr p last first 0

let minor_faults t = t.minor_faults

let resident_pages t = Int_table.length t.resident

let mapped_bytes t =
  let region_bytes = Int_map.fold (fun _ r acc -> acc + r.len) t.regions 0 in
  region_bytes + (t.brk - t.config.brk_base)

let dynamic_bytes t = (t.brk - t.config.brk_base) + t.anon_bytes

let sbrk_calls t = t.sbrk_calls

let mmap_calls t = t.mmap_calls

let munmap_calls t = t.munmap_calls

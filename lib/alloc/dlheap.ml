module M = Mb_machine.Machine
module Int_table = Mb_sim.Int_table

type params = {
  mmap_threshold : int;
  trim_threshold : int;
  top_pad : int;
  sub_heap_bytes : int;
  use_fastbins : bool;
  defer_coalescing : bool;
  mmap_fallback : bool;
}

let default_params =
  { mmap_threshold = 32 * 4096;
    trim_threshold = 128 * 1024;
    top_pad = 4096;
    sub_heap_bytes = 1024 * 1024;
    use_fastbins = false;
    defer_coalescing = false;
    mmap_fallback = true;
  }

let header_bytes = 8

let min_chunk_bytes = 16

let align = 8

(* A chunk is bookkeeping for [size] bytes at [addr]; user data starts at
   [addr + header_bytes]. [prev_size] is the boundary tag: the size of the
   chunk immediately below in the segment (0 at the segment base). Free
   chunks are linked into their bin through [fd]/[bk], and a list ends
   at [nil]. When a chunk merges into a neighbour or into top, its record
   goes on the heap's spare list (linked through [fd]) and backs the
   next chunk carved or split off, so steady-state malloc/free allocates
   no records. *)
type chunk = {
  mutable addr : int;
  mutable size : int;
  mutable is_free : bool;
  mutable prev_size : int;
  mutable fd : chunk;
  mutable bk : chunk;
  mutable bin : int;  (* -1 when not binned *)
  mutable in_fastbin : bool;
}

(* The list terminator of every heap, compared with [==]. Never written:
   simulations running on other domains read it too. *)
let rec nil =
  { addr = -1; size = 0; is_free = false; prev_size = 0; fd = nil; bk = nil; bin = -1; in_fastbin = false }

(* The wilderness chunk; kept out of the bins and the chunk table. *)
type top = { mutable taddr : int; mutable tsize : int; mutable tprev_size : int }

type kind =
  | Main                                      (* grows at the process break *)
  | Sub of { region_base : int; region_len : int; mutable sub_brk : int }

type t = {
  proc : M.proc;
  costs : Costs.t;
  (* [costs] scaled once, at creation: a heap's costs never change. *)
  malloc_cost : int;
  free_cost : int;
  split_cost : int;
  coalesce_cost : int;
  deferred_free_cost : int;
  fastbin_cost : int;
  mutable params : params;
  stats : Astats.t;
  kind : kind;
  bins : chunk array;
  mutable binmap_small : int;  (* bit i set iff bins.(i) is non-empty, for
                                  the 62 exact-spacing small bins — the
                                  first-fit scan is a ctz instead of a
                                  walk over empty slots *)
  mutable binmap_large : int;  (* same, bit (i - 62) for bins 62..95 *)
  fastbins : chunk array;                     (* glibc-2.3-style no-coalesce caches, opt-in *)
  chunks : chunk Int_table.t;                 (* every non-top chunk, by addr;
                                                 probed on every free and
                                                 coalesce, so open addressing *)
  mm_chunks : int Int_table.t;                (* direct-mmapped: chunk addr -> mapped len *)
  top : top;
  mutable seg_base : int;                     (* -1 until the first growth *)
  mutable initialized : bool;
  mutable spare : chunk;                      (* retired records, linked through [fd] *)
  mutable probes : int;                       (* list nodes the last [search_bins] examined *)
}

let nbins = 96

let small_limit = 512

(* Bins [idx .. idx+3] cover [lo, 2*lo) in four steps of [width]; clamp
   at the catch-all last bin (giant coalesced regions). Top level: a
   local [rec] closing over [size] would allocate on every large malloc. *)
let rec large_bin_index size idx lo width =
  if idx >= nbins - 1 then nbins - 1
  else begin
    let doubling_end = 2 * lo in
    if size < doubling_end then begin
      let i = idx + ((size - lo) / width) in
      if i < nbins - 1 then i else nbins - 1
    end
    else large_bin_index size (idx + 4) doubling_end (width * 2)
  end

(* Small bins: exact 8-byte spacing for chunk sizes 16..511 -> indexes
   0..61. Large bins: four per size doubling, dlmalloc style. *)
let bin_index size =
  if size < small_limit then (size - min_chunk_bytes) / align
  else large_bin_index size 62 small_limit (small_limit / 4)

let is_small size = size < small_limit

let small_bin_count = (small_limit - min_chunk_bytes) / align  (* bins 0..61 *)

(* Fastbins: chunk sizes 16..80, 8-byte spacing (glibc 2.3's fast path,
   modelled here as the opt-in evolution the ablate-fastbins bench
   studies). Fastbin chunks stay marked in use so neighbours never
   coalesce with them; consolidation happens in bulk when the heap must
   otherwise grow. *)
let fastbin_limit = 80

let nfastbins = ((fastbin_limit - min_chunk_bytes) / align) + 1

let fastbin_index size = (size - min_chunk_bytes) / align

let fastbin_cycles = 85

let chunk_size_for request =
  let c = (request + header_bytes + align - 1) / align * align in
  if c > min_chunk_bytes then c else min_chunk_bytes

(* A main heap's segment starts at its first growth; a sub-heap's at
   its region. *)
let make proc ~costs ~params ~stats kind =
  let base = match kind with Main -> -1 | Sub s -> s.region_base in
  { proc;
    costs;
    malloc_cost = Costs.apply costs costs.Costs.malloc_base;
    free_cost = Costs.apply costs costs.Costs.free_base;
    split_cost = Costs.apply costs costs.Costs.split;
    coalesce_cost = Costs.apply costs costs.Costs.coalesce;
    deferred_free_cost = Costs.apply costs costs.Costs.deferred_free;
    fastbin_cost = Costs.apply costs fastbin_cycles;
    params;
    stats;
    kind;
    bins = Array.make nbins nil;
    binmap_small = 0;
    binmap_large = 0;
    fastbins = Array.make nfastbins nil;
    chunks = Int_table.create ~initial:256 ();
    mm_chunks = Int_table.create ~initial:16 ();
    top = { taddr = (if base < 0 then 0 else base); tsize = 0; tprev_size = 0 };
    seg_base = base;
    initialized = base >= 0;
    spare = nil;
    probes = 0;
  }

let create_main proc ~costs ~params ~stats = make proc ~costs ~params ~stats Main

let create_sub ctx ~costs ~params ~stats =
  match M.mmap ctx ~len:params.sub_heap_bytes with
  | None -> None
  | Some region_base ->
      let kind = Sub { region_base; region_len = params.sub_heap_bytes; sub_brk = region_base } in
      let t = make (M.proc ctx) ~costs ~params ~stats kind in
      stats.Astats.arenas_created <- stats.Astats.arenas_created + 1;
      Some t

(* --- bin list management ------------------------------------------------ *)

(* Occupancy bitmap over the bins, split small/large because 96 bins
   exceed one OCaml int. Maintained at the only two places a bin's
   emptiness can change ([bin_insert], [unlink]); [search_bins] reads
   it so a first-fit scan never visits an empty slot. *)

let binmap_set t idx =
  if idx < small_bin_count then t.binmap_small <- t.binmap_small lor (1 lsl idx)
  else t.binmap_large <- t.binmap_large lor (1 lsl (idx - small_bin_count))

let binmap_clear_if_empty t idx =
  if t.bins.(idx) == nil then
    if idx < small_bin_count then t.binmap_small <- t.binmap_small land lnot (1 lsl idx)
    else t.binmap_large <- t.binmap_large land lnot (1 lsl (idx - small_bin_count))

(* Count trailing zeros of a non-zero word (62 bits used at most). *)
let ctz v =
  let n = ref 0 and v = ref v in
  if !v land 0xFFFFFFFF = 0 then begin n := 32; v := !v lsr 32 end;
  if !v land 0xFFFF = 0 then begin n := !n + 16; v := !v lsr 16 end;
  if !v land 0xFF = 0 then begin n := !n + 8; v := !v lsr 8 end;
  if !v land 0xF = 0 then begin n := !n + 4; v := !v lsr 4 end;
  if !v land 0x3 = 0 then begin n := !n + 2; v := !v lsr 2 end;
  if !v land 0x1 = 0 then incr n;
  !n

let unlink t c =
  let idx = c.bin in
  let f = c.fd and b = c.bk in
  if b == nil then t.bins.(idx) <- f else b.fd <- f;
  if f != nil then f.bk <- b;
  c.fd <- nil;
  c.bk <- nil;
  c.bin <- -1;
  binmap_clear_if_empty t idx

(* Link [c] in front of the first node of large bin [idx] at least as big
   as it, walking from [cur] with [prev] behind; returns [probes] plus
   the nodes passed. *)
let rec insert_sorted t idx c probes prev cur =
  if cur != nil && cur.size < c.size then insert_sorted t idx c (probes + 1) cur cur.fd
  else begin
    c.fd <- cur;
    c.bk <- prev;
    if cur != nil then cur.bk <- c;
    if prev != nil then prev.fd <- c else t.bins.(idx) <- c;
    probes
  end

(* Insert into its bin: small bins are LIFO; large bins are kept sorted
   ascending by size so the first fitting chunk is the best fit. Returns
   the number of list nodes examined (charged by the caller). *)
let bin_insert t c =
  let idx = bin_index c.size in
  c.bin <- idx;
  binmap_set t idx;
  if is_small c.size then begin
    let head = t.bins.(idx) in
    if head != nil then head.bk <- c;
    c.fd <- head;
    t.bins.(idx) <- c;
    1
  end
  else insert_sorted t idx c 1 nil t.bins.(idx)

(* --- boundary-tag helpers ---------------------------------------------- *)

let top_end t = t.top.taddr + t.top.tsize

(* Record that the chunk starting at [addr] now follows one of [size]
   bytes. [addr] may be the top chunk or beyond the segment end. *)
let set_prev_size t addr size =
  if addr = t.top.taddr then t.top.tprev_size <- size
  else
    match Int_table.find_exn t.chunks addr with
    | c -> c.prev_size <- size
    | exception Not_found -> ()  (* beyond the segment end *)

let prev_chunk t c =
  if c.prev_size = 0 then nil
  else match Int_table.find_exn t.chunks (c.addr - c.prev_size) with p -> p | exception Not_found -> nil

(* --- chunk records ------------------------------------------------------- *)

(* A record for a chunk entering the chunk table: a retired one if the
   spare list has any. *)
let chunk_record t ~addr ~size ~prev_size ~is_free =
  let c = t.spare in
  if c == nil then { addr; size; is_free; prev_size; fd = nil; bk = nil; bin = -1; in_fastbin = false }
  else begin
    t.spare <- c.fd;
    c.addr <- addr;
    c.size <- size;
    c.is_free <- is_free;
    c.prev_size <- prev_size;
    c.fd <- nil;
    c
  end

(* Drop an unbinned chunk that merged into a neighbour or into top from
   the chunk table and keep its record. Clearing [is_free] (its [bin] is
   already -1) is what lets a [consolidate_deferred] pass skip a chunk
   an earlier merge of the same pass absorbed. *)
let retire t c =
  Int_table.remove t.chunks c.addr;
  c.is_free <- false;
  c.fd <- t.spare;
  t.spare <- c

(* --- growth -------------------------------------------------------------- *)

(* Extend the top chunk by at least [need] bytes; false when this heap's
   backing cannot grow further. *)
let grow_top t ctx need =
  match t.kind with
  | Main -> begin
      let request = (need + t.params.top_pad + 4095) / 4096 * 4096 in
      match M.sbrk ctx request with
      | Some base ->
          if not t.initialized then begin
            t.seg_base <- base;
            t.top.taddr <- base;
            t.top.tsize <- 0;
            t.initialized <- true
          end;
          (* sbrk growth is contiguous with the previous break. *)
          t.top.tsize <- t.top.tsize + request;
          true
      | None ->
          t.stats.Astats.grow_failures <- t.stats.Astats.grow_failures + 1;
          false
    end
  | Sub s ->
      let limit = s.region_base + s.region_len in
      let request = min (limit - s.sub_brk) (max need t.params.top_pad) in
      if request < need then begin
        t.stats.Astats.grow_failures <- t.stats.Astats.grow_failures + 1;
        false
      end
      else begin
        s.sub_brk <- s.sub_brk + request;
        t.top.tsize <- t.top.tsize + request;
        true
      end

(* Give back an oversized main-heap top via a negative sbrk; sub-heaps
   keep their reservation (as early ptmalloc did). *)
let maybe_trim t ctx =
  match t.kind with
  | Sub _ -> ()
  | Main ->
      if t.initialized && t.top.tsize > t.params.trim_threshold then begin
        let keep = t.params.top_pad in
        let release = (t.top.tsize - keep) / 4096 * 4096 in
        if release > 0 then
          match M.sbrk ctx (-release) with
          | Some _ -> t.top.tsize <- t.top.tsize - release
          | None -> ()
      end

(* --- malloc -------------------------------------------------------------- *)

let charge_probes t ctx probes = if probes > 0 then M.work ctx (Costs.apply t.costs (t.costs.Costs.bin_probe * probes))

(* Split [size] bytes off the front of a free (unlinked) chunk; the
   remainder goes back to a bin. *)
let split_chunk t ctx c size =
  let rem_size = c.size - size in
  if rem_size >= min_chunk_bytes then begin
    let rem = chunk_record t ~addr:(c.addr + size) ~size:rem_size ~prev_size:size ~is_free:true in
    c.size <- size;
    Int_table.set t.chunks rem.addr rem;
    set_prev_size t (rem.addr + rem.size) rem.size;
    let probes = bin_insert t rem in
    M.work ctx t.split_cost;
    charge_probes t ctx probes;
    M.write_mem ctx rem.addr
  end

(* Take [size] bytes from the bottom of the wilderness; returns the user
   address. Accounting convention, here and in every malloc path:
   live/requested bytes are counted as usable bytes (chunk size minus
   header) on both malloc and free, so the two sides always balance. *)
let carve_top t ctx size =
  let addr = t.top.taddr in
  let c = chunk_record t ~addr ~size ~prev_size:t.top.tprev_size ~is_free:false in
  t.top.taddr <- addr + size;
  t.top.tsize <- t.top.tsize - size;
  t.top.tprev_size <- size;
  Int_table.set t.chunks addr c;
  M.write_mem ctx addr;
  Astats.record_malloc t.stats (size - header_bytes);
  addr + header_bytes

let malloc_mmapped t ctx csize =
  let len = (csize + 4095) / 4096 * 4096 in
  match M.mmap ctx ~len with
  | None -> 0
  | Some addr ->
      Int_table.set t.mm_chunks addr len;
      t.stats.Astats.mmapped_chunks <- t.stats.Astats.mmapped_chunks + 1;
      M.write_mem ctx addr;
      Astats.record_malloc t.stats (len - header_bytes);
      addr + header_bytes

(* Coalesce a newly freed chunk with its neighbours and bin it (or merge
   it into the wilderness). [c.is_free] must already be set. *)
let coalesce_and_bin t ctx c =
  (* Coalesce backward. *)
  let p = prev_chunk t c in
  let c =
    if p != nil && p.is_free then begin
      unlink t p;
      retire t c;
      p.size <- p.size + c.size;
      set_prev_size t (p.addr + p.size) p.size;
      M.work ctx t.coalesce_cost;
      M.write_mem ctx p.addr;
      p
    end
    else c
  in
  (* Coalesce forward, possibly into the wilderness. *)
  let next_addr = c.addr + c.size in
  if next_addr = t.top.taddr then begin
    retire t c;
    t.top.taddr <- c.addr;
    t.top.tsize <- t.top.tsize + c.size;
    t.top.tprev_size <- c.prev_size;
    M.work ctx t.coalesce_cost;
    M.write_mem ctx c.addr;
    maybe_trim t ctx
  end
  else begin
    (match Int_table.find_exn t.chunks next_addr with
    | n when n.is_free ->
        unlink t n;
        retire t n;
        c.size <- c.size + n.size;
        set_prev_size t (c.addr + c.size) c.size;
        M.work ctx t.coalesce_cost
    | _ | (exception Not_found) -> ());
    let probes = bin_insert t c in
    charge_probes t ctx probes;
    M.write_mem ctx c.addr
  end

(* Merge every binned free chunk with its free neighbours — the bulk
   companion to [defer_coalescing]: frees skip the merge work, and this
   pass performs it wholesale when the heap would otherwise grow.
   Returns the number of chunks that went through the coalescing path.
   Chunks absorbed by an earlier merge in the same pass are recognized
   by their cleared bin tag and skipped; their records stay on the spare
   list until the pass ends, because coalescing carves no new chunk. *)
let consolidate_deferred t ctx =
  let pending = ref [] in
  for i = nbins - 1 downto 0 do
    let node = ref t.bins.(i) in
    while !node != nil do
      pending := !node :: !pending;
      node := !node.fd
    done
  done;
  let merged = ref 0 in
  List.iter
    (fun c ->
      if c.is_free && c.bin >= 0 then begin
        incr merged;
        unlink t c;
        coalesce_and_bin t ctx c
      end)
    !pending;
  t.stats.Astats.consolidations <- t.stats.Astats.consolidations + 1;
  !merged

(* Drain every fastbin through the normal coalescing path — what glibc's
   malloc_consolidate does before growing the heap. Returns the number
   of chunks consolidated. *)
let consolidate_fastbins t ctx =
  let drained = ref 0 in
  for i = 0 to nfastbins - 1 do
    (* Fastbin chunks stay marked in use, so coalescing one never absorbs
       the rest of its list. *)
    let node = ref t.fastbins.(i) in
    while !node != nil do
      let c = !node in
      node := c.fd;
      c.fd <- nil;
      c.in_fastbin <- false;
      c.is_free <- true;
      incr drained;
      coalesce_and_bin t ctx c
    done;
    t.fastbins.(i) <- nil
  done;
  !drained

(* Walk a sorted large bin from [c] for the first chunk of at least
   [csize], counting each node examined in [t.probes]. *)
let rec walk_large t csize c =
  if c == nil then nil
  else begin
    t.probes <- t.probes + 1;
    if c.size >= csize then c else walk_large t csize c.fd
  end

(* Visit the occupied large bins in [bits] in ascending order; each
   costs a probe for the bin plus one per node walked. *)
let rec scan_large t csize bits =
  if bits = 0 then nil
  else begin
    t.probes <- t.probes + 1;
    let c = walk_large t csize t.bins.(small_bin_count + ctz bits) in
    if c != nil then c else scan_large t csize (bits land (bits - 1))
  end

(* Scan bins at [idx] and above for the first chunk of at least [csize],
   or [nil]; the nodes examined are left in [t.probes]. Large bins are
   sorted so the first fit within a bin is best. The occupancy bitmaps
   drive the scan, so only non-empty bins are visited — exactly the bins
   the plain walk charged probes for, so the simulated cost (and the
   chunk chosen) is identical to a linear scan. *)
let search_bins t idx csize =
  t.probes <- 0;
  let small_bits = if idx < small_bin_count then t.binmap_small land ((-1) lsl idx) else 0 in
  let head = if small_bits = 0 then nil else t.bins.(ctz small_bits) in
  if head != nil then t.probes <- 1;
  (* Exact-spacing bin: the head always fits if the bin is right. *)
  if head != nil && head.size >= csize then head
  else begin
    let start = if idx < small_bin_count then 0 else idx - small_bin_count in
    scan_large t csize (t.binmap_large land ((-1) lsl start))
  end

(* Serve [csize] bytes from a chunk [search_bins] found. *)
let take_binned t ctx c csize =
  unlink t c;
  c.is_free <- false;
  split_chunk t ctx c csize;
  M.write_mem ctx c.addr;
  Astats.record_malloc t.stats (c.size - header_bytes);
  c.addr + header_bytes

let malloc t ctx request =
  if request <= 0 then invalid_arg "Dlheap.malloc: size <= 0";
  if request > Allocator.max_request then invalid_arg "Dlheap.malloc: size > Allocator.max_request";
  let csize = chunk_size_for request in
  if t.params.use_fastbins && csize <= fastbin_limit && t.fastbins.(fastbin_index csize) != nil
  then begin
    (* glibc fast path: exact-size LIFO pop, no unlink or split work —
       charged instead of, not on top of, the regular malloc path. *)
    let idx = fastbin_index csize in
    let c = t.fastbins.(idx) in
    t.fastbins.(idx) <- c.fd;
    c.fd <- nil;
    c.in_fastbin <- false;
    M.work ctx t.fastbin_cost;
    M.write_mem ctx c.addr;
    Astats.record_malloc t.stats (c.size - header_bytes);
    c.addr + header_bytes
  end
  else if csize >= t.params.mmap_threshold then begin
    M.work ctx t.malloc_cost;
    malloc_mmapped t ctx csize
  end
  else begin
    M.work ctx t.malloc_cost;
    let idx = bin_index csize in
    let c = search_bins t idx csize in
    charge_probes t ctx t.probes;
    (* Failing a binned fit, use the wilderness, growing it if needed. *)
    if c != nil then take_binned t ctx c csize
    else if t.top.tsize >= csize + min_chunk_bytes then carve_top t ctx csize
    else if
      (t.params.use_fastbins && consolidate_fastbins t ctx > 0)
      || (t.params.defer_coalescing && consolidate_deferred t ctx > 0)
    then begin
      (* glibc consolidates the fastbins (and, with coalescing deferred,
         the binned free chunks) before growing the heap; retry the bins
         with the coalesced chunks available. *)
      let c = search_bins t idx csize in
      charge_probes t ctx t.probes;
      if c != nil then take_binned t ctx c csize
      else if t.top.tsize >= csize + min_chunk_bytes || grow_top t ctx (csize + min_chunk_bytes)
      then carve_top t ctx csize
      else match t.kind with Main -> malloc_mmapped t ctx csize | Sub _ -> 0
    end
    else if grow_top t ctx (csize + min_chunk_bytes) then carve_top t ctx csize
    else
      match t.kind with
      | Main when t.params.mmap_fallback ->
          (* The brk hit a mapping: fall back to mmap for this request,
             as glibc does after 2.1.3. *)
          malloc_mmapped t ctx csize
      | Main | Sub _ -> 0
  end

(* --- free ---------------------------------------------------------------- *)

let free t ctx user =
  let caddr = user - header_bytes in
  if Int_table.mem t.mm_chunks caddr then begin
    M.work ctx t.free_cost;
    let len = Int_table.find_exn t.mm_chunks caddr in
    Int_table.remove t.mm_chunks caddr;
    M.munmap ctx caddr ~len;
    Astats.record_free t.stats (len - header_bytes)
  end
  else begin
    let c =
      match Int_table.find_exn t.chunks caddr with
      | c -> c
      | exception Not_found -> invalid_arg "Dlheap.free: address not owned by this heap"
    in
    if c.is_free then invalid_arg "Dlheap.free: double free";
    if c.in_fastbin then invalid_arg "Dlheap.free: double free (fastbin)";
    M.read_mem ctx c.addr;
    Astats.record_free t.stats (c.size - header_bytes);
    if t.params.use_fastbins && c.size <= fastbin_limit then begin
      (* Fast path: no coalescing, the chunk stays marked in use. *)
      M.work ctx t.fastbin_cost;
      let idx = fastbin_index c.size in
      c.in_fastbin <- true;
      c.fd <- t.fastbins.(idx);
      t.fastbins.(idx) <- c;
      M.write_mem ctx c.addr
    end
    else if t.params.defer_coalescing && is_small c.size then begin
      (* Deferred coalescing: tag the chunk free and LIFO-push it into
         its exact-spacing bin, leaving the neighbour merges to a bulk
         [consolidate_deferred] pass when the heap would otherwise
         grow. The next request of its size takes it straight back
         from the bin. *)
      M.work ctx t.deferred_free_cost;
      t.stats.Astats.deferred_frees <- t.stats.Astats.deferred_frees + 1;
      c.is_free <- true;
      let probes = bin_insert t c in
      charge_probes t ctx probes;
      M.write_mem ctx c.addr
    end
    else begin
      M.work ctx t.free_cost;
      c.is_free <- true;
      coalesce_and_bin t ctx c
    end
  end

(* --- queries -------------------------------------------------------------- *)

let owns t user =
  let caddr = user - header_bytes in
  if Int_table.mem t.mm_chunks caddr then true
  else
    match t.kind with
    | Main -> t.initialized && caddr >= t.seg_base && caddr < top_end t
    | Sub s -> caddr >= s.region_base && caddr < s.region_base + s.region_len

let usable_size t user =
  let caddr = user - header_bytes in
  if Int_table.mem t.mm_chunks caddr then Int_table.find_exn t.mm_chunks caddr - header_bytes
  else
    match Int_table.find_exn t.chunks caddr with
    | c -> c.size - header_bytes
    | exception Not_found -> invalid_arg "Dlheap.usable_size: unknown address"

let is_sub t = match t.kind with Main -> false | Sub _ -> true

let segment_bounds t = if t.initialized then (t.seg_base, top_end t) else (0, 0)

let top_bytes t = t.top.tsize

let free_bytes t =
  Int_table.fold (fun _ c acc -> if c.is_free then acc + c.size else acc) t.chunks 0

let live_chunks t =
  Int_table.fold (fun _ c acc -> if c.is_free then acc else acc + 1) t.chunks 0

let used_bytes t =
  Int_table.fold (fun _ c acc -> if c.is_free then acc else acc + c.size) t.chunks 0

let mmapped_bytes t = Int_table.fold (fun _ len acc -> acc + len) t.mm_chunks 0

let mmapped_count t = Int_table.length t.mm_chunks

let set_params t params = t.params <- params

let rec list_length c n = if c == nil then n else list_length c.fd (n + 1)

let fastbin_chunks t = Array.fold_left (fun n head -> list_length head n) 0 t.fastbins

let consolidate = consolidate_fastbins

let params t = t.params

(* --- validation ------------------------------------------------------------ *)

let validate t =
  let fail fmt = Printf.ksprintf (fun msg -> Error msg) fmt in
  let check_segment () =
    if not t.initialized then Ok ()
    else begin
      let rec walk addr prev_size prev_free =
        if addr = t.top.taddr then
          if t.top.tprev_size <> prev_size then
            fail "top.prev_size=%d but previous chunk has size %d" t.top.tprev_size prev_size
          else Ok ()
        else if addr > t.top.taddr then fail "chunk walk overshot top at 0x%x" addr
        else
          match Int_table.find_exn t.chunks addr with
          | exception Not_found -> fail "segment hole at 0x%x" addr
          | c ->
              if c.size < min_chunk_bytes then fail "undersized chunk at 0x%x" addr
              else if c.size mod align <> 0 then fail "misaligned size at 0x%x" addr
              else if c.prev_size <> prev_size then
                fail "bad boundary tag at 0x%x: prev_size=%d, actual=%d" addr c.prev_size prev_size
              else if c.is_free && prev_free && not t.params.defer_coalescing then
                fail "adjacent free chunks at 0x%x" addr
              else if c.is_free && c.bin < 0 then fail "free chunk at 0x%x not in a bin" addr
              else if (not c.is_free) && c.bin >= 0 then fail "live chunk at 0x%x still binned" addr
              else walk (addr + c.size) c.size c.is_free
      in
      walk t.seg_base 0 false
    end
  in
  let check_bins () =
    let rec check_bin idx =
      if idx >= nbins then Ok ()
      else begin
        let rec walk prev c last_size =
          if c == nil then Ok ()
          else if not c.is_free then fail "bin %d holds live chunk 0x%x" idx c.addr
          else if c.bin <> idx then fail "chunk 0x%x in bin %d but tagged %d" c.addr idx c.bin
          else if bin_index c.size <> idx then
            fail "chunk 0x%x (size %d) misfiled in bin %d" c.addr c.size idx
          else if c.bk != prev then fail "broken back link at 0x%x in bin %d" c.addr idx
          else if (not (is_small c.size)) && c.size < last_size then
            fail "large bin %d unsorted at 0x%x" idx c.addr
          else walk c c.fd c.size
        in
        match walk nil t.bins.(idx) 0 with
        | Error _ as e -> e
        | Ok () -> check_bin (idx + 1)
      end
    in
    check_bin 0
  in
  let check_counts () =
    let binned = Array.fold_left (fun n head -> list_length head n) 0 t.bins in
    let free_chunks = Int_table.fold (fun _ c acc -> if c.is_free then acc + 1 else acc) t.chunks 0 in
    if binned <> free_chunks then fail "%d free chunks but %d binned" free_chunks binned
    else Ok ()
  in
  let check_binmap () =
    let rec check idx =
      if idx >= nbins then Ok ()
      else begin
        let bit =
          if idx < small_bin_count then t.binmap_small land (1 lsl idx)
          else t.binmap_large land (1 lsl (idx - small_bin_count))
        in
        let occupied = t.bins.(idx) != nil in
        if occupied && bit = 0 then fail "bin %d occupied but binmap bit clear" idx
        else if (not occupied) && bit <> 0 then fail "bin %d empty but binmap bit set" idx
        else check (idx + 1)
      end
    in
    check 0
  in
  let check_fastbins () =
    let rec check_bin i =
      if i >= nfastbins then Ok ()
      else begin
        let rec walk c =
          if c == nil then check_bin (i + 1)
          else if not c.in_fastbin then fail "fastbin %d holds untagged chunk 0x%x" i c.addr
          else if c.is_free then fail "fastbin chunk 0x%x marked free" c.addr
          else if c.size > fastbin_limit then fail "oversized fastbin chunk 0x%x" c.addr
          else if fastbin_index c.size <> i then fail "fastbin chunk 0x%x misfiled" c.addr
          else walk c.fd
        in
        walk t.fastbins.(i)
      end
    in
    check_bin 0
  in
  (* A retired record must be out of the chunk table and look absorbed. *)
  let rec check_spare r =
    if r == nil then Ok ()
    else if r.is_free || r.bin >= 0 || r.in_fastbin then fail "retired record 0x%x not cleared" r.addr
    else
      match Int_table.find_exn t.chunks r.addr with
      | c when c == r -> fail "retired record 0x%x still indexed" r.addr
      | _ | (exception Not_found) -> check_spare r.fd
  in
  match check_segment () with
  | Error _ as e -> e
  | Ok () -> (
      match check_bins () with
      | Error _ as e -> e
      | Ok () -> (
          match check_counts () with
          | Error _ as e -> e
          | Ok () -> (
              match check_binmap () with
              | Error _ as e -> e
              | Ok () -> (
                  match check_fastbins () with Error _ as e -> e | Ok () -> check_spare t.spare))))

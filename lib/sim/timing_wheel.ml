(* Hierarchical timing wheel over (key, pk) pairs — the engine's event
   queue. [key] is the event time as an order-preserving integer: the
   IEEE-754 bits of the (non-negative) double with the top bit flipped,
   so plain signed [<] gives float order, ties included. [pk] carries
   the sequence number in its high bits, so comparing [(key, pk)] pairs
   lexicographically is exactly the engine's (time, seq) total order.

   Layout, nearest first:

   - A sorted circular *ring* holds the earliest items. Pop and peek
     read its head — O(1), two array loads. Most pushes binary-search
     into it (the simulated machines keep only a handful of events
     pending, so the ring usually holds the whole queue and a push
     shifts a couple of words — measured ~4x cheaper than a 4-ary
     heap's sift on the same workload).
   - Two wheel levels catch items beyond the ring's gate: L1 buckets
     [bucket_ns] wide and L2 buckets [bucket_ns * wheel_size] wide,
     each a [wheel_size]-slot array indexed by bucket modulo size,
     with an occupancy bitmap for find-next-nonempty. Slots are
     unsorted append arrays; a bucket is sorted only when it is
     harvested into the ring, so push stays O(1) amortized.
   - A bare 4-ary min-heap takes the far future (beyond L2's span, or
     beyond 2^52 ns where bucket arithmetic would lose precision).

   Cursors [c1]/[c2] are *absolute* bucket indices (never wrapped), so
   a slot can legally hold items from several epochs: harvesting
   filters the slot, keeping later-epoch items in place.

   Ordering invariants (the tests in test_timing_wheel.ml fuzz these):
   - Every item in L1/L2/heap is >= every item in the ring, so popping
     the ring head is globally minimal.
   - The ring is non-empty whenever the structure is ([advance]
     restores this after any push or pop that strands the ring empty).
   - L1 items sit in buckets >= c1; L2/heap items sit in epochs that
     [advance] will cascade before c1 reaches them. *)

(* L1 buckets are 2^10 ns = ~1us wide; 256 of them span ~262us. L2
   buckets are 2^18 ns wide; 256 of them span ~67ms. *)
let w1_bits = 10
let w2_bits = 18
let wheel_size = 256
let wheel_mask = wheel_size - 1

(* Times at or past 2^52 ns go straight to the far heap: above that,
   int_of_float truncation is no longer exact enough to trust bucket
   arithmetic (and infinity has no buckets at all). *)
let far_time = 4503599627370496.  (* 2^52 *)

(* While the wheels are empty the ring absorbs appends up to this many
   items, so small pending sets — the simulator's common regime is a
   handful of events — never pay wheel filing at all. Beyond it,
   appends past the gate overflow into the wheels, bounding the ring's
   shift cost. (Gate-mandated inserts may still grow the ring past the
   target; ordering requires them there.) *)
let ring_target = 64

let key_of_time time = Int64.to_int (Int64.bits_of_float time) lxor min_int

let time_of_key key =
  Int64.float_of_bits (Int64.logand (Int64.of_int (key lxor min_int)) 0x7FFF_FFFF_FFFF_FFFFL)

let far_key = key_of_time far_time

type t = {
  (* Sorted ring of the earliest items; [rhead] is the physical index
     of the logical head, capacity a power of two. *)
  mutable rkeys : int array;
  mutable rpks : int array;
  mutable rhead : int;
  mutable rsize : int;
  (* Pushes with [key < gate] belong in the ring: gate is
     max(horizon key, ring-tail key + 1), where the horizon is the
     time already swept past by c1 (such items' buckets are gone) and
     anything at or before the ring tail must keep sorted order. *)
  mutable gate : int;
  (* L1 wheel: per-slot unsorted (key, pk) append arrays. *)
  l1k : int array array;
  l1p : int array array;
  l1n : int array;
  l1occ : int array;  (* 256-bit occupancy, 8 words of 32 bits *)
  mutable c1 : int;   (* absolute L1 bucket cursor: buckets < c1 are swept *)
  mutable l1_count : int;
  (* L2 wheel, same shape, one level coarser. *)
  l2k : int array array;
  l2p : int array array;
  l2n : int array;
  l2occ : int array;
  mutable c2 : int;   (* absolute L2 epoch cursor *)
  mutable l2_count : int;
  (* Far-future 4-ary min-heap on (key, pk). *)
  mutable hkeys : int array;
  mutable hpks : int array;
  mutable hsize : int;
  mutable size : int;
  (* Push-path counters, reported as sched.shard.* observations. *)
  mutable ring_hits : int;
  mutable wheel_hits : int;
  mutable heap_spills : int;
}

let empty_bucket : int array = [||]

let create () =
  { rkeys = [||];
    rpks = [||];
    rhead = 0;
    rsize = 0;
    gate = min_int;
    l1k = Array.make wheel_size empty_bucket;
    l1p = Array.make wheel_size empty_bucket;
    l1n = Array.make wheel_size 0;
    l1occ = Array.make 8 0;
    c1 = 0;
    l1_count = 0;
    l2k = Array.make wheel_size empty_bucket;
    l2p = Array.make wheel_size empty_bucket;
    l2n = Array.make wheel_size 0;
    l2occ = Array.make 8 0;
    c2 = 0;
    l2_count = 0;
    hkeys = [||];
    hpks = [||];
    hsize = 0;
    size = 0;
    ring_hits = 0;
    wheel_hits = 0;
    heap_spills = 0;
  }

let length t = t.size
let is_empty t = t.size = 0

(* max_int sentinels when empty: no real time encodes to max_int. *)
let peek_key t = if t.rsize = 0 then max_int else Array.unsafe_get t.rkeys t.rhead
let peek_pk t = if t.rsize = 0 then max_int else Array.unsafe_get t.rpks t.rhead

(* --- ring ------------------------------------------------------------ *)

let ring_grow t =
  let cap = Array.length t.rkeys in
  let ncap = if cap = 0 then 16 else 2 * cap in
  let nk = Array.make ncap 0 and np = Array.make ncap 0 in
  let mask = cap - 1 in
  for j = 0 to t.rsize - 1 do
    let src = (t.rhead + j) land mask in
    nk.(j) <- t.rkeys.(src);
    np.(j) <- t.rpks.(src)
  done;
  t.rkeys <- nk;
  t.rpks <- np;
  t.rhead <- 0

(* Sorted insert: binary-search the logical position, then shift
   whichever side is shorter (the ring is circular, so the head can
   move down as cheaply as the tail moves up). Appends — the common
   case for a monotone event stream — shift nothing. *)
let ring_insert t key pk =
  if t.rsize = Array.length t.rkeys then ring_grow t;
  let mask = Array.length t.rkeys - 1 in
  let rkeys = t.rkeys and rpks = t.rpks in
  let head = t.rhead and size = t.rsize in
  (* Find the count of entries strictly below (key, pk). *)
  let lo = ref 0 and hi = ref size in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let ph = (head + mid) land mask in
    let mk = Array.unsafe_get rkeys ph in
    if mk < key || (mk = key && Array.unsafe_get rpks ph < pk) then lo := mid + 1 else hi := mid
  done;
  let i = !lo in
  if 2 * i >= size then begin
    (* Shift the tail side [i, size) up one slot. *)
    let j = ref (size - 1) in
    while !j >= i do
      let src = (head + !j) land mask in
      let dst = (head + !j + 1) land mask in
      Array.unsafe_set rkeys dst (Array.unsafe_get rkeys src);
      Array.unsafe_set rpks dst (Array.unsafe_get rpks src);
      decr j
    done;
    let ph = (head + i) land mask in
    Array.unsafe_set rkeys ph key;
    Array.unsafe_set rpks ph pk
  end
  else begin
    (* Shift the head side [0, i) down one slot. *)
    let nh = (head - 1) land mask in
    for j = 0 to i - 1 do
      let src = (head + j) land mask in
      let dst = (nh + j) land mask in
      Array.unsafe_set rkeys dst (Array.unsafe_get rkeys src);
      Array.unsafe_set rpks dst (Array.unsafe_get rpks src)
    done;
    let ph = (nh + i) land mask in
    Array.unsafe_set rkeys ph key;
    Array.unsafe_set rpks ph pk;
    t.rhead <- nh
  end;
  t.rsize <- size + 1;
  if i = size && key >= t.gate then t.gate <- key + 1

(* --- occupancy bitmaps ----------------------------------------------- *)

let occ_set occ slot = occ.(slot lsr 5) <- occ.(slot lsr 5) lor (1 lsl (slot land 31))
let occ_clear occ slot = occ.(slot lsr 5) <- occ.(slot lsr 5) land lnot (1 lsl (slot land 31))

let ctz32 v =
  let n = ref 0 and v = ref v in
  if !v land 0xFFFF = 0 then begin n := 16; v := !v lsr 16 end;
  if !v land 0xFF = 0 then begin n := !n + 8; v := !v lsr 8 end;
  if !v land 0xF = 0 then begin n := !n + 4; v := !v lsr 4 end;
  if !v land 0x3 = 0 then begin n := !n + 2; v := !v lsr 2 end;
  if !v land 0x1 = 0 then incr n;
  !n

(* First occupied *absolute* bucket index in the window [c, c + 256),
   or max_int if the wheel is empty. Because slots can hold items from
   later epochs, the result is a lower bound — the caller re-checks
   after filtering. *)
let next_occupied occ c =
  let s0 = c land wheel_mask in
  let rec scan step =
    if step > 8 then max_int
    else begin
      let w = ((s0 lsr 5) + step) land 7 in
      let bits = occ.(w) in
      let bits = if step = 0 then bits land ((-1) lsl (s0 land 31)) else bits in
      if bits <> 0 then begin
        let s = (w lsl 5) lor ctz32 bits in
        c + ((s - s0) land wheel_mask)
      end
      else scan (step + 1)
    end
  in
  scan 0

(* --- far heap (bare 4-ary min-heap on (key, pk)) ---------------------- *)

let rec hsift_up (keys : int array) (pks : int array) i key pk =
  if i = 0 then begin
    Array.unsafe_set keys 0 key;
    Array.unsafe_set pks 0 pk
  end
  else begin
    let parent = (i - 1) lsr 2 in
    let pkey = Array.unsafe_get keys parent in
    if key < pkey || (key = pkey && pk < Array.unsafe_get pks parent) then begin
      Array.unsafe_set keys i pkey;
      Array.unsafe_set pks i (Array.unsafe_get pks parent);
      hsift_up keys pks parent key pk
    end
    else begin
      Array.unsafe_set keys i key;
      Array.unsafe_set pks i pk
    end
  end

let rec hmin_child (keys : int array) (pks : int array) last m j =
  if j > last then m
  else begin
    let jk = Array.unsafe_get keys j and mk = Array.unsafe_get keys m in
    let m' =
      if jk < mk || (jk = mk && Array.unsafe_get pks j < Array.unsafe_get pks m) then j else m
    in
    hmin_child keys pks last m' (j + 1)
  end

let rec hsift_down (keys : int array) (pks : int array) size i key pk =
  let c = (i lsl 2) + 1 in
  if c >= size then begin
    Array.unsafe_set keys i key;
    Array.unsafe_set pks i pk
  end
  else begin
    let last = let l = c + 3 in if l < size then l else size - 1 in
    let m = hmin_child keys pks last c (c + 1) in
    let bkey = Array.unsafe_get keys m in
    if bkey < key || (bkey = key && Array.unsafe_get pks m < pk) then begin
      Array.unsafe_set keys i bkey;
      Array.unsafe_set pks i (Array.unsafe_get pks m);
      hsift_down keys pks size m key pk
    end
    else begin
      Array.unsafe_set keys i key;
      Array.unsafe_set pks i pk
    end
  end

let hpush t key pk =
  if t.hsize = Array.length t.hkeys then begin
    let cap = Array.length t.hkeys in
    let ncap = if cap = 0 then 16 else 2 * cap in
    let nk = Array.make ncap 0 and np = Array.make ncap 0 in
    Array.blit t.hkeys 0 nk 0 t.hsize;
    Array.blit t.hpks 0 np 0 t.hsize;
    t.hkeys <- nk;
    t.hpks <- np
  end;
  let i = t.hsize in
  t.hsize <- i + 1;
  hsift_up t.hkeys t.hpks i key pk

(* Remove the heap root (caller read it already). *)
let hpop t =
  let n = t.hsize - 1 in
  t.hsize <- n;
  if n > 0 then hsift_down t.hkeys t.hpks n 0 t.hkeys.(n) t.hpks.(n)

(* The heap root's L2 epoch; far/infinite times report max_int so the
   cascade loop never tries to give them a bucket. *)
let heap_min_epoch t =
  if t.hsize = 0 then max_int
  else begin
    let key = t.hkeys.(0) in
    if key >= far_key then max_int else int_of_float (time_of_key key) lsr w2_bits
  end

(* --- wheel buckets ---------------------------------------------------- *)

let bucket_append ks ps ns slot key pk =
  let n = ns.(slot) in
  let arr = ks.(slot) in
  let cap = Array.length arr in
  if n = cap then begin
    let ncap = if cap = 0 then 4 else 2 * cap in
    let nk = Array.make ncap 0 and np = Array.make ncap 0 in
    Array.blit arr 0 nk 0 n;
    Array.blit ps.(slot) 0 np 0 n;
    ks.(slot) <- nk;
    ps.(slot) <- np
  end;
  ks.(slot).(n) <- key;
  ps.(slot).(n) <- pk;
  ns.(slot) <- n + 1

(* Route an item that is known not to belong in the ring (key >= gate,
   wheel non-empty) — or a cascaded item being re-filed. [it] is the
   integer time. *)
let file t key pk it =
  let ab1 = it lsr w1_bits in
  if ab1 < t.c1 then
    (* Bucket already swept (only reachable from a cascade): the item
       goes straight to the ring — by the cascade invariant it is
       still >= the ring tail or slots into place correctly. *)
    ring_insert t key pk
  else if ab1 - t.c1 < wheel_size then begin
    let slot = ab1 land wheel_mask in
    bucket_append t.l1k t.l1p t.l1n slot key pk;
    occ_set t.l1occ slot;
    t.l1_count <- t.l1_count + 1
  end
  else begin
    let ab2 = it lsr w2_bits in
    if ab2 - t.c2 < wheel_size then begin
      let slot = ab2 land wheel_mask in
      bucket_append t.l2k t.l2p t.l2n slot key pk;
      occ_set t.l2occ slot;
      t.l2_count <- t.l2_count + 1
    end
    else hpush t key pk
  end

(* Recompute the ring gate from the cursor horizon and the ring tail.
   Called when [advance] moves c1 (the horizon only ever grows there,
   but harvesting may also have rebuilt the ring). *)
let reset_gate t =
  let horizon = key_of_time (float_of_int (t.c1 lsl w1_bits)) in
  let tail =
    if t.rsize = 0 then min_int
    else Array.unsafe_get t.rkeys ((t.rhead + t.rsize - 1) land (Array.length t.rkeys - 1)) + 1
  in
  t.gate <- (if horizon > tail then horizon else tail)

(* Filter one L1 slot: items of bucket [abs] move to the ring, items of
   later epochs stay compacted in place. *)
let harvest_l1 t abs =
  let slot = abs land wheel_mask in
  let ks = t.l1k.(slot) and ps = t.l1p.(slot) in
  let n = t.l1n.(slot) in
  let kept = ref 0 in
  for i = 0 to n - 1 do
    let key = Array.unsafe_get ks i in
    if int_of_float (time_of_key key) lsr w1_bits = abs then
      ring_insert t key (Array.unsafe_get ps i)
    else begin
      Array.unsafe_set ks !kept key;
      Array.unsafe_set ps !kept (Array.unsafe_get ps i);
      incr kept
    end
  done;
  t.l1n.(slot) <- !kept;
  t.l1_count <- t.l1_count - (n - !kept);
  if !kept = 0 then occ_clear t.l1occ slot

(* Cascade L2 epoch [e]: drain matching heap items and filter the L2
   slot, re-filing everything one level down. Cursors move first so
   [file] routes into the fresh L1 window. *)
let cascade t e =
  let nc1 = e lsl (w2_bits - w1_bits) in
  if nc1 > t.c1 then t.c1 <- nc1;
  t.c2 <- e + 1;
  while t.hsize > 0 && heap_min_epoch t = e do
    let key = t.hkeys.(0) and pk = t.hpks.(0) in
    hpop t;
    file t key pk (int_of_float (time_of_key key))
  done;
  let slot = e land wheel_mask in
  let ks = t.l2k.(slot) and ps = t.l2p.(slot) in
  let n = t.l2n.(slot) in
  if n > 0 then begin
    let kept = ref 0 in
    for i = 0 to n - 1 do
      let key = Array.unsafe_get ks i in
      let it = int_of_float (time_of_key key) in
      if it lsr w2_bits = e then file t key (Array.unsafe_get ps i) it
      else begin
        Array.unsafe_set ks !kept key;
        Array.unsafe_set ps !kept (Array.unsafe_get ps i);
        incr kept
      end
    done;
    t.l2n.(slot) <- !kept;
    t.l2_count <- t.l2_count - (n - !kept);
    if !kept = 0 then occ_clear t.l2occ slot
  end

(* Refill the ring from the wheels/heap. Precondition: size > 0.
   Postcondition: rsize > 0 and the gate reflects the new horizon. *)
let rec advance t =
  let abs1 = if t.l1_count = 0 then max_int else next_occupied t.l1occ t.c1 in
  let e2 =
    let l2 = if t.l2_count = 0 then max_int else next_occupied t.l2occ t.c2 in
    let he = heap_min_epoch t in
    if he < l2 then he else l2
  in
  if e2 <> max_int && (abs1 = max_int || e2 <= abs1 lsr (w2_bits - w1_bits)) then begin
    (* The earliest remaining work might live in L2/heap epoch e2:
       cascade it down, then look again. *)
    cascade t e2;
    advance t
  end
  else if abs1 <> max_int then begin
    harvest_l1 t abs1;
    t.c1 <- abs1 + 1;
    if t.rsize = 0 then advance t  (* slot held only later-epoch items *)
    else reset_gate t
  end
  else begin
    (* Only far/infinite items remain: hand the root to the ring. *)
    let key = t.hkeys.(0) and pk = t.hpks.(0) in
    hpop t;
    ring_insert t key pk;
    reset_gate t
  end

(* --- public push/pop -------------------------------------------------- *)

(* Overflow filing for callers that already handled the ring fast path
   themselves (the engine does, with direct field access): key >= gate
   and the wheels/heap hold something. Does not touch [size]. *)
let push_overflow t key pk =
  if key >= far_key then begin
    t.heap_spills <- t.heap_spills + 1;
    hpush t key pk
  end
  else begin
    t.wheel_hits <- t.wheel_hits + 1;
    file t key pk (int_of_float (time_of_key key))
  end

let push t key pk =
  if key < t.gate || (t.rsize = t.size && t.rsize < ring_target) then begin
    (* Below the gate (ordering demands the ring), or the wheels are
       empty and the ring is still small — sorted-insert directly. *)
    t.ring_hits <- t.ring_hits + 1;
    t.size <- t.size + 1;
    ring_insert t key pk
  end
  else begin
    t.size <- t.size + 1;
    push_overflow t key pk;
    if t.rsize = 0 then advance t
  end

(* Remove the ring head. Precondition: size > 0 (so rsize > 0). *)
let pop t =
  t.rhead <- (t.rhead + 1) land (Array.length t.rkeys - 1);
  t.rsize <- t.rsize - 1;
  t.size <- t.size - 1;
  if t.rsize = 0 && t.size > 0 then advance t

let ring_hits t = t.ring_hits
let wheel_hits t = t.wheel_hits
let heap_spills t = t.heap_spills

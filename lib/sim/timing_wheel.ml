(* Sorted ring plus one 4-ary heap over (key, pk) pairs — the engine's
   event queue. [key] is the event time as an order-preserving integer:
   the IEEE-754 bits of the (non-negative) double with the top bit
   flipped, so plain signed [<] gives float order, ties included. [pk]
   carries the sequence number in its high bits, so comparing
   [(key, pk)] pairs lexicographically is exactly the engine's
   (time, seq) total order.

   - A sorted circular *ring* holds the earliest items. Pop and peek
     read its head — O(1), two array loads. A push binary-searches into
     it (the simulated machines keep only a handful of events pending,
     so the ring holds the whole queue in every shipped workload and a
     push shifts a couple of words — measured ~4x cheaper than a 4-ary
     heap's sift on the same workload).
   - A bare 4-ary min-heap takes the overflow: pushes at or past the
     ring's gate once the ring holds [ring_target] items, or while the
     heap already holds something.

   [remove] takes one item out wherever it sits, for the engine's
   cancellation: a scan finds it by its unique [pk], and the ring or
   the heap closes the hole.

   Ordering invariants (the tests in test_timing_wheel.ml fuzz these):
   - [gate] exceeds every ring key and is at most every heap key, so
     popping the ring head is globally minimal.
   - The ring is non-empty whenever the structure is ([advance] refills
     it when a pop or a removal drains it). So an empty ring means an
     empty queue, and an empty queue takes the ring branch on its next
     push.
   - A refill moves the heap root *and every heap item with the same
     key*. Moving only the root would put the gate past that key while
     equal-key items stayed in the heap, and a later push at that key
     would land in the ring ahead of them. *)

(* While the heap is empty the ring absorbs pushes up to this many
   items, so small pending sets never pay a heap sift. Beyond it,
   pushes at or past the gate overflow into the heap, bounding the
   ring's shift cost. (Gate-mandated inserts may still grow the ring
   past the target; ordering requires them there.) *)
let ring_target = 64

let[@inline] key_of_time time = Int64.to_int (Int64.bits_of_float time) lxor min_int

let[@inline] time_of_key key =
  Int64.float_of_bits (Int64.logand (Int64.of_int (key lxor min_int)) 0x7FFF_FFFF_FFFF_FFFFL)

type t = {
  (* Sorted ring of the earliest items; [rhead] is the physical index
     of the logical head, capacity a power of two. *)
  mutable rkeys : int array;
  mutable rpks : int array;
  mutable rhead : int;
  mutable rsize : int;
  (* Pushes with [key < gate] belong in the ring: anything at or before
     the ring tail must keep sorted order. A tail append moves it to
     the new tail's key + 1; nothing else does. *)
  mutable gate : int;
  (* Overflow 4-ary min-heap on (key, pk). *)
  mutable hkeys : int array;
  mutable hpks : int array;
  mutable hsize : int;
  (* Push-path and removal counters, reported as sched.shard.*
     observations. *)
  mutable ring_hits : int;
  mutable heap_spills : int;
  mutable removals : int;
}

let create () =
  { rkeys = [||];
    rpks = [||];
    rhead = 0;
    rsize = 0;
    gate = min_int;
    hkeys = [||];
    hpks = [||];
    hsize = 0;
    ring_hits = 0;
    heap_spills = 0;
    removals = 0;
  }

(* The ring is non-empty whenever the queue is (see the header). *)
let length t = t.rsize + t.hsize
let ring_length t = t.rsize
let[@inline] is_empty t = t.rsize = 0

(* max_int sentinels when empty: no real time encodes to max_int. *)
let[@inline] peek_key t = if t.rsize = 0 then max_int else Array.unsafe_get t.rkeys t.rhead
let[@inline] peek_pk t = if t.rsize = 0 then max_int else Array.unsafe_get t.rpks t.rhead

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

(* --- overflow heap (bare 4-ary min-heap on (key, pk)) ----------------- *)

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

(* Refill the empty ring with the heap root and every heap item sharing
   its key, in (key, pk) order (the header says why all of them). The
   first append moves the gate to key + 1, and every item left in the
   heap has a larger key. Precondition: hsize > 0. *)
let advance t =
  let key = t.hkeys.(0) in
  while t.hsize > 0 && Array.unsafe_get t.hkeys 0 = key do
    let pk = Array.unsafe_get t.hpks 0 in
    hpop t;
    ring_insert t key pk
  done

(* --- public push/pop -------------------------------------------------- *)

(* One push and one pop per simulated event: both are inlined into the
   engine, calling out only to sort-insert, to sift and to refill. *)
let[@inline] push t key pk =
  if key < t.gate || (t.hsize = 0 && t.rsize < ring_target) then begin
    (* Below the gate (ordering demands the ring), or the heap is empty
       and the ring is still small — sorted-insert directly. *)
    t.ring_hits <- t.ring_hits + 1;
    ring_insert t key pk
  end
  else begin
    (* The ring is never empty here: an empty ring means an empty
       queue, which takes the branch above. *)
    t.heap_spills <- t.heap_spills + 1;
    hpush t key pk
  end

(* Remove the ring head. Precondition: not empty (so rsize > 0). *)
let[@inline] pop t =
  t.rhead <- (t.rhead + 1) land (Array.length t.rkeys - 1);
  t.rsize <- t.rsize - 1;
  if t.rsize = 0 && t.hsize > 0 then advance t

(* --- removal ------------------------------------------------------------ *)

(* Take out the heap item with tie-break [pk], if there is one: the
   last item fills its hole, sifting up past a larger parent or down
   past a smaller child. *)
let heap_remove t pk =
  let i = ref (t.hsize - 1) in
  while !i >= 0 && Array.unsafe_get t.hpks !i <> pk do
    decr i
  done;
  let i = !i and n = t.hsize - 1 in
  if i < 0 then false
  else begin
    t.hsize <- n;
    if i < n then begin
      let keys = t.hkeys and pks = t.hpks in
      let key = Array.unsafe_get keys n and pk = Array.unsafe_get pks n in
      let up =
        i > 0
        && begin
          let parent = (i - 1) lsr 2 in
          let pkey = Array.unsafe_get keys parent in
          key < pkey || (key = pkey && pk < Array.unsafe_get pks parent)
        end
      in
      if up then hsift_up keys pks i key pk else hsift_down keys pks n i key pk
    end;
    true
  end

(* The ring scan starts at the tail: the engine cancels far events (a
   spin's budget expiry) more often than near ones, and the hole is
   closed by shifting whichever side is shorter, so such a removal
   moves a few items at most. The gate stays: it still exceeds every
   ring key and is at most every heap key. Loops over locals, not
   local recursive functions, which would close over the ring and
   allocate on every call. *)
let remove t pk =
  let mask = Array.length t.rpks - 1 in
  let rkeys = t.rkeys and rpks = t.rpks in
  let head = t.rhead and size = t.rsize in
  let i = ref (size - 1) in
  while !i >= 0 && Array.unsafe_get rpks ((head + !i) land mask) <> pk do
    decr i
  done;
  let i = !i in
  let found =
    if i < 0 then heap_remove t pk
    else begin
      if 2 * i >= size then
        (* Shift the tail side (i, size) down one slot. *)
        for j = i to size - 2 do
          let dst = (head + j) land mask and src = (head + j + 1) land mask in
          Array.unsafe_set rkeys dst (Array.unsafe_get rkeys src);
          Array.unsafe_set rpks dst (Array.unsafe_get rpks src)
        done
      else begin
        (* Shift the head side [0, i) up one slot. *)
        for j = i downto 1 do
          let dst = (head + j) land mask and src = (head + j - 1) land mask in
          Array.unsafe_set rkeys dst (Array.unsafe_get rkeys src);
          Array.unsafe_set rpks dst (Array.unsafe_get rpks src)
        done;
        t.rhead <- (head + 1) land mask
      end;
      t.rsize <- size - 1;
      if size = 1 && t.hsize > 0 then advance t;
      true
    end
  in
  if found then t.removals <- t.removals + 1;
  found

let ring_hits t = t.ring_hits
let heap_spills t = t.heap_spills
let removals t = t.removals

(* Open-addressing int-keyed table: linear probing over a flat pair of
   arrays, Fibonacci hashing, backward-shift deletion (no tombstones).

   The value array is a uniform ['a array] created from an immediate
   dummy, so it is never specialized to a flat float array and every
   access stays a safe generic read/write; slots are reset to the dummy
   on removal so the table never keeps dead values alive. *)

let empty_key = min_int

(* 2^63 / phi, forced odd: multiplying by it diffuses low-entropy keys
   (8-byte-aligned addresses, page indexes) across the high bits, which
   is where [slot] takes its bits from. *)
let fib_mult = 0x2545F4914F6CDD1D

type 'a t = {
  mutable keys : int array;    (* empty_key marks a free slot *)
  mutable vals : 'a array;     (* valid only where keys.(i) <> empty_key *)
  mutable size : int;
  mutable shift : int;         (* 63 - log2 capacity *)
}

let dummy : 'a. unit -> 'a = fun () -> Obj.magic 0

let capacity_for hint =
  let rec go cap = if cap >= hint then cap else go (cap * 2) in
  go 8

let log2 cap =
  let rec lg n a = if n <= 1 then a else lg (n / 2) (a + 1) in
  lg cap 0

let create ?(initial = 16) () =
  let cap = capacity_for (max 8 initial) in
  { keys = Array.make cap empty_key;
    vals = Array.make cap (dummy ());
    size = 0;
    shift = 63 - log2 cap;
  }

let length t = t.size

(* Home slot of [key] in the current array. *)
let slot t key = (key * fib_mult) lsr t.shift

(* Probe loops live at top level: a local [let rec] would close over
   the arrays and allocate on every lookup, and lookups are the whole
   point of this module. *)
let rec probe_loop keys mask key i =
  let k = Array.unsafe_get keys i in
  if k = key then i
  else if k = empty_key then -1
  else probe_loop keys mask key ((i + 1) land mask)

(* Find the slot holding [key], or -1. The sentinel itself must miss
   explicitly — probing for it would "find" the first free slot. *)
let index t key =
  if key = empty_key then -1
  else
    let keys = t.keys in
    let mask = Array.length keys - 1 in
    probe_loop keys mask key (slot t key land mask)

let mem t key = index t key >= 0

let find_exn t key =
  let i = index t key in
  if i >= 0 then Array.unsafe_get t.vals i else raise Not_found

let find_opt t key =
  let i = index t key in
  if i >= 0 then Some (Array.unsafe_get t.vals i) else None

let rec free_slot_loop keys mask i =
  if Array.unsafe_get keys i = empty_key then i else free_slot_loop keys mask ((i + 1) land mask)

(* Insert into a table known to have a free slot and no binding for
   [key]. *)
let insert_fresh keys vals shift key v =
  let mask = Array.length keys - 1 in
  let i = free_slot_loop keys mask (((key * fib_mult) lsr shift) land mask) in
  Array.unsafe_set keys i key;
  Array.unsafe_set vals i v

let grow t =
  let cap = Array.length t.keys in
  let ncap = cap * 2 in
  let nshift = t.shift - 1 in
  let nkeys = Array.make ncap empty_key in
  let nvals = Array.make ncap (dummy ()) in
  for i = 0 to cap - 1 do
    let k = Array.unsafe_get t.keys i in
    if k <> empty_key then insert_fresh nkeys nvals nshift k (Array.unsafe_get t.vals i)
  done;
  t.keys <- nkeys;
  t.vals <- nvals;
  t.shift <- nshift

let set t key v =
  if key = empty_key then invalid_arg "Int_table.set: reserved key";
  let i = index t key in
  if i >= 0 then Array.unsafe_set t.vals i v
  else begin
    (* Keep load factor under 3/4 so probe chains stay short. *)
    if 4 * (t.size + 1) > 3 * Array.length t.keys then grow t;
    insert_fresh t.keys t.vals t.shift key v;
    t.size <- t.size + 1
  end

(* Backward-shift: walk the chain after the hole; any entry whose
   home slot lies at or before the hole (in cyclic probe distance)
   moves back into it, leaving no tombstone behind. *)
let rec shift_loop keys vals shift mask hole j =
  let k = Array.unsafe_get keys j in
  if k = empty_key then begin
    Array.unsafe_set keys hole empty_key;
    Array.unsafe_set vals hole (dummy ())
  end
  else begin
    let home = ((k * fib_mult) lsr shift) land mask in
    if (j - home) land mask >= (j - hole) land mask then begin
      Array.unsafe_set keys hole k;
      Array.unsafe_set vals hole (Array.unsafe_get vals j);
      shift_loop keys vals shift mask j ((j + 1) land mask)
    end
    else shift_loop keys vals shift mask hole ((j + 1) land mask)
  end

let remove t key =
  let i = index t key in
  if i >= 0 then begin
    t.size <- t.size - 1;
    let keys = t.keys and vals = t.vals in
    let mask = Array.length keys - 1 in
    shift_loop keys vals t.shift mask i ((i + 1) land mask)
  end

let fold f t init =
  let keys = t.keys and vals = t.vals in
  let acc = ref init in
  for i = 0 to Array.length keys - 1 do
    let k = Array.unsafe_get keys i in
    if k <> empty_key then acc := f k (Array.unsafe_get vals i) !acc
  done;
  !acc

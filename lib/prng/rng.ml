(* SplitMix64. Reference: Steele, Lea & Flood, "Fast Splittable
   Pseudorandom Number Generators", OOPSLA 2014. The mix function is the
   finalizer from MurmurHash3 with Stafford's "variant 13" constants.

   The 64-bit state lives in a one-element int64 Bigarray rather than a
   [mutable int64] record field: an int64 record field is a pointer to a
   boxed custom block, so every state step would allocate, while Bigarray
   loads and stores move the raw 64 bits. With [bits64] inlined into each
   drawing function, all int64 temporaries stay local (the compiler keeps
   them unboxed), and drawing a number allocates nothing. The generated
   streams are bit-identical to the boxed implementation.

   The [(t : t)] parameter annotations below are load-bearing: without a
   syntactically concrete Bigarray type at the access site, the compiler
   emits caml_ba_get/set C calls with boxed int64s instead of inline
   loads and stores. *)

type t = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let make state =
  let a = Bigarray.Array1.create Bigarray.Int64 Bigarray.c_layout 1 in
  Bigarray.Array1.unsafe_set a 0 state;
  a

let create ~seed = make (mix64 (Int64.of_int seed))

(* Advance the state and return the raw mixed output: the one definition
   of the step. Every drawing function below inlines it; an int64
   returned from a call that is not inlined would be boxed. *)
let[@inline] bits64 (t : t) =
  let s = Int64.add (Bigarray.Array1.unsafe_get t 0) golden_gamma in
  Bigarray.Array1.unsafe_set t 0 s;
  let z = Int64.mul (Int64.logxor s (Int64.shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = make (bits64 t)

(* 62 random bits, always non-negative as an OCaml int. *)
let positive_bits t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

let int t bound =
  assert (bound > 0);
  positive_bits t mod bound

let int_in t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let scale_53 = 1.0 /. 9007199254740992.0 (* 2^53 *)

(* 53 random bits, scaled into [0, 1). *)
let[@inline] unit_float t =
  float_of_int (Int64.to_int (Int64.shift_right_logical (bits64 t) 11)) *. scale_53

let float t bound =
  assert (bound > 0.);
  unit_float t *. bound

let bool t = Int64.logand (bits64 t) 1L = 1L

(* [1.0 -. pct +. float t (2.0 *. pct)], bit for bit, without
   [float]'s assertion. Inlined into callers in other modules, where
   the draw is never boxed. *)
let[@inline] jitter t pct =
  if pct <= 0. then 1.0 else 1.0 -. pct +. (unit_float t *. (2.0 *. pct))

let exponential t ~mean =
  let u = float t 1.0 in
  (* Guard against log 0. *)
  let u = if u <= 0. then epsilon_float else u in
  -.mean *. log u

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))

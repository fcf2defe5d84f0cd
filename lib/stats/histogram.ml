type t = {
  lo : float;
  hi : float;
  width : float;
  counts : int array;
  mutable total : int;
  mutable underflow : int;
  mutable overflow : int;
}

let create ~lo ~hi ~bins =
  if lo >= hi then invalid_arg "Histogram.create: lo >= hi";
  if bins <= 0 then invalid_arg "Histogram.create: bins <= 0";
  {
    lo;
    hi;
    width = (hi -. lo) /. float_of_int bins;
    counts = Array.make bins 0;
    total = 0;
    underflow = 0;
    overflow = 0;
  }

(* Bin index for an in-range sample. Float division can land exactly on
   [bins] when [x] is a hair under [hi]; fold that edge back into the
   last bin. Out-of-range samples never reach here — [add] diverts them
   to the underflow/overflow counters. *)
let bin_of t x =
  let i = int_of_float ((x -. t.lo) /. t.width) in
  let last = Array.length t.counts - 1 in
  if i > last then last else i

let add t x =
  if Float.is_nan x then invalid_arg "Histogram.add: NaN sample";
  if x < t.lo then t.underflow <- t.underflow + 1
  else if x >= t.hi then t.overflow <- t.overflow + 1
  else begin
    let i = bin_of t x in
    t.counts.(i) <- t.counts.(i) + 1
  end;
  t.total <- t.total + 1

let count t = t.total

let underflow t = t.underflow

let overflow t = t.overflow

let binned t = t.total - t.underflow - t.overflow

let bin_count t i = t.counts.(i)

let bin_bounds t i =
  let lo = t.lo +. (float_of_int i *. t.width) in
  (lo, lo +. t.width)

let pp fmt t =
  let maxc = Array.fold_left max 1 t.counts in
  if t.underflow > 0 then Format.fprintf fmt "(-inf, %8.3f) %4d underflow@." t.lo t.underflow;
  Array.iteri
    (fun i c ->
      if c > 0 then begin
        let lo, hi = bin_bounds t i in
        let bar = String.make (max 1 (c * 40 / maxc)) '#' in
        Format.fprintf fmt "[%8.3f, %8.3f) %4d %s@." lo hi c bar
      end)
    t.counts;
  if t.overflow > 0 then Format.fprintf fmt "[%8.3f,     +inf) %4d overflow@." t.hi t.overflow

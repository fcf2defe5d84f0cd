(* Order statistics and metric-name rules shared by the driver and its
   tests. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least [p]% of the
   samples at or below it. Every reported percentile is a measured value. *)
let percentile p xs =
  if xs = [] then invalid_arg "Stats.percentile: no samples";
  if not (p > 0. && p <= 100.) then invalid_arg "Stats.percentile: p outside (0, 100]";
  let a = sorted xs in
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

let median xs =
  if xs = [] then invalid_arg "Stats.median: no samples";
  let a = sorted xs in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean xs =
  if xs = [] then invalid_arg "Stats.mean: no samples";
  List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Samples strictly above the nearest-rank p90: the sample count needs at
   least ten of these before p90 is reported as a tail figure. *)
let beyond_p90 xs =
  let p = percentile 90. xs in
  List.length (List.filter (fun x -> x > p) xs)

(* The smallest sample count whose nearest-rank p90 leaves [k] samples
   above it, assuming distinct values. *)
let samples_for_p90_tail k = 10 * k

let valid_name s =
  s <> ""
  && String.length s <= 64
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

type t = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  sum : float;
}

(* Loops over the [float array] rather than the polymorphic
   [Array.fold_left], which boxes every element and accumulator; the
   operations and their order are the folds' own, so results are
   bit-identical. *)
let of_array (xs : float array) =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Summary.of_array: empty sample";
  let sum = ref 0. in
  for i = 0 to n - 1 do
    sum := !sum +. xs.(i)
  done;
  let sum = !sum in
  let mean = sum /. float_of_int n in
  let sq_dev = ref 0. and mn = ref xs.(0) and mx = ref xs.(0) in
  for i = 0 to n - 1 do
    let x = xs.(i) in
    sq_dev := !sq_dev +. ((x -. mean) *. (x -. mean));
    (* [min]/[max]'s own tests, so NaN handling is theirs too *)
    if not (!mn <= x) then mn := x;
    if not (!mx >= x) then mx := x
  done;
  let stddev = if n < 2 then 0. else sqrt (!sq_dev /. float_of_int (n - 1)) in
  { n; mean; stddev; min = !mn; max = !mx; sum }

let of_list xs =
  if xs = [] then invalid_arg "Summary.of_list: empty sample";
  of_array (Array.of_list xs)

(* In-place heap sort in [Float.compare]'s order, the order [compare]
   gives floats. Specialized to [float array]: the polymorphic
   [Array.sort] boxes both operands of every comparison. *)
let sort_floats (a : float array) =
  let rec sift i len =
    let l = (2 * i) + 1 in
    if l < len then begin
      let c = if l + 1 < len && Float.compare a.(l + 1) a.(l) > 0 then l + 1 else l in
      if Float.compare a.(c) a.(i) > 0 then begin
        let t = a.(i) in
        a.(i) <- a.(c);
        a.(c) <- t;
        sift c len
      end
    end
  in
  let n = Array.length a in
  for i = (n / 2) - 1 downto 0 do
    sift i n
  done;
  for len = n - 1 downto 1 do
    let t = a.(0) in
    a.(0) <- a.(len);
    a.(len) <- t;
    sift 0 len
  done

let sorted xs =
  let ys = Array.copy xs in
  sort_floats ys;
  ys

let percentile_sorted ys p =
  if Array.length ys = 0 then invalid_arg "Summary.percentile: empty sample";
  if p < 0. || p > 100. then invalid_arg "Summary.percentile: p out of range";
  let n = Array.length ys in
  if n = 1 then ys.(0)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    let frac = rank -. float_of_int lo in
    (ys.(lo) *. (1. -. frac)) +. (ys.(hi) *. frac)
  end

let percentile xs p = percentile_sorted (sorted xs) p

let spread t = if t.min = 0. then 0. else (t.max -. t.min) /. t.min

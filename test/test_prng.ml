(* Unit and property tests for the SplitMix64 generator. *)

module Rng = Core.Rng

let test_determinism () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:8 in
  Alcotest.(check bool) "different seeds diverge" true (Rng.bits64 a <> Rng.bits64 b)

let test_split_independence () =
  let parent = Rng.create ~seed:3 in
  let child = Rng.split parent in
  let xs = List.init 16 (fun _ -> Rng.bits64 parent) in
  let ys = List.init 16 (fun _ -> Rng.bits64 child) in
  Alcotest.(check bool) "split stream differs" true (xs <> ys)

let test_split_deterministic () =
  let mk () =
    let parent = Rng.create ~seed:3 in
    let child = Rng.split parent in
    (Rng.bits64 parent, Rng.bits64 child)
  in
  Alcotest.(check bool) "split is reproducible" true (mk () = mk ())

let test_int_in_bounds () =
  let r = Rng.create ~seed:1 in
  for _ = 1 to 1000 do
    let v = Rng.int_in r 5 9 in
    Alcotest.(check bool) "in [5,9]" true (v >= 5 && v <= 9)
  done

let test_int_covers_range () =
  let r = Rng.create ~seed:1 in
  let seen = Array.make 8 false in
  for _ = 1 to 1000 do
    seen.(Rng.int r 8) <- true
  done;
  Alcotest.(check bool) "all 8 values appear in 1000 draws" true (Array.for_all Fun.id seen)

let test_float_bounds () =
  let r = Rng.create ~seed:2 in
  for _ = 1 to 1000 do
    let v = Rng.float r 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (v >= 0. && v < 2.5)
  done

let test_jitter_range () =
  let r = Rng.create ~seed:4 in
  for _ = 1 to 1000 do
    let v = Rng.jitter r 0.05 in
    Alcotest.(check bool) "within +/-5%" true (v >= 0.95 && v <= 1.05)
  done

let test_jitter_zero () =
  let r = Rng.create ~seed:4 in
  Alcotest.(check (float 0.)) "no jitter" 1.0 (Rng.jitter r 0.)

let test_exponential_mean () =
  let r = Rng.create ~seed:5 in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    let v = Rng.exponential r ~mean:3.0 in
    Alcotest.(check bool) "positive" true (v > 0.);
    sum := !sum +. v
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 3" true (abs_float (mean -. 3.0) < 0.15)

let prop_int_bounds =
  QCheck.Test.make ~name:"int always in [0, bound)" ~count:500
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let r = Rng.create ~seed in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

let prop_mod_uniformity =
  (* crude chi-square-free uniformity sanity: every residue class of a
     small modulus is hit *)
  QCheck.Test.make ~name:"small modulus residues all covered" ~count:20 QCheck.small_int
    (fun seed ->
      let r = Rng.create ~seed in
      let seen = Array.make 4 0 in
      for _ = 1 to 400 do
        seen.(Rng.int r 4) <- seen.(Rng.int r 4) + 1
      done;
      Array.for_all (fun c -> c > 0) seen)

let suite =
  [ Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "split independence" `Quick test_split_independence;
    Alcotest.test_case "split deterministic" `Quick test_split_deterministic;
    Alcotest.test_case "int_in bounds" `Quick test_int_in_bounds;
    Alcotest.test_case "int covers range" `Quick test_int_covers_range;
    Alcotest.test_case "float bounds" `Quick test_float_bounds;
    Alcotest.test_case "jitter range" `Quick test_jitter_range;
    Alcotest.test_case "jitter zero" `Quick test_jitter_zero;
    Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
    QCheck_alcotest.to_alcotest prop_int_bounds;
    QCheck_alcotest.to_alcotest prop_mod_uniformity;
  ]

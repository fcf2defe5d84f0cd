(* Tests for summaries, regression, histograms and series. *)

module Summary = Core.Summary
module Regression = Core.Regression
module Histogram = Core.Histogram
module Series = Core.Series

let feq = Alcotest.float 1e-9

let test_summary_known () =
  let s = Summary.of_list [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ] in
  Alcotest.(check feq) "mean" 5.0 s.Summary.mean;
  Alcotest.(check int) "n" 8 s.Summary.n;
  Alcotest.(check feq) "min" 2.0 s.Summary.min;
  Alcotest.(check feq) "max" 9.0 s.Summary.max;
  (* sample stddev with n-1: sqrt(32/7) *)
  Alcotest.(check (Alcotest.float 1e-6)) "stddev" (sqrt (32. /. 7.)) s.Summary.stddev

let test_summary_singleton () =
  let s = Summary.of_list [ 3.5 ] in
  Alcotest.(check feq) "mean" 3.5 s.Summary.mean;
  Alcotest.(check feq) "stddev" 0.0 s.Summary.stddev

let test_summary_empty () =
  Alcotest.check_raises "empty raises" (Invalid_argument "Summary.of_list: empty sample") (fun () ->
      ignore (Summary.of_list []))

let test_percentile () =
  let xs = [| 10.; 20.; 30.; 40. |] in
  Alcotest.(check feq) "p0 is min" 10. (Summary.percentile xs 0.);
  Alcotest.(check feq) "p100 is max" 40. (Summary.percentile xs 100.);
  Alcotest.(check feq) "p50 interpolates" 25. (Summary.percentile xs 50.)

let test_percentile_edges () =
  (* n = 1: every percentile is the lone sample. *)
  let one = [| 7.5 |] in
  Alcotest.(check feq) "n=1 p0" 7.5 (Summary.percentile one 0.);
  Alcotest.(check feq) "n=1 p50" 7.5 (Summary.percentile one 50.);
  Alcotest.(check feq) "n=1 p100" 7.5 (Summary.percentile one 100.);
  (* n = 2: interior percentiles interpolate on the (n-1) rank scale. *)
  let two = [| 10.; 30. |] in
  Alcotest.(check feq) "n=2 p25" 15. (Summary.percentile two 25.);
  Alcotest.(check feq) "n=2 p75" 25. (Summary.percentile two 75.);
  (* Ties: interpolation between equal neighbours stays put. *)
  let ties = [| 5.; 5.; 5.; 9. |] in
  Alcotest.(check feq) "ties p50" 5. (Summary.percentile ties 50.);
  Alcotest.(check feq) "all-equal p99" 4. (Summary.percentile [| 4.; 4.; 4. |] 99.);
  (* Unsorted input is sorted internally. *)
  Alcotest.(check feq) "unsorted p100" 40. (Summary.percentile [| 40.; 10.; 20. |] 100.)

let test_spread () =
  let s = Summary.of_list [ 10.; 12. ] in
  Alcotest.(check feq) "(max-min)/min" 0.2 (Summary.spread s)

let test_regression_exact () =
  let pts = List.map (fun x -> (float_of_int x, (2.5 *. float_of_int x) +. 1.)) [ 1; 2; 3; 4; 5 ] in
  let r = Regression.fit pts in
  Alcotest.(check (Alcotest.float 1e-9)) "slope" 2.5 r.Regression.slope;
  Alcotest.(check (Alcotest.float 1e-9)) "intercept" 1.0 r.Regression.intercept;
  Alcotest.(check (Alcotest.float 1e-9)) "r2" 1.0 r.Regression.r2

let test_regression_degenerate () =
  Alcotest.check_raises "one point" (Invalid_argument "Regression.fit: need at least two points")
    (fun () -> ignore (Regression.fit [ (1., 1.) ]));
  Alcotest.check_raises "vertical" (Invalid_argument "Regression.fit: all x values identical")
    (fun () -> ignore (Regression.fit [ (1., 1.); (1., 2.) ]))

let test_regression_r2_noise () =
  let r = Regression.fit [ (0., 0.); (1., 1.5); (2., 1.7); (3., 3.4) ] in
  Alcotest.(check bool) "r2 below 1 with noise" true (r.Regression.r2 < 1.0 && r.Regression.r2 > 0.8)

let test_histogram_counts () =
  let h = Histogram.create ~lo:0. ~hi:10. ~bins:5 in
  (* bins are 2 wide: [0,2) [2,4) [4,6) [6,8) [8,10) *)
  List.iter (Histogram.add h) [ 0.5; 1.5; 2.5; 2.6; 9.9 ];
  Alcotest.(check int) "total" 5 (Histogram.count h);
  Alcotest.(check int) "bin0" 2 (Histogram.bin_count h 0);
  Alcotest.(check int) "bin1" 2 (Histogram.bin_count h 1);
  Alcotest.(check int) "bin4" 1 (Histogram.bin_count h 4)

(* Out-of-range samples used to be clamped into the edge bins (and NaN
   landed in bin 0), silently distorting tail percentiles; they are now
   tracked separately. *)
let test_histogram_out_of_range () =
  let h = Histogram.create ~lo:0. ~hi:10. ~bins:5 in
  Histogram.add h (-3.);
  Histogram.add h 42.;
  Histogram.add h 10.;  (* hi itself is outside the half-open range *)
  Histogram.add h 5.;
  Alcotest.(check int) "bin0 untouched" 0 (Histogram.bin_count h 0);
  Alcotest.(check int) "bin4 untouched" 0 (Histogram.bin_count h 4);
  Alcotest.(check int) "underflow" 1 (Histogram.underflow h);
  Alcotest.(check int) "overflow" 2 (Histogram.overflow h);
  Alcotest.(check int) "count includes out-of-range" 4 (Histogram.count h);
  Alcotest.(check int) "binned excludes them" 1 (Histogram.binned h)

let test_histogram_rejects_nan () =
  let h = Histogram.create ~lo:0. ~hi:10. ~bins:5 in
  Alcotest.check_raises "NaN raises" (Invalid_argument "Histogram.add: NaN sample") (fun () ->
      Histogram.add h Float.nan);
  Alcotest.(check int) "nothing recorded" 0 (Histogram.count h)

let test_histogram_bounds_validation () =
  Alcotest.check_raises "lo >= hi" (Invalid_argument "Histogram.create: lo >= hi") (fun () ->
      ignore (Histogram.create ~lo:1. ~hi:1. ~bins:3))

let test_series_accessors () =
  let s = Series.make ~label:"s" [ (1., 10.); (2., 20.); (3., 15.) ] in
  Alcotest.(check (list (Alcotest.float 0.))) "xs" [ 1.; 2.; 3. ] (Series.xs s)

let test_series_of_summaries () =
  let s = Series.of_summaries ~label:"s" [ (1., Summary.of_list [ 2.; 4. ]) ] in
  match s.Series.points with
  | [ p ] ->
      Alcotest.(check feq) "y is mean" 3.0 p.Series.y;
      Alcotest.(check bool) "err is stddev" true (p.Series.err > 0.)
  | _ -> Alcotest.fail "expected one point"

let prop_summary_bounds =
  QCheck.Test.make ~name:"mean within [min, max]" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 40) (float_bound_exclusive 1000.))
    (fun xs ->
      QCheck.assume (xs <> []);
      let s = Summary.of_list xs in
      s.Summary.min <= s.Summary.mean +. 1e-9 && s.Summary.mean <= s.Summary.max +. 1e-9)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile monotone in p" ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 2 30) (float_bound_exclusive 100.)) (pair (int_bound 100) (int_bound 100)))
    (fun (xs, (p1, p2)) ->
      QCheck.assume (xs <> []);
      let a = Array.of_list xs in
      let lo = min p1 p2 and hi = max p1 p2 in
      Summary.percentile a (float_of_int lo) <= Summary.percentile a (float_of_int hi) +. 1e-9)

(* The float-specialized sort and loops against the polymorphic stdlib
   code they replace, bit for bit; [xs @ xs] puts ties in every case. *)
let prop_summary_matches_stdlib =
  QCheck.Test.make ~name:"sorted and of_array match the stdlib folds and sort" ~count:300
    QCheck.(list_of_size Gen.(int_range 1 60) (float_range (-1000.) 1000.))
    (fun xs ->
      let a = Array.of_list (xs @ xs) in
      let reference = Array.copy a in
      Array.sort compare reference;
      let bits = Array.map Int64.bits_of_float in
      let s = Summary.of_array a in
      let n = float_of_int (Array.length a) in
      let sum = Array.fold_left ( +. ) 0. a in
      let mean = sum /. n in
      let sq = Array.fold_left (fun acc x -> acc +. ((x -. mean) *. (x -. mean))) 0. a in
      bits (Summary.sorted a) = bits reference
      && bits [| s.Summary.sum; s.mean; s.stddev; s.min; s.max |]
         = bits
             [| sum; mean; sqrt (sq /. (n -. 1.)); Array.fold_left min a.(0) a;
                Array.fold_left max a.(0) a |])

let prop_regression_recovers_line =
  QCheck.Test.make ~name:"regression recovers exact lines" ~count:200
    QCheck.(pair (float_range (-5.) 5.) (float_range (-5.) 5.))
    (fun (slope, intercept) ->
      let pts = List.map (fun x -> (float_of_int x, (slope *. float_of_int x) +. intercept)) [ 0; 1; 2; 5 ] in
      let r = Regression.fit pts in
      abs_float (r.Regression.slope -. slope) < 1e-6
      && abs_float (r.Regression.intercept -. intercept) < 1e-6)

let suite =
  [ Alcotest.test_case "summary known values" `Quick test_summary_known;
    Alcotest.test_case "summary singleton" `Quick test_summary_singleton;
    Alcotest.test_case "summary empty" `Quick test_summary_empty;
    Alcotest.test_case "percentile" `Quick test_percentile;
    Alcotest.test_case "percentile edges" `Quick test_percentile_edges;
    Alcotest.test_case "spread" `Quick test_spread;
    Alcotest.test_case "regression exact" `Quick test_regression_exact;
    Alcotest.test_case "regression degenerate" `Quick test_regression_degenerate;
    Alcotest.test_case "regression r2 with noise" `Quick test_regression_r2_noise;
    Alcotest.test_case "histogram counts" `Quick test_histogram_counts;
    Alcotest.test_case "histogram out-of-range" `Quick test_histogram_out_of_range;
    Alcotest.test_case "histogram rejects NaN" `Quick test_histogram_rejects_nan;
    Alcotest.test_case "histogram validation" `Quick test_histogram_bounds_validation;
    Alcotest.test_case "series accessors" `Quick test_series_accessors;
    Alcotest.test_case "series of summaries" `Quick test_series_of_summaries;
    QCheck_alcotest.to_alcotest prop_summary_bounds;
    QCheck_alcotest.to_alcotest prop_percentile_monotone;
    QCheck_alcotest.to_alcotest prop_summary_matches_stdlib;
    QCheck_alcotest.to_alcotest prop_regression_recovers_line;
  ]

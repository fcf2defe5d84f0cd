(* Tests for the tables, plots and CSV export. *)

module Table = Core.Table
module Plot = Core.Plot
module Csv = Core.Csv
module Series = Core.Series

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  nl = 0 || scan 0

let test_table_renders () =
  let t = Table.make ~title:"T" ~header:[ "a"; "b" ] in
  Table.row t [ "1"; "2" ];
  Table.rowf t "a note: %d" 42;
  let s = Table.to_string t in
  Alcotest.(check bool) "title" true (contains s "T");
  Alcotest.(check bool) "header" true (contains s "| a ");
  Alcotest.(check bool) "row" true (contains s "| 1 ");
  Alcotest.(check bool) "note" true (contains s "a note: 42")

let test_table_width_fits_content () =
  let t = Table.make ~title:"T" ~header:[ "x" ] in
  Table.row t [ "wide-cell-content" ];
  let s = Table.to_string t in
  Alcotest.(check bool) "content not truncated" true (contains s "wide-cell-content")

let test_table_arity_check () =
  let t = Table.make ~title:"T" ~header:[ "a"; "b" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.row: cell count does not match header")
    (fun () -> Table.row t [ "only-one" ])

let test_cell_formats () =
  Alcotest.(check string) "6 decimals" "23.280357" (Table.cell_f 23.280357);
  Alcotest.(check string) "2 decimals" "23.28" (Table.cell_f2 23.28)

let test_plot_renders_data () =
  let s = Series.make ~label:"curve" [ (1., 1.); (2., 4.); (3., 9.) ] in
  let out = Plot.render ~title:"P" ~x_label:"x" ~y_label:"y" [ s ] in
  Alcotest.(check bool) "title" true (contains out "P");
  Alcotest.(check bool) "legend" true (contains out "* = curve");
  Alcotest.(check bool) "x label" true (contains out "(x)");
  Alcotest.(check bool) "has points" true (contains out "*")

let test_plot_empty () =
  let out = Plot.render ~title:"E" ~x_label:"x" ~y_label:"y" [] in
  Alcotest.(check bool) "graceful" true (contains out "no data")

let test_plot_multi_series_glyphs () =
  let a = Series.make ~label:"a" [ (1., 1.) ] in
  let b = Series.make ~label:"b" [ (2., 2.) ] in
  let out = Plot.render ~title:"M" ~x_label:"x" ~y_label:"y" [ a; b ] in
  Alcotest.(check bool) "first glyph" true (contains out "* = a");
  Alcotest.(check bool) "second glyph" true (contains out "o = b")

(* Rows joined on x, missing points empty, and a label with a comma
   and a quote quoted with the quote doubled. *)
let test_csv_of_series () =
  let a = Series.make ~label:"a" [ (1., 10.); (2., 20.) ] in
  let b = Series.make ~label:{|b,"q"|} [ (2., 7.) ] in
  Alcotest.(check string) "csv"
    {|x,a,a_err,"b,""q""","b,""q""_err"
1,10,0,,
2,20,0,7,0
|}
    (Csv.of_series [ a; b ])

let suite =
  [ Alcotest.test_case "table renders" `Quick test_table_renders;
    Alcotest.test_case "table width fits" `Quick test_table_width_fits_content;
    Alcotest.test_case "table arity" `Quick test_table_arity_check;
    Alcotest.test_case "cell formats" `Quick test_cell_formats;
    Alcotest.test_case "plot renders" `Quick test_plot_renders_data;
    Alcotest.test_case "plot empty" `Quick test_plot_empty;
    Alcotest.test_case "plot glyphs" `Quick test_plot_multi_series_glyphs;
    Alcotest.test_case "csv series" `Quick test_csv_of_series;
  ]

(* Tests for the kernel regression gate (Mb_suite.Compare) against
   synthetic BENCH_kernels.json pairs: pass, regression, fresh-only
   tolerated, missing fails, host-block warnings across schemas, the
   degenerate shared-set guards, the raw GC gate, and the CLI exit
   codes. *)

module Compare = Core.Suite.Compare

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let contains_any lines needle = List.exists (fun l -> contains l needle) lines

(* Render a synthetic kernels file. [gc] adds a kernel_gc block,
   [host] a schema-3 host block. *)
let kernels_json ?host ?(gc = []) kernels =
  let b = Buffer.create 256 in
  Buffer.add_string b "{\n  \"schema\": 3,\n";
  (match host with
  | Some (cores, model) ->
      Buffer.add_string b
        (Printf.sprintf "  \"host\": {\"cores\": %d, \"cpu_model\": \"%s\"},\n"
           cores model)
  | None -> ());
  Buffer.add_string b "  \"kernels_ns_per_run\": {";
  Buffer.add_string b
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %.1f" k v) kernels));
  Buffer.add_string b "}";
  if gc <> [] then begin
    Buffer.add_string b ",\n  \"kernel_gc\": {";
    Buffer.add_string b
      (String.concat ", "
         (List.map
            (fun (k, v) -> Printf.sprintf "\"%s\": {\"minor_words_per_run\": %.1f}" k v)
            gc));
    Buffer.add_string b "}"
  end;
  Buffer.add_string b "\n}\n";
  Buffer.contents b

let with_pair base fresh f =
  let wfile text =
    let path = Filename.temp_file "mb_compare" ".json" in
    Out_channel.with_open_text path (fun oc -> output_string oc text);
    path
  in
  let b = wfile base and fr = wfile fresh in
  Fun.protect
    ~finally:(fun () -> List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ b; fr ])
    (fun () -> f b fr)

let compare_exn ?threshold ?gc_threshold base fresh =
  with_pair base fresh (fun b f ->
      match Compare.compare_files ?threshold ?gc_threshold ~baseline:b ~fresh:f () with
      | Ok r -> r
      | Error e -> Alcotest.failf "compare errored: %s" e)

let four = [ ("sim", 100.); ("vm", 200.); ("alloc", 300.); ("cache", 400.) ]

let scaled factor = List.map (fun (k, v) -> (k, v *. factor)) four

let test_identical_files_pass () =
  let t = kernels_json four in
  let r = compare_exn t t in
  Alcotest.(check bool) "ok" true r.Compare.ok;
  Alcotest.(check (list string)) "no regressions" [] r.Compare.regressions;
  Alcotest.(check (list string)) "no warnings" [] r.Compare.warnings

let test_uniform_slowdown_passes () =
  (* 2x across the board is a host factor, not a regression. *)
  let r = compare_exn (kernels_json four) (kernels_json (scaled 2.0)) in
  Alcotest.(check bool) "ok" true r.Compare.ok

let test_single_kernel_regression_fails () =
  let fresh = [ ("sim", 100.); ("vm", 200.); ("alloc", 300.); ("cache", 520.) ] in
  let r = compare_exn (kernels_json four) (kernels_json fresh) in
  Alcotest.(check bool) "fails" false r.Compare.ok;
  Alcotest.(check (list string)) "names cache" [ "cache" ] r.Compare.regressions;
  Alcotest.(check bool) "report flags it" true (contains_any r.Compare.lines "<-- REGRESSION")

let test_threshold_is_respected () =
  let fresh = [ ("sim", 100.); ("vm", 200.); ("alloc", 300.); ("cache", 520.) ] in
  let r = compare_exn ~threshold:1.5 (kernels_json four) (kernels_json fresh) in
  Alcotest.(check bool) "30%% passes a 50%% threshold" true r.Compare.ok

let test_fresh_only_kernel_tolerated () =
  let r = compare_exn (kernels_json four) (kernels_json (("new", 50.) :: four)) in
  Alcotest.(check bool) "ok" true r.Compare.ok;
  Alcotest.(check (list string)) "added" [ "new" ] r.Compare.added

let test_missing_kernel_fails () =
  let r = compare_exn (kernels_json four) (kernels_json (List.tl four)) in
  Alcotest.(check bool) "fails" false r.Compare.ok;
  Alcotest.(check (list string)) "missing" [ "sim" ] r.Compare.missing

let test_empty_common_fails () =
  let r = compare_exn (kernels_json [ ("a", 1.) ]) (kernels_json [ ("b", 1.) ]) in
  Alcotest.(check bool) "fails" false r.Compare.ok;
  Alcotest.(check bool) "says so" true (contains_any r.Compare.lines "no kernels in common")

let test_singleton_common_uses_raw_ratios () =
  (* One shared kernel: normalization would always yield 1.0; the
     guard gates on the raw 2x and warns. *)
  let r = compare_exn (kernels_json [ ("a", 100.) ]) (kernels_json [ ("a", 200.) ]) in
  Alcotest.(check bool) "raw 2x fails" false r.Compare.ok;
  Alcotest.(check bool) "warns" true (contains_any r.Compare.warnings "too few")

let test_pair_common_uses_raw_ratios () =
  (* Two shared kernels regressing together would cancel in the
     median; below three the gate stays raw. *)
  let base = kernels_json [ ("a", 100.); ("b", 100.) ] in
  let fresh = kernels_json [ ("a", 200.); ("b", 200.) ] in
  let r = compare_exn base fresh in
  Alcotest.(check bool) "fails" false r.Compare.ok;
  Alcotest.(check int) "both flagged" 2 (List.length r.Compare.regressions)

let test_host_mismatch_warns_with_both_blocks () =
  let base = kernels_json ~host:(4, "xeon") four in
  let fresh = kernels_json ~host:(64, "epyc") four in
  let r = compare_exn base fresh in
  Alcotest.(check bool) "still ok" true r.Compare.ok;
  let w = String.concat "\n" r.Compare.warnings in
  Alcotest.(check bool) "mentions mismatch" true (contains w "host mismatch");
  Alcotest.(check bool) "carries baseline block" true (contains w "xeon");
  Alcotest.(check bool) "carries fresh block" true (contains w "epyc")

let test_matching_hosts_stay_silent () =
  let t = kernels_json ~host:(4, "xeon") four in
  let r = compare_exn t t in
  Alcotest.(check (list string)) "no warnings" [] r.Compare.warnings

let test_schema_2_vs_3_warns_one_sided () =
  let r = compare_exn (kernels_json ~host:(4, "xeon") four) (kernels_json four) in
  Alcotest.(check bool) "ok" true r.Compare.ok;
  Alcotest.(check bool) "names the schema-2 side" true
    (contains_any r.Compare.warnings "fresh file has no host block");
  let r' = compare_exn (kernels_json four) (kernels_json ~host:(4, "xeon") four) in
  Alcotest.(check bool) "other side too" true
    (contains_any r'.Compare.warnings "baseline has no host block")

let test_gc_regression_fails_raw () =
  let base = kernels_json ~gc:[ ("sim", 1000.); ("vm", 500.) ] four in
  let fresh = kernels_json ~gc:[ ("sim", 2000.); ("vm", 500.) ] four in
  let r = compare_exn base fresh in
  Alcotest.(check bool) "fails" false r.Compare.ok;
  Alcotest.(check (list string)) "gc regression on sim" [ "sim" ] r.Compare.gc_regressions;
  (* and the gc gate has its own threshold *)
  let r' = compare_exn ~gc_threshold:3.0 base fresh in
  Alcotest.(check bool) "looser gc threshold passes" true r'.Compare.ok

let test_malformed_files_error () =
  (match with_pair "{ not json" (kernels_json four) (fun b f ->
       Compare.compare_files ~baseline:b ~fresh:f ())
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed baseline accepted");
  match with_pair "{\"schema\": 3}" (kernels_json four) (fun b f ->
      Compare.compare_files ~baseline:b ~fresh:f ())
  with
  | Error e ->
      Alcotest.(check bool) "names the missing field" true (contains e "kernels_ns_per_run")
  | Ok _ -> Alcotest.fail "kernel-less baseline accepted"

(* main: argv in, exit status out (stdout is captured by alcotest). *)
let test_main_exit_codes () =
  let code ?(threshold = []) base fresh =
    with_pair base fresh (fun b f -> Compare.main (("compare" :: b :: f :: threshold) @ []))
  in
  Alcotest.(check int) "ok -> 0" 0 (code (kernels_json four) (kernels_json four));
  Alcotest.(check int) "regression -> 1" 1
    (code (kernels_json four)
       (kernels_json [ ("sim", 100.); ("vm", 200.); ("alloc", 300.); ("cache", 520.) ]));
  Alcotest.(check int) "parse error -> 2" 2 (code "{" (kernels_json four));
  Alcotest.(check int) "bad threshold -> 2" 2
    (code ~threshold:[ "0.5" ] (kernels_json four) (kernels_json four));
  Alcotest.(check int) "usage -> 2" 2 (Compare.main [ "compare" ])

let suite =
  [ Alcotest.test_case "identical files pass" `Quick test_identical_files_pass;
    Alcotest.test_case "uniform slowdown passes" `Quick test_uniform_slowdown_passes;
    Alcotest.test_case "25% regression fails" `Quick test_single_kernel_regression_fails;
    Alcotest.test_case "threshold respected" `Quick test_threshold_is_respected;
    Alcotest.test_case "fresh-only kernel tolerated" `Quick test_fresh_only_kernel_tolerated;
    Alcotest.test_case "missing kernel fails" `Quick test_missing_kernel_fails;
    Alcotest.test_case "empty common fails" `Quick test_empty_common_fails;
    Alcotest.test_case "singleton common is raw" `Quick test_singleton_common_uses_raw_ratios;
    Alcotest.test_case "pair common is raw" `Quick test_pair_common_uses_raw_ratios;
    Alcotest.test_case "host mismatch warns" `Quick test_host_mismatch_warns_with_both_blocks;
    Alcotest.test_case "matching hosts silent" `Quick test_matching_hosts_stay_silent;
    Alcotest.test_case "schema 2 vs 3 warns" `Quick test_schema_2_vs_3_warns_one_sided;
    Alcotest.test_case "GC regression fails raw" `Quick test_gc_regression_fails_raw;
    Alcotest.test_case "malformed files error" `Quick test_malformed_files_error;
    Alcotest.test_case "main exit codes" `Quick test_main_exit_codes;
  ]

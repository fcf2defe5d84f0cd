(* The benchmark driver: one workload, one seed, one mode.

     driver.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--setup-only]

   Runs every simulation from this one thread, with one domain and no
   pool. --trace 0 prints the end-to-end metrics measured with
   observation off; --trace 1 prints the per-layer metrics. Human-readable
   lines come first; the last line is one JSON object. --setup-only stops
   before the first timed simulation, so the caller can time set-up. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: driver.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--setup-only]";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all));
  exit 2

(* Knobs that would change what is measured: the in-simulation executor,
   shard and batch widths, the pool width, and GC parameters. The only
   values accepted are the ones the benchmark runs with. *)
let guard_env () =
  let bad =
    List.filter_map
      (fun (var, ok) ->
        match Sys.getenv_opt var with
        | None | Some "" -> None
        | Some v when List.mem v ok -> None
        | Some v -> Some (Printf.sprintf "%s=%s" var v))
      [ ("MALLOC_REPRO_DOMAINS", [ "1" ]);
        ("MALLOC_REPRO_SHARDS", []);
        ("MALLOC_REPRO_WINDOW_BATCH", []);
        ("MALLOC_REPRO_JOBS", [ "1" ]);
        ("OCAMLRUNPARAM", [ "b"; "b=1"; "b=0" ]);
        ("CAMLRUNPARAM", [ "b"; "b=1"; "b=0" ]);
      ]
  in
  if bad <> [] then begin
    prerr_endline ("refusing to run: " ^ String.concat " " bad ^ " would change what is measured");
    exit 2
  end

let cpu_model () =
  match
    In_channel.with_open_text "/proc/cpuinfo" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> None
          | Some line when String.starts_with ~prefix:"model name" line -> (
              match String.index_opt line ':' with
              | Some i -> Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
              | None -> scan ())
          | Some _ -> scan ()
        in
        scan ())
  with
  | Some model -> model
  | None | (exception Sys_error _) -> "unknown"

let print_host () =
  let g = Gc.get () in
  Printf.printf "host: cores=%d cpu=%S ocaml=%s word=%d\n"
    (Domain.recommended_domain_count ())
    (cpu_model ()) Sys.ocaml_version Sys.word_size;
  Printf.printf
    "gc: minor_heap_size=%d space_overhead=%d max_overhead=%d stack_limit=%d allocation_policy=%d window_size=%d custom_major_ratio=%d custom_minor_ratio=%d custom_minor_max_size=%d\n"
    g.Gc.minor_heap_size g.space_overhead g.max_overhead g.stack_limit g.allocation_policy
    g.window_size g.custom_major_ratio g.custom_minor_ratio g.custom_minor_max_size

let json_number v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let print_result tally metrics =
  List.iter
    (fun { Bench.name; value; unit_ } -> Printf.printf "  %-34s %18s %s\n" name (json_number value) unit_)
    metrics;
  List.iter (fun e -> Printf.printf "error: %s\n" e) (List.rev tally.Bench.errors);
  let ms =
    List.map
      (fun { Bench.name; value; unit_ } ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value) unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (tally.failed = 0 && tally.attempted > 0)
    tally.attempted tally.failed (String.concat ", " ms)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let setup_only = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> (match int_of_string_opt v with Some s -> seed := s | None -> usage ()); parse rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with Some s when s > 0. -> seconds := s | _ -> usage ());
        parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := int_of_string v; parse rest
    | "--setup-only" :: rest -> setup_only := true; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  guard_env ();
  let w = match Workloads.find !workload with Some w -> w | None -> usage () in
  print_host ();
  let tally = Bench.tally () in
  let seeds = Bench.seeds_of ~seed:!seed in
  (* The traced run measures the first seed only. *)
  let seeds = if !trace = 0 then seeds else [| seeds.(0) |] in
  let su = Bench.setup tally w ~seeds in
  if !setup_only then begin
    Printf.printf "setup: %d simulations, %d failed\n" tally.attempted tally.failed;
    (* run.py scales this process's wall time by it, like every host time. *)
    Printf.printf "speed: %.17g\n" (Bench.speed ());
    exit (if tally.failed = 0 then 0 else 1)
  end;
  let metrics =
    if !trace = 0 then begin
      let by_seed = Bench.untraced tally w su ~budget_s:!seconds ~min_n:Bench.min_sims in
      let sims = List.concat (Array.to_list by_seed) in
      let times = Bench.seed_medians by_seed in
      if sims <> [] then begin
        let wall = List.map (fun s -> s.Bench.wall) sims in
        Printf.printf
          "%s seed=%d: %d timed simulations over seeds %d-%d, %d seed medians beyond p90\n"
          w.name !seed (List.length sims) seeds.(0) seeds.(Array.length seeds - 1)
          (Stats.beyond_p90 times);
        Printf.printf "raw wall ms per simulation: p50 %.3f p90 %.3f\n" (Stats.median wall)
          (Stats.percentile 90. wall)
      end;
      Bench.end_to_end tally by_seed
    end
    else
      match Bench.per_layer tally w su ~seconds:!seconds with
      | ms -> ms
      | exception Failure msg ->
          tally.errors <- msg :: tally.errors;
          []
  in
  print_result tally metrics;
  if metrics = [] then exit 1

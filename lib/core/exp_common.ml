module Bench1 = Mb_workload.Bench1
module Summary = Mb_stats.Summary
module Pool = Mb_parallel.Pool

type opts = { quick : bool; seed : int }

let quick_opts = { quick = true; seed = 1 }

let pick opts ~full ~quick = if opts.quick then quick else full

let bench1_runs params ~runs =
  (* Each repeat is seeded independently, so the repeats are embarrassingly
     parallel; joining in submission order keeps the result list identical
     to the sequential List.init it replaces. *)
  let results =
    Pool.map_list (Pool.global ()) ~key:"bench1-run"
      ~f:(fun i () -> Bench1.run { params with Bench1.seed = params.Bench1.seed + (i * 101) })
      (List.init runs (fun _ -> ()))
  in
  let workers = params.Bench1.workers in
  (* Single-pass transpose: materialize each run's per-worker times once
     (O(runs * workers)) instead of List.nth per cell (O(runs * workers^2)). *)
  let rows = List.map (fun r -> Array.of_list r.Bench1.scaled_s) results in
  let per_position =
    List.init workers (fun pos -> Summary.of_list (List.map (fun row -> row.(pos)) rows))
  in
  (per_position, results)

let mean_of summaries =
  let total = List.fold_left (fun acc s -> acc +. s.Summary.mean) 0. summaries in
  total /. float_of_int (List.length summaries)

let single_thread_time params =
  let r = Bench1.run { params with Mb_workload.Bench1.workers = 1 } in
  List.hd r.Bench1.scaled_s

let paper_series ~label pts = Mb_stats.Series.make ~label pts

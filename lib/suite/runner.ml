module Arm = Mb_machine.Arm

type exp_result = { print : unit -> unit; ok : bool }

type exp_registry = {
  exp_ids : string list;
  exp_run : string -> quick:bool -> seed:int -> (unit -> exp_result) option;
}

(* --- one compiled cell -------------------------------------------------- *)

let scale ~quick ~q ~f = if quick then q else f

(* A cell compiles to a thunk that runs it quietly and returns its
   printable result: pool tasks must not print themselves, so the
   joining domain prints, in expansion order. *)
let compile ~registry ~quick (cell : Spec.cell) =
  let seed = cell.Spec.cell_seed in
  let key = cell.Spec.key in
  let machine () =
    match cell.Spec.machine with
    | Some name -> (
        match Mb_machine.Configs.by_name name with
        | Some config -> Ok config
        | None -> Error (Printf.sprintf "suite: unknown machine %S in cell %s" name key))
    | None -> Error (Printf.sprintf "suite: cell %s carries no machine" key)
  in
  let factory () =
    match cell.Spec.allocator with
    | Some name -> (
        match Mb_workload.Factory.by_name name with
        | Some f -> Ok f
        | None -> Error (Printf.sprintf "suite: unknown allocator %S in cell %s" name key))
    | None -> Error (Printf.sprintf "suite: cell %s carries no allocator" key)
  in
  match cell.Spec.workload with
  | Spec.Exp_all -> Error (Printf.sprintf "suite: unexpanded exp:* cell %s" key)
  | Spec.Exp id -> (
      match registry.exp_run id ~quick ~seed with
      | None -> Error (Printf.sprintf "suite: unknown experiment id %S" id)
      | Some thunk -> Ok thunk)
  | Spec.Bench1 -> (
      match (machine (), factory ()) with
      | Error e, _ | _, Error e -> Error e
      | Ok machine, Ok factory ->
          let module B1 = Mb_workload.Bench1 in
          let iterations = scale ~quick ~q:300 ~f:3000 in
          Ok (fun () ->
              let r =
                B1.run
                  { B1.machine;
                    seed;
                    factory;
                    workers = 4;
                    mode = B1.Threads;
                    size = 512;
                    iterations;
                    paper_iterations = iterations;
                  }
              in
              { print =
                  (fun () ->
                    Printf.printf "%s: mean %.6f s, max %.6f s, ctx %d, arenas %d\n" key
                      (B1.mean_scaled r) (B1.max_scaled r) r.B1.ctx_switches r.B1.arenas);
                ok = true;
              }))
  | Spec.Bench2 -> (
      match (machine (), factory ()) with
      | Error e, _ | _, Error e -> Error e
      | Ok machine, Ok factory ->
          let module B2 = Mb_workload.Bench2 in
          Ok (fun () ->
              let r =
                B2.run
                  { B2.machine;
                    seed;
                    factory;
                    threads = 3;
                    rounds = scale ~quick ~q:2 ~f:4;
                    objects_per_thread = scale ~quick ~q:400 ~f:2000;
                    replacements_per_round = scale ~quick ~q:150 ~f:800;
                    size = 40;
                  }
              in
              { print =
                  (fun () ->
                    Printf.printf "%s: faults %d, sbrk %d, mmap %d, arenas %d, foreign %d\n"
                      key r.B2.minor_faults r.B2.sbrk_calls r.B2.mmap_calls
                      r.B2.arenas_created r.B2.foreign_frees);
                ok = true;
              }))
  | Spec.Bench3 -> (
      match (machine (), factory ()) with
      | Error e, _ | _, Error e -> Error e
      | Ok machine, Ok factory ->
          let module B3 = Mb_workload.Bench3 in
          let writes = scale ~quick ~q:20_000 ~f:200_000 in
          Ok (fun () ->
              let r =
                B3.run
                  { B3.default with
                    B3.machine;
                    seed;
                    factory;
                    threads = 2;
                    object_size = 40;
                    writes;
                    paper_writes = writes;
                    aligned = false;
                  }
              in
              { print =
                  (fun () ->
                    Printf.printf "%s: %.6f s, transfers %d, shared lines %d\n" key
                      r.B3.scaled_s r.B3.transfers r.B3.shared_lines);
                ok = true;
              }))
  | Spec.Server_open -> (
      match (machine (), factory ()) with
      | Error e, _ | _, Error e -> Error e
      | Ok machine, Ok factory ->
          let module S = Mb_workload.Server in
          Ok
            (fun () ->
              let r =
                S.run
                  { S.default with
                    S.machine;
                    seed;
                    factory;
                    threads = 4;
                    connections = 64;
                    open_loop =
                      Some
                        { S.process = Mb_workload.Arrivals.Poisson { rate_rps = 450_000. };
                          total_requests = scale ~quick ~q:600 ~f:6000;
                          model = S.Thread_pool { queue_capacity = 256 };
                          churn_mean_requests = 32;
                          read_pct = 60;
                          write_pct = 25;
                        };
                  }
              in
              { print =
                  (fun () ->
                    match r.S.requests with
                    | Some q ->
                        Printf.printf "%s: %d completed, %d dropped, p50 %.0f ns, p99 %.0f ns\n"
                          key q.S.completed q.S.dropped q.S.p50_ns q.S.p99_ns
                    | None -> Printf.printf "%s: no request stats\n" key);
                ok = true;
              }))

(* --- the run ------------------------------------------------------------ *)

let rec compile_all ~registry ~quick = function
  | [] -> Ok []
  | cell :: rest -> (
      match compile ~registry ~quick cell with
      | Error e -> Error e
      | Ok compiled -> (
          match compile_all ~registry ~quick rest with
          | Error e -> Error e
          | Ok more -> Ok ((cell, compiled) :: more)))

let run ~registry (spec : Spec.t) =
  match Spec.expand spec ~exp_ids:registry.exp_ids with
  | Error e -> Error e
  | Ok cells -> (
      let quick = spec.Spec.mode = `Quick in
      match compile_all ~registry ~quick cells with
      | Error e -> Error e
      | Ok pairs ->
          let pool = Mb_parallel.Pool.global () in
          let futures =
            List.map
              (fun ((cell : Spec.cell), exec) ->
                let exec =
                  match cell.Spec.fault with
                  | None -> exec
                  | Some _ as faults -> fun () -> Arm.within { (Arm.current ()) with Arm.faults } exec
                in
                Mb_parallel.Pool.submit pool ~key:cell.Spec.key exec)
              pairs
          in
          let oks =
            List.map2
              (fun (cell : Spec.cell) future ->
                let r = Mb_parallel.Pool.await pool future in
                r.print ();
                (* pass thresholds don't apply mid-storm; graceful
                   completion is the bar, as for experiment --faults *)
                cell.Spec.fault <> None || r.ok)
              cells futures
          in
          (* the storms' runs are their cells' private business; don't
             leak them into the caller's report, but keep every other
             run for the caller to drain *)
          if List.exists (fun (c : Spec.cell) -> c.Spec.fault <> None) cells then
            List.iter
              (fun (r : Arm.run) ->
                if not (Mb_fault.Injector.armed r.Arm.injector) then
                  Arm.publish ~label:(fun () -> r.Arm.label) r.Arm.recorder r.Arm.checker
                    r.Arm.injector)
              (Arm.drain ());
          Ok (List.combine cells oks))

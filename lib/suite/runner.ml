module Arm = Mb_machine.Arm

type exp_result = { print : unit -> unit; ok : bool }

type exp_registry = {
  exp_ids : string list;
  exp_run : string -> quick:bool -> seed:int -> (unit -> exp_result) option;
}

let headline_counters =
  [ "alloc.mallocs";
    "alloc.lock.acquired";
    "alloc.lock.contended";
    "alloc.arena.created";
    "alloc.free.foreign";
    "cache.invalidations";
    "sched.ctx_switches";
    "vm.sbrk_calls";
    "vm.mmap_calls"
  ]

(* Arming is process-global, so a faulted cell gets the whole context
   to itself (the serial path below). *)
let with_cell_ctx (cell : Spec.cell) f =
  match cell.Spec.fault with
  | None -> f ()
  | Some _ as faults ->
      let outer = Arm.current () in
      Arm.set { outer with Arm.faults };
      Fun.protect
        ~finally:(fun () ->
          Arm.set outer;
          (* the storm's runs are this cell's private business; don't
             leak them into the caller's report *)
          ignore (Arm.drain ()))
        f

(* --- one compiled cell -------------------------------------------------- *)

type compiled = {
  exec : unit -> exp_result;
  (* phase A: run once, return the printable result (pool tasks must not
     print themselves — the joining domain prints, in expansion order) *)
  kernel : unit -> (string * float) list;
  (* phase B: run quietly, returning the request percentiles (open-loop
     server cells) or [] *)
}

let scale ~quick ~q ~f = if quick then q else f

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
  let bench run_and_print = Ok { exec = run_and_print; kernel = (fun () -> ignore (run_and_print ()); []) } in
  match cell.Spec.workload with
  | Spec.Exp_all -> Error (Printf.sprintf "suite: unexpanded exp:* cell %s" key)
  | Spec.Exp id -> (
      match registry.exp_run id ~quick ~seed with
      | None -> Error (Printf.sprintf "suite: unknown experiment id %S" id)
      | Some thunk ->
          Ok { exec = thunk; kernel = (fun () -> ignore (thunk ()); []) })
  | Spec.Bench1 -> (
      match (machine (), factory ()) with
      | Error e, _ | _, Error e -> Error e
      | Ok machine, Ok factory ->
          let module B1 = Mb_workload.Bench1 in
          let iterations = scale ~quick ~q:300 ~f:3000 in
          bench (fun () ->
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
          bench (fun () ->
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
          bench (fun () ->
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
          let run () =
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
          let percentiles (r : S.result) =
            match r.S.requests with
            | None -> []
            | Some q -> [ ("p50_ns", q.S.p50_ns); ("p95_ns", q.S.p95_ns); ("p99_ns", q.S.p99_ns) ]
          in
          Ok
            { exec =
                (fun () ->
                  let r = run () in
                  { print =
                      (fun () ->
                        match r.S.requests with
                        | Some q ->
                            Printf.printf
                              "%s: %d completed, %d dropped, p50 %.0f ns, p99 %.0f ns\n" key
                              q.S.completed q.S.dropped q.S.p50_ns q.S.p99_ns
                        | None -> Printf.printf "%s: no request stats\n" key);
                    ok = true;
                  });
              kernel = (fun () -> percentiles (run ()));
            })

(* --- the run ------------------------------------------------------------ *)

let pure (cells : Spec.cell list) = List.for_all (fun c -> c.Spec.fault = None) cells

let rec compile_all ~registry ~quick = function
  | [] -> Ok []
  | cell :: rest -> (
      match compile ~registry ~quick cell with
      | Error e -> Error e
      | Ok compiled -> (
          match compile_all ~registry ~quick rest with
          | Error e -> Error e
          | Ok more -> Ok ((cell, compiled) :: more)))

let run ?jobs ~registry (spec : Spec.t) =
  match Spec.expand spec ~exp_ids:registry.exp_ids with
  | Error e -> Error e
  | Ok cells -> (
      let quick = spec.Spec.mode = `Quick in
      match compile_all ~registry ~quick cells with
      | Error e -> Error e
      | Ok pairs ->
          (* Phase A: execute and print every cell once. *)
          let oks =
            if pure cells then begin
              let fan pool =
                let futures =
                  List.map
                    (fun (cell, comp) ->
                      Mb_parallel.Pool.submit pool ~key:cell.Spec.key comp.exec)
                    pairs
                in
                List.map
                  (fun future ->
                    let r = Mb_parallel.Pool.await pool future in
                    r.print ();
                    r.ok)
                  futures
              in
              match jobs with
              | Some jobs -> Mb_parallel.Pool.with_pool ~jobs fan
              | None -> fan (Mb_parallel.Pool.global ())
            end
            else
              List.map
                (fun (cell, comp) ->
                  with_cell_ctx cell (fun () ->
                      let r = comp.exec () in
                      r.print ();
                      (* pass thresholds don't apply mid-storm; graceful
                         completion is the bar, as for experiment --faults *)
                      cell.Spec.fault <> None || r.ok))
                pairs
          in
          (* Phase B: meter serially, in expansion order. *)
          let reps = max 1 spec.Spec.repeats in
          let data =
            List.map2
              (fun (cell, comp) ok ->
                with_cell_ctx cell (fun () ->
                    ignore (comp.kernel ());  (* warm-up: first-run table growth *)
                    let pct = ref [] in
                    let t0 = Unix.gettimeofday () in
                    let w0 = Gc.minor_words () in
                    for _ = 1 to reps do
                      pct := comp.kernel ()
                    done;
                    let w1 = Gc.minor_words () in
                    let t1 = Unix.gettimeofday () in
                    let armed = Arm.current () in
                    Arm.set { armed with Arm.metrics = true };
                    ignore (comp.kernel ());
                    Arm.set armed;
                    let totals =
                      Mb_obs.Recorder.totals
                        (List.map (fun (r : Arm.run) -> (r.label, r.recorder)) (Arm.drain ()))
                    in
                    ( cell,
                      { History.ok;
                        ns_per_run = (t1 -. t0) *. 1e9 /. float_of_int reps;
                        minor_words_per_run = (w1 -. w0) /. float_of_int reps;
                        counters =
                          List.filter (fun (k, _) -> List.mem k headline_counters) totals;
                        percentiles = !pct;
                      } )))
              pairs oks
          in
          Ok data)

let last_n n xs =
  let len = List.length xs in
  if len <= n then xs else List.filteri (fun i _ -> i >= len - n) xs

(* Every cell key that appears in any selected session, in first-seen
   order — a cell that joins the suite later appends to the bottom
   instead of reshuffling the table. *)
let all_keys sessions =
  List.fold_left
    (fun acc s ->
      List.fold_left
        (fun acc (key, _) -> if List.mem key acc then acc else key :: acc)
        acc s.History.cells)
    [] sessions
  |> List.rev

let render ?(last = 8) (history : History.t) =
  let sessions = last_n last history.History.sessions in
  if sessions = [] then "report: history holds no sessions\n"
  else begin
    let n = List.length sessions in
    (* Short relative labels: s-3 ... s-1, s0 (newest). *)
    let label i = if i = n - 1 then "s0" else Printf.sprintf "s-%d" (n - 1 - i) in
    let header metric = metric :: List.mapi (fun i _ -> label i) sessions in
    let table metric get fmt =
      let t = Mb_report.Table.make ~title:(Printf.sprintf "trend: %s" metric) ~header:(header metric) in
      List.iter
        (fun key ->
          Mb_report.Table.row t
            (key
            :: List.map
                 (fun s ->
                   match List.assoc_opt key s.History.cells with
                   | Some c -> Printf.sprintf fmt (get c)
                   | None -> "-")
                 sessions))
        (all_keys sessions);
      Mb_report.Table.to_string t
    in
    let b = Buffer.create 1024 in
    Buffer.add_string b (table "ns/run" (fun c -> c.History.ns_per_run) "%.0f");
    Buffer.add_char b '\n';
    Buffer.add_string b
      (table "minor words/run" (fun c -> c.History.minor_words_per_run) "%.0f");
    Buffer.add_string b "\nsessions:\n";
    List.iteri
      (fun i s ->
        let tm = Unix.gmtime s.History.time_s in
        Buffer.add_string b
          (Printf.sprintf "  %-4s %s  %04d-%02d-%02d %02d:%02d:%02d UTC  suite %s (%s, seed %d)  host %s\n"
             (label i) s.History.id (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
             tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec s.History.suite
             s.History.mode s.History.seed
             (History.host_to_string s.History.host)))
      sessions;
    Buffer.contents b
  end

let to_csv ?(last = 8) (history : History.t) =
  let sessions = last_n last history.History.sessions in
  let header =
    [ "session"; "time_s"; "suite"; "host_cores"; "cell"; "ok";
      "ns_per_run"; "minor_words_per_run"; "p50_ns"; "p95_ns"; "p99_ns" ]
  in
  let pct c name =
    match List.assoc_opt name c.History.percentiles with
    | Some v -> Printf.sprintf "%.1f" v
    | None -> ""
  in
  let rows =
    List.concat_map
      (fun s ->
        List.map
          (fun (key, c) ->
            [ s.History.id;
              Printf.sprintf "%.0f" s.History.time_s;
              s.History.suite;
              string_of_int s.History.host.History.cores;
              key;
              (if c.History.ok then "1" else "0");
              Printf.sprintf "%.1f" c.History.ns_per_run;
              Printf.sprintf "%.1f" c.History.minor_words_per_run;
              pct c "p50_ns";
              pct c "p95_ns";
              pct c "p99_ns";
            ])
          s.History.cells)
      sessions
  in
  Mb_report.Csv.of_rows (header :: rows)

let print recorders =
  let t = Table.make ~title:"Observed counters" ~header:[ "run"; "counter"; "value" ] in
  List.iter
    (fun (label, r) ->
      List.iter (fun (key, v) -> Table.row t [ label; key; string_of_int v ]) (Mb_obs.Recorder.counters r))
    recorders;
  (match Mb_obs.Recorder.totals recorders with
  | [] -> ()
  | totals ->
      Table.rowf t "totals over %d runs:" (List.length recorders);
      List.iter (fun (key, v) -> Table.row t [ "(all)"; key; string_of_int v ]) totals);
  Table.print t

let print_gc ~(before : Gc.stat) ~(after : Gc.stat) =
  let t =
    Table.make ~title:"Host GC pressure (Gc.quick_stat deltas)"
      ~header:[ "metric"; "delta" ]
  in
  let words name f = Table.row t [ name; Printf.sprintf "%.0f" f ] in
  let count name n = Table.row t [ name; string_of_int n ] in
  words "minor_words" (after.Gc.minor_words -. before.Gc.minor_words);
  words "promoted_words" (after.Gc.promoted_words -. before.Gc.promoted_words);
  words "major_words" (after.Gc.major_words -. before.Gc.major_words);
  count "minor_collections" (after.Gc.minor_collections - before.Gc.minor_collections);
  count "major_collections" (after.Gc.major_collections - before.Gc.major_collections);
  Table.print t

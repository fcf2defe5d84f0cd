let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let us_of_ns ns = ns /. 1000.

let add_args b args =
  Buffer.add_string b ",\"args\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "\"%s\":\"%s\"" (escape k) (escape v))
    args;
  Buffer.add_char b '}'

let meta_line ~pid ?tid ~name ~value () =
  let b = Buffer.create 96 in
  Printf.bprintf b "{\"name\":\"%s\",\"ph\":\"M\",\"pid\":%d" (escape name) pid;
  (match tid with Some t -> Printf.bprintf b ",\"tid\":%d" t | None -> ());
  Printf.bprintf b ",\"args\":{\"name\":\"%s\"}}" (escape value);
  Buffer.contents b

let render ~pid (ev : Recorder.event) =
  let b = Buffer.create 128 in
  if ev.Recorder.dur_ns < 0. then
    Printf.bprintf b "{\"name\":\"%s\",\"cat\":\"sim\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f"
      (escape ev.Recorder.name) (us_of_ns ev.Recorder.ts_ns)
  else
    Printf.bprintf b "{\"name\":\"%s\",\"cat\":\"sim\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f"
      (escape ev.Recorder.name) (us_of_ns ev.Recorder.ts_ns) (us_of_ns ev.Recorder.dur_ns);
  Printf.bprintf b ",\"pid\":%d,\"tid\":%d" pid ev.Recorder.lane;
  if ev.Recorder.args <> [] then add_args b ev.Recorder.args;
  Buffer.add_char b '}';
  Buffer.contents b

(* The one writer: the document goes out line by line through [out],
   so a file is streamed to its channel rather than first built whole
   in memory. One event object per line; the comma of the previous line
   goes out with the next, so the array never ends with a trailing
   comma. *)
let write out runs =
  out "{\"traceEvents\":[";
  let sep = ref false in
  let emit line =
    out (if !sep then ",\n" else "\n");
    sep := true;
    out line
  in
  List.iteri
    (fun pid (label, r) ->
      emit (meta_line ~pid ~name:"process_name" ~value:label ());
      List.iter
        (fun (lane, name) -> emit (meta_line ~pid ~tid:lane ~name:"thread_name" ~value:name ()))
        (Recorder.lanes r);
      (* Stable sort by (lane, start time): per-lane monotonicity in
         file order, and equal-time events keep emission order. *)
      let evs =
        List.stable_sort
          (fun (a : Recorder.event) (b : Recorder.event) ->
            if a.Recorder.lane <> b.Recorder.lane then compare a.Recorder.lane b.Recorder.lane
            else compare a.Recorder.ts_ns b.Recorder.ts_ns)
          (Recorder.events r)
      in
      List.iter (fun ev -> emit (render ~pid ev)) evs)
    runs;
  out "\n],\"displayTimeUnit\":\"ns\"}\n"

let to_string runs =
  let b = Buffer.create 4096 in
  write (Buffer.add_string b) runs;
  Buffer.contents b

let write_file path runs =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write (output_string oc) runs)

let event_total runs = List.fold_left (fun acc (_, r) -> acc + Recorder.event_count r) 0 runs

let schema = 1

type host = { cores : int; cpu_model : string }

type cell_data = {
  ok : bool;
  ns_per_run : float;
  minor_words_per_run : float;
  counters : (string * int) list;
  percentiles : (string * float) list;
}

type session = {
  id : string;
  time_s : float;
  suite : string;
  mode : string;
  seed : int;
  host : host;
  cells : (string * cell_data) list;
}

type t = { sessions : session list }

let empty = { sessions = [] }

(* --- host block --------------------------------------------------------- *)

let host_cpu_model () =
  match
    In_channel.with_open_text "/proc/cpuinfo" (fun ic ->
        let rec scan () =
          match In_channel.input_line ic with
          | None -> None
          | Some line -> (
              match String.index_opt line ':' with
              | Some i when String.length line >= 10 && String.sub line 0 10 = "model name" ->
                  Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
              | _ -> scan ())
        in
        scan ())
  with
  | Some model -> model
  | None | (exception Sys_error _) -> "unknown"

let current_host () =
  { cores = Domain.recommended_domain_count ();
    cpu_model = host_cpu_model ();
  }

let host_to_string h = Printf.sprintf "{cores %d, \"%s\"}" h.cores h.cpu_model

(* --- JSON mapping ------------------------------------------------------- *)

let json_of_host h =
  Json.Obj
    [ ("cores", Json.Num (float_of_int h.cores));
      ("cpu_model", Json.Str h.cpu_model);
    ]

let json_of_cell c =
  Json.Obj
    [ ("ok", Json.Bool c.ok);
      ("ns_per_run", Json.Num c.ns_per_run);
      ("minor_words_per_run", Json.Num c.minor_words_per_run);
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Num (float_of_int v))) c.counters));
      ("percentiles", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) c.percentiles));
    ]

let json_of_session s =
  Json.Obj
    [ ("id", Json.Str s.id);
      ("time_s", Json.Num s.time_s);
      ("suite", Json.Str s.suite);
      ("mode", Json.Str s.mode);
      ("seed", Json.Num (float_of_int s.seed));
      ("host", json_of_host s.host);
      ("cells", Json.Obj (List.map (fun (k, c) -> (k, json_of_cell c)) s.cells));
    ]

let json_of_t t =
  Json.Obj
    [ ("schema", Json.Num (float_of_int schema));
      ("sessions", Json.Arr (List.map json_of_session t.sessions));
    ]

(* Parsing is as strict as the writer: a field the writer always emits
   is required, so a hand-mangled history fails loudly instead of
   gating on garbage. *)
let field what name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "history: %s: missing or malformed %S" what name)

let ( let* ) = Result.bind

(* Older sessions' host blocks also carry a "domains" field (the width
   of an executor that no longer exists); it is ignored, so they keep
   loading and gating against today's sessions. *)
let host_of_json j =
  let* cores = field "host" "cores" Json.to_int j in
  let* cpu_model = field "host" "cpu_model" Json.to_str j in
  Ok { cores; cpu_model }

let assoc_of_json what conv j =
  match j with
  | Json.Obj fields ->
      List.fold_left
        (fun acc (k, v) ->
          let* acc = acc in
          match conv v with
          | Some v -> Ok ((k, v) :: acc)
          | None -> Error (Printf.sprintf "history: %s: malformed entry %S" what k))
        (Ok []) fields
      |> Result.map List.rev
  | _ -> Error (Printf.sprintf "history: %s: expected an object" what)

let cell_of_json key j =
  let what = Printf.sprintf "cell %s" key in
  let* ok = field what "ok" (function Json.Bool b -> Some b | _ -> None) j in
  let* ns_per_run = field what "ns_per_run" Json.to_float j in
  let* minor_words_per_run = field what "minor_words_per_run" Json.to_float j in
  let* counters =
    match Json.member "counters" j with
    | Some c -> assoc_of_json what Json.to_int c
    | None -> Ok []
  in
  let* percentiles =
    match Json.member "percentiles" j with
    | Some p -> assoc_of_json what Json.to_float p
    | None -> Ok []
  in
  Ok { ok; ns_per_run; minor_words_per_run; counters; percentiles }

let session_of_json j =
  let* id = field "session" "id" Json.to_str j in
  let what = Printf.sprintf "session %s" id in
  let* time_s = field what "time_s" Json.to_float j in
  let* suite = field what "suite" Json.to_str j in
  let* mode = field what "mode" Json.to_str j in
  let* seed = field what "seed" Json.to_int j in
  let* host =
    match Json.member "host" j with
    | Some h -> host_of_json h
    | None -> Error (Printf.sprintf "history: %s: missing host block" what)
  in
  let* cells =
    match Json.member "cells" j with
    | Some (Json.Obj fields) ->
        List.fold_left
          (fun acc (k, v) ->
            let* acc = acc in
            let* c = cell_of_json k v in
            Ok ((k, c) :: acc))
          (Ok []) fields
        |> Result.map List.rev
    | _ -> Error (Printf.sprintf "history: %s: missing cells object" what)
  in
  Ok { id; time_s; suite; mode; seed; host; cells }

let of_json j =
  let* file_schema = field "history" "schema" Json.to_int j in
  if file_schema > schema then
    Error
      (Printf.sprintf "history: schema %d is newer than this binary understands (%d)"
         file_schema schema)
  else
    let* sessions =
      match Json.member "sessions" j with
      | Some (Json.Arr xs) ->
          List.fold_left
            (fun acc x ->
              let* acc = acc in
              let* s = session_of_json x in
              Ok (s :: acc))
            (Ok []) xs
          |> Result.map List.rev
      | _ -> Error "history: missing sessions array"
    in
    Ok { sessions }

(* --- file IO ------------------------------------------------------------ *)

let load path =
  if not (Sys.file_exists path) then Ok empty
  else
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error e -> Error (Printf.sprintf "history: cannot read %s: %s" path e)
    | text ->
        let* j =
          Result.map_error (Printf.sprintf "history: %s: %s" path) (Json.of_string text)
        in
        of_json j

let save path t =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc ->
      Out_channel.output_string oc (Json.to_string ~indent:2 (json_of_t t));
      Out_channel.output_char oc '\n');
  Sys.rename tmp path

let append path session =
  let* t = load path in
  let t = { sessions = t.sessions @ [ session ] } in
  save path t;
  Ok t

let generate_id () =
  match Sys.getenv_opt "MALLOC_REPRO_SESSION_ID" with
  | Some id when id <> "" -> id
  | _ ->
      let tm = Unix.gmtime (Unix.gettimeofday ()) in
      Printf.sprintf "%04d%02d%02d-%02d%02d%02d-%d" (tm.Unix.tm_year + 1900)
        (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec
        (Unix.getpid ())

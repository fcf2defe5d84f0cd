type workload = Exp of string | Exp_all | Bench1 | Bench2 | Bench3 | Server_open

type t = {
  name : string;
  mode : [ `Quick | `Full ];
  seed : int;
  machines : string list;
  allocators : string list;
  workloads : workload list;
  faults : (Mb_fault.Plan.t * int) option list;
}

(* --- printing ----------------------------------------------------------- *)

let workload_to_string = function
  | Exp id -> "exp:" ^ id
  | Exp_all -> "exp:*"
  | Bench1 -> "bench1"
  | Bench2 -> "bench2"
  | Bench3 -> "bench3"
  | Server_open -> "server"

let to_string t =
  let line k vs = Printf.sprintf "%s %s" k (String.concat " " vs) in
  String.concat "\n"
    [ line "suite" [ t.name ];
      line "mode" [ (match t.mode with `Quick -> "quick" | `Full -> "full") ];
      line "seed" [ string_of_int t.seed ];
      line "machines" t.machines;
      line "allocators" t.allocators;
      line "workloads" (List.map workload_to_string t.workloads);
      line "faults" (List.map Mb_fault.Plan.to_string t.faults);
    ]
  ^ "\n"

(* --- parsing ------------------------------------------------------------ *)

exception Parse_error of string

let failf lineno fmt =
  Printf.ksprintf (fun msg -> raise (Parse_error (Printf.sprintf "line %d: %s" lineno msg))) fmt

let parse_workload lineno = function
  | "bench1" -> Bench1
  | "bench2" -> Bench2
  | "bench3" -> Bench3
  | "server" -> Server_open
  | s when String.length s > 4 && String.sub s 0 4 = "exp:" ->
      let id = String.sub s 4 (String.length s - 4) in
      if id = "*" then Exp_all else Exp id
  | s ->
      failf lineno
        "unknown workload %S (try: exp:*, exp:ID, bench1, bench2, bench3, server)" s

let parse_fault lineno s =
  match Mb_fault.Plan.parse s with
  | Ok v -> v
  | Error msg -> failf lineno "%s" msg

let known lineno what names name =
  if List.mem name names then name
  else failf lineno "unknown %s %S (try: %s)" what name (String.concat ", " names)

let parse_int lineno what = function
  | [ v ] -> (
      match int_of_string_opt v with
      | Some n -> n
      | None -> failf lineno "%s needs an integer, got %S" what v)
  | _ -> failf lineno "%s takes exactly one value" what

let check_distinct lineno what to_str entries =
  let rec go seen = function
    | [] -> ()
    | e :: rest ->
        let s = to_str e in
        if List.mem s seen then failf lineno "duplicate %s entry %S" what s
        else go (s :: seen) rest
  in
  go [] entries;
  entries

let of_string text =
  (* Split into (lineno, directive, values) triples, dropping comments
     and blank lines. *)
  let directives =
    String.split_on_char '\n' text
    |> List.mapi (fun i line -> (i + 1, line))
    |> List.filter_map (fun (lineno, line) ->
           let line =
             match String.index_opt line '#' with
             | Some i -> String.sub line 0 i
             | None -> line
           in
           match
             String.split_on_char ' ' (String.trim line)
             |> List.filter (fun s -> s <> "")
           with
           | [] -> None
           | keyword :: values -> Some (lineno, keyword, values))
  in
  try
    let seen = Hashtbl.create 8 in
    let take keyword =
      List.find_map
        (fun (lineno, k, values) -> if k = keyword then Some (lineno, values) else None)
        directives
    in
    List.iter
      (fun (lineno, k, _) ->
        if
          not
            (List.mem k
               [ "suite"; "mode"; "seed"; "machines"; "allocators"; "workloads"; "faults" ])
        then failf lineno "unknown directive %S" k;
        if Hashtbl.mem seen k then failf lineno "duplicate directive %S" k;
        Hashtbl.add seen k ())
      directives;
    let last_line = List.length (String.split_on_char '\n' text) in
    let required keyword =
      match take keyword with
      | Some v -> v
      | None -> failf last_line "missing required directive %S" keyword
    in
    let name =
      match required "suite" with
      | lineno, [ name ] ->
          String.iter
            (fun c ->
              match c with
              | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> ()
              | _ -> failf lineno "suite name %S: use [A-Za-z0-9._-] only" name)
            name;
          if name = "" then failf lineno "empty suite name" else name
      | lineno, _ -> failf lineno "suite takes exactly one name"
    in
    let mode =
      match take "mode" with
      | None -> `Quick
      | Some (_, [ "quick" ]) -> `Quick
      | Some (_, [ "full" ]) -> `Full
      | Some (lineno, v) -> failf lineno "mode must be quick or full, got %S" (String.concat " " v)
    in
    let seed = match take "seed" with None -> 1 | Some (l, v) -> parse_int l "seed" v in
    let axis keyword ~default ~parse ~to_str =
      match take keyword with
      | None -> default
      | Some (lineno, []) -> failf lineno "%s needs at least one entry" keyword
      | Some (lineno, values) ->
          check_distinct lineno keyword to_str (List.map (parse lineno) values)
    in
    let machines =
      axis "machines" ~default:[ "quad_xeon" ]
        ~parse:(fun l -> known l "machine" Mb_machine.Configs.names)
        ~to_str:Fun.id
    in
    let allocators =
      axis "allocators" ~default:[ "ptmalloc" ]
        ~parse:(fun l -> known l "allocator" Mb_workload.Factory.names)
        ~to_str:Fun.id
    in
    let workloads =
      match take "workloads" with
      | None -> failf last_line "missing required directive \"workloads\""
      | Some (lineno, []) -> failf lineno "workloads needs at least one entry"
      | Some (lineno, values) ->
          check_distinct lineno "workloads" workload_to_string
            (List.map (parse_workload lineno) values)
    in
    let faults = axis "faults" ~default:[ None ] ~parse:parse_fault ~to_str:Mb_fault.Plan.to_string in
    Ok { name; mode; seed; machines; allocators; workloads; faults }
  with Parse_error msg -> Error msg

(* --- expansion ---------------------------------------------------------- *)

type cell = {
  key : string;
  workload : workload;
  machine : string option;
  allocator : string option;
  fault : (Mb_fault.Plan.t * int) option;
  cell_seed : int;
}

(* The key names the cell in error messages and in the bench cells'
   printed lines, so it avoids spaces: suffixes are '+'-joined. *)
let cell_key ~workload ~machine ~allocator ~fault =
  let b = Buffer.create 32 in
  Buffer.add_string b (workload_to_string workload);
  (match (machine, allocator) with
  | Some m, Some a ->
      Buffer.add_char b '@';
      Buffer.add_string b m;
      Buffer.add_char b '/';
      Buffer.add_string b a
  | _ -> ());
  (match fault with
  | None -> ()
  | Some _ ->
      Buffer.add_char b '+';
      Buffer.add_string b (Mb_fault.Plan.to_string fault));
  Buffer.contents b

let expand t ~exp_ids =
  let exception Unknown of string in
  try
    let cells =
      List.concat_map
        (fun workload ->
          let resolved =
            match workload with
            | Exp_all -> List.map (fun id -> Exp id) exp_ids
            | Exp id when not (List.mem id exp_ids) -> raise (Unknown id)
            | w -> [ w ]
          in
          List.concat_map
            (fun w ->
              let machine_axis, alloc_axis =
                match w with
                | Exp _ -> ([ None ], [ None ])  (* baked into the registry entry *)
                | _ ->
                    ( List.map Option.some t.machines,
                      List.map Option.some t.allocators )
              in
              let ordinal = ref 0 in
              List.concat_map
                (fun machine ->
                  List.concat_map
                    (fun allocator ->
                      List.map
                        (fun fault ->
                          let k = !ordinal in
                          incr ordinal;
                          { key = cell_key ~workload:w ~machine ~allocator ~fault;
                            workload = w;
                            machine;
                            allocator;
                            fault;
                            cell_seed =
                              (match w with
                              | Exp _ -> t.seed
                              | _ -> t.seed + (101 * k));
                          })
                        t.faults)
                    alloc_axis)
                machine_axis)
            resolved)
        t.workloads
    in
    (* Colliding keys (e.g. the same exp listed both explicitly and via
       the exp wildcard) would run and print the same cell twice;
       reject them here where the message can say which. *)
    let rec dup seen = function
      | [] -> None
      | c :: rest -> if List.mem c.key seen then Some c.key else dup (c.key :: seen) rest
    in
    match dup [] cells with
    | Some key -> Error (Printf.sprintf "suite %s: duplicate cell %s in expansion" t.name key)
    | None -> Ok cells
  with Unknown id ->
    Error
      (Printf.sprintf "suite %s: unknown experiment id %S (registry: %s)" t.name id
         (String.concat ", " exp_ids))

(* Which exported values does nothing outside their own module use?

   A pure scanner over OCaml source texts. It reads every [val] of
   [lib/*/*.mli], submodule signatures such as [Machine.Mutex]
   included, and resolves the value paths of every [.ml] file it is
   given: [Mod.v], aliases of the form [module X = Path] (and
   [let module]), [open Path] and local opens [Path.( ... )]. A
   library's modules see their siblings unqualified, and a library's
   name comes from its [dune] file.

   Resolution is by name, not by type, so it errs towards "used": a bare
   name under an open counts for the opened module, a type path counts
   like a value path, and a path it cannot resolve counts for nothing.
   A use inside the exporting module's own [.ml] does not count. *)

type file = { path : string; text : string }
(** [path] is relative to the repository root, e.g.
    ["lib/alloc/dlheap.mli"]. *)

(* --- Lexing ----------------------------------------------------------- *)

type tok = Uid of string | Lid of string | Kw of string | Sym of string

let keywords =
  [ "and"; "as"; "asr"; "assert"; "begin"; "class"; "constraint"; "do"; "done"; "downto"; "else";
    "end"; "exception"; "external"; "false"; "for"; "fun"; "function"; "functor"; "if"; "in";
    "include"; "inherit"; "initializer"; "land"; "lazy"; "let"; "lor"; "lsl"; "lsr"; "lxor";
    "match"; "method"; "mod"; "module"; "mutable"; "new"; "nonrec"; "object"; "of"; "open"; "or";
    "private"; "rec"; "sig"; "struct"; "then"; "to"; "true"; "try"; "type"; "val"; "virtual";
    "when"; "while"; "with" ]

let operator_chars = "!$%&*+-./:<=>?@^|~"

let is_ident_char = function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true | _ -> false

let find_sub text sub from =
  let n = String.length text and m = String.length sub in
  let rec go i = if i + m > n then n else if String.sub text i m = sub then i else go (i + 1) in
  go from

(* Comments (nested, with the strings and characters inside them),
   string and character literals, quoted strings and polymorphic
   variants are skipped; everything else becomes identifiers, keywords
   and one-character symbols. *)
let tokens text =
  let n = String.length text in
  let out = ref [] in
  let rec string i =
    if i >= n then n else match text.[i] with '"' -> i + 1 | '\\' -> string (i + 2) | _ -> string (i + 1)
  in
  let quoted i =
    let j = ref (i + 1) in
    while !j < n && (match text.[!j] with 'a' .. 'z' | '_' -> true | _ -> false) do incr j done;
    if !j < n && text.[!j] = '|' then begin
      let close = "|" ^ String.sub text (i + 1) (!j - i - 1) ^ "}" in
      Some (min n (find_sub text close (!j + 1) + String.length close))
    end
    else None
  in
  let char_lit i =
    if i + 2 < n && text.[i + 1] <> '\\' && text.[i + 2] = '\'' then Some (i + 3)
    else if i + 1 < n && text.[i + 1] = '\\' then begin
      let j = ref (i + 3) in
      while !j < n && text.[!j] <> '\'' do incr j done;
      Some (!j + 1)
    end
    else None
  in
  let rec comment i depth =
    if i + 1 >= n then n
    else
      match (text.[i], text.[i + 1]) with
      | '(', '*' -> comment (i + 2) (depth + 1)
      | '*', ')' -> if depth = 0 then i + 2 else comment (i + 2) (depth - 1)
      | '"', _ -> comment (string (i + 1)) depth
      | '{', _ -> comment (Option.value (quoted i) ~default:(i + 1)) depth
      | '\'', _ -> comment (Option.value (char_lit i) ~default:(i + 1)) depth
      | _ -> comment (i + 1) depth
  in
  let ident i =
    let j = ref i in
    while !j < n && is_ident_char text.[!j] do incr j done;
    (String.sub text i (!j - i), !j)
  in
  let rec go i =
    if i < n then
      match text.[i] with
      | '(' when i + 1 < n && text.[i + 1] = '*' -> go (comment (i + 2) 0)
      | '"' -> go (string (i + 1))
      | '{' -> (
          match quoted i with
          | Some j -> go j
          | None ->
              out := Sym "{" :: !out;
              go (i + 1))
      | '\'' -> go (Option.value (char_lit i) ~default:(i + 1))
      | '`' -> go (snd (ident (i + 1)))
      | 'a' .. 'z' | '_' ->
          let s, j = ident i in
          out := (if List.mem s keywords then Kw s else Lid s) :: !out;
          go j
      | 'A' .. 'Z' ->
          let s, j = ident i in
          out := Uid s :: !out;
          go j
      | '0' .. '9' ->
          let j = ref i in
          while !j < n && (is_ident_char text.[!j] || text.[!j] = '.') do incr j done;
          go !j
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1)
      | c when String.contains operator_chars c ->
          (* An operator is one symbol: [+.] must not read as a dot. *)
          let j = ref i in
          while !j < n && String.contains operator_chars text.[!j] do incr j done;
          out := Sym (String.sub text i (!j - i)) :: !out;
          go !j
      | c ->
          out := Sym (String.make 1 c) :: !out;
          go (i + 1)
  in
  go 0;
  Array.of_list (List.rev !out)

(* --- The tree --------------------------------------------------------- *)

let module_of_file path = String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

let is_lib_source path = String.starts_with ~prefix:"lib/" path && List.length (String.split_on_char '/' path) = 3

(* "lib/alloc" -> "Mb_alloc", read from the [(name ...)] of each
   library's dune file. *)
let libraries files =
  List.filter_map
    (fun f ->
      if is_lib_source f.path && Filename.basename f.path = "dune" then
        let i = find_sub f.text "(name " 0 + 6 in
        if i > String.length f.text then None
        else
          let j = ref i in
          while !j < String.length f.text && is_ident_char f.text.[!j] do incr j done;
          Some (Filename.dirname f.path, String.capitalize_ascii (String.sub f.text i (!j - i)))
      else None)
    files

(* The canonical path of a library module: [Mb_alloc.Dlheap], or [Core]
   for the library's main module. *)
let canonical libs path =
  match List.assoc_opt (Filename.dirname path) libs with
  | Some lib -> if module_of_file path = lib then [ lib ] else [ lib; module_of_file path ]
  | None -> [ module_of_file path ]

type export = {
  name : string;  (** [Machine.Mutex.name]: the path below the library *)
  owner : string list;  (** the exporting module, e.g. [Mb_machine; Machine] *)
  full : string list;  (** [Mb_machine; Machine; Mutex; name] *)
  mli : string;
}

(* The [val]s and [external]s of one interface, with the submodule
   signatures they sit in; module types are skipped. Also returns the
   submodules, which are modules a path can name. *)
let interface libs f =
  let toks = tokens f.text in
  let owner = canonical libs f.path in
  let exports = ref [] and submodules = ref [] in
  let stack = ref [] in
  let named () = List.for_all Option.is_some !stack in
  let inner () = List.rev_map Option.get !stack in
  Array.iteri
    (fun i t ->
      match t with
      | Kw ("sig" | "struct" | "object" | "begin") ->
          let frame =
            if i >= 3 && named () then
              match (toks.(i - 3), toks.(i - 2), toks.(i - 1)) with
              | Kw "module", Uid m, Sym ":" -> Some m
              | _ -> None
            else None
          in
          (match frame with Some m -> submodules := (owner @ inner () @ [ m ]) :: !submodules | None -> ());
          stack := frame :: !stack
      | Kw "end" -> stack := (match !stack with _ :: rest -> rest | [] -> [])
      | Kw ("val" | "external") when named () && i + 1 < Array.length toks -> (
          match toks.(i + 1) with
          | Lid v ->
              let full = owner @ inner () @ [ v ] in
              let below = if List.length owner > 1 then List.tl full else full in
              exports := { name = String.concat "." below; owner; full; mli = f.path } :: !exports
          | _ -> ())
      | _ -> ())
    toks;
  (List.rev !exports, !submodules)

(* --- Resolving the paths of an implementation ------------------------- *)

type scope = {
  libs : (string * string) list;
  modules : (string list, unit) Hashtbl.t;  (** every path that names a module *)
  aliases : (string list, string list) Hashtbl.t;  (** [Core; Machine] -> [Mb_machine; Machine] *)
  siblings : (string * string list) list;  (** per library directory *)
}

let rec normalize scope path =
  let rec longest k =
    if k = 0 then None
    else
      let prefix = List.filteri (fun i _ -> i < k) path in
      match Hashtbl.find_opt scope.aliases prefix with
      | Some target when target <> prefix -> Some (target @ List.filteri (fun i _ -> i >= k) path)
      | _ -> longest (k - 1)
  in
  match longest (List.length path) with Some p -> normalize scope p | None -> path

(* Scans one [.ml], calling [use full_path] for every value path it
   resolves and [alias key target] for every module alias it defines. *)
let implementation scope f ~use ~alias =
  let toks = tokens f.text in
  let n = Array.length toks in
  let own = canonical scope.libs f.path in
  let siblings, lib_prefix =
    match List.assoc_opt (Filename.dirname f.path) scope.libs with
    | Some lib -> (List.assoc (Filename.dirname f.path) scope.siblings, [ lib ])
    | None -> ([], [])
  in
  let env = ref [] and opens = ref [] and brackets = ref [] in
  let resolve = function
    | [] -> []
    | head :: rest ->
        let base =
          match List.assoc_opt head !env with
          | Some p -> p
          | None -> (
              let names_module o = Hashtbl.mem scope.modules (normalize scope (o @ [ head ])) in
              match List.find_opt names_module !opens with
              | Some o -> o @ [ head ]
              | None -> if List.mem head siblings then lib_prefix @ [ head ] else [ head ])
        in
        normalize scope (base @ rest)
  in
  (* The module path starting at [i]: its components and the index after it. *)
  let path_at i =
    let rec go i acc =
      match toks.(i) with
      | Uid m when i + 2 < n && toks.(i + 1) = Sym "." && match toks.(i + 2) with Uid _ -> true | _ -> false
        ->
          go (i + 2) (m :: acc)
      | Uid m -> (List.rev (m :: acc), i + 1)
      | _ -> (List.rev acc, i)
    in
    go i []
  in
  let prev i = if i > 0 then Some toks.(i - 1) else None in
  let bind name target =
    env := (name, target) :: !env;
    alias (own @ [ name ]) target
  in
  let rec go i =
    if i < n then
      match toks.(i) with
      | Kw "module" when i + 2 < n && toks.(i + 2) = Sym "=" -> (
          match (toks.(i + 1), if i + 3 < n then toks.(i + 3) else Sym " ") with
          | Uid x, Kw "struct" when i + 5 < n && toks.(i + 4) = Kw "include" ->
              let p, _ = path_at (i + 5) in
              if p <> [] then bind x (resolve p);
              go (i + 3)
          | Uid x, Kw "struct" ->
              bind x (own @ [ x ]);
              go (i + 3)
          | Uid x, Uid _ ->
              let p, j = path_at (i + 3) in
              if j < n && toks.(j) = Sym "(" then bind x (own @ [ x ]) else bind x (resolve p);
              go j
          | _ -> go (i + 1))
      | Kw "module" when i + 2 < n && toks.(i + 2) = Sym ":" -> (
          match toks.(i + 1) with
          | Uid x ->
              bind x (own @ [ x ]);
              go (i + 2)
          | _ -> go (i + 1))
      | Kw "open" ->
          let j = if i + 1 < n && toks.(i + 1) = Sym "!" then i + 2 else i + 1 in
          let p, j = path_at j in
          if p <> [] then opens := resolve p :: !opens;
          go j
      | Sym ("(" | "[" | "{") | Kw ("begin" | "struct" | "sig" | "object") ->
          brackets := !opens :: !brackets;
          go (i + 1)
      | Sym (")" | "]" | "}") | Kw "end" ->
          (match !brackets with
          | saved :: rest ->
              opens := saved;
              brackets := rest
          | [] -> ());
          go (i + 1)
      | Uid _ when prev i <> Some (Sym ".") ->
          let p, j = path_at i in
          if j + 1 < n && toks.(j) = Sym "." then
            match toks.(j + 1) with
            | Lid v ->
                let field_def =
                  j + 2 < n && toks.(j + 2) = Sym "="
                  && (match prev i with Some (Sym ("{" | ";") | Kw "with") -> true | _ -> false)
                in
                if not field_def then use (resolve p @ [ v ]);
                go (j + 2)
            | Sym ("(" | "[" | "{") ->
                brackets := !opens :: !brackets;
                opens := resolve p :: !opens;
                go (j + 2)
            | _ -> go j
          else go j
      | Lid v when (match prev i with Some (Sym ("." | "~" | "?")) -> false | _ -> true) ->
          List.iter (fun o -> use (o @ [ v ])) !opens;
          go (i + 1)
      | _ -> go (i + 1)
  in
  go 0

(* --- Users ------------------------------------------------------------ *)

type index = { exports : export list; users : (string, string list) Hashtbl.t }

let is_test path = String.starts_with ~prefix:"test/" path

(* Every export, and the [.ml] files outside its own module that use
   it. *)
let index files =
  let libs = libraries files in
  let interfaces = List.filter (fun f -> is_lib_source f.path && Filename.check_suffix f.path ".mli") files in
  let impls = List.filter (fun f -> Filename.check_suffix f.path ".ml") files in
  let parsed = List.map (interface libs) interfaces in
  let exports = List.concat_map fst parsed in
  let modules = Hashtbl.create 256 in
  List.iter (fun (_, lib) -> Hashtbl.replace modules [ lib ] ()) libs;
  List.iter
    (fun f -> if is_lib_source f.path then Hashtbl.replace modules (canonical libs f.path) ())
    (interfaces @ impls);
  List.iter (fun (_, subs) -> List.iter (fun s -> Hashtbl.replace modules s ()) subs) parsed;
  let siblings =
    List.map
      (fun (dir, _) ->
        let in_dir f = if Filename.dirname f.path = dir then Some (module_of_file f.path) else None in
        (dir, List.filter_map in_dir (interfaces @ impls)))
      libs
  in
  let scope = { libs; modules; aliases = Hashtbl.create 64; siblings } in
  let lib_impls = List.filter (fun f -> is_lib_source f.path) impls in
  List.iter
    (fun f ->
      implementation scope f ~use:ignore ~alias:(fun key target ->
          Hashtbl.replace scope.aliases key target;
          Hashtbl.replace modules key ()))
    lib_impls;
  let by_full = Hashtbl.create 512 in
  List.iter (fun e -> Hashtbl.replace by_full e.full e) exports;
  let users = Hashtbl.create 512 in
  List.iter
    (fun f ->
      let own = canonical libs f.path in
      implementation scope f ~alias:(fun _ _ -> ()) ~use:(fun full ->
          match Hashtbl.find_opt by_full full with
          | Some e when not (is_lib_source f.path && e.owner = own) ->
              let seen = Option.value (Hashtbl.find_opt users e.name) ~default:[] in
              if not (List.mem f.path seen) then Hashtbl.replace users e.name (f.path :: seen)
          | _ -> ()))
    impls;
  { exports; users }

let users_of idx name = Option.value (Hashtbl.find_opt idx.users name) ~default:[]

(** The guard: every export has a user outside its own module in
    [lib/], [bin/], [examples/] or [perfbench/], or an entry in
    [allowlist] (name, reason), which a test must use and no program
    may. Returns one line per problem; [[]] passes. *)
let check ~allowlist files =
  let idx = index files in
  let programs e = List.filter (fun p -> not (is_test p)) (users_of idx e) in
  let tests e = List.filter is_test (users_of idx e) in
  let dead =
    List.filter_map
      (fun e ->
        if programs e.name = [] && not (List.mem_assoc e.name allowlist) then
          Some
            (Printf.sprintf "%s (%s): nothing outside its module uses it in lib/, bin/, examples/ or perfbench/%s"
               e.name e.mli
               (match tests e.name with
               | [] -> ""
               | t :: _ -> Printf.sprintf "; only %s does: give it an allowlist entry" t))
        else None)
      idx.exports
  in
  let stale =
    List.filter_map
      (fun (name, _) ->
        if not (List.exists (fun e -> e.name = name) idx.exports) then
          Some (Printf.sprintf "allowlist entry %s: no such export" name)
        else
          match (programs name, tests name) with
          | p :: _, _ -> Some (Printf.sprintf "allowlist entry %s: %s uses it, drop the entry" name p)
          | [], [] -> Some (Printf.sprintf "allowlist entry %s: no test uses it" name)
          | [], _ :: _ -> None)
      allowlist
  in
  dead @ stale

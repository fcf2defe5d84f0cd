type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* --- printing ----------------------------------------------------------- *)

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Integral values print as integers; everything else gets 12
   significant digits. *)
let num_to_string v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.12g" v

let to_string t =
  let b = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (if v then "true" else "false")
    | Num v -> Buffer.add_string b (num_to_string v)
    | Str s ->
        Buffer.add_char b '"';
        Buffer.add_string b (escape s);
        Buffer.add_char b '"'
    | Arr xs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char b ',';
            go x)
          xs;
        Buffer.add_char b ']'
    | Obj fields ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_char b '"';
            Buffer.add_string b (escape k);
            Buffer.add_string b "\":";
            go v)
          fields;
        Buffer.add_char b '}'
  in
  go t;
  Buffer.contents b

(* --- parsing ------------------------------------------------------------ *)

exception Fail of int * string

let of_string s =
  let n = String.length s in
  let fail i msg = raise (Fail (i, msg)) in
  let rec skip_ws i =
    if i < n then
      match s.[i] with ' ' | '\t' | '\n' | '\r' -> skip_ws (i + 1) | _ -> i
    else i
  in
  let expect i c =
    if i < n && s.[i] = c then i + 1
    else fail i (Printf.sprintf "expected %c" c)
  in
  let parse_lit i lit v =
    let ln = String.length lit in
    if i + ln <= n && String.sub s i ln = lit then (v, i + ln)
    else fail i (Printf.sprintf "expected %s" lit)
  in
  let parse_string i =
    let i = expect i '"' in
    let b = Buffer.create 16 in
    let rec go i =
      if i >= n then fail i "unterminated string"
      else
        match s.[i] with
        | '"' -> (Buffer.contents b, i + 1)
        | '\\' ->
            if i + 1 >= n then fail i "dangling escape"
            else (
              (match s.[i + 1] with
              | '"' -> Buffer.add_char b '"'
              | '\\' -> Buffer.add_char b '\\'
              | '/' -> Buffer.add_char b '/'
              | 'n' -> Buffer.add_char b '\n'
              | 'r' -> Buffer.add_char b '\r'
              | 't' -> Buffer.add_char b '\t'
              | 'b' -> Buffer.add_char b '\b'
              | 'f' -> Buffer.add_char b '\012'
              | 'u' ->
                  if i + 5 >= n then fail i "truncated \\u escape"
                  else begin
                    match int_of_string_opt ("0x" ^ String.sub s (i + 2) 4) with
                    | Some code when code < 0x80 -> Buffer.add_char b (Char.chr code)
                    | Some code ->
                        (* Non-ASCII escapes: emit UTF-8 (the basic
                           multilingual plane only). *)
                        if code < 0x800 then begin
                          Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                          Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                        end
                        else begin
                          Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                          Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                          Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                        end
                    | None -> fail i "bad \\u escape"
                  end
              | c -> fail i (Printf.sprintf "bad escape \\%c" c));
              go (i + (if s.[i + 1] = 'u' then 6 else 2)))
        | c when Char.code c < 0x20 -> fail i "raw control character in string"
        | c ->
            Buffer.add_char b c;
            go (i + 1)
    in
    go i
  in
  let parse_number i =
    let j = ref i in
    while
      !j < n
      && (match s.[!j] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false)
    do
      incr j
    done;
    match float_of_string_opt (String.sub s i (!j - i)) with
    | Some v -> (Num v, !j)
    | None -> fail i "bad number"
  in
  let rec parse_value i =
    let i = skip_ws i in
    if i >= n then fail i "unexpected end of input"
    else
      match s.[i] with
      | 'n' -> parse_lit i "null" Null
      | 't' -> parse_lit i "true" (Bool true)
      | 'f' -> parse_lit i "false" (Bool false)
      | '"' ->
          let v, i = parse_string i in
          (Str v, i)
      | '{' -> parse_obj (i + 1)
      | '[' -> parse_arr (i + 1)
      | '-' | '0' .. '9' -> parse_number i
      | c -> fail i (Printf.sprintf "unexpected %c" c)
  and parse_obj i =
    let i = skip_ws i in
    if i < n && s.[i] = '}' then (Obj [], i + 1)
    else
      let rec fields acc i =
        let i = skip_ws i in
        let k, i = parse_string i in
        let i = expect (skip_ws i) ':' in
        let v, i = parse_value i in
        let i = skip_ws i in
        if i < n && s.[i] = ',' then fields ((k, v) :: acc) (i + 1)
        else
          let i = expect i '}' in
          (Obj (List.rev ((k, v) :: acc)), i)
      in
      fields [] i
  and parse_arr i =
    let i = skip_ws i in
    if i < n && s.[i] = ']' then (Arr [], i + 1)
    else
      let rec elems acc i =
        let v, i = parse_value i in
        let i = skip_ws i in
        if i < n && s.[i] = ',' then elems (v :: acc) (i + 1)
        else
          let i = expect i ']' in
          (Arr (List.rev (v :: acc)), i)
      in
      elems [] i
  in
  match parse_value 0 with
  | v, i ->
      let i = skip_ws i in
      if i = n then Ok v else Error (Printf.sprintf "json: trailing garbage at byte %d" i)
  | exception Fail (i, msg) -> Error (Printf.sprintf "json: %s at byte %d" msg i)

(* --- accessors ---------------------------------------------------------- *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

let to_str = function Str s -> Some s | _ -> None

let to_list = function Arr xs -> Some xs | _ -> None

type check = {
  label : string;
  pass : bool;
  detail : string;
}

type t = {
  id : string;
  title : string;
  text : string;
  series : Mb_stats.Series.t list;
  checks : check list;
}

let check label pass fmt = Printf.ksprintf (fun detail -> { label; pass; detail }) fmt

let passed t = List.for_all (fun c -> c.pass) t.checks

let summary_line t =
  let pass = List.length (List.filter (fun c -> c.pass) t.checks) in
  let total = List.length t.checks in
  Printf.sprintf "%-16s %s (%d/%d checks)" t.id (if pass = total then "OK  " else "FAIL") pass total

let to_string t =
  let b = Buffer.create 256 in
  Printf.bprintf b "=== %s: %s ===\n%s\n" t.id t.title t.text;
  List.iter
    (fun c ->
      Printf.bprintf b "  [%s] %s: %s\n" (if c.pass then "pass" else "FAIL") c.label c.detail)
    t.checks;
  Buffer.add_char b '\n';
  Buffer.contents b

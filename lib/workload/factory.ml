module A = Mb_alloc

type t = {
  label : string;
  create : Mb_machine.Machine.proc -> A.Allocator.t;
}

(* "ptmalloc", plus what sets this instance apart from the default:
   run labels must tell its simulations apart. *)
let ptmalloc_label ?costs ?max_arenas () =
  let costs =
    match costs with
    | Some c when c <> A.Costs.glibc ->
        let digest = Digest.to_hex (Digest.string (Marshal.to_string c [ Marshal.No_sharing ])) in
        " costs-" ^ String.sub digest 0 8
    | _ -> ""
  in
  let arenas = match max_arenas with Some n -> Printf.sprintf " arenas<=%d" n | None -> "" in
  "ptmalloc" ^ costs ^ arenas

let ptmalloc ?costs ?max_arenas () =
  { label = ptmalloc_label ?costs ?max_arenas ();
    create =
      (fun proc ->
        let costs = match costs with Some c -> c | None -> A.Costs.glibc in
        A.Ptmalloc.allocator (A.Ptmalloc.make proc ~costs ?max_arenas ()));
  }

let serial_solaris () =
  { label = "serial"; create = (fun proc -> A.Serial.allocator (A.Serial.make proc ())) }

let serial_glibc () =
  { label = "serial-glibc";
    create = (fun proc -> A.Serial.allocator (A.Serial.make proc ~costs:A.Costs.glibc ()));
  }

let perthread () =
  { label = "perthread"; create = (fun proc -> A.Perthread.allocator (A.Perthread.make proc ())) }

let slab () = { label = "slab"; create = (fun proc -> A.Slab.allocator (A.Slab.make proc ())) }

let hoard () = { label = "hoard"; create = (fun proc -> A.Hoard.allocator (A.Hoard.make proc ())) }

let aligned ~line_size inner =
  { label = inner.label ^ "+aligned";
    create = (fun proc -> A.Aligned.make ~line_size (inner.create proc));
  }

let by_name = function
  | "ptmalloc" -> Some (ptmalloc ())
  | "serial" -> Some (serial_solaris ())
  | "serial-glibc" -> Some (serial_glibc ())
  | "perthread" -> Some (perthread ())
  | "slab" -> Some (slab ())
  | "hoard" -> Some (hoard ())
  | _ -> None

let names = [ "ptmalloc"; "serial"; "serial-glibc"; "perthread"; "slab"; "hoard" ]

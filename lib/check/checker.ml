module T = Mb_sim.Int_table

type kind = Race | Double_free | Use_after_free | Out_of_bounds

type finding = { kind : kind; addr : int; message : string }

(* Eraser's per-address state machine, simplified to the two states the
   transitions actually need: exclusive to the first accessing thread,
   then shared with a candidate lockset. The virgin state is the
   absence of a shadow entry. *)
type shared = {
  s_first : int;                (* thread that owned the exclusive phase *)
  mutable s_locks : int list;   (* candidate lockset (mutex ids) *)
  mutable s_written : bool;
  mutable s_reported : bool;
}

type shadow =
  | Excl of { e_tid : int; mutable e_written : bool }
  | Shared of shared

type block = {
  blen : int;        (* usable bytes *)
  alloc_tid : int;
  mutable freed_by : int;       (* -1 while live *)
  mutable reported : bool;      (* one sanitizer finding per block *)
}

type t = {
  on : bool;
  shadows : shadow T.t;       (* folded address -> race shadow *)
  blocks : block T.t;         (* folded user base -> sanitizer state *)
  holds : int list T.t;       (* tid -> mutex ids currently held *)
  lock_names : string T.t;    (* mutex id -> name, for race reports *)
  depth : int T.t;            (* tid -> runtime-suppression nesting *)
  mutable findings : finding list;  (* newest first *)
  mutable nfindings : int;
}

let retention_cap = 200

let make on =
  { on;
    shadows = T.create ~initial:(if on then 1024 else 1) ();
    blocks = T.create ~initial:(if on then 1024 else 1) ();
    holds = T.create ~initial:16 ();
    lock_names = T.create ~initial:16 ();
    depth = T.create ~initial:16 ();
    findings = [];
    nfindings = 0;
  }

let null = make false

let create () = make true

let armed t = t.on

let kind_label = function
  | Race -> "race"
  | Double_free -> "double-free"
  | Use_after_free -> "use-after-free"
  | Out_of_bounds -> "out-of-bounds"

let findings t = List.rev t.findings

let finding_count t = t.nfindings

let report t kind addr message =
  t.nfindings <- t.nfindings + 1;
  if t.nfindings <= retention_cap then t.findings <- { kind; addr; message } :: t.findings

(* Same folding as the machine's physically-indexed cache: equal virtual
   addresses of different processes must not collide. *)
let key ~asid ~addr = (asid lsl 40) lor addr

let holdset t tid = match T.find_exn t.holds tid with l -> l | exception Not_found -> []

let suppressed t tid = match T.find_exn t.depth tid with d -> d > 0 | exception Not_found -> false

let lock_acquired t ~tid ~mid ~name =
  if t.on then begin
    if not (T.mem t.lock_names mid) then T.set t.lock_names mid name;
    T.set t.holds tid (mid :: holdset t tid)
  end

let lock_released t ~tid ~mid =
  if t.on then begin
    (* Unlock order need not be LIFO; drop the first matching id. *)
    let rec drop = function
      | [] -> []
      | m :: rest -> if m = mid then rest else m :: drop rest
    in
    T.set t.holds tid (drop (holdset t tid))
  end

let lock_name t mid =
  match T.find_exn t.lock_names mid with n -> n | exception Not_found -> Printf.sprintf "mutex-%d" mid

let intersect l1 l2 = List.filter (fun m -> List.mem m l2) l1

let maybe_report_race t s ~addr ~tid =
  if s.s_written && s.s_locks = [] && not s.s_reported then begin
    s.s_reported <- true;
    let held =
      match holdset t tid with
      | [] -> "none"
      | ms -> String.concat ", " (List.map (lock_name t) ms)
    in
    report t Race addr
      (Printf.sprintf
         "unsynchronized write to 0x%x: threads %d and %d hold no common lock \
          (lockset intersection is empty; thread %d holds: %s)"
         addr s.s_first tid tid held)
  end

(* The lockset state machine for one checked access. [addr] is the user
   view (for messages); [k] the folded key. *)
let race_access t k ~tid ~addr ~write =
  match T.find_opt t.shadows k with
  | None -> T.set t.shadows k (Excl { e_tid = tid; e_written = write })
  | Some (Excl e) when e.e_tid = tid -> if write then e.e_written <- true
  | Some (Excl e) ->
      let s =
        { s_first = e.e_tid;
          s_locks = holdset t tid;
          s_written = e.e_written || write;
          s_reported = false;
        }
      in
      T.set t.shadows k (Shared s);
      maybe_report_race t s ~addr ~tid
  | Some (Shared s) ->
      s.s_locks <- intersect s.s_locks (holdset t tid);
      if write then s.s_written <- true;
      maybe_report_race t s ~addr ~tid

(* Sanitizer view of one touch: [len] bytes starting at a tracked block
   base (word accesses pass len = 1). *)
let sanitize_access t k ~tid ~addr ~len =
  match T.find_opt t.blocks k with
  | None -> ()
  | Some b ->
      if b.freed_by >= 0 then begin
        if not b.reported then begin
          b.reported <- true;
          report t Use_after_free addr
            (Printf.sprintf
               "use after free at 0x%x: block allocated by thread %d, freed by thread %d, touched by thread %d"
               addr b.alloc_tid b.freed_by tid)
        end
      end
      else if len > b.blen && not b.reported then begin
        b.reported <- true;
        report t Out_of_bounds addr
          (Printf.sprintf
             "out-of-bounds touch at 0x%x: %d bytes into a %d-byte block allocated by thread %d (touching thread %d)"
             addr len b.blen b.alloc_tid tid)
      end

let on_access t ~tid ~asid ~addr ~write =
  if t.on && not (suppressed t tid) then begin
    let k = key ~asid ~addr in
    race_access t k ~tid ~addr ~write;
    sanitize_access t k ~tid ~addr ~len:1
  end

let on_range t ~tid ~asid ~addr ~len =
  if t.on && len > 0 && not (suppressed t tid) then begin
    let k = key ~asid ~addr in
    race_access t k ~tid ~addr ~write:true;
    sanitize_access t k ~tid ~addr ~len
  end

let on_alloc t ~tid ~asid ~addr ~len =
  if t.on then begin
    let k = key ~asid ~addr in
    T.set t.blocks k { blen = len; alloc_tid = tid; freed_by = -1; reported = false };
    (* Fresh memory starts over: without this, a block recycled to
       another thread would read as a data race. *)
    T.remove t.shadows k
  end

let on_free t ~tid ~asid ~addr =
  if not t.on then true
  else begin
    let k = key ~asid ~addr in
    match T.find_opt t.blocks k with
    | Some b when b.freed_by < 0 ->
        b.freed_by <- tid;
        T.remove t.shadows k;
        true
    | Some b ->
        report t Double_free addr
          (Printf.sprintf
             "double free of 0x%x: block allocated by thread %d, freed by thread %d, freed again by thread %d"
             addr b.alloc_tid b.freed_by tid);
        false
    | None -> true
  end

let enter_runtime t ~tid =
  if t.on then
    T.set t.depth tid (1 + (match T.find_exn t.depth tid with d -> d | exception Not_found -> 0))

let exit_runtime t ~tid =
  if t.on then
    T.set t.depth tid (max 0 ((match T.find_exn t.depth tid with d -> d | exception Not_found -> 0) - 1))

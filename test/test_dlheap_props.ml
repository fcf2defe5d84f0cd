(* Property suite for the dlheap small-bin fast path. Its contract is
   transparency: the exact-fit LIFO stacks and the bin-occupancy bitmap
   may only change host-side work, never the addresses handed out or
   the simulated time charged. Checked here over randomized inputs,
   plus one golden scripted address stream pinning the exact-fit
   layout. *)

module M = Core.Machine
module Dlheap = Core.Dlheap
module A = Core.Allocator
module R = Core.Obs.Recorder
module Checker = Core.Check.Checker

let config = { M.default_config with M.cpus = 1; op_jitter = 0. }

(* --- random alloc/free/realloc/memalign mixes -------------------------- *)

type op =
  | Malloc of int
  | Free of int             (* index into the live list *)
  | Realloc of int * int    (* index, new size *)
  | Memalign of int * int   (* log2 alignment, size *)

let op_gen =
  QCheck.Gen.(
    (* sizes biased into the 62 exact-spacing bins (requests < ~504
       bytes), with a tail of larger requests that take the general
       first-fit / top path *)
    let size = oneof [ int_range 1 500; int_range 1 40; int_range 500 4000 ] in
    frequency
      [ (5, map (fun n -> Malloc n) size);
        (4, map (fun i -> Free i) (int_bound 1000));
        (2, map2 (fun i n -> Realloc (i, n)) (int_bound 1000) size);
        (1, map2 (fun k n -> Memalign (k, n)) (int_range 3 9) size);
      ])

let print_op = function
  | Malloc n -> Printf.sprintf "malloc %d" n
  | Free i -> Printf.sprintf "free #%d" i
  | Realloc (i, n) -> Printf.sprintf "realloc #%d %d" i n
  | Memalign (k, n) -> Printf.sprintf "memalign 2^%d %d" k n

let ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map print_op ops))
    QCheck.Gen.(list_size (int_range 1 120) op_gen)

(* Replay [ops] against a fresh ptmalloc over a dlheap with [params].
   The model is the live list: every block's request size, usable size
   and alignment are checked as it appears, and the whole set is
   checked pairwise-disjoint after every operation. Returns the
   fingerprint the transparency property compares: every address the
   allocator returned, in order, plus the simulated clock at the end
   (so a fast path that charged even one cycle differently fails). *)
let run_ops ~params ops =
  let out = Buffer.create 512 in
  let m = M.create ~seed:1 config in
  let p = M.create_proc m () in
  let pt = Core.Ptmalloc.make p ~params () in
  let alloc = Core.Ptmalloc.allocator pt in
  let fail = ref None in
  let check cond msg = if !fail = None && not cond then fail := Some msg in
  ignore
    (M.spawn p (fun ctx ->
         (* (addr, span) newest first; [span] is the usable size for
            plain blocks and the request size for blocks that may sit
            at a memalign offset ([usable_size] only answers for raw
            chunk addresses, and user spans are subsets of their chunk
            either way, so disjointness stays sound) *)
         let live = ref [] in
         let disjoint () =
           let spans =
             List.map (fun (a, sp) -> (a, a + sp)) !live |> List.sort compare
           in
           let rec walk = function
             | (_, e1) :: ((s2, _) :: _ as rest) ->
                 check (e1 <= s2) "live blocks overlap";
                 walk rest
             | _ -> ()
           in
           walk spans
         in
         let note addr =
           Buffer.add_string out (string_of_int addr);
           Buffer.add_char out ';'
         in
         (* plain = certainly a raw chunk address (safe to usable_size);
            memalign results, and realloc results derived from them,
            may sit at an offset inside their chunk *)
         let plain = Hashtbl.create 64 in
         let pick i = List.nth !live (i mod List.length !live) in
         let drop addr =
           Hashtbl.remove plain addr;
           live := List.filter (fun (a, _) -> a <> addr) !live
         in
         List.iter
           (fun op ->
             (match op with
             | Malloc n ->
                 let a = alloc.A.malloc ctx n in
                 note a;
                 check (a mod 8 = 0) "malloc misaligned";
                 check (alloc.A.usable_size a >= n) "usable < request";
                 Hashtbl.replace plain a ();
                 live := (a, alloc.A.usable_size a) :: !live
             | Free i ->
                 if !live <> [] then begin
                   let a, _ = pick i in
                   drop a;
                   A.free_aligned alloc ctx a
                 end
             | Realloc (i, n) ->
                 if !live <> [] then begin
                   let a, _ = pick i in
                   let was_plain = Hashtbl.mem plain a in
                   drop a;
                   let b = A.realloc alloc ctx a n in
                   note b;
                   if was_plain || b <> a then begin
                     check (alloc.A.usable_size b >= n) "realloc usable < request";
                     Hashtbl.replace plain b ();
                     live := (b, alloc.A.usable_size b) :: !live
                   end
                   else live := (b, n) :: !live
                 end
             | Memalign (k, n) ->
                 let align = 1 lsl k in
                 let a = A.memalign alloc ctx ~alignment:align n in
                 note a;
                 check (a mod align = 0) "memalign misaligned";
                 live := (a, n) :: !live);
             disjoint ();
             (match alloc.A.validate () with
             | Ok () -> ()
             | Error msg -> check false ("validate: " ^ msg)))
           ops;
         (* Drain everything: the empty heap must validate too, which
            in deferred mode forces binned-free bookkeeping to agree
            with the bitmap all the way down. *)
         List.iter (fun (a, _) -> A.free_aligned alloc ctx a) !live;
         (match alloc.A.validate () with
         | Ok () -> ()
         | Error msg -> check false ("final validate: " ^ msg));
         Buffer.add_string out (Printf.sprintf "t=%.17g" (M.now_ns m))));
  M.run m;
  (match !fail with
  | Some msg -> QCheck.Test.fail_reportf "%s" msg
  | None -> ());
  Buffer.contents out

let prop_exact_fit_transparent =
  QCheck.Test.make ~name:"exact-fit fast path is address- and cost-transparent"
    ~count:60 ops_arb (fun ops ->
      let fast = run_ops ~params:{ Dlheap.default_params with exact_fit = true } ops in
      let slow = run_ops ~params:{ Dlheap.default_params with exact_fit = false } ops in
      if fast <> slow then
        QCheck.Test.fail_reportf "streams diverge:\n  on : %s\n  off: %s" fast slow;
      true)

let prop_deferred_mode_valid =
  QCheck.Test.make ~name:"deferred coalescing keeps the heap valid" ~count:60
    ops_arb (fun ops ->
      (* run_ops validates after every op and after the final drain;
         reaching the end is the property *)
      ignore
        (run_ops ~params:{ Dlheap.default_params with defer_coalescing = true } ops);
      true)

(* --- golden address stream (exact mode) -------------------------------- *)

(* A scripted small-bin workout with pinned addresses: first-touch
   carving from top, LIFO reuse out of the 48-byte bin, exact binmap
   hit after a double free, and a split once the bin is empty again.
   Any change to bin indexing, LIFO order or the bitmap that leaks
   into placement moves one of these constants. *)
let test_golden_stream () =
  let seen = ref [] in
  let m = M.create ~seed:1 config in
  let p = M.create_proc m () in
  let stats = Core.Astats.create () in
  let heap =
    Dlheap.create_main p ~costs:Core.Costs.glibc ~params:Dlheap.default_params ~stats
  in
  ignore
    (M.spawn p (fun ctx ->
         let alloc n =
           match Dlheap.malloc heap ctx n with
           | Some a ->
               seen := a :: !seen;
               a
           | None -> Alcotest.fail "unexpected allocation failure"
         in
         let a = alloc 40 in
         let b = alloc 40 in
         let c = alloc 40 in
         let _pin = alloc 40 in
         Dlheap.free heap ctx a;
         Dlheap.free heap ctx c;
         (* 48-byte bin now holds c then a (LIFO): exact-fit pops c first *)
         Alcotest.(check int) "LIFO head is the last free" c (alloc 40);
         Alcotest.(check int) "then the earlier free" a (alloc 40);
         Dlheap.free heap ctx b;
         Alcotest.(check int) "exact binmap hit" b (alloc 40);
         (match Dlheap.validate heap with
         | Ok () -> ()
         | Error msg -> Alcotest.fail ("invariant violation: " ^ msg))));
  M.run m;
  let base, _ = Dlheap.segment_bounds heap in
  Alcotest.(check (list int))
    "golden address stream"
    [ 8; 56; 104; 152; 104; 8; 56 ]
    (List.rev_map (fun a -> a - base) !seen)

let suite =
  [ QCheck_alcotest.to_alcotest prop_exact_fit_transparent;
    QCheck_alcotest.to_alcotest prop_deferred_mode_valid;
    Alcotest.test_case "golden exact-fit address stream" `Quick test_golden_stream;
  ]

(* Property suite for dlheap's bins: a random alloc/free/realloc/
   memalign/calloc mix, checked op by op against a live-block model and
   [validate] with the default params and with coalescing deferred,
   plus one golden scripted address stream pinning the small-bin
   layout. The same random op mix, spread over several threads, then
   runs against every allocator, checked and under each fault plan, on
   four CPUs and oversubscribed on one or two. *)

module M = Core.Machine
module Dlheap = Core.Dlheap
module A = Core.Allocator
module R = Core.Obs.Recorder
module Checker = Core.Check.Checker
module Fault = Core.Fault.Injector
module Arm = Core.Arm

let config = { M.default_config with M.cpus = 1; op_jitter = 0. }

(* --- random alloc/free/realloc/memalign mixes -------------------------- *)

type op =
  | Malloc of int
  | Free of int             (* index into the live list *)
  | Realloc of int * int    (* index, new size *)
  | Memalign of int * int   (* log2 alignment, size *)
  | Calloc of int * int     (* count, size *)

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
        (1, map2 (fun c n -> Calloc (c, n)) (int_range 1 8) (int_range 1 500));
      ])

let print_op = function
  | Malloc n -> Printf.sprintf "malloc %d" n
  | Free i -> Printf.sprintf "free #%d" i
  | Realloc (i, n) -> Printf.sprintf "realloc #%d %d" i n
  | Memalign (k, n) -> Printf.sprintf "memalign 2^%d %d" k n
  | Calloc (c, n) -> Printf.sprintf "calloc %d x %d" c n

let ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map print_op ops))
    QCheck.Gen.(list_size (int_range 1 120) op_gen)

(* Replay [ops] against a fresh ptmalloc over a dlheap with [params].
   The model is the live list: every block's request size, usable size
   and alignment are checked as it appears, and the whole set is
   checked pairwise-disjoint after every operation. *)
let run_ops ~params ops =
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
                 check (a mod align = 0) "memalign misaligned";
                 live := (a, n) :: !live
             | Calloc (c, n) ->
                 let a = A.calloc alloc ctx ~count:c ~size:n in
                 Hashtbl.replace plain a ();
                 live := (a, alloc.A.usable_size a) :: !live);
             disjoint ();
             (match alloc.A.validate () with
             | Ok () -> ()
             | Error msg -> check false ("validate: " ^ msg)))
           ops;
         (* Drain everything: the empty heap must validate too, which
            in deferred mode forces binned-free bookkeeping to agree
            with the bitmap all the way down. *)
         List.iter (fun (a, _) -> A.free_aligned alloc ctx a) !live;
         match alloc.A.validate () with
         | Ok () -> ()
         | Error msg -> check false ("final validate: " ^ msg)));
  M.run m;
  match !fail with
  | Some msg -> QCheck.Test.fail_reportf "%s" msg
  | None -> ()

let prop_deferred_mode_valid =
  QCheck.Test.make ~name:"deferred coalescing keeps the heap valid" ~count:60
    ops_arb (fun ops ->
      (* run_ops validates after every op and after the final drain;
         reaching the end is the property, on the default heap and with
         coalescing deferred *)
      List.iter
        (fun params -> run_ops ~params ops)
        [ Dlheap.default_params; { Dlheap.default_params with defer_coalescing = true } ];
      true)

(* --- golden address stream (default params) ---------------------------- *)

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
    Dlheap.create_main ~costs:Core.Costs.glibc ~params:Dlheap.default_params ~stats
  in
  ignore
    (M.spawn p (fun ctx ->
         let alloc n =
           match Dlheap.malloc heap ctx n with
           | 0 -> Alcotest.fail "unexpected allocation failure"
           | a ->
               seen := a :: !seen;
               a
         in
         let a = alloc 40 in
         let b = alloc 40 in
         let c = alloc 40 in
         let _pin = alloc 40 in
         Dlheap.free heap ctx a;
         Dlheap.free heap ctx c;
         (* 48-byte bin now holds c then a (LIFO): the bin search pops c first *)
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

(* --- the op mix over every allocator ------------------------------------ *)

(* One op list per thread (1 to [threads]), all drawing on one pool
   of live blocks, so frees and reallocs often cross threads. A block
   leaves the pool before the call that may release it; the pool needs
   no simulated lock because threads interleave only inside
   simulated-time operations. Besides [op_gen]'s sizes, the mix has
   blocks up to 300 KB, which take every allocator's mmap path and
   outgrow the oom-pressure budget. *)
let mix_arb ~threads =
  let op =
    QCheck.Gen.(frequency [ (9, op_gen); (1, map (fun n -> Malloc n) (int_range 4_000 300_000)) ])
  in
  let print_thread i ops = Printf.sprintf "thread %d: %s" i (String.concat "; " (List.map print_op ops)) in
  QCheck.make
    ~print:(fun (seed, threads) ->
      String.concat "\n" (Printf.sprintf "seed %d" seed :: List.mapi print_thread threads))
    QCheck.Gen.(pair (int_bound 10_000) (list_size (int_range 1 threads) (list_size (int_range 1 40) op)))

(* Replay the mix on a fresh [name] allocator on [machine] with the
   checker armed and [faults] injecting, drain the pool from a thread
   that joins the workers, and require a valid heap, no findings and no
   live bytes. Returns how many operations degraded on [Alloc_failure],
   and the machine's injector. *)
let run_mix ?(machine = Core.Configs.quad_xeon) ?faults name (seed, threads) =
  Arm.set { Arm.off with Arm.check = true; faults };
  let m = Fun.protect ~finally:(fun () -> Arm.set Arm.off) (fun () -> M.create ~seed machine) in
  let check = M.checker m in
  let p = M.create_proc m () in
  let alloc = (Option.get (Core.Factory.by_name name)).Core.Factory.create p in
  let pool = ref [] and degraded = ref 0 in
  let take i =
    match !pool with
    | [] -> None
    | l ->
        let a = List.nth l (i mod List.length l) in
        pool := List.filter (fun b -> b <> a) l;
        Some a
  in
  let add a = pool := a :: !pool in
  let guard f = try f () with Fault.Alloc_failure _ -> incr degraded in
  let step ctx = function
    | Malloc n -> guard (fun () -> add (alloc.A.malloc ctx n))
    | Calloc (c, n) -> guard (fun () -> add (A.calloc alloc ctx ~count:c ~size:n))
    | Memalign (k, n) -> guard (fun () -> add (A.memalign alloc ctx ~alignment:(1 lsl k) n))
    | Free i -> Option.iter (A.free_aligned alloc ctx) (take i)
    | Realloc (i, n) ->
        Option.iter
          (fun a ->
            (* A failed realloc leaves the old block allocated. *)
            match A.realloc alloc ctx a n with
            | b -> add b
            | exception Fault.Alloc_failure _ ->
                add a;
                incr degraded)
          (take i)
  in
  let workers = List.map (fun ops -> M.spawn p (fun ctx -> List.iter (step ctx) ops)) threads in
  ignore
    (M.spawn p (fun ctx ->
         List.iter (M.join ctx) workers;
         List.iter (A.free_aligned alloc ctx) !pool;
         pool := [])
      : M.thread);
  M.run m;
  let fail fmt = QCheck.Test.fail_reportf ("%s: " ^^ fmt) name in
  (match alloc.A.validate () with Ok () -> () | Error msg -> fail "validate: %s" msg);
  if Checker.finding_count check > 0 then fail "%d checker finding(s)" (Checker.finding_count check);
  let live = alloc.A.stats.Core.Astats.live_bytes in
  if live <> 0 then fail "%d live bytes after the drain" live;
  (!degraded, M.fault m)

(* The op-mix properties run [long_factor] times longer under
   QCHECK_LONG=1 (CI's long fuzz): more fault schedules for each
   allocator's [validate], books included. *)
let long_factor = 10

let prop_mix_every_allocator =
  QCheck.Test.make ~name:"op mix keeps every allocator valid and clean" ~count:150 ~long_factor
    (mix_arb ~threads:4)
    (fun mix ->
      List.iter
        (fun name ->
          let degraded, _ = run_mix name mix in
          if degraded > 0 then
            QCheck.Test.fail_reportf "%s: %d failures without a fault plan" name degraded)
        Core.Factory.names;
      true)

let prop_mix_under_faults =
  QCheck.Test.make ~name:"op mix degrades gracefully under every fault plan" ~count:40 ~long_factor
    (mix_arb ~threads:4)
    (fun ((seed, _) as mix) ->
      List.iter
        (fun (_, plan) ->
          List.iter
            (fun name -> ignore (run_mix ~faults:(plan, seed) name mix : int * Fault.t))
            Core.Factory.names)
        Core.Fault.Plan.all;
      true)

(* Up to 8 threads on one or two CPUs with a short quantum: threads wait
   for a CPU, so quantum expiry and preempt-storm's extra switches land
   inside allocator critical sections. *)
let oversubscribed =
  List.concat_map
    (fun machine -> List.map (fun quantum_us -> { machine with M.quantum_us }) [ 50.; 5. ])
    Core.Configs.[ uni_k6; dual_pentium_pro; dual_ultrasparc ]

let preempts = ref 0

let prop_mix_oversubscribed =
  QCheck.Test.make ~name:"op mix oversubscribed, with and without faults" ~count:40 ~long_factor
    (mix_arb ~threads:8)
    (fun ((seed, _) as mix) ->
      List.iter
        (fun machine ->
          List.iter
            (fun name ->
              let degraded, _ = run_mix ~machine name mix in
              if degraded > 0 then
                QCheck.Test.fail_reportf "%s: %d failures without a fault plan" name degraded;
              List.iter
                (fun (_, plan) ->
                  let _, fault = run_mix ~machine ~faults:(plan, seed) name mix in
                  preempts := !preempts + Fault.injected_preempt fault)
                Core.Fault.Plan.all)
            Core.Factory.names)
        oversubscribed;
      true)

(* The property, then proof that it preempted inside lock sites at all. *)
let oversubscribed_case =
  let name, speed, run = QCheck_alcotest.to_alcotest prop_mix_oversubscribed in
  ( name,
    speed,
    fun () ->
      preempts := 0;
      run ();
      if !preempts = 0 then Alcotest.fail "preempt-storm never injected" )

let suite =
  [ QCheck_alcotest.to_alcotest prop_deferred_mode_valid;
    Alcotest.test_case "golden small-bin address stream" `Quick test_golden_stream;
    QCheck_alcotest.to_alcotest prop_mix_every_allocator;
    QCheck_alcotest.to_alcotest prop_mix_under_faults;
    oversubscribed_case;
  ]

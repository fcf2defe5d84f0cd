(* Tests for the extensions beyond the paper's core systems: the derived
   C API (calloc/realloc/memalign), Hoard, ptmalloc's mallopt/mallinfo,
   glibc-2.3-style fastbins, and the kernel-lock model for VM syscalls. *)

module M = Core.Machine
module A = Core.Allocator

let config = { M.default_config with M.cpus = 2; op_jitter = 0. }

let in_thread ?(config = config) body =
  let m = M.create ~seed:1 config in
  let p = M.create_proc m () in
  ignore (M.spawn p (fun ctx -> body m p ctx));
  M.run m

let ptmalloc_of p = Core.Ptmalloc.make p ()

(* --- derived C API ------------------------------------------------------ *)

let test_calloc_zeroes_and_pages () =
  in_thread (fun _ p ctx ->
      let alloc = Core.Ptmalloc.allocator (ptmalloc_of p) in
      let before = Core.Address_space.minor_faults (M.proc_vm p) in
      let user = A.calloc alloc ctx ~count:100 ~size:41 in
      Alcotest.(check bool) "usable covers" true (alloc.A.usable_size user >= 4100);
      (* zeroing demand-pages the whole block *)
      Alcotest.(check bool) "pages touched" true
        (Core.Address_space.minor_faults (M.proc_vm p) - before >= 1);
      alloc.A.free ctx user)

let test_calloc_overflow () =
  in_thread (fun _ p ctx ->
      let alloc = Core.Ptmalloc.allocator (ptmalloc_of p) in
      Alcotest.check_raises "overflow" (Invalid_argument "Allocator.calloc: overflow") (fun () ->
          ignore (A.calloc alloc ctx ~count:max_int ~size:16)))

let test_realloc_in_place_and_move () =
  in_thread (fun _ p ctx ->
      let alloc = Core.Ptmalloc.allocator (ptmalloc_of p) in
      let user = alloc.A.malloc ctx 100 in
      let shrunk = A.realloc alloc ctx user 50 in
      Alcotest.(check int) "shrink in place" user shrunk;
      let same = A.realloc alloc ctx user (alloc.A.usable_size user) in
      Alcotest.(check int) "fitting growth in place" user same;
      let moved = A.realloc alloc ctx user 10_000 in
      Alcotest.(check bool) "large growth moves" true (moved <> user);
      Alcotest.(check bool) "new block big enough" true (alloc.A.usable_size moved >= 10_000);
      alloc.A.free ctx moved;
      (match alloc.A.validate () with Ok () -> () | Error m -> Alcotest.fail m);
      Alcotest.(check int) "old block was freed" 0 alloc.A.stats.Core.Astats.live_bytes)

let test_realloc_null_and_zero () =
  in_thread (fun _ p ctx ->
      let alloc = Core.Ptmalloc.allocator (ptmalloc_of p) in
      let user = A.realloc alloc ctx 0 64 in
      Alcotest.(check bool) "realloc(0,n) mallocs" true (user <> 0);
      Alcotest.(check int) "realloc(p,0) frees" 0 (A.realloc alloc ctx user 0);
      Alcotest.(check int) "drained" 0 alloc.A.stats.Core.Astats.live_bytes)

let test_realloc_cost_charged () =
  in_thread (fun _ p ctx ->
      let alloc = Core.Ptmalloc.allocator (ptmalloc_of p) in
      let user = alloc.A.malloc ctx 4096 in
      M.touch_range ctx user ~len:4096;
      let t0 = M.now ctx in
      let moved = A.realloc alloc ctx user 20_000 in
      let elapsed_cycles = (M.now ctx -. t0) /. M.cycles_to_ns (M.proc_machine (M.proc ctx)) 1.0 in
      Alcotest.(check bool) "copy cost visible" true
        (elapsed_cycles >= float_of_int (A.copy_cost_cycles 4096));
      alloc.A.free ctx moved)

let test_memalign () =
  in_thread (fun _ p ctx ->
      let alloc = Core.Ptmalloc.allocator (ptmalloc_of p) in
      List.iter
        (fun align ->
          let user = A.memalign alloc ctx ~alignment:align 100 in
          Alcotest.(check int) (Printf.sprintf "aligned to %d" align) 0 (user mod align);
          A.free_aligned alloc ctx user)
        [ 16; 64; 256; 4096 ];
      Alcotest.check_raises "bad alignment"
        (Invalid_argument "Allocator.memalign: alignment not a power of two") (fun () ->
          ignore (A.memalign alloc ctx ~alignment:48 10));
      Alcotest.(check int) "all drained" 0 alloc.A.stats.Core.Astats.live_bytes)

let test_cost_helpers () =
  Alcotest.(check int) "zero cost" 512 (A.zero_cost_cycles 4096);
  Alcotest.(check int) "copy cost" 1024 (A.copy_cost_cycles 4096)

(* --- memalign x realloc x free interleavings ----------------------------- *)

(* Random op sequences mixing memalign, realloc (including realloc of a
   memalign'd block — the aligned user address is not a chunk start, so
   it must be resolved through the origins table), raw [free] of aligned
   blocks, and [free_aligned]. After draining everything the heap must
   still validate, the origins table must hold no leaked entries, and no
   bytes may remain live. *)

type heap_op =
  | Op_memalign of int * int  (* alignment exponent, size *)
  | Op_malloc of int
  | Op_realloc of int * int   (* victim index hint, new size *)
  | Op_free_raw of int
  | Op_free_aligned of int

let heap_op_gen =
  QCheck.Gen.(
    frequency
      [ (3, map2 (fun a s -> Op_memalign (a, s)) (int_range 4 9) (int_range 1 600));
        (2, map (fun s -> Op_malloc s) (int_range 1 600));
        (3, map2 (fun i s -> Op_realloc (i, s)) nat (int_range 1 2000));
        (2, map (fun i -> Op_free_raw i) nat);
        (2, map (fun i -> Op_free_aligned i) nat) ])

let show_heap_op = function
  | Op_memalign (a, s) -> Printf.sprintf "memalign(%d,%d)" (1 lsl a) s
  | Op_malloc s -> Printf.sprintf "malloc(%d)" s
  | Op_realloc (i, s) -> Printf.sprintf "realloc(#%d,%d)" i s
  | Op_free_raw i -> Printf.sprintf "free(#%d)" i
  | Op_free_aligned i -> Printf.sprintf "free_aligned(#%d)" i

let heap_ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_heap_op ops))
    QCheck.Gen.(list_size (int_range 1 80) heap_op_gen)

let run_heap_ops mk ops =
  let failure = ref None in
  in_thread (fun _ p ctx ->
      let alloc = mk p in
      let live = ref [] in
      let pick i =
        match !live with [] -> None | l -> Some (List.nth l (i mod List.length l))
      in
      let drop u = live := List.filter (fun v -> v <> u) !live in
      List.iter
        (fun op ->
          match op with
          | Op_memalign (a, s) ->
              live := A.memalign alloc ctx ~alignment:(1 lsl a) s :: !live
          | Op_malloc s -> live := alloc.A.malloc ctx s :: !live
          | Op_realloc (i, s) -> (
              match pick i with
              | None -> live := alloc.A.malloc ctx s :: !live
              | Some u ->
                  drop u;
                  live := A.realloc alloc ctx u s :: !live)
          | Op_free_raw i -> (
              match pick i with
              | None -> ()
              | Some u ->
                  drop u;
                  alloc.A.free ctx u)
          | Op_free_aligned i -> (
              match pick i with
              | None -> ()
              | Some u ->
                  drop u;
                  A.free_aligned alloc ctx u))
        ops;
      List.iter (fun u -> alloc.A.free ctx u) !live;
      match alloc.A.validate () with
      | Error m -> failure := Some ("heap invalid: " ^ m)
      | Ok () ->
          if Hashtbl.length alloc.A.origins <> 0 then
            failure :=
              Some (Printf.sprintf "origins leaked %d entries" (Hashtbl.length alloc.A.origins))
          else if alloc.A.stats.Core.Astats.live_bytes <> 0 then
            failure :=
              Some (Printf.sprintf "%d bytes still live" alloc.A.stats.Core.Astats.live_bytes));
  match !failure with None -> true | Some m -> QCheck.Test.fail_report m

let prop_memalign_realloc_free =
  QCheck.Test.make ~name:"memalign x realloc x free: heap valid, origins drained" ~count:60
    heap_ops_arb
    (fun ops ->
      run_heap_ops (fun p -> Core.Ptmalloc.allocator (ptmalloc_of p)) ops
      && run_heap_ops (fun p -> Core.Serial.allocator (Core.Serial.make p ())) ops)

(* --- Hoard --------------------------------------------------------------- *)

let test_hoard_heap_hashing () =
  in_thread (fun m p _ ->
      ignore m;
      let h = Core.Hoard.make p ~heap_count:3 () in
      Alcotest.(check int) "tid 0" 1 (Core.Hoard.heap_of_thread h 0);
      Alcotest.(check int) "tid 2" 3 (Core.Hoard.heap_of_thread h 2);
      Alcotest.(check int) "tid 3 wraps" 1 (Core.Hoard.heap_of_thread h 3))

let test_hoard_superblock_reuse () =
  in_thread (fun _ p ctx ->
      let h = Core.Hoard.make p () in
      let alloc = Core.Hoard.allocator h in
      let blocks = List.init 50 (fun _ -> alloc.A.malloc ctx 40) in
      let sbs = Core.Hoard.superblock_count h in
      List.iter (fun u -> alloc.A.free ctx u) blocks;
      let again = List.init 50 (fun _ -> alloc.A.malloc ctx 40) in
      Alcotest.(check int) "no new superblocks on reuse" sbs (Core.Hoard.superblock_count h);
      List.iter (fun u -> alloc.A.free ctx u) again;
      match alloc.A.validate () with Ok () -> () | Error m -> Alcotest.fail m)

let test_hoard_emptiness_invariant () =
  (* Fill a thread heap with many superblocks, free everything: the
     emptiness invariant must ship superblocks to the global heap. *)
  in_thread (fun _ p ctx ->
      let h = Core.Hoard.make p ~slack:2 () in
      let alloc = Core.Hoard.allocator h in
      let blocks = List.init 2_000 (fun _ -> alloc.A.malloc ctx 64) in
      Alcotest.(check int) "nothing global while full" 0 (Core.Hoard.global_superblocks h);
      List.iter (fun u -> alloc.A.free ctx u) blocks;
      Alcotest.(check bool) "superblocks recycled to heap 0" true
        (Core.Hoard.global_superblocks h > 0);
      Alcotest.(check bool) "transfers recorded" true (Core.Hoard.transfers_to_global h > 0);
      match alloc.A.validate () with Ok () -> () | Error m -> Alcotest.fail m)

let test_hoard_blowup_bound () =
  (* Producer/consumer churn across threads must not grow held memory
     beyond O(live + slack): the failure mode benchmark 2 shows for
     ptmalloc cannot happen here. *)
  let m = M.create ~seed:3 { config with M.cpus = 2 } in
  let p = M.create_proc m () in
  let h = Core.Hoard.make p ~slack:2 () in
  let alloc = Core.Hoard.allocator h in
  let mailbox = ref [] in
  let producer =
    M.spawn p ~name:"producer" (fun ctx ->
        for _ = 1 to 20 do
          let batch = List.init 100 (fun _ -> alloc.A.malloc ctx 64) in
          mailbox := batch :: !mailbox;
          M.work ctx 20_000
        done)
  in
  ignore
    (M.spawn p ~name:"consumer" (fun ctx ->
         M.join ctx producer;
         List.iter (fun batch -> List.iter (fun u -> alloc.A.free ctx u) batch) !mailbox));
  M.run m;
  let heap_count = (M.config m).M.cpus in
  let bound = (2 + 1) * 8192 * (heap_count + 1) * 14 in
  Alcotest.(check bool) "held bytes bounded after full drain" true (Core.Hoard.held_bytes h <= bound);
  Alcotest.(check int) "nothing live" 0 alloc.A.stats.Core.Astats.live_bytes

let test_hoard_foreign_free_counts () =
  let m = M.create ~seed:3 config in
  let p = M.create_proc m () in
  let h = Core.Hoard.make p ~heap_count:4 () in
  let alloc = Core.Hoard.allocator h in
  let handoff = ref [] in
  let producer = M.spawn p (fun ctx -> handoff := List.init 30 (fun _ -> alloc.A.malloc ctx 48)) in
  ignore
    (M.spawn p (fun ctx ->
         M.join ctx producer;
         List.iter (fun u -> alloc.A.free ctx u) !handoff));
  M.run m;
  Alcotest.(check bool) "foreign frees counted" true (alloc.A.stats.Core.Astats.foreign_frees > 0)

(* --- mallopt / mallinfo ---------------------------------------------------- *)

let test_mallopt_mmap_threshold () =
  in_thread (fun _ p ctx ->
      let pt = ptmalloc_of p in
      let alloc = Core.Ptmalloc.allocator pt in
      let u1 = alloc.A.malloc ctx 8192 in
      Alcotest.(check int) "8KB from the arena by default" 0
        alloc.A.stats.Core.Astats.mmapped_chunks;
      Core.Ptmalloc.mallopt pt (Core.Ptmalloc.Mmap_threshold 4096);
      let u2 = alloc.A.malloc ctx 8192 in
      Alcotest.(check int) "rerouted to mmap" 1 alloc.A.stats.Core.Astats.mmapped_chunks;
      alloc.A.free ctx u1;
      alloc.A.free ctx u2)

let test_mallopt_validation () =
  in_thread (fun _ p _ ->
      let pt = ptmalloc_of p in
      Alcotest.check_raises "bad threshold" (Invalid_argument "mallopt: M_MMAP_THRESHOLD <= 0")
        (fun () -> Core.Ptmalloc.mallopt pt (Core.Ptmalloc.Mmap_threshold 0)))

let test_mallinfo_accounting () =
  in_thread (fun _ p ctx ->
      let pt = ptmalloc_of p in
      let alloc = Core.Ptmalloc.allocator pt in
      let blocks = List.init 10 (fun _ -> alloc.A.malloc ctx 100) in
      let big = alloc.A.malloc ctx 200_000 in
      let info = Core.Ptmalloc.mallinfo pt in
      Alcotest.(check int) "one arena" 1 info.Core.Ptmalloc.narenas;
      Alcotest.(check int) "one mmapped block" 1 info.Core.Ptmalloc.hblks;
      Alcotest.(check bool) "mmapped bytes cover request" true (info.Core.Ptmalloc.hblkhd >= 200_000);
      Alcotest.(check bool) "used covers the small blocks" true
        (info.Core.Ptmalloc.uordblks >= 10 * 100);
      Alcotest.(check bool) "segment = used + free" true
        (info.Core.Ptmalloc.arena = info.Core.Ptmalloc.uordblks + info.Core.Ptmalloc.fordblks);
      List.iter (fun u -> alloc.A.free ctx u) (big :: blocks);
      let drained = Core.Ptmalloc.mallinfo pt in
      Alcotest.(check int) "nothing used after drain" 0 drained.Core.Ptmalloc.uordblks;
      Alcotest.(check int) "mmap returned" 0 drained.Core.Ptmalloc.hblks)

(* --- fastbins ---------------------------------------------------------------- *)

let fast_params = { Core.Dlheap.default_params with Core.Dlheap.use_fastbins = true }

let with_fast_heap body =
  in_thread (fun _ _ ctx ->
      let stats = Core.Astats.create () in
      let heap = Core.Dlheap.create_main ~costs:Core.Costs.glibc ~params:fast_params ~stats in
      body heap ctx)

let falloc heap ctx size =
  match Core.Dlheap.malloc heap ctx size with
  | 0 -> Alcotest.fail "allocation failed"
  | u -> u

let test_fastbin_lifo_reuse () =
  with_fast_heap (fun heap ctx ->
      let a = falloc heap ctx 40 in
      let _pin = falloc heap ctx 40 in
      Core.Dlheap.free heap ctx a;
      Alcotest.(check int) "parked in fastbin" 1 (Core.Dlheap.fastbin_chunks heap);
      let b = falloc heap ctx 40 in
      Alcotest.(check int) "LIFO same address" a b;
      Alcotest.(check int) "fastbin drained" 0 (Core.Dlheap.fastbin_chunks heap);
      match Core.Dlheap.validate heap with Ok () -> () | Error m -> Alcotest.fail m)

let test_fastbin_no_coalescing () =
  with_fast_heap (fun heap ctx ->
      let a = falloc heap ctx 40 in
      let b = falloc heap ctx 40 in
      let _pin = falloc heap ctx 40 in
      Core.Dlheap.free heap ctx a;
      Core.Dlheap.free heap ctx b;
      (* adjacent frees stay separate in fastbins *)
      Alcotest.(check int) "both parked, unmerged" 2 (Core.Dlheap.fastbin_chunks heap);
      match Core.Dlheap.validate heap with Ok () -> () | Error m -> Alcotest.fail m)

let test_fastbin_double_free_detected () =
  with_fast_heap (fun heap ctx ->
      let a = falloc heap ctx 40 in
      let _pin = falloc heap ctx 40 in
      Core.Dlheap.free heap ctx a;
      Alcotest.check_raises "double free" (Invalid_argument "Dlheap.free: double free (fastbin)")
        (fun () -> Core.Dlheap.free heap ctx a))

let test_fastbin_consolidation () =
  with_fast_heap (fun heap ctx ->
      let blocks = List.init 20 (fun _ -> falloc heap ctx 40) in
      List.iter (fun u -> Core.Dlheap.free heap ctx u) blocks;
      Alcotest.(check int) "all parked" 20 (Core.Dlheap.fastbin_chunks heap);
      let drained = Core.Dlheap.consolidate heap ctx in
      Alcotest.(check int) "all drained" 20 drained;
      Alcotest.(check int) "fastbins empty" 0 (Core.Dlheap.fastbin_chunks heap);
      Alcotest.(check int) "coalesced into top" 0 (Core.Dlheap.live_chunks heap);
      match Core.Dlheap.validate heap with Ok () -> () | Error m -> Alcotest.fail m)

let test_fastbin_large_sizes_bypass () =
  with_fast_heap (fun heap ctx ->
      let a = falloc heap ctx 500 in
      let _pin = falloc heap ctx 40 in
      Core.Dlheap.free heap ctx a;
      Alcotest.(check int) "large chunk not fastbinned" 0 (Core.Dlheap.fastbin_chunks heap))

(* --- kernel lock on VM syscalls ---------------------------------------------- *)

let bkl_blocks with_bkl =
  let cfg = { config with M.cpus = 4; vm_syscalls_take_bkl = with_bkl; spin_cycles = 0 } in
  let m = M.create ~seed:5 cfg in
  let machine_for_stats = m in
  let blocks = ref 0 in
  let procs = List.init 4 (fun i -> M.create_proc m ~name:(string_of_int i) ()) in
  let threads =
    List.map
      (fun p ->
        M.spawn p (fun ctx ->
            for _ = 1 to 50 do
              match M.mmap ctx ~len:8192 with
              | Some a -> M.munmap ctx a ~len:8192
              | None -> Alcotest.fail "mmap failed"
            done))
      procs
  in
  M.run m;
  List.iter (fun th -> blocks := !blocks + (M.thread_stats th).M.blocks) threads;
  (!blocks, M.kernel_lock_contentions machine_for_stats)

let test_bkl_serializes_across_processes () =
  let blocks_on, contended_on = bkl_blocks true in
  let blocks_off, contended_off = bkl_blocks false in
  Alcotest.(check bool) "BKL causes blocking" true (blocks_on > 0);
  Alcotest.(check bool) "contention counted" true (contended_on > 0);
  Alcotest.(check int) "no BKL, no blocking" 0 blocks_off;
  Alcotest.(check int) "no BKL, no contention" 0 contended_off

let suite =
  [ Alcotest.test_case "calloc zeroes and pages" `Quick test_calloc_zeroes_and_pages;
    Alcotest.test_case "calloc overflow" `Quick test_calloc_overflow;
    Alcotest.test_case "realloc in place / move" `Quick test_realloc_in_place_and_move;
    Alcotest.test_case "realloc null/zero" `Quick test_realloc_null_and_zero;
    Alcotest.test_case "realloc copy cost" `Quick test_realloc_cost_charged;
    Alcotest.test_case "memalign" `Quick test_memalign;
    Alcotest.test_case "cost helpers" `Quick test_cost_helpers;
    QCheck_alcotest.to_alcotest prop_memalign_realloc_free;
    Alcotest.test_case "hoard: heap hashing" `Quick test_hoard_heap_hashing;
    Alcotest.test_case "hoard: superblock reuse" `Quick test_hoard_superblock_reuse;
    Alcotest.test_case "hoard: emptiness invariant" `Quick test_hoard_emptiness_invariant;
    Alcotest.test_case "hoard: blowup bound" `Quick test_hoard_blowup_bound;
    Alcotest.test_case "hoard: foreign frees" `Quick test_hoard_foreign_free_counts;
    Alcotest.test_case "mallopt: mmap threshold" `Quick test_mallopt_mmap_threshold;
    Alcotest.test_case "mallopt: validation" `Quick test_mallopt_validation;
    Alcotest.test_case "mallinfo accounting" `Quick test_mallinfo_accounting;
    Alcotest.test_case "fastbin: LIFO reuse" `Quick test_fastbin_lifo_reuse;
    Alcotest.test_case "fastbin: no coalescing" `Quick test_fastbin_no_coalescing;
    Alcotest.test_case "fastbin: double free" `Quick test_fastbin_double_free_detected;
    Alcotest.test_case "fastbin: consolidation" `Quick test_fastbin_consolidation;
    Alcotest.test_case "fastbin: large bypass" `Quick test_fastbin_large_sizes_bypass;
    Alcotest.test_case "kernel lock serializes VM syscalls" `Quick test_bkl_serializes_across_processes;
  ]

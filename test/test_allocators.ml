(* Black-box tests run against every allocator implementation, plus
   white-box tests of ptmalloc's arena protocol, the per-thread caches,
   the slab allocator, and the aligning wrapper. *)

module M = Core.Machine
module A = Core.Allocator

let config = { M.default_config with M.cpus = 2; op_jitter = 0. }

let factories =
  [ Core.Factory.ptmalloc ();
    Core.Factory.serial_glibc ();
    Core.Factory.serial_solaris ();
    Core.Factory.perthread ();
    Core.Factory.slab ();
    Core.Factory.hoard ();
    Core.Factory.aligned ~line_size:32 (Core.Factory.ptmalloc ());
  ]

let in_thread body =
  let m = M.create ~seed:1 config in
  let p = M.create_proc m () in
  ignore (M.spawn p (fun ctx -> body p ctx));
  M.run m

let check_valid (alloc : A.t) =
  match alloc.A.validate () with
  | Ok () -> ()
  | Error msg -> Alcotest.fail (alloc.A.name ^ ": " ^ msg)

(* --- generic black-box battery --------------------------------------- *)

let generic_roundtrip factory () =
  in_thread (fun p ctx ->
      let alloc = factory.Core.Factory.create p in
      let blocks = List.init 100 (fun i -> alloc.A.malloc ctx (8 + (i mod 60 * 8))) in
      (* all distinct *)
      Alcotest.(check int) "distinct addresses" 100 (List.length (List.sort_uniq compare blocks));
      List.iter (fun u -> M.write_mem ctx u) blocks;
      List.iter (fun u -> alloc.A.free ctx u) blocks;
      check_valid alloc;
      Alcotest.(check int) "live zero" 0 alloc.A.stats.Core.Astats.live_bytes;
      Alcotest.(check int) "balanced ops" alloc.A.stats.Core.Astats.mallocs
        alloc.A.stats.Core.Astats.frees)

let generic_usable_size factory () =
  in_thread (fun p ctx ->
      let alloc = factory.Core.Factory.create p in
      List.iter
        (fun size ->
          let u = alloc.A.malloc ctx size in
          Alcotest.(check bool)
            (Printf.sprintf "usable(%d) covers request" size)
            true
            (alloc.A.usable_size u >= size);
          alloc.A.free ctx u)
        [ 1; 7; 8; 40; 100; 512; 4000 ])

let generic_no_overlap factory =
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: live blocks never overlap" factory.Core.Factory.label)
    ~count:30
    QCheck.(list_of_size Gen.(int_range 1 80) (pair bool (int_range 1 2000)))
    (fun ops ->
      let ok = ref true in
      in_thread (fun p ctx ->
          let alloc = factory.Core.Factory.create p in
          let live = ref [] in
          List.iter
            (fun (do_alloc, size) ->
              if do_alloc || !live = [] then begin
                let u = alloc.A.malloc ctx size in
                let ulen = size in
                if List.exists (fun (v, vlen) -> not (u + ulen <= v || v + vlen <= u)) !live then
                  ok := false;
                live := (u, size) :: !live
              end
              else
                match !live with
                | (u, _) :: rest ->
                    alloc.A.free ctx u;
                    live := rest
                | [] -> ())
            ops;
          List.iter (fun (u, _) -> alloc.A.free ctx u) !live;
          match alloc.A.validate () with Ok () -> () | Error _ -> ok := false);
      !ok)

(* calloc/realloc/memalign round-trips must work on every implementation. *)
let generic_derived_api factory () =
  in_thread (fun p ctx ->
      let alloc = factory.Core.Factory.create p in
      let z = Core.Allocator.calloc alloc ctx ~count:10 ~size:13 in
      Alcotest.(check bool) "calloc covers" true (alloc.Core.Allocator.usable_size z >= 130);
      let grown = Core.Allocator.realloc alloc ctx z 1_000 in
      Alcotest.(check bool) "realloc covers" true (alloc.Core.Allocator.usable_size grown >= 1_000);
      let a = Core.Allocator.memalign alloc ctx ~alignment:64 77 in
      Alcotest.(check int) "memalign aligns" 0 (a mod 64);
      Core.Allocator.free_aligned alloc ctx a;
      alloc.Core.Allocator.free ctx grown;
      check_valid alloc;
      Alcotest.(check int) (factory.Core.Factory.label ^ " drains") 0
        alloc.Core.Allocator.stats.Core.Astats.live_bytes)

(* Multithreaded churn with a cross-thread hand-off at the end: every
   allocator must survive contention, route foreign frees correctly, and
   leave a structurally valid empty heap. *)
let generic_concurrent_stress factory () =
  let m = M.create ~seed:17 { config with M.cpus = 4 } in
  let p = M.create_proc m () in
  let alloc = factory.Core.Factory.create p in
  let leftovers = Array.make 3 [] in
  let workers =
    List.init 3 (fun w ->
        M.spawn p ~name:(string_of_int w) (fun ctx ->
            let rng = M.ctx_rng ctx in
            let live = ref [] in
            for _ = 1 to 400 do
              if Core.Rng.bool rng || !live = [] then begin
                let size = 1 + Core.Rng.int rng 700 in
                let u = alloc.A.malloc ctx size in
                M.write_mem ctx u;
                live := u :: !live
              end
              else
                match !live with
                | u :: rest ->
                    alloc.A.free ctx u;
                    live := rest
                | [] -> ()
            done;
            leftovers.(w) <- !live))
  in
  (* A final thread frees everything the workers left behind. *)
  ignore
    (M.spawn p ~name:"reaper" (fun ctx ->
         List.iter (fun w -> M.join ctx w) workers;
         Array.iter (List.iter (fun u -> alloc.A.free ctx u)) leftovers));
  M.run m;
  check_valid alloc;
  Alcotest.(check int) "live zero after reaping" 0 alloc.A.stats.Core.Astats.live_bytes;
  Alcotest.(check int) "balanced ops" alloc.A.stats.Core.Astats.mallocs
    alloc.A.stats.Core.Astats.frees

let generic_cases =
  List.concat_map
    (fun f ->
      [ Alcotest.test_case (f.Core.Factory.label ^ ": roundtrip") `Quick (generic_roundtrip f);
        Alcotest.test_case (f.Core.Factory.label ^ ": usable size") `Quick (generic_usable_size f);
        Alcotest.test_case (f.Core.Factory.label ^ ": derived C API") `Quick (generic_derived_api f);
        Alcotest.test_case
          (f.Core.Factory.label ^ ": concurrent stress")
          `Quick (generic_concurrent_stress f);
        QCheck_alcotest.to_alcotest (generic_no_overlap f);
      ])
    factories

(* A request no size arithmetic can represent fails with the error
   fault-tolerant workloads degrade on, and leaves the heap valid. *)
let test_oversized_requests_fail () =
  List.iter
    (fun name ->
      let factory = Option.get (Core.Factory.by_name name) in
      in_thread (fun p ctx ->
          let alloc = factory.Core.Factory.create p in
          let pin = alloc.A.malloc ctx 64 in
          List.iter
            (fun size ->
              match alloc.A.malloc ctx size with
              | u -> Alcotest.failf "%s: malloc %d returned 0x%x" name size u
              | exception Core.Fault.Injector.Alloc_failure _ -> ())
            [ max_int; max_int - 7; max_int - 100 ];
          alloc.A.free ctx pin;
          check_valid alloc;
          Alcotest.(check int) (name ^ ": live zero") 0 alloc.A.stats.Core.Astats.live_bytes))
    Core.Factory.names

(* --- ptmalloc arena protocol ------------------------------------------ *)

let test_ptmalloc_single_thread_one_arena () =
  in_thread (fun p ctx ->
      let pt = Core.Ptmalloc.make p () in
      let alloc = Core.Ptmalloc.allocator pt in
      for _ = 1 to 200 do
        let u = alloc.A.malloc ctx 128 in
        alloc.A.free ctx u
      done;
      Alcotest.(check int) "no contention, one arena" 1 (Core.Ptmalloc.arena_count pt))

let test_ptmalloc_arena_growth_under_contention () =
  let m = M.create ~seed:1 config in
  let p = M.create_proc m () in
  let pt = Core.Ptmalloc.make p () in
  let alloc = Core.Ptmalloc.allocator pt in
  let workers =
    List.init 2 (fun i ->
        M.spawn p ~name:(string_of_int i) (fun ctx ->
            for _ = 1 to 2_000 do
              let u = alloc.A.malloc ctx 128 in
              alloc.A.free ctx u
            done))
  in
  ignore workers;
  M.run m;
  Alcotest.(check bool) "arena created for second thread" true (Core.Ptmalloc.arena_count pt >= 2);
  check_valid alloc

let test_ptmalloc_max_arenas_cap () =
  let m = M.create ~seed:1 { config with M.cpus = 4 } in
  let p = M.create_proc m () in
  let pt = Core.Ptmalloc.make p ~max_arenas:2 () in
  let alloc = Core.Ptmalloc.allocator pt in
  ignore
    (List.init 4 (fun i ->
         M.spawn p ~name:(string_of_int i) (fun ctx ->
             for _ = 1 to 1_000 do
               let u = alloc.A.malloc ctx 128 in
               alloc.A.free ctx u
             done)));
  M.run m;
  Alcotest.(check bool) "capped" true (Core.Ptmalloc.arena_count pt <= 2);
  check_valid alloc

let test_ptmalloc_foreign_free_routing () =
  let m = M.create ~seed:1 config in
  let p = M.create_proc m () in
  let pt = Core.Ptmalloc.make p () in
  let alloc = Core.Ptmalloc.allocator pt in
  let handover = ref [] in
  let producer =
    M.spawn p ~name:"producer" (fun ctx ->
        (* force a private arena by colliding once *)
        handover := List.init 50 (fun _ -> alloc.A.malloc ctx 64))
  in
  ignore
    (M.spawn p ~name:"consumer" (fun ctx ->
         M.join ctx producer;
         (* allocate to establish this thread's own arena usage *)
         let mine = alloc.A.malloc ctx 64 in
         List.iter (fun u -> alloc.A.free ctx u) !handover;
         alloc.A.free ctx mine));
  M.run m;
  check_valid alloc;
  Alcotest.(check int) "all storage drained" 0 alloc.A.stats.Core.Astats.live_bytes

let test_ptmalloc_arena_of_thread () =
  let m = M.create ~seed:1 config in
  let p = M.create_proc m () in
  let pt = Core.Ptmalloc.make p () in
  let alloc = Core.Ptmalloc.allocator pt in
  let tid_box = ref (-1) in
  ignore
    (M.spawn p (fun ctx ->
         tid_box := M.tid ctx;
         let u = alloc.A.malloc ctx 64 in
         alloc.A.free ctx u));
  M.run m;
  Alcotest.(check (option int)) "cached arena recorded" (Some 0) (Core.Ptmalloc.arena_of_thread pt !tid_box)

let test_ptmalloc_usable_and_wild_free () =
  in_thread (fun p ctx ->
      let alloc = Core.Ptmalloc.allocator (Core.Ptmalloc.make p ()) in
      let u = alloc.A.malloc ctx 100 in
      Alcotest.(check bool) "usable" true (alloc.A.usable_size u >= 100);
      Alcotest.check_raises "wild free"
        (Invalid_argument "ptmalloc.free: address not owned by any arena") (fun () ->
          alloc.A.free ctx 0x99);
      alloc.A.free ctx u)

(* --- perthread --------------------------------------------------------- *)

let test_perthread_lock_amortization () =
  in_thread (fun p ctx ->
      let pt = Core.Perthread.make p ~batch:16 () in
      let alloc = Core.Perthread.allocator pt in
      for _ = 1 to 320 do
        let u = alloc.A.malloc ctx 40 in
        alloc.A.free ctx u
      done;
      (* one refill of 16 serves the whole loop: far fewer lock trips than ops *)
      Alcotest.(check bool) "global lock rarely touched" true
        (Core.Perthread.global_lock_acquisitions pt < 20);
      Alcotest.(check bool) "objects parked in cache" true (Core.Perthread.cached_objects pt > 0))

let test_perthread_cache_limit_flush () =
  in_thread (fun p ctx ->
      let pt = Core.Perthread.make p ~batch:8 ~cache_limit:16 () in
      let alloc = Core.Perthread.allocator pt in
      let blocks = List.init 100 (fun _ -> alloc.A.malloc ctx 40) in
      List.iter (fun u -> alloc.A.free ctx u) blocks;
      (* the magazine was capped, flushing overflow back to the heap *)
      Alcotest.(check bool) "cache bounded" true (Core.Perthread.cached_objects pt <= 17);
      check_valid (Core.Perthread.allocator pt))

let test_perthread_large_objects_bypass () =
  in_thread (fun p ctx ->
      let pt = Core.Perthread.make p () in
      let alloc = Core.Perthread.allocator pt in
      let u = alloc.A.malloc ctx 4096 in
      alloc.A.free ctx u;
      Alcotest.(check int) "nothing cached" 0 (Core.Perthread.cached_objects pt);
      Alcotest.(check int) "fully drained" 0 alloc.A.stats.Core.Astats.live_bytes)

(* The shared heap's mapped chunks and failed growths reach perthread's
   stats as ptmalloc reports its own, and a caller's malloc counts once
   however many blocks its refill took: a 200 KB block (past the mmap
   threshold) and a 40 B one, then 1,000 B blocks in a brk zone
   crowded to 24 pages, where sbrk fails and the heap maps instead. *)
let test_perthread_reports_heap_counts () =
  let crowded =
    let vm = Core.Address_space.linux_x86 in
    { config with
      M.vm = { vm with Core.Address_space.brk_ceiling = vm.Core.Address_space.brk_base + (24 * 4096) };
    }
  in
  let big_and_small alloc ctx =
    let big = alloc.A.malloc ctx (200 * 1024) and small = alloc.A.malloc ctx 40 in
    alloc.A.free ctx small;
    alloc.A.free ctx big
  and crowd alloc ctx =
    List.iter (fun u -> alloc.A.free ctx u) (List.init 200 (fun _ -> alloc.A.malloc ctx 1000))
  in
  let counts config body make =
    let m = M.create ~seed:1 config in
    let p = M.create_proc m () in
    let alloc = make p in
    ignore (M.spawn p (body alloc) : M.thread);
    M.run m;
    let s = alloc.A.stats in
    (s.Core.Astats.mallocs, s.Core.Astats.mmapped_chunks, s.Core.Astats.grow_failures)
  in
  let ptmalloc p = Core.Ptmalloc.allocator (Core.Ptmalloc.make p ())
  and perthread p = Core.Perthread.allocator (Core.Perthread.make p ()) in
  let triple = Alcotest.(triple int int int) in
  let big = counts config big_and_small in
  Alcotest.check triple "200 KB: mallocs, mmapped, grow failures" (2, 1, 0) (big perthread);
  Alcotest.check triple "200 KB: as ptmalloc" (big ptmalloc) (big perthread);
  let crowded = counts crowded crowd in
  let mallocs, _, failures = crowded perthread in
  Alcotest.(check int) "crowded: mallocs" 200 mallocs;
  Alcotest.(check bool) "crowded: growths failed" true (failures > 0);
  Alcotest.check triple "crowded: as ptmalloc" (crowded ptmalloc) (crowded perthread)

(* A refill the shared heap can supply only in part keeps the blocks it
   got. With the brk zone crowded to 24 pages and no mmap fallback, 40 B
   mallocs run until the first failure: perthread gets as many as a
   serial heap over the same space does, and once every block is freed
   the shared heap's live objects are the cached ones. Dropping the
   partial batch leaked 15 blocks here (67 live in the heap against 52
   cached) and failed 15 mallocs early. *)
let test_perthread_dry_refill_keeps_blocks () =
  let vm = Core.Address_space.linux_x86 in
  let config =
    { config with
      M.vm = { vm with Core.Address_space.brk_ceiling = vm.Core.Address_space.brk_base + (24 * 4096) };
    }
  in
  let params = { Core.Dlheap.default_params with Core.Dlheap.mmap_fallback = false } in
  let until_dry make =
    let m = M.create ~seed:1 config in
    let p = M.create_proc m () in
    let alloc = make p in
    let taken = ref [] in
    ignore
      (M.spawn p (fun ctx ->
           (try
              while true do
                taken := alloc.A.malloc ctx 40 :: !taken
              done
            with Core.Fault.Injector.Alloc_failure _ -> ());
           List.iter (fun u -> alloc.A.free ctx u) !taken)
        : M.thread);
    M.run m;
    (alloc, List.length !taken)
  in
  let _, serial = until_dry (fun p -> Core.Serial.allocator (Core.Serial.make p ~costs:Core.Costs.glibc ~params ())) in
  let alloc, perthread = until_dry (fun p -> Core.Perthread.allocator (Core.Perthread.make p ~params ())) in
  Alcotest.(check bool) "the heap ran dry" true (serial > 0 && alloc.A.stats.Core.Astats.grow_failures > 0);
  Alcotest.(check int) "mallocs before the first failure, as serial" serial perthread;
  check_valid alloc

(* --- slab --------------------------------------------------------------- *)

let test_slab_size_classes () =
  in_thread (fun p ctx ->
      let slab = Core.Slab.make p () in
      let alloc = Core.Slab.allocator slab in
      let a = alloc.A.malloc ctx 10 in
      let b = alloc.A.malloc ctx 100 in
      let c = alloc.A.malloc ctx 1000 in
      Alcotest.(check int) "three power-of-two caches" 3 (Core.Slab.cache_count slab);
      Alcotest.(check int) "10 -> 16" 16 (alloc.A.usable_size a);
      Alcotest.(check int) "100 -> 128" 128 (alloc.A.usable_size b);
      Alcotest.(check int) "1000 -> 1024" 1024 (alloc.A.usable_size c);
      List.iter (fun u -> alloc.A.free ctx u) [ a; b; c ];
      check_valid alloc)

let test_slab_reclaims_empty_slabs () =
  in_thread (fun p ctx ->
      let slab = Core.Slab.make p ~slab_pages:1 () in
      let alloc = Core.Slab.allocator slab in
      (* two slabs' worth of 512B objects: 8 per slab *)
      let blocks = List.init 24 (fun _ -> alloc.A.malloc ctx 512) in
      let high = Core.Slab.slab_count slab in
      Alcotest.(check int) "three slabs" 3 high;
      List.iter (fun u -> alloc.A.free ctx u) blocks;
      Alcotest.(check bool) "empties reclaimed" true (Core.Slab.slab_count slab < high);
      check_valid alloc)

(* --- aligned wrapper ----------------------------------------------------- *)

let test_aligned_addresses () =
  in_thread (fun p ctx ->
      let inner = Core.Ptmalloc.allocator (Core.Ptmalloc.make p ()) in
      let alloc = Core.Aligned.make ~line_size:32 inner in
      List.iter
        (fun size ->
          let u = alloc.A.malloc ctx size in
          Alcotest.(check int) (Printf.sprintf "%dB aligned" size) 0 (u mod 32);
          Alcotest.(check bool) "usable covers" true (alloc.A.usable_size u >= size);
          alloc.A.free ctx u)
        [ 3; 17; 32; 40; 52; 100 ])

let test_aligned_objects_own_their_lines () =
  in_thread (fun p ctx ->
      let inner = Core.Ptmalloc.allocator (Core.Ptmalloc.make p ()) in
      let alloc = Core.Aligned.make ~line_size:32 inner in
      let blocks = List.init 16 (fun _ -> alloc.A.malloc ctx 24) in
      let lines u = [ u / 32; (u + 23) / 32 ] in
      let all_lines = List.concat_map lines blocks in
      (* each block's lines appear for no other block *)
      let module IS = Set.Make (Int) in
      Alcotest.(check int) "no shared lines" (IS.cardinal (IS.of_list all_lines))
        (List.length (List.sort_uniq compare all_lines));
      List.iter
        (fun u ->
          List.iter
            (fun v ->
              if u <> v then
                List.iter (fun l -> if List.mem l (lines v) then Alcotest.fail "line shared") (lines u))
            blocks)
        blocks;
      List.iter (fun u -> alloc.A.free ctx u) blocks)

let test_aligned_wild_free () =
  in_thread (fun p ctx ->
      let inner = Core.Ptmalloc.allocator (Core.Ptmalloc.make p ()) in
      let alloc = Core.Aligned.make ~line_size:32 inner in
      Alcotest.check_raises "unknown address"
        (Invalid_argument "Aligned.free: address was not allocated through this wrapper") (fun () ->
          alloc.A.free ctx 320))

let test_padding_overhead () =
  Alcotest.(check bool) "40B pays at most 56 extra" true
    (Core.Aligned.padding_overhead ~line_size:32 40 <= 56);
  Alcotest.check_raises "power of two required"
    (Invalid_argument "Aligned.make: line_size not a power of two") (fun () ->
      in_thread (fun p _ ->
          ignore (Core.Aligned.make ~line_size:33 (Core.Ptmalloc.allocator (Core.Ptmalloc.make p ())))))

(* --- serial -------------------------------------------------------------- *)

let test_serial_lock_counts () =
  in_thread (fun p ctx ->
      let s = Core.Serial.make p () in
      let alloc = Core.Serial.allocator s in
      for _ = 1 to 50 do
        let u = alloc.A.malloc ctx 64 in
        alloc.A.free ctx u
      done;
      Alcotest.(check int) "every op takes the one lock" 100 (Core.Serial.lock_acquisitions s);
      Alcotest.(check int) "no contention single-threaded" 0 (Core.Serial.lock_contentions s))

(* A fresh arena is locked before other threads can see it. A quantum
   of 50 us lets a thread lose its CPU while it pays the lock-op cycles
   of that first [try_lock], and at seed 168 another thread's arena scan
   used to take the fresh arena in that window, so its creator raised
   "fresh arena unexpectedly locked". *)
let test_ptmalloc_fresh_arena_locked () =
  let m = M.create ~seed:168 { Core.Configs.dual_pentium_pro with M.quantum_us = 50. } in
  let p = M.create_proc m () in
  let pt = Core.Ptmalloc.make p () in
  let alloc = Core.Ptmalloc.allocator pt in
  for _ = 1 to 3 do
    ignore
      (M.spawn p (fun ctx ->
           for _ = 1 to 50 do
             let u = alloc.A.malloc ctx 64 in
             M.work ctx 50;
             alloc.A.free ctx u
           done)
        : M.thread)
  done;
  M.run m;
  Alcotest.(check bool) "arenas created" true (Core.Ptmalloc.arena_count pt >= 2);
  check_valid alloc;
  Alcotest.(check int) "live zero" 0 alloc.A.stats.Core.Astats.live_bytes

(* A failed mmap of the arena-metadata page gives back the arena number
   it claimed. Once both threads hold their stacks, one maps the rest of
   the mmap zone, and they contend until a malloc that tries to create
   the first sub-arena raises. After the filler is unmapped, they
   contend again, and the arena they create is number 1; it was 2 when
   the failure kept the number it had claimed. *)
let test_ptmalloc_failed_metadata_map () =
  let m = M.create ~seed:1 config in
  let p = M.create_proc m () in
  let pt = Core.Ptmalloc.make p () in
  let alloc = Core.Ptmalloc.allocator pt in
  let second_up = M.Latch.create m and filled = M.Latch.create m and freed = M.Latch.create m in
  let failures = ref 0 and tids = ref [] in
  let contend ctx =
    tids := M.tid ctx :: !tids;
    while !failures = 0 do
      match alloc.A.malloc ctx 128 with
      | u -> alloc.A.free ctx u
      | exception Core.Fault.Injector.Alloc_failure _ -> incr failures
    done
  and churn ctx =
    for _ = 1 to 2_000 do
      alloc.A.free ctx (alloc.A.malloc ctx 128)
    done
  in
  (* Halving lengths down to a page leave no gap in the zone. *)
  let fill ctx =
    let rec go len acc =
      if len < 4096 then acc
      else match M.mmap ctx ~len with Some a -> go len ((a, len) :: acc) | None -> go (len / 2) acc
    in
    go (1 lsl 31) []
  in
  ignore
    (M.spawn p ~name:"first" (fun ctx ->
        M.Latch.wait second_up ctx;
        let filler = fill ctx in
        M.Latch.signal filled ctx;
        contend ctx;
        List.iter (fun (a, len) -> M.munmap ctx a ~len) filler;
        M.Latch.signal freed ctx;
        churn ctx)
      : M.thread);
  ignore
    (M.spawn p ~name:"second" (fun ctx ->
        M.Latch.signal second_up ctx;
        M.Latch.wait filled ctx;
        contend ctx;
        M.Latch.wait freed ctx;
        churn ctx)
      : M.thread);
  M.run m;
  Alcotest.(check bool) "the metadata mmap failed" true (!failures > 0);
  Alcotest.(check int) "one arena created" 2 (Core.Ptmalloc.arena_count pt);
  Alcotest.(check (list (option int)))
    "arenas 0 and 1" [ Some 0; Some 1 ]
    (List.sort compare (List.map (Core.Ptmalloc.arena_of_thread pt) !tids));
  check_valid alloc

(* A raw [free] of a memalign'd address releases the chunk it was carved
   from, with nothing armed (the path that skips the origins probe while
   the table is empty) and with the checker armed. Some alignments
   exceed what each allocator gives anyway, so some blocks need the
   routing. *)
let test_memalign_raw_free () =
  List.iter
    (fun check ->
      List.iter
        (fun name ->
          let factory = Option.get (Core.Factory.by_name name) in
          let label = Printf.sprintf "%s%s" name (if check then " (checked)" else "") in
          Core.Arm.set { Core.Arm.off with Core.Arm.check };
          let m =
            Fun.protect
              ~finally:(fun () -> Core.Arm.set Core.Arm.off)
              (fun () -> M.create ~seed:1 config)
          in
          Alcotest.(check bool)
            (label ^ ": armed as asked")
            check
            (Core.Check.Checker.armed (M.checker m));
          let p = M.create_proc m () in
          let alloc = factory.Core.Factory.create p in
          let routed = ref 0 in
          ignore
            (M.spawn p (fun ctx ->
                 let blocks =
                   List.concat_map
                     (fun alignment ->
                       List.map
                         (fun size -> A.memalign alloc ctx ~alignment size)
                         [ 8; 24; 100; 1000; 5000 ])
                     [ 16; 64; 4096; 8192 ]
                 in
                 routed := Hashtbl.length alloc.A.origins;
                 List.iter (fun u -> alloc.A.free ctx u) blocks)
              : M.thread);
          M.run m;
          Alcotest.(check bool)
            (Printf.sprintf "%s: %d block(s) needed routing" label !routed)
            true (!routed > 0);
          Alcotest.(check int) (label ^ ": origins drained") 0 (Hashtbl.length alloc.A.origins);
          Alcotest.(check int) (label ^ ": live zero") 0 alloc.A.stats.Core.Astats.live_bytes;
          check_valid alloc)
        Core.Factory.names)
    [ false; true ]

let suite =
  generic_cases
  @ [ Alcotest.test_case "ptmalloc: 1 thread, 1 arena" `Quick test_ptmalloc_single_thread_one_arena;
      Alcotest.test_case "ptmalloc: arenas grow on contention" `Quick
        test_ptmalloc_arena_growth_under_contention;
      Alcotest.test_case "ptmalloc: max_arenas cap" `Quick test_ptmalloc_max_arenas_cap;
      Alcotest.test_case "ptmalloc: foreign free routing" `Quick test_ptmalloc_foreign_free_routing;
      Alcotest.test_case "ptmalloc: arena_of_thread" `Quick test_ptmalloc_arena_of_thread;
      Alcotest.test_case "ptmalloc: usable size / wild free" `Quick test_ptmalloc_usable_and_wild_free;
      Alcotest.test_case "perthread: lock amortization" `Quick test_perthread_lock_amortization;
      Alcotest.test_case "perthread: cache limit flush" `Quick test_perthread_cache_limit_flush;
      Alcotest.test_case "perthread: large bypass" `Quick test_perthread_large_objects_bypass;
      Alcotest.test_case "slab: size classes" `Quick test_slab_size_classes;
      Alcotest.test_case "slab: reclaims empties" `Quick test_slab_reclaims_empty_slabs;
      Alcotest.test_case "aligned: addresses" `Quick test_aligned_addresses;
      Alcotest.test_case "aligned: exclusive lines" `Quick test_aligned_objects_own_their_lines;
      Alcotest.test_case "aligned: wild free" `Quick test_aligned_wild_free;
      Alcotest.test_case "aligned: padding overhead" `Quick test_padding_overhead;
      Alcotest.test_case "serial: lock counts" `Quick test_serial_lock_counts;
      Alcotest.test_case "oversized requests fail cleanly" `Quick test_oversized_requests_fail;
      Alcotest.test_case "memalign then raw free, unarmed and checked" `Quick
        test_memalign_raw_free;
      Alcotest.test_case "ptmalloc: fresh arena locked before publish" `Quick
        test_ptmalloc_fresh_arena_locked;
      Alcotest.test_case "ptmalloc: a failed metadata mmap gives its arena number back" `Quick
        test_ptmalloc_failed_metadata_map;
      Alcotest.test_case "perthread: heap's mapped chunks and failed growths" `Quick
        test_perthread_reports_heap_counts;
      Alcotest.test_case "perthread: a dry refill keeps the blocks it took" `Quick
        test_perthread_dry_refill_keeps_blocks;
    ]

(* Tests for the dlmalloc-style heap: boundary tags, bins, top chunk,
   growth, trim, the mmap threshold, and structural invariants. *)

module M = Core.Machine
module Dlheap = Core.Dlheap
module As = Core.Address_space

let config = { M.default_config with M.cpus = 1; op_jitter = 0. }

(* Run [body] in a fresh machine with a fresh main heap. *)
let with_heap ?(params = Dlheap.default_params) body =
  let m = M.create ~seed:1 config in
  let p = M.create_proc m () in
  let stats = Core.Astats.create () in
  let heap = Dlheap.create_main p ~costs:Core.Costs.glibc ~params ~stats in
  ignore (M.spawn p (fun ctx -> body heap stats ctx p));
  M.run m

let alloc heap ctx size =
  match Dlheap.malloc heap ctx size with
  | 0 -> Alcotest.fail "unexpected allocation failure"
  | user -> user

let check_valid heap =
  match Dlheap.validate heap with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("invariant violation: " ^ msg)

let test_basic_alloc_free () =
  with_heap (fun heap _ ctx _ ->
      let a = alloc heap ctx 100 in
      let b = alloc heap ctx 100 in
      Alcotest.(check bool) "distinct" true (a <> b);
      Alcotest.(check bool) "aligned" true (a mod 8 = 0 && b mod 8 = 0);
      Alcotest.(check bool) "usable >= request" true (Dlheap.usable_size heap a >= 100);
      Dlheap.free heap ctx a;
      Dlheap.free heap ctx b;
      check_valid heap;
      Alcotest.(check int) "all coalesced into top" 0 (Dlheap.live_chunks heap))

let test_exact_reuse () =
  with_heap (fun heap _ ctx _ ->
      let a = alloc heap ctx 256 in
      let _pin = alloc heap ctx 64 in
      Dlheap.free heap ctx a;
      let b = alloc heap ctx 256 in
      Alcotest.(check int) "free chunk reused exactly" a b)

let test_split_and_remainder () =
  with_heap (fun heap _ ctx _ ->
      let big = alloc heap ctx 1000 in
      let _pin = alloc heap ctx 16 in
      Dlheap.free heap ctx big;
      (* A smaller request splits the binned 1008-byte chunk. *)
      let small = alloc heap ctx 100 in
      Alcotest.(check int) "reuses the front" big small;
      check_valid heap;
      Alcotest.(check bool) "remainder binned" true (Dlheap.free_bytes heap > 0))

let test_coalesce_three_way () =
  with_heap (fun heap _ ctx _ ->
      let a = alloc heap ctx 64 in
      let b = alloc heap ctx 64 in
      let c = alloc heap ctx 64 in
      let _pin = alloc heap ctx 64 in
      Dlheap.free heap ctx a;
      Dlheap.free heap ctx c;
      check_valid heap;
      (* freeing b must merge with both neighbours *)
      Dlheap.free heap ctx b;
      check_valid heap;
      let merged = alloc heap ctx 200 in
      Alcotest.(check int) "merged region starts at a" a merged)

let test_no_adjacent_free_chunks () =
  with_heap (fun heap _ ctx _ ->
      let blocks = List.init 20 (fun _ -> alloc heap ctx 48) in
      List.iteri (fun i u -> if i mod 2 = 0 then Dlheap.free heap ctx u) blocks;
      check_valid heap;
      List.iteri (fun i u -> if i mod 2 = 1 then Dlheap.free heap ctx u) blocks;
      check_valid heap)

let test_double_free_raises () =
  with_heap (fun heap _ ctx _ ->
      let a = alloc heap ctx 32 in
      let _pin = alloc heap ctx 32 in
      Dlheap.free heap ctx a;
      Alcotest.check_raises "double free" (Invalid_argument "Dlheap.free: double free") (fun () ->
          Dlheap.free heap ctx a))

let test_bad_free_raises () =
  with_heap (fun heap _ ctx _ ->
      let _a = alloc heap ctx 32 in
      Alcotest.check_raises "wild pointer"
        (Invalid_argument "Dlheap.free: address not owned by this heap") (fun () ->
          Dlheap.free heap ctx 0xDEAD00))

let test_top_growth_uses_sbrk () =
  with_heap (fun heap _ ctx p ->
      let before = As.sbrk_calls (M.proc_vm p) in
      let _a = alloc heap ctx 512 in
      Alcotest.(check bool) "sbrk called" true (As.sbrk_calls (M.proc_vm p) > before);
      let before2 = As.sbrk_calls (M.proc_vm p) in
      let _b = alloc heap ctx 512 in
      (* top_pad means nearby allocations reuse the grown top *)
      Alcotest.(check int) "no extra sbrk" before2 (As.sbrk_calls (M.proc_vm p)))

let test_trim_returns_memory () =
  let params = { Dlheap.default_params with Dlheap.trim_threshold = 16 * 1024 } in
  with_heap ~params (fun heap _ ctx p ->
      let blocks = List.init 64 (fun _ -> alloc heap ctx 1024) in
      let high = As.brk (M.proc_vm p) in
      List.iter (fun u -> Dlheap.free heap ctx u) blocks;
      check_valid heap;
      Alcotest.(check bool) "brk released" true (As.brk (M.proc_vm p) < high);
      Alcotest.(check bool) "top under threshold" true (Dlheap.top_bytes heap <= 16 * 1024))

let test_mmap_threshold () =
  with_heap (fun heap stats ctx p ->
      let big = alloc heap ctx (Dlheap.default_params.Dlheap.mmap_threshold + 100) in
      Alcotest.(check int) "mmapped chunk counted" 1 stats.Core.Astats.mmapped_chunks;
      Alcotest.(check bool) "usable covers request" true
        (Dlheap.usable_size heap big >= Dlheap.default_params.Dlheap.mmap_threshold + 100);
      let mmaps = As.munmap_calls (M.proc_vm p) in
      Dlheap.free heap ctx big;
      Alcotest.(check bool) "munmapped on free" true (As.munmap_calls (M.proc_vm p) > mmaps);
      check_valid heap)

let test_sbrk_blocked_falls_back_to_mmap () =
  (* Squeeze the brk zone so growth hits the ceiling immediately. *)
  let vm =
    { As.linux_x86 with
      As.brk_base = 0x0810_0000;
      brk_ceiling = 0x0810_0000 + (16 * 4096);
    }
  in
  let m = M.create ~seed:1 { config with M.vm } in
  let p = M.create_proc m () in
  let stats = Core.Astats.create () in
  let heap = Dlheap.create_main p ~costs:Core.Costs.glibc ~params:Dlheap.default_params ~stats in
  ignore
    (M.spawn p (fun ctx ->
         (* Exhaust the sixteen brk pages, then keep allocating. *)
         let blocks = ref [] in
         for _ = 1 to 40 do
           blocks := alloc heap ctx 4000 :: !blocks
         done;
         Alcotest.(check bool) "grow failures recorded" true (stats.Core.Astats.grow_failures > 0);
         Alcotest.(check bool) "mmap fallback used" true (stats.Core.Astats.mmapped_chunks > 0);
         List.iter (fun u -> Dlheap.free heap ctx u) !blocks;
         check_valid heap));
  M.run m

let test_sub_heap_bounded () =
  let params = { Dlheap.default_params with Dlheap.sub_heap_bytes = 64 * 1024 } in
  let m = M.create ~seed:1 config in
  let p = M.create_proc m () in
  let stats = Core.Astats.create () in
  ignore
    (M.spawn p (fun ctx ->
         let heap = Option.get (Dlheap.create_sub ctx ~costs:Core.Costs.glibc ~params ~stats) in
         Alcotest.(check bool) "is sub" true (Dlheap.is_sub heap);
         let rec fill acc =
           match Dlheap.malloc heap ctx 4096 with
           | 0 -> acc
           | u -> fill (u :: acc)
         in
         let blocks = fill [] in
         Alcotest.(check bool) "held about 64KB worth" true
           (List.length blocks >= 13 && List.length blocks <= 16);
         check_valid heap;
         List.iter (fun u -> Dlheap.free heap ctx u) blocks;
         check_valid heap;
         (* after freeing everything it can serve again *)
         Alcotest.(check bool) "reusable after drain" true (Dlheap.malloc heap ctx 4096 <> 0)));
  M.run m

let test_giant_coalesced_chunk_binned () =
  (* Regression: freeing adjacent blocks can coalesce into a region
     larger than the mmap threshold; it must land in the catch-all bin,
     not outside the bin array. *)
  with_heap (fun heap _ ctx _ ->
      let blocks = List.init 40 (fun _ -> alloc heap ctx 4096) in
      let pin = alloc heap ctx 64 in
      List.iter (fun u -> Dlheap.free heap ctx u) blocks;
      check_valid heap;
      Alcotest.(check bool) "giant chunk binned" true (Dlheap.free_bytes heap > 128 * 1024);
      (* and it is reusable *)
      let again = alloc heap ctx 100_000 in
      Dlheap.free heap ctx again;
      Dlheap.free heap ctx pin;
      check_valid heap)

let test_owns () =
  with_heap (fun heap _ ctx _ ->
      let a = alloc heap ctx 64 in
      Alcotest.(check bool) "owns its block" true (Dlheap.owns heap a);
      Alcotest.(check bool) "does not own wild" false (Dlheap.owns heap 0x7777_0000))

let test_segment_bounds () =
  with_heap (fun heap _ ctx _ ->
      let base0, end0 = Dlheap.segment_bounds heap in
      Alcotest.(check int) "empty before first alloc" 0 (end0 - base0);
      let _a = alloc heap ctx 64 in
      let base, stop = Dlheap.segment_bounds heap in
      Alcotest.(check bool) "covers the allocation" true (base <= _a - 8 && _a + 64 <= stop))

(* Property: random malloc/free interleavings preserve every invariant
   and never hand out overlapping live blocks. *)
let prop_random_ops =
  let gen =
    QCheck.make
      ~print:(fun ops -> String.concat ";" (List.map (fun (a, s) -> Printf.sprintf "%b/%d" a s) ops))
      QCheck.Gen.(list_size (int_range 1 120) (pair bool (int_range 1 3000)))
  in
  QCheck.Test.make ~name:"random op sequences keep heap invariants" ~count:60 gen (fun ops ->
      let result = ref true in
      with_heap (fun heap _ ctx _ ->
          let live = ref [] in
          List.iter
            (fun (do_alloc, size) ->
              if do_alloc || !live = [] then begin
                let u = alloc heap ctx size in
                (* no overlap with any live block *)
                let ulen = Dlheap.usable_size heap u in
                if
                  List.exists
                    (fun v ->
                      let vlen = Dlheap.usable_size heap v in
                      not (u + ulen <= v - 8 || v + vlen <= u - 8))
                    !live
                then result := false;
                live := u :: !live
              end
              else begin
                match !live with
                | u :: rest ->
                    Dlheap.free heap ctx u;
                    live := rest
                | [] -> ()
              end;
              match Dlheap.validate heap with Ok () -> () | Error _ -> result := false)
            ops;
          List.iter (fun u -> Dlheap.free heap ctx u) !live;
          (match Dlheap.validate heap with Ok () -> () | Error _ -> result := false);
          if Dlheap.live_chunks heap <> 0 then result := false);
      !result)

let prop_usable_size_covers_request =
  QCheck.Test.make ~name:"usable_size >= request, bounded overhead" ~count:60
    QCheck.(int_range 1 200_000)
    (fun size ->
      let out = ref true in
      with_heap (fun heap _ ctx _ ->
          let u = alloc heap ctx size in
          let usable = Dlheap.usable_size heap u in
          (* never less than asked; never more than a page of slack + 16 *)
          out := usable >= size && usable <= size + 4096 + 16;
          Dlheap.free heap ctx u);
      !out)

(* Golden address stream: the digest below was captured from this exact
   op sequence while the heap still indexed chunks with [Hashtbl], i.e.
   before the open-addressing [Int_table] swap. The allocator's
   placement decisions never consult index iteration order, so the
   malloc/free address stream must be bit-for-bit unchanged by the swap
   (and by any future index change). *)
let test_index_swap_stream () =
  let stream = Buffer.create 256 in
  let final_live = ref (-1) in
  with_heap (fun heap _ ctx _ ->
      let lcg = ref 12345 in
      let next_size () =
        lcg := ((!lcg * 1103515245) + 12345) land 0x3FFFFFFF;
        1 + (!lcg mod 3000)
      in
      let live = ref [] in
      for i = 0 to 199 do
        if i mod 3 <> 2 || !live = [] then begin
          let size = next_size () in
          match Dlheap.malloc heap ctx size with
          | 0 -> Buffer.add_string stream "a!;"
          | u ->
              Buffer.add_string stream (Printf.sprintf "a%x;" u);
              live := u :: !live
        end
        else begin
          match !live with
          | u :: rest ->
              Dlheap.free heap ctx u;
              Buffer.add_string stream (Printf.sprintf "f%x;" u);
              live := rest
          | [] -> ()
        end
      done;
      (* One mmapped chunk through the threshold path, so the stream also
         pins the mm_chunks index behaviour. *)
      (match Dlheap.malloc heap ctx 200_000 with
      | 0 -> Buffer.add_string stream "a!;"
      | u ->
          Buffer.add_string stream (Printf.sprintf "a%x;" u);
          Dlheap.free heap ctx u;
          Buffer.add_string stream (Printf.sprintf "f%x;" u));
      List.iter
        (fun u ->
          Dlheap.free heap ctx u;
          Buffer.add_string stream (Printf.sprintf "f%x;" u))
        !live;
      final_live := Dlheap.live_chunks heap);
  let s = Buffer.contents stream in
  Alcotest.(check int) "stream length" 2432 (String.length s);
  Alcotest.(check string) "stream digest" "4aa7f5505159bdae6f3e0862a4b99a17"
    (Digest.to_hex (Digest.string s));
  Alcotest.(check int) "all freed" 0 !final_live

(* Per-mode streams, pinned across commits: a seeded churn over 128
   slots (random-order frees, sizes biased into the fastbin range with a
   tail up to 4 KB) drained at the end, rendered as every address handed
   out plus the final simulated clock. The fastbin and deferred
   consolidation passes walk bin lists while coalescing retires chunk
   records, so those modes are where a bookkeeping change can move
   placement or charges; the sub-heap stream runs its region dry and
   records each refusal. *)
let mode_stream ~sub ~costs ~params =
  let stream = Buffer.create 8192 in
  let consolidations = ref 0 in
  let m = M.create ~seed:1 config in
  let p = M.create_proc m () in
  ignore
    (M.spawn p (fun ctx ->
         let stats = Core.Astats.create () in
         let heap =
           if sub then Option.get (Dlheap.create_sub ctx ~costs ~params ~stats)
           else Dlheap.create_main p ~costs ~params ~stats
         in
         let lcg = ref 2024 in
         let next bound =
           lcg := ((!lcg * 1103515245) + 12345) land 0x3FFFFFFF;
           (!lcg lsr 8) mod bound
         in
         let live = Array.make 128 0 in
         let add fmt = Printf.bprintf stream fmt in
         let free slot =
           Dlheap.free heap ctx live.(slot);
           live.(slot) <- 0
         in
         for _ = 1 to 3000 do
           let slot = next 128 in
           if live.(slot) <> 0 then free slot
           else begin
             let size =
               match next 8 with
               | 0 | 1 | 2 | 3 | 4 -> 1 + next 72
               | 5 | 6 -> 1 + next 600
               | _ -> 1 + next 4000
             in
             match Dlheap.malloc heap ctx size with
             | 0 -> add "!;"
             | u ->
                 live.(slot) <- u;
                 add "%x;" u
           end
         done;
         Array.iteri (fun slot u -> if u <> 0 then free slot) live;
         add "fast=%d;" (Dlheap.consolidate heap ctx);
         consolidations := stats.Core.Astats.consolidations;
         match Dlheap.validate heap with
         | Ok () -> add "live=%d;" (Dlheap.live_chunks heap)
         | Error msg -> Alcotest.fail ("invariant violation: " ^ msg)));
  M.run m;
  Printf.bprintf stream "t=%h" (M.now_ns m);
  (Buffer.contents stream, !consolidations)

let test_mode_stream ~sub ~costs ~params ~deferred digest () =
  let s, consolidations = mode_stream ~sub ~costs ~params in
  if sub then Alcotest.(check bool) "region ran dry" true (String.contains s '!');
  if deferred then Alcotest.(check bool) "deferred pass ran" true (consolidations > 0);
  Alcotest.(check string) "stream digest" digest (Digest.to_hex (Digest.string s))

(* Digests recorded before chunk records were recycled and bins linked
   through a sentinel; exact_fit = false matches the default by design. *)
let mode_streams =
  let d = Dlheap.default_params and glibc = Core.Costs.glibc in
  let main ?(costs = glibc) ?(deferred = false) params = test_mode_stream ~sub:false ~costs ~params ~deferred in
  [ ("default", main d "05545f37d150f407f80e1ca02f880566");
    ("fastbins", main { d with use_fastbins = true } "67df4ecb80298a218ec129544b899978");
    ( "deferred",
      main ~deferred:true { d with defer_coalescing = true } "a14005642845f3268b2e536a2681af06" );
    ( "fastbins+deferred",
      main ~deferred:true
        { d with use_fastbins = true; defer_coalescing = true }
        "51936d9a366a7e8f58e10adb9dc1517c" );
    ("no exact fit", main { d with exact_fit = false } "05545f37d150f407f80e1ca02f880566");
    ("solaris costs", main ~costs:Core.Costs.solaris d "e207e1fd675e55da812429e01dfb7bb0");
    ( "sub-heap to exhaustion",
      test_mode_stream ~sub:true ~costs:glibc ~deferred:false
        ~params:{ d with sub_heap_bytes = 16 * 1024 }
        "65d73ea5eb2019ed7ef747f8e0f1c25c" );
  ]

let suite =
  [ Alcotest.test_case "basic alloc/free" `Quick test_basic_alloc_free;
    Alcotest.test_case "index swap keeps address stream" `Quick test_index_swap_stream;
    Alcotest.test_case "exact reuse" `Quick test_exact_reuse;
    Alcotest.test_case "split and remainder" `Quick test_split_and_remainder;
    Alcotest.test_case "coalesce three-way" `Quick test_coalesce_three_way;
    Alcotest.test_case "no adjacent free chunks" `Quick test_no_adjacent_free_chunks;
    Alcotest.test_case "double free raises" `Quick test_double_free_raises;
    Alcotest.test_case "bad free raises" `Quick test_bad_free_raises;
    Alcotest.test_case "top growth uses sbrk" `Quick test_top_growth_uses_sbrk;
    Alcotest.test_case "trim returns memory" `Quick test_trim_returns_memory;
    Alcotest.test_case "mmap threshold" `Quick test_mmap_threshold;
    Alcotest.test_case "sbrk blocked -> mmap fallback" `Quick test_sbrk_blocked_falls_back_to_mmap;
    Alcotest.test_case "sub heap bounded" `Quick test_sub_heap_bounded;
    Alcotest.test_case "giant coalesced chunk binned" `Quick test_giant_coalesced_chunk_binned;
    Alcotest.test_case "owns" `Quick test_owns;
    Alcotest.test_case "segment bounds" `Quick test_segment_bounds;
    QCheck_alcotest.to_alcotest prop_random_ops;
    QCheck_alcotest.to_alcotest prop_usable_size_covers_request;
  ]
  @ List.map (fun (name, test) -> Alcotest.test_case ("stream pinned: " ^ name) `Quick test) mode_streams

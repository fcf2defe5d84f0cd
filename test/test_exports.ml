(* The export guard: every [val] of [lib/*/*.mli] has a user outside its
   own module in lib/, bin/, examples/ or perfbench/, or an entry below
   naming why a test needs it. The fixtures pin how [Export_scan]
   resolves a use; the last case runs it over this tree. *)

(* Exports that only tests use, each with what the test reads through it. *)
let allowlist =
  [ ("Address_space.brk", "the break, to see a heap trim give pages back");
    ("Address_space.is_mapped", "mapping state after mmap/munmap");
    ("Address_space.munmap_calls", "that freeing a mapped chunk unmaps it");
    ("Allocator.copy_cost_cycles", "realloc's copy charge, priced on its own");
    ("Allocator.zero_cost_cycles", "calloc's zeroing charge, priced on its own");
    ("Arrivals.mean_rps", "the configured rate an arrival stream must approach");
    ("Coherence.flush_line", "a line's state after a flush");
    ("Coherence.line_of", "which line an address falls in");
    ("Dlheap.consolidate", "fastbin draining, run directly");
    ("Dlheap.fastbin_chunks", "chunks parked in fastbins");
    ("Dlheap.is_sub", "that a sub-heap is one");
    ("Dlheap.live_chunks", "that frees coalesce back into top");
    ("Engine.live", "processes still running after a run");
    ("Engine.stall_message", "the text a deadlock report carries");
    ("Exp_common.quick_opts", "the quick registry the pins run");
    ("Experiments.all", "one test case per experiment");
    ("Experiments.find", "an experiment by id");
    ("Histogram.bin_count", "a bin's tally");
    ("Histogram.binned", "samples that landed in a bin");
    ("Histogram.count", "samples added, out-of-range ones included");
    ("Histogram.overflow", "samples at or above the range");
    ("Histogram.underflow", "samples below the range");
    ("Hoard.global_superblocks", "superblocks handed to the global heap");
    ("Hoard.heap_of_thread", "the thread-to-heap hash");
    ("Hoard.held_bytes", "Hoard's blowup bound after a drain");
    ("Hoard.superblock_count", "superblock reuse");
    ("Hoard.transfers_to_global", "emptiness-driven transfers");
    ("Machine.Latch.is_set", "a latch's state");
    ("Machine.exact_jump", "the jitter stream's exact-cycles skip");
    ("Machine.kernel_lock_contentions", "the big kernel lock's contention");
    ("Machine.proc_multithreaded", "the sticky single-to-multi switch");
    ("Perthread.cached_objects", "blocks parked in the per-thread caches");
    ("Perthread.global_lock_acquisitions", "the shared heap's lock amortization");
    ("Plan.all", "every fault plan, one property run each");
    ("Pool.jobs", "the pool's width");
    ("Ptmalloc.arena_of_thread", "a thread's cached arena");
    ("Recorder.counter", "one counter of a recorder");
    ("Rng.bits64", "stream identity per seed");
    ("Serial.lock_acquisitions", "one lock per operation");
    ("Serial.lock_contentions", "no contention single-threaded");
    ("Server.default_open", "a small open-loop configuration");
    ("Slab.cache_count", "size classes instantiated");
    ("Slab.slab_count", "empty slabs reclaimed");
    ("Spec.to_string", "the suite spec round trip");
    ("Timing_wheel.length", "queue depth against a model");
    ("Timing_wheel.ring_length", "how much of the queue the ring holds");
    ("Trace_json.to_string", "the whole trace document, to parse it");
  ]

(* --- fixtures ---------------------------------------------------------- *)

let file path text = { Export_scan.path; text }

(* One library, [mb_gear], re-exported as [Core.Gear]. *)
let problems ?(allowlist = []) ~mli ~ml users =
  Export_scan.check ~allowlist
    ([ file "lib/core/dune" "(library\n (name core)\n (libraries mb_gear))";
       file "lib/core/core.ml" "module Gear = Mb_gear.Gear\n";
       file "lib/gear/dune" "(library\n (name mb_gear))";
       file "lib/gear/gear.mli" mli;
       file "lib/gear/gear.ml" ml;
     ]
    @ List.map (fun (path, text) -> file path text) users)

let dead name = name ^ " (lib/gear/gear.mli): nothing outside its module uses it in lib/, bin/, examples/ or perfbench/"

let check = Alcotest.(check (list string))

let test_own_module_only () =
  check "a use in its own module does not count" [ dead "Gear.spin" ]
    (problems ~mli:"val spin : int -> int\nval tick : int -> int\n"
       ~ml:"let spin n = n + 1\nlet tick n = spin n\n"
       [ ("bin/main.ml", "let () = print_int (Core.Gear.tick 1)\n") ])

let test_alias () =
  let mli = "val tick : int -> int\n" and ml = "let tick n = n\n" in
  check "module M = Core.Gear" []
    (problems ~mli ~ml [ ("bin/main.ml", "module M = Core.Gear\n\nlet () = print_int (M.tick 1)\n") ]);
  check "M.tick under an alias of something else" [ dead "Gear.tick" ]
    (problems ~mli ~ml [ ("bin/main.ml", "module M = Core.Other\n\nlet () = print_int (M.tick 1)\n") ])

let test_open () =
  let mli = "val tick : int -> int\n" and ml = "let tick n = n\n" in
  check "open Core.Gear" []
    (problems ~mli ~ml [ ("examples/e.ml", "open Core.Gear\n\nlet () = print_int (tick 1)\n") ]);
  check "a local open" []
    (problems ~mli ~ml [ ("examples/e.ml", "let () = print_int Core.Gear.(tick 1)\n") ]);
  check "a bare name without the open is not a use" [ dead "Gear.tick" ]
    (problems ~mli ~ml [ ("examples/e.ml", "let tick n = n\n\nlet () = print_int (tick 1)\n") ])

let test_submodule () =
  check "M.Mutex.lock reaches the submodule's val" [ dead "Gear.Mutex.name" ]
    (problems
       ~mli:"module Mutex : sig\n  val lock : int -> unit\n\n  val name : int -> string\nend\n"
       ~ml:"module Mutex = struct\n  let lock _ = ()\n\n  let name _ = \"m\"\nend\n"
       [ ("perfbench/p.ml", "module M = Core.Gear\n\nlet () = M.Mutex.lock 0\n") ])

let test_test_only () =
  let mli = "val probe : int -> int\n" and ml = "let probe n = n\n" in
  let users = [ ("test/t.ml", "let () = ignore (Core.Gear.probe 1)\n") ] in
  check "a test is not a program"
    [ dead "Gear.probe" ^ "; only test/t.ml does: give it an allowlist entry" ]
    (problems ~mli ~ml users);
  check "its allowlist entry" [] (problems ~allowlist:[ ("Gear.probe", "why") ] ~mli ~ml users)

let test_stale_entry () =
  check "entries that no longer hold"
    [ "allowlist entry Gear.gone: no such export";
      "allowlist entry Gear.tick: bin/main.ml uses it, drop the entry";
      "allowlist entry Gear.probe: no test uses it";
    ]
    (problems
       ~allowlist:[ ("Gear.gone", "deleted"); ("Gear.tick", "a program took it"); ("Gear.probe", "no test") ]
       ~mli:"val tick : int -> int\nval probe : int -> int\n" ~ml:"let tick n = n\nlet probe n = n\n"
       [ ("bin/main.ml", "let () = print_int (Core.Gear.tick 1)\n") ])

(* --- this tree --------------------------------------------------------- *)

(* [dune runtest] runs this in _build/default/test, where the stanza's
   deps put the sources one level up; [dune exec] runs it at the root. *)
let root = if Sys.file_exists "lib/core/core.ml" then "." else ".."

let rec sources dir =
  Array.fold_left
    (fun acc name ->
      let rel = if dir = "" then name else dir ^ "/" ^ name in
      let path = Filename.concat root rel in
      if name.[0] = '.' then acc
      else if Sys.is_directory path then sources rel @ acc
      else if Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli" || name = "dune" then
        file rel (In_channel.with_open_bin path In_channel.input_all) :: acc
      else acc)
    [] (Sys.readdir (Filename.concat root dir))

let test_tree () =
  let files = List.concat_map sources [ "lib"; "bin"; "examples"; "perfbench"; "test" ] in
  match Export_scan.check ~allowlist files with
  | [] -> ()
  | problems -> Alcotest.fail (String.concat "\n" problems)

let suite =
  [ Alcotest.test_case "fixture: own module only" `Quick test_own_module_only;
    Alcotest.test_case "fixture: module alias" `Quick test_alias;
    Alcotest.test_case "fixture: open" `Quick test_open;
    Alcotest.test_case "fixture: submodule val" `Quick test_submodule;
    Alcotest.test_case "fixture: test-only val" `Quick test_test_only;
    Alcotest.test_case "fixture: stale allowlist entry" `Quick test_stale_entry;
    Alcotest.test_case "every export has a user or an entry" `Quick test_tree;
  ]

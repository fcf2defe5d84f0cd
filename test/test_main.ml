let () =
  Alcotest.run "malloc-repro"
    [ ("prng", Test_prng.suite);
      ("stats", Test_stats.suite);
      ("sim", Test_sim.suite);
      ("timing_wheel", Test_timing_wheel.suite);
      ("int_table", Test_int_table.suite);
      ("parallel", Test_parallel.suite);
      ("vm", Test_vm.suite);
      ("cache", Test_cache.suite);
      ("machine", Test_machine.suite);
      ("host_alloc", Test_host_alloc.suite);
      ("dlheap", Test_dlheap.suite);
      ("dlheap_props", Test_dlheap_props.suite);
      ("allocators", Test_allocators.suite);
      ("workload", Test_workload.suite);
      ("report", Test_report.suite);
      ("obs", Test_obs.suite);
      ("check", Test_check.suite);
      ("fault", Test_fault.suite);
      ("extensions", Test_extensions.suite);
      ("experiments", Test_experiments.suite);
      ("suite", Test_suite.suite);
      ("exports", Test_exports.suite);
    ]

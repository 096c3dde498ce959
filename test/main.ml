let () =
  Alcotest.run "reseed"
    (Test_bitvec.suite @ Test_word.suite @ Test_rng.suite @ Test_stats_table.suite
   @ Test_gate.suite @ Test_circuit.suite @ Test_bench_io.suite
   @ Test_generator.suite @ Test_library.suite @ Test_logic_sim.suite
   @ Test_fault.suite @ Test_fault_sim.suite @ Test_fault_sim_oracle.suite
   @ Test_ffr.suite @ Test_cpt.suite
   @ Test_ternary.suite
   @ Test_testability.suite @ Test_podem.suite @ Test_compact_random.suite
   @ Test_atpg.suite @ Test_tpg.suite @ Test_setcover.suite @ Test_ilp_oracle.suite
   @ Test_portfolio.suite @ Test_sat.suite @ Test_satpg.suite
   @ Test_ga_gatsby.suite @ Test_flow.suite @ Test_fullscan_misr.suite
   @ Test_diagnose.suite @ Test_parallel.suite @ Test_properties.suite
   @ Test_observability.suite @ Test_pipeline.suite @ Test_codec.suite
   @ Test_workload.suite
   @ Test_robustness.suite @ Test_resilience.suite @ Test_scale.suite
   @ Test_chaos.suite @ Test_integration.suite @ Test_cli.suite)

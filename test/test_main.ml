let () =
  Alcotest.run "hyperreconf"
    [
      ("bitset", Suite_bitset.tests);
      ("util", Suite_util.tests);
      ("trace", Suite_trace.tests);
      ("st_opt", Suite_st_opt.tests);
      ("sync_cost", Suite_sync_cost.tests);
      ("mt", Suite_mt.tests);
      ("solver", Suite_solver.tests);
      ("dag", Suite_dag.tests);
      ("general", Suite_general.tests);
      ("changeover", Suite_changeover.tests);
      ("classes", Suite_classes.tests);
      ("async", Suite_async.tests);
      ("moves", Suite_moves.tests);
      ("modes", Suite_modes.tests);
      ("priv", Suite_priv.tests);
      ("evolve", Suite_evolve.tests);
      ("workload", Suite_workload.tests);
      ("viz", Suite_viz.tests);
      ("shyra", Suite_shyra.tests);
      ("rmesh", Suite_rmesh.tests);
      ("vm", Suite_vm.tests);
      ("wave3", Suite_wave3.tests);
      ("wave4", Suite_wave4.tests);
      ("fuzz", Suite_fuzz.tests);
      ("check", Suite_check.tests);
      ("batch", Suite_batch.tests);
      ("serve", Suite_serve.tests);
      ("table_cache", Suite_table_cache.tests);
      ("expr", Suite_expr.tests);
      ("robust", Suite_robust.tests);
      ("online", Suite_online.tests);
      ("place", Suite_place.tests);
      ("sparse", Suite_sparse.tests);
    ]

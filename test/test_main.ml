(** Test-suite entry point: every module contributes one Alcotest suite. *)

let () =
  (* the store's multi-process stress test re-execs this binary as its
     writer children; divert before the test harness takes over *)
  Test_store.maybe_run_child ();
  Test_verify_golden.maybe_record ();
  Alcotest.run "gpcc"
    [
      Test_parser.suite;
      Test_typecheck.suite;
      Test_affine.suite;
      Test_rewrite.suite;
      Test_analysis.suite;
      Test_verify.suite;
      Test_symverify.suite;
      Test_verify_golden.suite;
      Test_sim.suite;
      Test_backend.suite;
      Test_passes.suite;
      Test_workloads.suite;
      Test_store.suite;
      Test_explore.suite;
      Test_compiler.suite;
      Test_pipeline.suite;
      Test_fuzz.suite;
    ]

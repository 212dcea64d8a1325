(** Test-suite entry point: every module contributes one Alcotest suite. *)

let () =
  (* the store's multi-process stress test re-execs this binary as its
     writer children; divert before the test harness takes over *)
  Test_store.maybe_run_child ();
  (match Sys.argv with
  | [| _; "record-verify-golden"; path |] ->
      Test_verify_golden.record path;
      exit 0
  | [| _; "record-pipeline-golden"; path |] ->
      Test_pipeline_golden.record path;
      exit 0
  | [| _; "record-symverify-golden"; path |] ->
      Test_symverify_golden.record path;
      exit 0
  | _ -> ());
  Alcotest.run "gpcc"
    [
      Test_parser.suite;
      Test_typecheck.suite;
      Test_affine.suite;
      Test_rewrite.suite;
      Test_analysis.suite;
      Test_verify.suite;
      Test_symverify.suite;
      (* The suite name is no longer than the existing ones: Alcotest
         sizes its name column to the longest suite name and truncates
         test names to fit what is left, so a longer one would change
         how every other test's name is printed. *)
      ( "golden",
        Test_verify_golden.cases @ Test_pipeline_golden.cases
        @ Test_symverify_golden.cases );
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

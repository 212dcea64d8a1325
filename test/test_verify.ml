(** Tests for the static kernel verifier (translation validation):
    negative kernels rejected with the right rule id, all registry
    workloads accepted before and after the pipeline, the compiler's
    verification gate, and agreement between the static verifier and the
    simulator's dynamic race detector ([GPCC_CHECK=1]). *)

open Gpcc_ast
open Util
module V = Gpcc_analysis.Verify

let check_src src =
  let k = parse_kernel src in
  let launch = Option.get (Gpcc_passes.Pass_util.naive_launch k) in
  (k, launch, V.check ~launch k)

let has_rule rule ds = List.exists (fun (d : V.diagnostic) -> d.rule = rule) ds

let assert_rejected name rule ds =
  if not (has_rule rule (V.errors ds)) then
    Alcotest.failf "%s: expected an %s error, got [%s]" name rule
      (String.concat "; " (List.map V.to_string ds))

(* --- negative kernels: each must be rejected with the right rule --- *)

let racy_src =
  {|#pragma gpcc dim n 64
#pragma gpcc output c
__kernel void racy(float a[64], float c[64], int n) {
  __shared__ float s[16];
  s[tidx] = a[idx];
  c[idx] = s[(tidx + 1) % 16];
}|}

let test_missing_sync () =
  let _, _, ds = check_src racy_src in
  assert_rejected "missing __syncthreads" V.rule_race_shared ds

let test_divergent_barrier () =
  let _, _, ds =
    check_src
      {|#pragma gpcc dim n 64
#pragma gpcc output c
__kernel void divb(float a[64], float c[64], int n) {
  __shared__ float s[16];
  s[tidx] = a[idx];
  if (tidx < 8) {
    __syncthreads();
  }
  c[idx] = s[tidx];
}|}
  in
  assert_rejected "divergent barrier" V.rule_barrier_divergence ds

let test_oob_global () =
  let _, _, ds =
    check_src
      {|#pragma gpcc dim n 64
#pragma gpcc output c
__kernel void oob(float a[64], float c[64], int n) {
  c[idx + 1] = a[idx];
}|}
  in
  assert_rejected "global overflow" V.rule_oob_global ds

let test_oob_shared () =
  let _, _, ds =
    check_src
      {|#pragma gpcc dim n 64
#pragma gpcc output c
__kernel void oobs(float a[64], float c[64], int n) {
  __shared__ float s[8];
  s[tidx] = a[idx];
  __syncthreads();
  c[idx] = s[tidx % 8];
}|}
  in
  assert_rejected "shared overflow" V.rule_oob_shared ds

let test_wraparound_race () =
  (* staging loop with a barrier after the stores but none at the end of
     the iteration: iteration k+1's stores race with iteration k's reads
     (the wrap-around interval) *)
  let _, _, ds =
    check_src
      {|#pragma gpcc dim n 64
#pragma gpcc output c
__kernel void wrapr(float a[64][64], float c[64], int n) {
  float sum = 0;
  for (int i = 0; i < n; i += 16) {
    __shared__ float s[16];
    s[tidx] = a[idx][i + tidx];
    __syncthreads();
    for (int k = 0; k < 16; k++) {
      sum = sum + s[k];
    }
  }
  c[idx] = sum;
}|}
  in
  assert_rejected "wrap-around race" V.rule_race_shared ds

let test_global_sync_in_loop () =
  (* the typechecker already rejects this shape in source, so build the
     AST directly: the verifier must catch it on its own for kernels
     produced mid-pipeline *)
  let k =
    parse_kernel
      {|#pragma gpcc dim n 64
#pragma gpcc output c
__kernel void gsl(float a[64], float c[64], int n) {
  c[idx] = a[idx];
}|}
  in
  let loop =
    Ast.for_ "i" ~from:(Ast.Int_lit 0) ~limit:(Ast.Int_lit 4)
      ~step:(Ast.Int_lit 1) [ Ast.Global_sync ]
  in
  let k = { k with k_body = loop :: k.k_body } in
  let launch = Option.get (Gpcc_passes.Pass_util.naive_launch k) in
  assert_rejected "__global_sync in a loop" V.rule_barrier_divergence
    (V.check ~launch k)

(* a local reassigned to a non-affine value must not keep an earlier
   affine binding: [t * t] reaches element 1156 of a 1024-element array *)
let test_stale_let_overflow () =
  let _, _, ds =
    check_src
      {|#pragma gpcc output b
__kernel void stale(float a[1024], float b[1024]) {
  int t = idx;
  t = idx * 2;
  t = t * t;
  b[t] = a[idx];
}|}
  in
  Alcotest.(check (list string))
    "error rules" [ V.rule_oob_global ]
    (List.map (fun (d : V.diagnostic) -> d.rule) (V.errors ds))

let test_loop_reuse () =
  List.iter
    (fun (name, src, rules) ->
      let _, _, ds = check_src src in
      Alcotest.(check (list string))
        name rules
        (List.map (fun (d : V.diagnostic) -> d.rule) (V.errors ds)))
    loop_reuse_cases

(* --- positives: sound patterns must stay clean --- *)

let staged_src =
  (* the mm-generated shape: staging, barrier, use, trailing barrier *)
  {|#pragma gpcc dim n 64
#pragma gpcc output c
__kernel void staged(float a[64][64], float c[64], int n) {
  float sum = 0;
  for (int i = 0; i < n; i += 16) {
    __shared__ float s[16];
    s[tidx] = a[idx][i + tidx];
    __syncthreads();
    for (int k = 0; k < 16; k++) {
      sum = sum + s[k];
    }
    __syncthreads();
  }
  c[idx] = sum;
}|}

let test_staged_clean () =
  let _, _, ds = check_src staged_src in
  Alcotest.(check bool)
    "staged kernel clean" true
    (V.is_clean ds
    && not (has_rule V.rule_oob_unproven ds || has_rule V.rule_oob_shared ds))

let test_uniform_guarded_sync_ok () =
  (* a barrier under a uniform guard is conservative but not divergent *)
  let _, _, ds =
    check_src
      {|#pragma gpcc dim n 64
#pragma gpcc output c
__kernel void ugs(float a[64], float c[64], int n) {
  __shared__ float s[16];
  s[tidx] = a[idx];
  if (n > 8) {
    __syncthreads();
  }
  c[idx] = s[tidx];
}|}
  in
  Alcotest.(check bool)
    "no barrier-divergence error" false
    (has_rule V.rule_barrier_divergence ds)

let test_bank_conflict_and_padding () =
  let column_src pad =
    Printf.sprintf
      {|#pragma gpcc dim n 256
#pragma gpcc output c
__kernel void bank(float a[256][16], float c[256][16], int n) {
  __shared__ float s[16][%d];
  s[tidx][tidy] = a[idy][idx];
  __syncthreads();
  c[idy][idx] = s[tidx][tidy];
}|}
      pad
  in
  let k = parse_kernel (column_src 16) in
  let launch = { Ast.grid_x = 1; grid_y = 16; block_x = 16; block_y = 16 } in
  let unpadded = V.check ~launch k in
  Alcotest.(check bool)
    "[16][16] column access conflicts" true
    (has_rule V.rule_bank_conflict unpadded);
  let k' = parse_kernel (column_src 17) in
  let padded = V.check ~launch k' in
  Alcotest.(check bool)
    "[16][17] padding removes conflicts" false
    (has_rule V.rule_bank_conflict padded)

(* --- every registry workload, naive and post-pipeline --- *)

let test_workloads_clean () =
  List.iter
    (fun (w : Gpcc_workloads.Workload.t) ->
      let k = Gpcc_workloads.Workload.parse w w.test_size in
      (match Gpcc_passes.Pass_util.naive_launch k with
      | Some launch ->
          let ds = V.check ~launch k in
          if not (V.is_clean ds) then
            Alcotest.failf "%s naive: %s" w.name
              (String.concat "; " (List.map V.to_string (V.errors ds)))
      | None -> ());
      (* default pipeline runs with translation validation on: reaching
         here at all means every pass was accepted *)
      let r = Gpcc_core.Compiler.run k in
      let ds = V.check ~launch:r.launch r.kernel in
      if not (V.is_clean ds) then
        Alcotest.failf "%s optimized: %s" w.name
          (String.concat "; " (List.map V.to_string (V.errors ds))))
    (Gpcc_workloads.Registry.all @ Gpcc_workloads.Registry.extras)

let test_cublas_clean () =
  List.iter
    (fun (c : Gpcc_workloads.Cublas_sim.comparator) ->
      let n = 64 in
      let k = Gpcc_workloads.Cublas_sim.kernel c n in
      let launch = c.c_launch n in
      let ds = V.check ~launch k in
      if not (V.is_clean ds) then
        Alcotest.failf "cublas %s: %s" c.c_for
          (String.concat "; " (List.map V.to_string (V.errors ds))))
    Gpcc_workloads.Cublas_sim.all

(* --- the compiler's translation-validation gate --- *)

let test_compile_rejects_racy_input () =
  let k = parse_kernel racy_src in
  match Gpcc_core.Compiler.run k with
  | _ -> Alcotest.fail "racy kernel compiled without a verifier error"
  | exception (Gpcc_core.Compiler.Compile_error _ as e) ->
      Alcotest.(check bool)
        "classified as verifier rejection" true
        (Gpcc_core.Compiler.verifier_rejected e)

let test_verifier_rejected_classifier () =
  Alcotest.(check bool)
    "other compile errors are not verifier rejections" false
    (Gpcc_core.Compiler.verifier_rejected
       (Gpcc_core.Compiler.Compile_error "cannot derive the thread domain"));
  Alcotest.(check bool)
    "non-compile exceptions are not verifier rejections" false
    (Gpcc_core.Compiler.verifier_rejected Not_found)

let test_step_diagnostics_recorded () =
  let w = Gpcc_workloads.Registry.find_exn "mm" in
  let k = Gpcc_workloads.Workload.parse w w.test_size in
  let r = compile k in
  Alcotest.(check bool)
    "no error diagnostics on any step" true
    (List.for_all
       (fun (s : Gpcc_core.Compiler.step) -> V.errors s.diagnostics = [])
       r.steps);
  (* disabling verification yields empty diagnostics *)
  let r' =
    Gpcc_core.Pipeline.run
      ~pipeline:(Gpcc_core.Pipeline.default ~verify:false ())
      k
  in
  Alcotest.(check int)
    "verify:false records no diagnostics" 0
    (List.length (Gpcc_core.Compiler.diagnostics r'))

let test_explore_classifies_verify_failures () =
  (* a racy input fails every configuration at the verify stage *)
  let k = parse_kernel racy_src in
  let cands, failures =
    Gpcc_core.Explore.search_with_failures ~jobs:2 ~block_targets:[ 64 ]
      ~merge_degrees:[ 1; 4 ] k
      ~measure:(fun _ _ -> 1.0)
  in
  Alcotest.(check int) "no candidates" 0 (List.length cands);
  Alcotest.(check int) "both configs failed" 2 (List.length failures);
  List.iter
    (fun (f : Gpcc_core.Explore.failure) ->
      if f.failed_stage <> `Verify then
        Alcotest.failf "t=%d d=%d: expected `Verify, got %s" f.failed_target
          f.failed_degree f.reason)
    failures

(* --- JSON emission --- *)

let test_json_shape () =
  let d =
    {
      V.severity = V.Error;
      rule = "race-shared";
      kernel = "k\"1";
      path = "for(i)";
      message = "line1\nline2";
    }
  in
  let j = V.json_of_diagnostics [ d ] in
  assert_contains "json" j {|"severity":"error"|};
  assert_contains "json" j {|"rule":"race-shared"|};
  assert_contains "json" j {|"kernel":"k\"1"|};
  assert_contains "json" j {|"message":"line1\nline2"|}

(* --- dynamic race detector (GPCC_CHECK=1) agreement --- *)

let with_dynamic_check f =
  Unix.putenv "GPCC_CHECK" "1";
  Fun.protect ~finally:(fun () -> Unix.putenv "GPCC_CHECK" "0") f

let test_dynamic_catches_racy () =
  let k, launch, ds = check_src racy_src in
  assert_rejected "static verdict" V.rule_race_shared ds;
  let inputs = [ ("a", Gpcc_workloads.Workload.gen ~seed:7 64) ] in
  with_dynamic_check (fun () ->
      match run_full k launch inputs "c" with
      | _ -> Alcotest.fail "dynamic detector missed the seeded race"
      | exception Gpcc_sim.Interp.Runtime_error m ->
          assert_contains "runtime error" m "data race")

let test_dynamic_clean_workloads () =
  (* every workload the static verifier accepts must also run clean
     under the dynamic detector, naive and optimized *)
  with_dynamic_check (fun () ->
      List.iter
        (fun (w : Gpcc_workloads.Workload.t) ->
          let n = w.test_size in
          let k = Gpcc_workloads.Workload.parse w n in
          (match Gpcc_passes.Pass_util.naive_launch k with
          | Some launch -> Gpcc_workloads.Workload.check cfg280 w n k launch
          | None -> ());
          let r = Gpcc_core.Compiler.run k in
          Gpcc_workloads.Workload.check cfg280 w n r.kernel r.launch)
        (Gpcc_workloads.Registry.all @ Gpcc_workloads.Registry.extras))

let suite =
  ( "verify",
    [
      Alcotest.test_case "negative: missing sync" `Quick test_missing_sync;
      Alcotest.test_case "negative: divergent barrier" `Quick
        test_divergent_barrier;
      Alcotest.test_case "negative: global overflow" `Quick test_oob_global;
      Alcotest.test_case "negative: shared overflow" `Quick test_oob_shared;
      Alcotest.test_case "negative: wrap-around race" `Quick
        test_wraparound_race;
      Alcotest.test_case "negative: global sync in loop" `Quick
        test_global_sync_in_loop;
      Alcotest.test_case "negative: stale let overflow" `Quick
        test_stale_let_overflow;
      Alcotest.test_case "loop variables bound at loop entry" `Quick
        test_loop_reuse;
      Alcotest.test_case "staged pattern clean" `Quick test_staged_clean;
      Alcotest.test_case "uniform guarded sync ok" `Quick
        test_uniform_guarded_sync_ok;
      Alcotest.test_case "bank conflicts and padding" `Quick
        test_bank_conflict_and_padding;
      Alcotest.test_case "registry workloads clean" `Slow test_workloads_clean;
      Alcotest.test_case "cublas comparators clean" `Quick test_cublas_clean;
      Alcotest.test_case "compiler rejects racy input" `Quick
        test_compile_rejects_racy_input;
      Alcotest.test_case "verifier_rejected classifier" `Quick
        test_verifier_rejected_classifier;
      Alcotest.test_case "step diagnostics recorded" `Quick
        test_step_diagnostics_recorded;
      Alcotest.test_case "explore classifies verify failures" `Quick
        test_explore_classifies_verify_failures;
      Alcotest.test_case "diagnostic json shape" `Quick test_json_shape;
      Alcotest.test_case "dynamic detector catches seeded race" `Quick
        test_dynamic_catches_racy;
      Alcotest.test_case "dynamic detector clean on workloads" `Slow
        test_dynamic_clean_workloads;
    ] )

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

(* a let and a guard are ranged in the affine context of their own
   program point: reassigning [a] after [b = a], or [c] inside [c < 4],
   must not change what [b] or the guard meant *)
let test_context_skew_overflow () =
  List.iter
    (fun (name, src) ->
      let _, _, ds = check_src src in
      Alcotest.(check (list string))
        (name ^ " error rules") [ V.rule_oob_global ]
        (List.map (fun (d : V.diagnostic) -> d.rule) (V.errors ds)))
    [
      ( "let",
        {|#pragma gpcc output out
__kernel void let_skew(float x[16], float out[16]) {
  int a = tidx * 4;
  int b = a;
  a = 0;
  out[tidx] = x[b];
}|} );
      ( "guard",
        {|#pragma gpcc output out
__kernel void guard_skew(float x[16], float out[16]) {
  int c = tidx;
  if (c < 4) {
    c = tidx * 8;
    out[tidx] = x[c];
  }
}|} );
    ]

(* a local the loop body reassigns is unknown on the trips after the
   first, in the body and in the limit: no access may be proved in
   bounds from the value the local has at loop entry or at the access *)
let test_loop_carried_locals () =
  List.iter
    (fun (name, src, access) ->
      let _, _, ds = check_src src in
      if
        not
          (List.exists
             (fun (d : V.diagnostic) ->
               (d.rule = V.rule_oob_unproven || d.rule = V.rule_oob_global)
               && contains ~needle:access d.message)
             ds)
      then
        Alcotest.failf "%s: no bounds diagnostic on %s, got [%s]" name access
          (String.concat "; " (List.map V.to_string ds)))
    loop_carried_cases

(* the second read of [x] through a rebound name is checked on its own:
   one index text does not mean one value *)
let test_rebound_names () =
  List.iter
    (fun (name, src, message) ->
      let _, _, ds = check_src src in
      if
        not
          (List.exists
             (fun (d : V.diagnostic) ->
               d.rule = V.rule_oob_global && contains ~needle:message d.message)
             (V.errors ds))
      then
        Alcotest.failf "%s: expected %S, got [%s]" name message
          (String.concat "; " (List.map V.to_string ds)))
    rebound_cases

let test_loop_reuse () =
  List.iter
    (fun (name, src, rules) ->
      let _, _, ds = check_src src in
      Alcotest.(check (list string))
        name rules
        (List.map (fun (d : V.diagnostic) -> d.rule) (V.errors ds)))
    loop_reuse_cases

(* barrier-paired block reductions: the clean shapes lint without an
   error, and each dropped barrier is a shared race at its own place *)
let test_block_reductions () =
  List.iter
    (fun (name, src, expected) ->
      let k = parse_kernel src in
      let launch = Option.get (Gpcc_passes.Pass_util.initial_launch k) in
      Alcotest.(check (list (pair string string)))
        name expected
        (List.map
           (fun (d : V.diagnostic) -> (d.rule, d.path))
           (V.errors (V.check ~launch k))))
    reduce_cases

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
      let r = Gpcc_core.Pipeline.run k in
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
  match Gpcc_core.Pipeline.run k with
  | _ -> Alcotest.fail "racy kernel compiled without a verifier error"
  | exception (Gpcc_core.Pipeline.Compile_error _ as e) ->
      Alcotest.(check bool)
        "classified as verifier rejection" true
        (Gpcc_core.Pipeline.verifier_rejected e)

let test_verifier_rejected_classifier () =
  Alcotest.(check bool)
    "other compile errors are not verifier rejections" false
    (Gpcc_core.Pipeline.verifier_rejected
       (Gpcc_core.Pipeline.Compile_error "cannot derive the thread domain"));
  Alcotest.(check bool)
    "non-compile exceptions are not verifier rejections" false
    (Gpcc_core.Pipeline.verifier_rejected Not_found)

let test_step_diagnostics_recorded () =
  let w = Gpcc_workloads.Registry.find_exn "mm" in
  let k = Gpcc_workloads.Workload.parse w w.test_size in
  let r = compile k in
  Alcotest.(check bool)
    "no error diagnostics on any step" true
    (List.for_all
       (fun (s : Gpcc_core.Pipeline.step) -> V.errors s.diagnostics = [])
       r.steps);
  (* disabling verification yields empty diagnostics *)
  let r' =
    Gpcc_core.Pipeline.run
      ~pipeline:(Gpcc_core.Pipeline.default ~verify:false ())
      k
  in
  Alcotest.(check int)
    "verify:false records no diagnostics" 0
    (List.length (Gpcc_core.Pipeline.diagnostics r'))

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
          let r = Gpcc_core.Pipeline.run k in
          Gpcc_workloads.Workload.check cfg280 w n r.kernel r.launch)
        (Gpcc_workloads.Registry.all @ Gpcc_workloads.Registry.extras))

(* Replicas of one access whose constants straddle the extent: only the
   member past it is out of bounds, and it is the one reported, whether
   by the full check or by the lint of the text's plan. A shortcut that
   checked a replica group through fewer members, or took a scaled
   member's constant unscaled, would miss it or blame another. *)
let test_straddling_replicas () =
  let case name reads want =
    let k, launch, ds =
      check_src
        (Printf.sprintf
           {|#pragma gpcc output out
__kernel void %s(float x[64], float out[64]) {
  __shared__ float a[40];
  a[tidx] = x[idx];
  __syncthreads();
  out[idx] = %s;
}|}
           name reads)
    in
    let show ds =
      List.map (fun (d : V.diagnostic) -> (d.rule, d.message)) ds
    in
    Alcotest.(check (list (pair string string))) (name ^ ": full check") want
      (show ds);
    Alcotest.(check (list (pair string string)))
      (name ^ ": lint of the plan") want
      (show (fst (V.lint (V.plan k) ~launch)))
  in
  let oob access v lane =
    ( V.rule_oob_shared,
      Printf.sprintf
        "%s indexes element %d of a (extent 40) for thread %d of block (0,0)"
        access v lane )
  and two_way access =
    ( V.rule_bank_conflict,
      access
      ^ " serializes the first half-warp 2-way across shared banks (pad the \
         minor dimension, e.g. [16][17])" )
  in
  case "straddle" "a[tidx] + a[tidx + 16] + a[tidx + 32]"
    [ oob "a[tidx + 32]" 40 8 ];
  case "straddle_scaled" "a[2 * tidx] + a[2 * (tidx + 4)] + a[2 * (tidx + 5)]"
    [
      oob "a[2 * (tidx + 5)]" 40 15;
      two_way "a[2 * tidx]";
      two_way "a[2 * (tidx + 4)]";
      two_way "a[2 * (tidx + 5)]";
    ]

(* Loops whose step reads the loop variable but cannot be iterated: a
   step that is zero, one that reads a name the body reassigns, and a
   loop past the trip cap. No instance is enumerated, so each access is
   left unproven, by the full check and the lint alike. *)
let test_unevaluable_varying_steps () =
  let case name loop idx =
    let src =
      Printf.sprintf
        {|#pragma gpcc output out
__kernel void %s(float x[64], float out[64]) {
  float r = 0;
  int s = 1;
  for (int i = %s) {
    r = r + x[%s];
    s = s + 1;
  }
  out[idx] = r;
}|}
        name loop idx
    in
    let k, launch, ds = check_src src in
    let show ds =
      List.map (fun (d : V.diagnostic) -> (d.rule, d.path, d.message)) ds
    in
    Alcotest.(check (list (triple string string string)))
      (name ^ ": lint of the plan") (show ds)
      (show (fst (V.lint (V.plan k) ~launch)));
    show ds
  in
  let unproven idx range =
    ( V.rule_oob_unproven,
      "for(i)",
      Printf.sprintf "cannot prove x[%s] in bounds: index %s has %s, extent 64"
        idx idx range )
  and uniform =
    ( V.rule_noncoalesced,
      "",
      "global access x[i] is not coalesced (all 16 lanes of a half-warp read \
       one address)" )
  in
  Alcotest.(check (list (triple string string string)))
    "zero step"
    [ unproven "i" "no derivable range"; uniform ]
    (case "zero_step" "0; i < 16; i += i" "i");
  Alcotest.(check (list (triple string string string)))
    "step reads a reassigned name"
    [ unproven "i" "no derivable range"; uniform ]
    (case "carried_step" "1; i < 16; i += i + s" "i");
  Alcotest.(check (list (triple string string string)))
    "past the trip cap"
    [ unproven "i % 64" "no derivable range" ]
    (case "long_loop" "1; i < 100000; i += i / i" "i % 64")

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
      Alcotest.test_case "negative: let/guard context skew" `Quick
        test_context_skew_overflow;
      Alcotest.test_case "loop variables bound at loop entry" `Quick
        test_loop_reuse;
      Alcotest.test_case "negative: rebound names" `Quick test_rebound_names;
      Alcotest.test_case "negative: loop-carried locals" `Quick
        test_loop_carried_locals;
      Alcotest.test_case "barrier-paired block reductions" `Quick
        test_block_reductions;
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
      Alcotest.test_case "replicas straddling the extent" `Quick
        test_straddling_replicas;
      Alcotest.test_case "unevaluable varying steps" `Quick
        test_unevaluable_varying_steps;
    ] )

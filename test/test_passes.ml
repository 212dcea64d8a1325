(** Tests for the optimization passes: vectorization, the four coalescing
    rules, thread-block/thread merge, prefetching, invariant hoisting, and
    partition-camping elimination. Every structural check is paired with a
    semantic-preservation run on the simulator. *)

open Gpcc_ast
open Gpcc_passes
open Util

(** Apply [passes] in order to a naive kernel and verify the result
    computes the same outputs as the naive version over the full grid. *)
let preserved ?(inputs = []) ~out src passes =
  let k = parse_kernel src in
  let launch = Option.get (Pass_util.initial_launch k) in
  let want, _ = run_full k launch inputs out in
  let k', launch' =
    List.fold_left
      (fun (k, l) pass ->
        let (o : Pass_util.outcome) = pass k l in
        (o.kernel, o.launch))
      (k, launch) passes
  in
  Typecheck.check k';
  let got, _ = run_full k' launch' inputs out in
  check_floats "semantics preserved" want got;
  (k', launch')

let gen = Gpcc_workloads.Workload.gen

(* --- vectorization --- *)

let test_vectorize_pairs () =
  let src =
    {|#pragma gpcc output o
__kernel void f(float a[64], float o[32]) {
  o[idx] = a[2 * idx] + a[2 * idx + 1];
}|}
  in
  let k = parse_kernel src in
  let launch = Option.get (Pass_util.initial_launch k) in
  let o = Vectorize.apply k launch in
  Alcotest.(check bool) "fired" true o.fired;
  let txt = kernel_text o.kernel in
  assert_contains "float2 declared" txt "float2";
  assert_contains "vector load" txt "((float2*)a)[idx]";
  assert_contains "x component" txt ".x";
  ignore
    (preserved ~inputs:[ ("a", gen ~seed:1 64) ] ~out:"o" src
       [ Vectorize.apply ])

let test_vectorize_across_statements () =
  (* the rd-complex pattern: the pair sits in two adjacent statements *)
  let src =
    {|#pragma gpcc dim n 32
#pragma gpcc output o
__kernel void f(float a[64], float o[32], int n) {
  float s = 0;
  for (int i = idx; i < n; i += 32) {
    s += a[2 * i];
    s += a[2 * i + 1];
  }
  o[idx] = s;
}|}
  in
  let k = parse_kernel src in
  let launch = { Ast.grid_x = 2; grid_y = 1; block_x = 16; block_y = 1 } in
  let o = Vectorize.apply k launch in
  Alcotest.(check bool) "fired" true o.fired;
  assert_contains "one vector load" (kernel_text o.kernel) "((float2*)a)[i]"

(* a pair's register holds the elements at the first use: a load formed
   after its index is reassigned is not its partner, and is not
   substituted from it; nor is a pair formed whose halves a store
   separates *)
let test_vectorize_reassigned_index () =
  let src body =
    Printf.sprintf
      {|#pragma gpcc output c
__kernel void f(float a[512], float c[128]) {
  %s
}|}
      body
  in
  let after =
    src
      "int t = idx; float x = a[2 * t]; t = t + 1; float y = a[2 * t + 1]; \
       c[idx] = x + y;"
  and between =
    src
      "int t = idx; float x = a[2 * t]; float y = a[2 * t + 1]; t = t + 1; \
       float z = a[2 * t]; c[idx] = x + y + z;"
  and first_use =
    (* [a[2 * t - 1]] pairs with [a[2 * t]] only after the reassignment,
       but its text is read before it, at another element *)
    src
      "int t = idx + 1; float x = a[2 * t] + a[2 * t - 1]; t = t + 1; float \
       y = a[2 * t - 1]; c[idx] = x + y;"
  and stored =
    src
      "int t = idx; float x = a[2 * t]; a[2 * t] = 0.0; float y = a[2 * t + \
       1]; c[idx] = x + y;"
  in
  List.iter
    (fun src ->
      ignore
        (preserved ~inputs:[ ("a", gen ~seed:4 512) ] ~out:"c" src
           [ Vectorize.apply ]))
    [ after; between; first_use; stored ];
  let apply src =
    let k = parse_kernel src in
    Vectorize.apply k (Option.get (Pass_util.initial_launch k))
  in
  List.iter
    (fun (what, src) ->
      Alcotest.(check bool) what false (apply src).fired)
    [
      ("no pair across the reassignment", after);
      ("no pair read before the reassignment", first_use);
      ("no pair across the store", stored);
    ];
  let txt = kernel_text (apply between).kernel in
  assert_contains "x paired" txt "float x = vec0.x;";
  assert_contains "y paired" txt "float y = vec0.y;";
  assert_contains "z loads on its own" txt "float z = a[2 * t];"

let test_vectorize_requires_even_base () =
  let src =
    {|#pragma gpcc output o
__kernel void f(float a[64], float o[32]) {
  o[idx] = a[2 * idx + 1] + a[2 * idx + 2];
}|}
  in
  let k = parse_kernel src in
  let launch = Option.get (Pass_util.initial_launch k) in
  let o = Vectorize.apply k launch in
  Alcotest.(check bool) "odd/even pair not vectorized" false o.fired

let test_vectorize_distinct_arrays () =
  let src =
    {|#pragma gpcc output o
__kernel void f(float a[64], float b[64], float o[32]) {
  o[idx] = a[2 * idx] + b[2 * idx + 1];
}|}
  in
  let k = parse_kernel src in
  let o = Vectorize.apply k (Option.get (Pass_util.initial_launch k)) in
  Alcotest.(check bool) "different arrays never pair" false o.fired

(* --- coalescing rules --- *)

let mm_src = (Gpcc_workloads.Registry.find_exn "mm").source 64
let mv_src = (Gpcc_workloads.Registry.find_exn "mv").source 64
let tp_src = (Gpcc_workloads.Registry.find_exn "tp").source 64

let test_coalesce_loop_stage () =
  let k, _ =
    preserved
      ~inputs:[ ("a", gen ~seed:1 4096); ("b", gen ~seed:2 4096) ]
      ~out:"c" mm_src [ Coalesce.apply ]
  in
  let txt = kernel_text k in
  (* paper Figure 3a structure *)
  assert_contains "staged through shared" txt "__shared__ float shared[16]";
  assert_contains "cooperative load" txt "shared[tidx] = a[idy][i + tidx]";
  assert_contains "unrolled inner loop" txt "for (int k = 0; k < 16; k++)";
  assert_contains "replaced access" txt "shared[k]";
  assert_contains "sync" txt "__syncthreads()"

let test_coalesce_rowloop_stage () =
  let k, _ =
    preserved
      ~inputs:[ ("a", gen ~seed:3 4096); ("b", gen ~seed:4 64) ]
      ~out:"c" mv_src [ Coalesce.apply ]
  in
  let txt = kernel_text k in
  (* paper Figure 3b structure *)
  assert_contains "padded tile" txt "[16][17]";
  assert_contains "row loop" txt "for (int l = 0; l < 16; l++)";
  assert_contains "row base" txt "a[idx - tidx + l][i + tidx]";
  assert_contains "tile read" txt "[tidx][k]"

let test_coalesce_exchange_store () =
  let k = parse_kernel tp_src in
  let launch = Option.get (Pass_util.initial_launch k) in
  let o = Coalesce.apply k launch in
  Alcotest.(check int) "block grows to 16x16" 16 o.launch.block_y;
  Alcotest.(check int) "grid shrinks" (launch.grid_y / 16) o.launch.grid_y;
  let txt = kernel_text o.kernel in
  assert_contains "tile" txt "__shared__ float tile[16][17]";
  assert_contains "swap" txt "tile[tidx][tidy]";
  (* semantics *)
  let want, _ = run_full k launch [ ("a", gen ~seed:5 4096) ] "b" in
  let got, _ = run_full o.kernel o.launch [ ("a", gen ~seed:5 4096) ] "b" in
  check_floats "transpose preserved" want got

let test_coalesce_apron_stage () =
  let w = Gpcc_workloads.Registry.find_exn "imregionmax" in
  let src = w.source 64 in
  let k, _ =
    preserved
      ~inputs:(w.inputs 64)
      ~out:"out" src [ Coalesce.apply ]
  in
  let txt = kernel_text k in
  assert_contains "apron buffer" txt "__shared__ float apron";
  assert_contains "cooperative stride-16 loop" txt "t += 16"

let test_coalesce_skips_no_reuse () =
  (* misaligned single access with no neighbors: the paper's reuse rule
     says don't convert *)
  let src =
    {|#pragma gpcc output o
__kernel void f(float a[80], float o[64]) {
  o[idx] = a[idx + 1];
}|}
  in
  let k = parse_kernel src in
  let o = Coalesce.apply k (Option.get (Pass_util.initial_launch k)) in
  Alcotest.(check bool) "no staging introduced" true
    (Pass_util.shared_arrays o.kernel.k_body = []);
  Alcotest.(check bool) "explained" true
    (List.exists (contains ~needle:"no reuse") o.notes)

(* a guard reads the thread directly, or through a local *)
let test_coalesce_skips_divergent () =
  List.iter
    (fun (decl, guard) ->
      let src =
        Printf.sprintf
          {|#pragma gpcc dim w 64
#pragma gpcc output o
__kernel void f(float a[64][64], float o[64], int w) {
  float s = 0;
  %s
  if (%s) {
    for (int j = 0; j < w; j++)
      s += a[0][j];
  }
  o[idx] = s;
}|}
          decl guard
      in
      let k = parse_kernel src in
      let o = Coalesce.apply k (Option.get (Pass_util.initial_launch k)) in
      Alcotest.(check bool)
        (guard ^ ": no staging under divergent guard")
        true
        (Pass_util.shared_arrays o.kernel.k_body = []))
    [ ("", "idx == 0"); ("int t = idx;", "t == 0") ]

let test_coalesce_strided_destage () =
  let w = Gpcc_workloads.Registry.find_exn "rd-complex" in
  let src = w.source 4096 in
  let k = parse_kernel src in
  let launch = Option.get (Pass_util.initial_launch k) in
  let o = Coalesce.apply k launch in
  Alcotest.(check bool) "fired" true o.fired;
  let txt = kernel_text o.kernel in
  assert_contains "32-wide buffer" txt "__shared__ float shared[32]";
  assert_contains "destaged read" txt "shared[2 * tidx"

(* --- merges --- *)

let test_block_merge_guards () =
  let k = parse_kernel mm_src in
  let launch = Option.get (Pass_util.initial_launch k) in
  let o1 = Coalesce.apply k launch in
  let o2 = Merge.block_merge_x o1.kernel o1.launch 4 in
  Alcotest.(check bool) "fired" true o2.fired;
  Alcotest.(check int) "block widened" 64 o2.launch.block_x;
  Alcotest.(check int) "grid shrunk" (o1.launch.grid_x / 4) o2.launch.grid_x;
  assert_contains "redundant loads guarded" (kernel_text o2.kernel)
    "if (tidx < 16)"

let test_block_merge_privatizes () =
  let k = parse_kernel mv_src in
  let launch = Option.get (Pass_util.initial_launch k) in
  let o1 = Coalesce.apply k launch in
  let o2 = Merge.block_merge_x o1.kernel o1.launch 4 in
  Alcotest.(check bool) "fired" true o2.fired;
  let txt = kernel_text o2.kernel in
  assert_contains "per-sub-block tile" txt "[4][16][17]";
  assert_contains "sub-block index" txt "tidx / 16";
  assert_contains "lane within sub-block" txt "tidx % 16"

let test_block_merge_indivisible () =
  let k = parse_kernel mm_src in
  let launch = Option.get (Pass_util.initial_launch k) in
  let o = Merge.block_merge_x k launch 3 in
  Alcotest.(check bool) "grid 4 not divisible by 3" false o.fired

let test_thread_merge_y_structure () =
  let k = parse_kernel mm_src in
  let launch = Option.get (Pass_util.initial_launch k) in
  let o1 = Coalesce.apply k launch in
  let o2 = Merge.thread_merge Merge.Y o1.kernel o1.launch 4 in
  Alcotest.(check bool) "fired" true o2.fired;
  Alcotest.(check int) "grid.y shrunk" (o1.launch.grid_y / 4) o2.launch.grid_y;
  let txt = kernel_text o2.kernel in
  (* paper Figure 7 structure *)
  assert_contains "replicated accumulators" txt "sum_3";
  assert_contains "replicated staging row" txt "a[idy * 4 + 3][i + tidx]";
  assert_contains "hoisted register load" txt "float r = b[i + k][idx]";
  assert_contains "register reuse across replicas" txt "sum_3 += shared_3[k] * r"

let test_thread_merge_semantics () =
  ignore
    (preserved
       ~inputs:[ ("a", gen ~seed:1 4096); ("b", gen ~seed:2 4096) ]
       ~out:"c" mm_src
       [
         Coalesce.apply;
         (fun k l -> Merge.block_merge_x k l 2);
         (fun k l -> Merge.thread_merge Merge.Y k l 8);
       ])

let test_thread_merge_x_semantics () =
  ignore
    (preserved
       ~inputs:[ ("a", gen ~seed:3 4096); ("b", gen ~seed:4 64) ]
       ~out:"c" mv_src
       [ Coalesce.apply; (fun k l -> Merge.thread_merge Merge.X k l 4) ])

let test_thread_merge_keeps_control_flow_single () =
  let k = parse_kernel mm_src in
  let launch = Option.get (Pass_util.initial_launch k) in
  let o1 = Coalesce.apply k launch in
  let o2 = Merge.thread_merge Merge.Y o1.kernel o1.launch 4 in
  (* exactly one i-loop and one k-loop survive *)
  let count_loops b =
    let n = ref 0 in
    ignore
      (Gpcc_ast.Rewrite.map_stmts
         (function
           | Ast.For _ as s ->
               incr n;
               [ s ]
           | s -> [ s ])
         b)
    |> ignore;
    !n
  in
  Alcotest.(check int) "loops not replicated" 2 (count_loops o2.kernel.k_body)

(* --- prefetch --- *)

let test_prefetch_structure () =
  let k = parse_kernel mm_src in
  let launch = Option.get (Pass_util.initial_launch k) in
  let o1 = Coalesce.apply k launch in
  let o2 = Prefetch.apply o1.kernel o1.launch in
  Alcotest.(check bool) "fired" true o2.fired;
  let txt = kernel_text o2.kernel in
  (* paper Figure 8 structure *)
  assert_contains "register declared" txt "float pref";
  assert_contains "first fetch before loop" txt "pref = a[idy][tidx]";
  assert_contains "bound check" txt "if (i + 16 < w)";
  assert_contains "next fetch" txt "pref = a[idy][i + 16 + tidx]";
  assert_contains "staging from register" txt "shared[tidx] = pref"

let test_prefetch_semantics () =
  ignore
    (preserved
       ~inputs:[ ("a", gen ~seed:1 4096); ("b", gen ~seed:2 4096) ]
       ~out:"c" mm_src [ Coalesce.apply; Prefetch.apply ])

let test_prefetch_skips_on_pressure () =
  (* a kernel already at the register limit: prefetch must decline *)
  let k = parse_kernel mm_src in
  let launch = Option.get (Pass_util.initial_launch k) in
  let o1 = Coalesce.apply k launch in
  let o2 = Merge.block_merge_x o1.kernel o1.launch 16 in
  let o3 = Merge.thread_merge Merge.Y o2.kernel o2.launch 32 in
  let o4 = Prefetch.apply ~cfg:cfg8800 o3.kernel o3.launch in
  Alcotest.(check bool) "skipped when occupancy would drop" false o4.fired;
  Alcotest.(check bool) "explains itself" true
    (List.exists (contains ~needle:"occupancy") o4.notes)

(* --- invariant hoisting --- *)

let test_licm_hoists_nested () =
  let src =
    {|#pragma gpcc dim w 64
#pragma gpcc output o
__kernel void f(float a[64][64], float o[64][64], int w) {
  float s = 0;
  for (int i = 0; i < w; i += 16) {
    for (int k = 0; k < 16; k++) {
      if (i + k < idy * 16 + 3) {
        s += a[idy][i + k];
      }
    }
  }
  o[idy][idx] = s;
}|}
  in
  let k = parse_kernel src in
  let launch = Option.get (Pass_util.initial_launch k) in
  let o = Licm.apply k launch in
  Alcotest.(check bool) "fired" true o.fired;
  assert_contains "hoisted binding" (kernel_text o.kernel) "int inv = idy * 16 + 3";
  ignore
    (preserved ~inputs:[ ("a", gen ~seed:9 4096) ] ~out:"o" src [ Licm.apply ])

let test_licm_leaves_top_level () =
  let k = parse_kernel mm_src in
  let launch = Option.get (Pass_util.initial_launch k) in
  let o = Licm.apply k launch in
  Alcotest.(check bool) "nothing to hoist in naive mm" false o.fired

(* --- partition camping --- *)

let test_camping_detection () =
  let w = Gpcc_workloads.Registry.find_exn "mv" in
  let k = Gpcc_workloads.Workload.parse w 512 in
  let launch = Option.get (Pass_util.initial_launch k) in
  let o1 = Coalesce.apply k launch in
  let ds = Partition_camp.detect cfg280 o1.kernel o1.launch in
  Alcotest.(check bool) "mv camps" true (ds <> []);
  Alcotest.(check string) "on array a" "a" (List.hd ds).Partition_camp.d_arr

let test_camping_offset_insertion () =
  let w = Gpcc_workloads.Registry.find_exn "mv" in
  let n = 512 in
  let k = Gpcc_workloads.Workload.parse w n in
  let launch = Option.get (Pass_util.initial_launch k) in
  let o1 = Coalesce.apply k launch in
  let o2 = Partition_camp.apply ~cfg:cfg280 o1.kernel o1.launch in
  Alcotest.(check bool) "fired" true o2.fired;
  assert_contains "rotated index" (kernel_text o2.kernel) "64 * bidx";
  (* rotation preserves the reduction *)
  let inputs = w.inputs n in
  let want, _ = run_full k launch inputs "c" in
  let got, _ = run_full o2.kernel o2.launch inputs "c" in
  check_floats ~eps:1e-3 "rotation preserves sums" want got

let test_camping_diagonal_remap () =
  let w = Gpcc_workloads.Registry.find_exn "tp" in
  let n = 512 in
  let k = Gpcc_workloads.Workload.parse w n in
  let launch = Option.get (Pass_util.initial_launch k) in
  let o1 = Coalesce.apply k launch in
  let o2 = Partition_camp.apply ~cfg:cfg280 o1.kernel o1.launch in
  Alcotest.(check bool) "fired" true o2.fired;
  let txt = kernel_text o2.kernel in
  assert_contains "diagonal x" txt "(bidx + bidy) % gdimx";
  assert_contains "diagonal y" txt "bidy_d = bidx";
  let inputs = w.inputs n in
  let want, _ = run_full k launch inputs "b" in
  let got, _ = run_full o2.kernel o2.launch inputs "b" in
  check_floats "remap preserves transpose" want got

let test_camping_none_when_spread () =
  let w = Gpcc_workloads.Registry.find_exn "mm" in
  let k = Gpcc_workloads.Workload.parse w 512 in
  let launch = Option.get (Pass_util.initial_launch k) in
  let ds = Partition_camp.detect cfg280 k launch in
  Alcotest.(check bool) "mm does not camp" true (ds = [])

let suite =
  let t n f = Alcotest.test_case n `Quick f in
  ( "passes",
    [
      t "vectorize: pairs in one stmt" test_vectorize_pairs;
      t "vectorize: across statements" test_vectorize_across_statements;
      t "vectorize: odd base rejected" test_vectorize_requires_even_base;
      t "vectorize: distinct arrays" test_vectorize_distinct_arrays;
      t "vectorize: reassigned index" test_vectorize_reassigned_index;
      t "coalesce: loop staging (Fig 3a)" test_coalesce_loop_stage;
      t "coalesce: row-loop staging (Fig 3b)" test_coalesce_rowloop_stage;
      t "coalesce: exchange store (tp)" test_coalesce_exchange_store;
      t "coalesce: apron staging" test_coalesce_apron_stage;
      t "coalesce: reuse rule" test_coalesce_skips_no_reuse;
      t "coalesce: divergent guard" test_coalesce_skips_divergent;
      t "coalesce: strided destage" test_coalesce_strided_destage;
      t "block merge: guards (Fig 5)" test_block_merge_guards;
      t "block merge: privatization" test_block_merge_privatizes;
      t "block merge: divisibility" test_block_merge_indivisible;
      t "thread merge: structure (Fig 7)" test_thread_merge_y_structure;
      t "thread merge: semantics" test_thread_merge_semantics;
      t "thread merge X: semantics" test_thread_merge_x_semantics;
      t "thread merge: single control flow" test_thread_merge_keeps_control_flow_single;
      t "prefetch: structure (Fig 8)" test_prefetch_structure;
      t "prefetch: semantics" test_prefetch_semantics;
      t "prefetch: register pressure" test_prefetch_skips_on_pressure;
      t "licm: hoists nested invariants" test_licm_hoists_nested;
      t "licm: leaves top level" test_licm_leaves_top_level;
      t "camping: detection" test_camping_detection;
      t "camping: offset insertion" test_camping_offset_insertion;
      t "camping: diagonal remap" test_camping_diagonal_remap;
      t "camping: no false positive" test_camping_none_when_spread;
    ] )

(* appended: regression for the vectorizer staleness bug found by fft —
   a pair must not be reused across a barrier after the array is
   rewritten *)
let test_vectorize_respects_barriers () =
  let src =
    {|#pragma gpcc output o
__kernel void f(float a[32], float o[16]) {
  float x = a[2 * idx] + a[2 * idx + 1];
  a[2 * idx] = 0.0 - a[2 * idx];
  __global_sync();
  float y = a[2 * idx] + a[2 * idx + 1];
  o[idx] = x + y;
}|}
  in
  let k = parse_kernel src in
  let launch = Option.get (Pass_util.initial_launch k) in
  let inputs = [ ("a", gen ~seed:30 32) ] in
  let want, _ = run_full k launch inputs "o" in
  let o = Vectorize.apply k launch in
  Alcotest.(check bool) "fired" true o.fired;
  let got, _ = run_full o.kernel o.launch inputs "o" in
  check_floats "stale pair not reused across the store/barrier" want got

let suite =
  let name, cases = suite in
  ( name,
    cases
    @ [
        Alcotest.test_case "vectorize: barrier staleness" `Quick
          test_vectorize_respects_barriers;
      ] )

(* appended: regression — a staging whose bidx-dependence flows through a
   loop variable (for i = idx; ...) must not be *guarded* by block merge:
   it is privatized per sub-block instead, and the un-vectorized complex
   reduction must stay correct end-to-end *)
let test_block_merge_loop_carried_bidx () =
  let w = Gpcc_workloads.Registry.find_exn "rd-complex" in
  let n = 8192 in
  let k = Gpcc_workloads.Workload.parse w n in
  let launch = Option.get (Pass_util.initial_launch k) in
  let o1 = Coalesce.apply k launch in
  let o2 = Merge.block_merge_x o1.kernel o1.launch 8 in
  Alcotest.(check bool) "merged via privatization" true o2.fired;
  let txt = kernel_text o2.kernel in
  assert_contains "sub-block index" txt "tidx / 16";
  assert_contains "lane within sub-block" txt "tidx % 16";
  Alcotest.(check bool) "never guarded with (tidx < 16)" false
    (contains ~needle:"if (tidx < 16)" txt)

let test_rd_complex_without_vectorization () =
  let w = Gpcc_workloads.Registry.find_exn "rd-complex" in
  let n = 16384 in
  let k = Gpcc_workloads.Workload.parse w n in
  let r =
    compile ~cfg:cfg280 ~target:128 ~degree:4
      ~disable:[ "vectorize-wide"; "vectorize" ] k
  in
  Gpcc_workloads.Workload.check cfg280 w n r.kernel r.launch

let suite =
  let name, cases = suite in
  ( name,
    cases
    @ [
        Alcotest.test_case "block merge: loop-carried bidx" `Quick
          test_block_merge_loop_carried_bidx;
        Alcotest.test_case "rd-complex without vectorization" `Slow
          test_rd_complex_without_vectorization;
      ] )

(* appended: AMD-style wide vectorization (paper Section 3.1's aggressive
   rule) *)
let test_wide_vectorize_applicability () =
  let vv = parse_kernel ((Gpcc_workloads.Registry.find_exn "vv").source 1024) in
  let mm = parse_kernel ((Gpcc_workloads.Registry.find_exn "mm").source 64) in
  let lvv = Option.get (Pass_util.initial_launch vv) in
  let lmm = Option.get (Pass_util.initial_launch mm) in
  Alcotest.(check bool) "vv is element-wise" true
    (Vectorize_wide.apply ~width:2 vv lvv).fired;
  Alcotest.(check bool) "mm is not" false
    (Vectorize_wide.apply ~width:2 mm lmm).fired

let test_wide_vectorize_correct () =
  let w = Gpcc_workloads.Registry.find_exn "vv" in
  let n = 1024 in
  let k = Gpcc_workloads.Workload.parse w n in
  List.iter
    (fun width ->
      let launch = Option.get (Pass_util.initial_launch k) in
      let o = Vectorize_wide.apply ~width k launch in
      Alcotest.(check bool) "fired" true o.fired;
      Alcotest.(check int) "grid shrinks" (launch.grid_x / width)
        o.launch.grid_x;
      assert_contains "vector store" (kernel_text o.kernel)
        (Printf.sprintf "((float%d*)c)[idx]" width);
      Gpcc_workloads.Workload.check cfg280 w n o.kernel o.launch)
    [ 2; 4 ]

let test_hd5870_pipeline () =
  let amd = Gpcc_sim.Config.hd5870 in
  let w = Gpcc_workloads.Registry.find_exn "vv" in
  let n = 1024 in
  let k = Gpcc_workloads.Workload.parse w n in
  let r = compile ~cfg:amd k in
  Gpcc_workloads.Workload.check amd w n r.kernel r.launch;
  Alcotest.(check bool) "wide step fired" true
    (List.exists
       (fun (s : Gpcc_core.Pipeline.step) ->
         s.fired && s.step_name = "wide vectorization (AMD)")
       r.steps);
  (* a non-element-wise kernel still compiles correctly on the AMD target *)
  let wm = Gpcc_workloads.Registry.find_exn "mm" in
  let km = Gpcc_workloads.Workload.parse wm 64 in
  let rm = compile ~cfg:amd km in
  Gpcc_workloads.Workload.check amd wm 64 rm.kernel rm.launch

let test_width_efficiency_ordering () =
  (* paper Section 2a: on the HD 5870 wider accesses sustain more
     bandwidth; the machine model must reproduce the ordering *)
  let amd = Gpcc_sim.Config.hd5870 in
  let w = Gpcc_workloads.Registry.find_exn "vv" in
  let n = 65536 in
  let time width =
    let k = Gpcc_workloads.Workload.parse w n in
    let launch = Option.get (Pass_util.initial_launch k) in
    let o =
      if width = 1 then Pass_util.unchanged k launch
      else Vectorize_wide.apply ~width k launch
    in
    let bm = Merge.block_merge_x o.kernel o.launch 16 in
    (Gpcc_workloads.Workload.measure ~sample:2 amd w n bm.kernel bm.launch)
      .time_ms
  in
  let t1 = time 1 and t2 = time 2 and t4 = time 4 in
  Alcotest.(check bool)
    (Printf.sprintf "float4 fastest (%.3f / %.3f / %.3f ms)" t1 t2 t4)
    true
    (t4 <= t2 && t4 < t1)

let suite =
  let name, cases = suite in
  ( name,
    cases
    @ [
        Alcotest.test_case "wide vectorize: applicability" `Quick
          test_wide_vectorize_applicability;
        Alcotest.test_case "wide vectorize: correctness" `Quick
          test_wide_vectorize_correct;
        Alcotest.test_case "HD5870 pipeline" `Quick test_hd5870_pipeline;
        Alcotest.test_case "width bandwidth ordering" `Slow
          test_width_efficiency_ordering;
      ] )

(* appended: compile time must grow with kernel size, not with its
   square. Thread merge at degree 32 copies every per-thread statement 32
   times; the merged kernel of a body with [n] independent declarations
   is then type checked. A scan over a string-keyed list anywhere on
   that path makes 4n cost about 16 times n. *)
let decls_kernel n =
  let buf = Buffer.create (64 * n) in
  Buffer.add_string buf
    "#pragma gpcc output b\n\
     __kernel void scale(float a[1024], float b[1024]) {\n\
    \  float s = 0.0;\n";
  for i = 0 to n - 1 do
    Printf.bprintf buf "  float v%d = a[idx] + %d.0;\n  s = s + v%d;\n" i i i
  done;
  Buffer.add_string buf "  b[idx] = s;\n}\n";
  parse_kernel (Buffer.contents buf)

(* CPU seconds of one thread merge x32 and type check of the result *)
let merge_and_check_s k launch =
  Gc.full_major ();
  let t0 = Sys.time () in
  let o = Merge.thread_merge Merge.X k launch 32 in
  Typecheck.check o.kernel;
  let t = Sys.time () -. t0 in
  Alcotest.(check bool) "merged" true o.fired;
  t

let test_thread_merge_scaling () =
  let n = 125 in
  let small = decls_kernel n and large = decls_kernel (4 * n) in
  let launch k = Option.get (Pass_util.initial_launch k) in
  (* the sizes alternate so both see the same host conditions; CPU time
     leaves out time the test spends descheduled *)
  let t1 = ref infinity and t4 = ref infinity in
  for _ = 1 to 3 do
    t1 := Float.min !t1 (merge_and_check_s small (launch small));
    t4 := Float.min !t4 (merge_and_check_s large (launch large))
  done;
  let t1 = !t1 and t4 = !t4 in
  let msg =
    Printf.sprintf
      "thread merge x32 + type check: %d decls %.4f s, %d decls %.4f s \
       (%.1fx, bound 8x)"
      n t1 (4 * n) t4 (t4 /. t1)
  in
  print_endline msg;
  if not (t4 < 8.0 *. t1) then Alcotest.fail msg

let suite =
  let name, cases = suite in
  ( name,
    cases
    @ [
        Alcotest.test_case "thread merge: linear in size" `Slow
          test_thread_merge_scaling;
      ] )

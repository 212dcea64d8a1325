(** Tests for the paper's Section 3.2/3.4 analyses: index classification,
    coalescing verdicts on the paper's own examples, layouts, sharing
    analysis, and register estimation. *)

open Gpcc_ast
open Gpcc_analysis
open Util

let launch = { Ast.grid_x = 8; grid_y = 8; block_x = 16; block_y = 1 }

let mk_kernel body_arrays_src = parse_kernel body_arrays_src

(** Verdict of the [nth] global access in a kernel. *)
let access_of src n =
  let k = mk_kernel src in
  List.nth (Coalesce_check.analyze_kernel ~launch k) n

let verdict src n = (access_of src n).Coalesce_check.verdict

let is_coalesced = function Coalesce_check.Coalesced -> true | _ -> false

(* --- the paper's Section 3.2 examples --- *)

let mm_like =
  {|#pragma gpcc dim w 128
#pragma gpcc output c
__kernel void f(float a[128][128], float b[128][128], float c[128][128], int w) {
  float sum = 0;
  for (int i = 0; i < w; i++)
    sum += a[idy][i] * b[i][idx];
  c[idy][idx] = sum;
}|}

let test_paper_a_idy_i () =
  (* "the array access a[idy][i] is not coalesced" — offsets all zero *)
  match verdict mm_like 0 with
  | Coalesce_check.Noncoalesced Coalesce_check.Uniform -> ()
  | v -> Alcotest.failf "a[idy][i]: %s" (Coalesce_check.show_verdict v)

let test_paper_b_i_idx () =
  (* "the array access b[i][idx] is coalesced as long as each row is
     aligned" (the layout pads rows to 16 words) *)
  Alcotest.(check bool) "b[i][idx] coalesced" true (is_coalesced (verdict mm_like 1))

let test_paper_store_coalesced () =
  Alcotest.(check bool) "c[idy][idx] coalesced" true (is_coalesced (verdict mm_like 2))

let test_paper_b_idx_plus_i () =
  (* "for the array access b[idx+i] ... it is not a coalesced access since
     the base address is not always a multiple of 16 words" *)
  let src =
    {|#pragma gpcc dim w 128
#pragma gpcc output c
__kernel void f(float b[256], float c[128], int w) {
  float sum = 0;
  for (int i = 0; i < w; i++)
    sum += b[idx + i];
  c[idx] = sum;
}|}
  in
  match verdict src 0 with
  | Coalesce_check.Noncoalesced (Coalesce_check.Misaligned _) -> ()
  | v -> Alcotest.failf "b[idx+i]: %s" (Coalesce_check.show_verdict v)

let test_paper_higher_dim_idx () =
  (* idx used in a higher dimension: A[idx][0] is not coalesced *)
  let src =
    {|#pragma gpcc output c
__kernel void f(float a[128][128], float c[128]) {
  c[idx] = a[idx][0];
}|}
  in
  (* access 0 is the store's lvalue; the load is access 1 *)
  match verdict src 1 with
  | Coalesce_check.Noncoalesced (Coalesce_check.Strided s) ->
      Alcotest.(check int) "stride is the pitch" 128 s
  | v -> Alcotest.failf "a[idx][0]: %s" (Coalesce_check.show_verdict v)

let test_strided_2 () =
  let src =
    {|#pragma gpcc output c
__kernel void f(float a[256], float c[128]) {
  c[idx] = a[2 * idx];
}|}
  in
  match verdict src 1 with
  | Coalesce_check.Noncoalesced (Coalesce_check.Strided 2) -> ()
  | v -> Alcotest.failf "a[2*idx]: %s" (Coalesce_check.show_verdict v)

let test_unresolved_index () =
  (* indirect access: the compiler "simply skips" such accesses *)
  let src =
    {|#pragma gpcc output c
__kernel void f(float a[128], float b[128], float c[128]) {
  float x = b[idx];
  c[idx] = a[idx * idx];
}|}
  in
  (* accesses: b load, c store, a load *)
  Alcotest.(check bool) "unknown verdict" true
    (verdict src 2 = Coalesce_check.Unknown)

let test_loop_step_alignment () =
  (* i stepping by 16 keeps idx+i aligned: coalesced *)
  let src =
    {|#pragma gpcc dim w 128
#pragma gpcc output c
__kernel void f(float b[256], float c[128], int w) {
  float sum = 0;
  for (int i = 0; i < w; i += 16)
    sum += b[idx + i];
  c[idx] = sum;
}|}
  in
  Alcotest.(check bool) "aligned steps coalesce" true (is_coalesced (verdict src 0))

(* A local reassigned inside an [if] or a loop body is unknown after the
   construct: neither the pre-branch nor the pre-loop affine value of [t]
   may show through and pass [b[t]] as coalesced. *)
let test_stale_after_control_flow () =
  List.iter
    (fun (what, body) ->
      let src =
        Printf.sprintf
          {|#pragma gpcc output b
__kernel void f(float a[1024], float b[1024]) {
  int t = idx;
  %s
  b[t] = a[idx];
}|}
          body
      in
      let a = access_of src 0 in
      Alcotest.(check string)
        (what ^ ": b[t] keeps no stale form") "t"
        (match a.Coalesce_check.flat with
        | Some f -> Affine.to_string f
        | None -> "?");
      match a.verdict with
      | Coalesce_check.Noncoalesced Coalesce_check.Uniform -> ()
      | v -> Alcotest.failf "%s: b[t]: %s" what (Coalesce_check.show_verdict v))
    [
      ("if", "if (tidx < 8) { t = idx * 3; }");
      ("for", "for (int i = 0; i < 4; i += 1) { t = t * 2; }");
    ]

let test_index_classification () =
  let k = mk_kernel mm_like in
  let ctx = Affine.ctx_of_launch ~sizes:k.k_sizes launch in
  Alcotest.(check bool) "constant" true
    (Coalesce_check.classify_index ctx (expr "5") = Coalesce_check.Constant);
  Alcotest.(check bool) "predefined" true
    (Coalesce_check.classify_index ctx (expr "idy + 3") = Coalesce_check.Predefined);
  Alcotest.(check bool) "unresolved" true
    (Coalesce_check.classify_index ctx (expr "idx * idy") = Coalesce_check.Unresolved)

(* a guard reads the thread directly, or through a local *)
let test_divergence_tracking () =
  List.iter
    (fun (decl, guard) ->
      let src =
        Printf.sprintf
          {|#pragma gpcc dim w 64
#pragma gpcc output c
__kernel void f(float a[64][64], float c[64][64], int w) {
  float s = 0;
  %s
  if (%s) {
    for (int j = 0; j < w; j++)
      s += a[idy][j];
  }
  c[idy][idx] = s;
}|}
          decl guard
      in
      let a = access_of src 0 in
      Alcotest.(check bool) (guard ^ ": divergent") true
        a.Coalesce_check.divergent;
      Alcotest.(check (list string))
        (guard ^ ": no safe loops") [] a.Coalesce_check.safe_loops)
    [ ("", "idx == 0"); ("int t = idx;", "t == 0") ]

let test_safe_loops () =
  let src =
    {|#pragma gpcc dim w 64
#pragma gpcc output c
__kernel void f(float a[64][64], float c[64][64], int w) {
  float s = 0;
  for (int i = 0; i < w; i++)
    if (i < idy)
      s += a[idy][i];
  c[idy][idx] = s;
}|}
  in
  let a = access_of src 0 in
  Alcotest.(check bool) "divergent at access" true a.Coalesce_check.divergent;
  Alcotest.(check (list string)) "loop itself is safe" [ "i" ]
    a.Coalesce_check.safe_loops

(* --- transaction formation: G80 strict vs GT200 relaxed --- *)

let tx_count rules addrs =
  List.length (Gpcc_sim.Coalescer.global_request rules ~min_tx:32 ~elt_bytes:4 addrs)

let half_warp f = List.init 16 (fun l -> (l, f l))

let test_txs_misaligned_base () =
  (* base off by one element: strict serializes all 16 lanes, relaxed
     touches two 64B segments *)
  let addrs = half_warp (fun l -> (l + 1) * 4) in
  Alcotest.(check int) "G80 misaligned" 16 (tx_count Gpcc_sim.Config.Strict_g80 addrs);
  Alcotest.(check int) "GT200 misaligned" 2
    (tx_count Gpcc_sim.Config.Relaxed_gt200 addrs)

let test_txs_stride_2 () =
  (* stride-2 floats span two segments: strict pays 16 transactions,
     relaxed one per segment *)
  let addrs = half_warp (fun l -> l * 8) in
  Alcotest.(check int) "G80 stride-2" 16 (tx_count Gpcc_sim.Config.Strict_g80 addrs);
  Alcotest.(check int) "GT200 stride-2" 2
    (tx_count Gpcc_sim.Config.Relaxed_gt200 addrs)

let test_txs_unit_stride () =
  let addrs = half_warp (fun l -> 256 + (l * 4)) in
  Alcotest.(check int) "G80 aligned" 1 (tx_count Gpcc_sim.Config.Strict_g80 addrs);
  Alcotest.(check int) "GT200 aligned" 1
    (tx_count Gpcc_sim.Config.Relaxed_gt200 addrs)

let test_shared_padding_banks () =
  (* column access through a [16][p] shared array: word l*p for lane l.
     p=16 lands every lane in bank 0; the paper's p=17 padding spreads
     them across all 16 banks *)
  let column pitch = List.init 16 (fun l -> l * pitch) in
  Alcotest.(check int) "unpadded column serializes" 16
    (Gpcc_sim.Coalescer.shared_request ~banks:16 (column 16));
  Alcotest.(check int) "[16][17] padding conflict-free" 1
    (Gpcc_sim.Coalescer.shared_request ~banks:16 (column 17));
  (* same-address lanes broadcast for free *)
  Alcotest.(check int) "broadcast" 1
    (Gpcc_sim.Coalescer.shared_request ~banks:16 (List.init 16 (fun _ -> 5)))

(* --- layout --- *)

let test_layout_padding () =
  let lay =
    Layout.make "a" { Ast.elt = Float; space = Global; dims = [ 100; 100 ] }
  in
  Alcotest.(check (list int)) "minor padded to 16" [ 100; 112 ] lay.pitches;
  Alcotest.(check (list int)) "strides" [ 112; 1 ] (Layout.strides lay);
  Alcotest.(check int) "size" (100 * 112) (Layout.size_elems lay)

let test_layout_flatten () =
  let lay =
    Layout.make "a" { Ast.elt = Float; space = Global; dims = [ 4; 32 ] }
  in
  let f =
    Layout.flatten lay [ Affine.const 2; Affine.of_var Affine.Tidx ]
  in
  Alcotest.(check int) "flat const" 64 f.Affine.const;
  Alcotest.(check int) "lane coeff" 1 (Affine.coeff Affine.Tidx f)

let test_layout_rank_mismatch () =
  let lay = Layout.make "a" { Ast.elt = Float; space = Global; dims = [ 4; 4 ] } in
  Alcotest.check_raises "rank mismatch"
    (Invalid_argument "Layout.flatten: a has rank 2, got 1 indices") (fun () ->
      ignore (Layout.flatten lay [ Affine.zero ]))

(* --- sharing (Section 3.4) --- *)

let test_sharing_mm () =
  let w = Gpcc_workloads.Registry.find_exn "mm" in
  let k = Gpcc_workloads.Workload.parse w 64 in
  let launch = Option.get (Gpcc_passes.Pass_util.initial_launch k) in
  let o = Gpcc_passes.Coalesce.apply k launch in
  let sharing = Sharing.analyze ~launch:o.launch o.kernel in
  let find a = List.find (fun s -> s.Sharing.arr = a) sharing in
  (* the paper's case study: a is G2S shared along X; b is G2R shared
     along Y *)
  Alcotest.(check bool) "a is G2S" true ((find "a").role = Sharing.G2S);
  Alcotest.(check bool) "a shares along X" true (find "a").share_x;
  Alcotest.(check bool) "b is G2R" true ((find "b").role = Sharing.G2R);
  Alcotest.(check bool) "b shares along Y" true (find "b").share_y;
  Alcotest.(check bool) "b not along X" false (find "b").share_x

let test_sharing_ignores_loop_free_loads () =
  let w = Gpcc_workloads.Registry.find_exn "strsm" in
  let k = Gpcc_workloads.Workload.parse w 64 in
  let launch = Option.get (Gpcc_passes.Pass_util.initial_launch k) in
  let o = Gpcc_passes.Coalesce.apply k launch in
  let sharing = Sharing.analyze ~launch:o.launch o.kernel in
  let b = List.find (fun s -> s.Sharing.arr = "b") sharing in
  (* b has a loop-free load b[idy][idx] that depends on bidy, but the
     repeated b[i+k][idx] load still makes it Y-shared *)
  Alcotest.(check bool) "b shares along Y" true b.share_y

(* --- register estimation --- *)

let test_regcount () =
  let k =
    parse_kernel
      {|#pragma gpcc output o
__kernel void f(float a[64], float o[64]) {
  float x = a[idx];
  float2 v = make_float2(x, x);
  __shared__ float s[32];
  s[tidx] = x;
  __syncthreads();
  o[idx] = v.x + s[tidx];
}|}
  in
  (* base 4 + x 1 + v 2 + params 2 + idx/tidx 2 = 11 *)
  Alcotest.(check int) "registers" 11 (Regcount.estimate k);
  Alcotest.(check int) "shared bytes" 128 (Regcount.shared_bytes k)

let suite =
  let t n f = Alcotest.test_case n `Quick f in
  ( "analysis",
    [
      t "paper: a[idy][i] uniform" test_paper_a_idy_i;
      t "paper: b[i][idx] coalesced" test_paper_b_i_idx;
      t "paper: store coalesced" test_paper_store_coalesced;
      t "paper: b[idx+i] misaligned" test_paper_b_idx_plus_i;
      t "paper: idx in higher dim" test_paper_higher_dim_idx;
      t "strided by 2" test_strided_2;
      t "unresolved index skipped" test_unresolved_index;
      t "aligned loop steps" test_loop_step_alignment;
      t "locals reassigned under control flow" test_stale_after_control_flow;
      t "index classification" test_index_classification;
      t "divergence tracking" test_divergence_tracking;
      t "safe loops under guards" test_safe_loops;
      t "txs: misaligned base" test_txs_misaligned_base;
      t "txs: stride 2" test_txs_stride_2;
      t "txs: unit stride" test_txs_unit_stride;
      t "shared bank padding" test_shared_padding_banks;
      t "layout padding" test_layout_padding;
      t "layout flattening" test_layout_flatten;
      t "layout rank mismatch" test_layout_rank_mismatch;
      t "sharing: mm case study" test_sharing_mm;
      t "sharing: loop-free loads" test_sharing_ignores_loop_free_loads;
      t "register estimation" test_regcount;
    ] )

(** Backend equivalence: the warp-vectorized simulator backend must be
    bit-identical to the tree-walking reference interpreter — output
    arrays, every {!Gpcc_sim.Stats} field, and the derived
    {!Gpcc_sim.Timing} estimate — on every registry workload, naive and
    optimized, in Full and Sampled modes, on the CUBLAS and SDK
    comparators (on the GTX 280 and the 8800 GTX), and on a seeded
    corpus of random fuzz kernels; parallel
    grid execution must reproduce serial execution exactly. *)

open Util
module W = Gpcc_workloads.Workload
module L = Gpcc_sim.Launch
module S = Gpcc_sim.Stats

let stats_fields = S.fields

let timing_fields (t : Gpcc_sim.Timing.result) =
  [
    ("cycles", t.cycles);
    ("time_ms", t.time_ms);
    ("gflops", t.gflops);
    ("bandwidth_gbs", t.bandwidth_gbs);
    ("timing_partition_eff", t.partition_eff);
  ]

let global_arrays (k : Gpcc_ast.Ast.kernel) =
  List.filter_map
    (fun (p : Gpcc_ast.Ast.param) ->
      match p.p_ty with
      | Array { space = Global; _ } -> Some p.p_name
      | _ -> None)
    k.k_params

(** Run [k] on fresh memory on machine [cfg] and return the simulator
    result plus the final contents of every global array. *)
let exec ?(cfg = cfg280) ~backend ?jobs ~mode (w : W.t) n
    (k : Gpcc_ast.Ast.kernel) launch =
  let mem = Gpcc_sim.Devmem.of_kernel k in
  List.iter
    (fun (name, d) -> Gpcc_sim.Devmem.write mem name d)
    (w.W.inputs n);
  let r = L.run ~mode ~backend ?jobs cfg k launch mem in
  (r, List.map (fun a -> (a, Gpcc_sim.Devmem.read mem a)) (global_arrays k))

(** Bitwise comparison ([compare] treats nan = nan, unlike [=]). *)
let bit_identical label ((ra : L.result), oa) ((rb : L.result), ob) =
  List.iter2
    (fun (n1, a) (n2, b) ->
      Alcotest.(check string) (label ^ " array order") n1 n2;
      if compare a b <> 0 then
        Alcotest.failf "%s: array %s differs between backends" label n1)
    oa ob;
  List.iter2
    (fun (f, x) (_, y) ->
      if compare x y <> 0 then
        Alcotest.failf "%s: stats field %s: %.17g <> %.17g" label f x y)
    (stats_fields ra.L.per_block)
    (stats_fields rb.L.per_block);
  if compare ra.L.partition_eff rb.L.partition_eff <> 0 then
    Alcotest.failf "%s: partition_eff %.17g <> %.17g" label ra.L.partition_eff
      rb.L.partition_eff;
  List.iter2
    (fun (f, x) (_, y) ->
      if compare x y <> 0 then
        Alcotest.failf "%s: timing field %s: %.17g <> %.17g" label f x y)
    (timing_fields ra.L.timing) (timing_fields rb.L.timing);
  Alcotest.(check string) (label ^ " timing bound") ra.L.timing.bound
    rb.L.timing.bound;
  Alcotest.(check int) (label ^ " timing waves") ra.L.timing.waves
    rb.L.timing.waves;
  Alcotest.(check int) (label ^ " sampled_blocks") ra.L.sampled_blocks
    rb.L.sampled_blocks

(** Naive and pipeline-optimized (for [cfg]) variants of one workload. *)
let kernels_of ?cfg (w : W.t) n =
  let k = W.parse w n in
  let launch = Option.get (Gpcc_passes.Pass_util.naive_launch k) in
  let r = compile ?cfg k in
  [ (w.W.name ^ "/naive", k, launch); (w.W.name ^ "/opt", r.kernel, r.launch) ]

(** The comparators of Figures 13 and 15: the six CUBLAS kernels at the
    size their correctness test uses, and the two SDK transposes. *)
let comparators () =
  List.map
    (fun (c : Gpcc_workloads.Cublas_sim.comparator) ->
      let w = Gpcc_workloads.Registry.find_exn c.c_for in
      let n = max w.W.test_size 128 in
      ( "cublas_" ^ c.c_for,
        w,
        n,
        Gpcc_workloads.Cublas_sim.kernel c n,
        c.c_launch n ))
    Gpcc_workloads.Cublas_sim.all
  @
  let tp = Gpcc_workloads.Registry.find_exn "tp" in
  let n = tp.W.test_size in
  let kp, lp = Gpcc_workloads.Sdk_transpose.prev n in
  let kn, ln = Gpcc_workloads.Sdk_transpose.new_ n in
  [ ("sdk_prev", tp, n, kp, lp); ("sdk_new", tp, n, kn, ln) ]

(** On each machine, so that both coalescing rule sets (strict G80,
    relaxed GT200) are compared between the backends. *)
let test_vector_matches_reference cfg () =
  let versions =
    List.concat_map
      (fun (w : W.t) ->
        let n = w.W.test_size in
        List.map
          (fun (label, k, launch) -> (label, w, n, k, launch))
          (kernels_of ~cfg w n))
      Gpcc_workloads.Registry.all
    @ comparators ()
  in
  List.iter
    (fun (label, w, n, k, launch) ->
      List.iter
        (fun (mname, mode) ->
          let fb0 = Gpcc_sim.Vector.fallback_count () in
          let rr = exec ~cfg ~backend:L.Reference ~jobs:1 ~mode w n k launch in
          let rv = exec ~cfg ~backend:L.Vector ~jobs:1 ~mode w n k launch in
          Alcotest.(check int)
            (label ^ "/" ^ mname ^ " vector without fallback")
            fb0
            (Gpcc_sim.Vector.fallback_count ());
          bit_identical (label ^ "/" ^ mname ^ " vector") rr rv)
        [ ("full", L.Full); ("sampled", L.Sampled 4) ])
    (List.map
       (fun (label, w, n, k, launch) ->
         (label ^ "@" ^ cfg.Gpcc_sim.Config.name, w, n, k, launch))
       versions)

(** Seeded random-kernel corpus: the vector backend must agree with the
    reference bit-for-bit on generated kernels too (reduction loops,
    guards, stencils — shapes the registry does not cover), both naive
    and after the optimization pipeline, in Full mode and in the
    Sampled mode the funnel measures with (partition streams and their
    efficiency included). *)
let test_vector_fuzz_corpus () =
  let exec_kernel ~backend ~mode k launch =
    let mem = Gpcc_sim.Devmem.of_kernel k in
    List.iter
      (fun (name, d) -> Gpcc_sim.Devmem.write mem name d)
      Test_fuzz.inputs;
    let r = L.run ~mode ~backend ~jobs:1 cfg280 k launch mem in
    (r, List.map (fun a -> (a, Gpcc_sim.Devmem.read mem a)) (global_arrays k))
  in
  let both label k launch =
    List.iter
      (fun (mname, mode) ->
        bit_identical (label ^ "/" ^ mname)
          (exec_kernel ~backend:L.Reference ~mode k launch)
          (exec_kernel ~backend:L.Vector ~mode k launch))
      [ ("full", L.Full); ("sampled", L.Sampled 4) ]
  in
  for i = 0 to 19 do
    let rand = Random.State.make [| 0x5eed; i |] in
    let spec = QCheck.Gen.generate1 ~rand Test_fuzz.gen_spec in
    let src = Test_fuzz.source_of_spec spec in
    let k = parse_kernel src in
    let launch = Option.get (Gpcc_passes.Pass_util.initial_launch k) in
    let label = Printf.sprintf "fuzz[%d]" i in
    both label k launch;
    if i < 6 then begin
      (* a few optimized variants: tiled/merged/unrolled shapes *)
      let r = compile ~verify:false k in
      both (label ^ "/opt") r.kernel r.launch
    end
  done

(** Strided, offset and uniform-loop global accesses: the shapes the
    plane-granularity accounting resolves without per-half-warp work.
    Each must stay bit-identical to the reference, and the perf
    counters must show the fast paths actually firing — the plane memo
    on strided planes, the closed-form credit on block-uniform loops,
    including sites whose index is lane-affine with a uniform loop
    variable folded in. *)
let test_vector_plane_accounting () =
  let run_pair label src (grid_x, grid_y) (block_x, block_y) =
    let exec ~backend =
      let k = parse_kernel src in
      let launch = { Gpcc_ast.Ast.grid_x; grid_y; block_x; block_y } in
      let mem = Gpcc_sim.Devmem.of_kernel k in
      let r = L.run ~mode:L.Full ~backend ~jobs:1 cfg280 k launch mem in
      (r, List.map (fun a -> (a, Gpcc_sim.Devmem.read mem a)) (global_arrays k))
    in
    let rr = exec ~backend:L.Reference in
    let pc0 = L.perf_counters () in
    let rv = exec ~backend:L.Vector in
    let pc1 = L.perf_counters () in
    bit_identical label rr rv;
    (pc0, pc1)
  in
  (* strided: within-group byte stride 8, four blocks shifting the plane
     uniformly, so the first block misses the plane memo and the rest
     resolve without a per-half-warp walk *)
  let pc0, pc1 =
    run_pair "strided plane"
      {|__kernel void s(float a[512], float o[256]) {
  o[idx] = a[idx * 2];
}|}
      (4, 1) (64, 1)
  in
  Alcotest.(check bool)
    "strided: plane memo exercised" true
    L.(pc1.pc_plane_misses > pc0.pc_plane_misses);
  (* offset: base misaligned from the memo granularity, still segmented *)
  let _, _ =
    run_pair "offset plane"
      {|__kernel void f(float a[512], float o[256]) {
  o[idx] = a[idx + 3];
}|}
      (4, 1) (64, 1)
  in
  (* block-uniform loop over a stable tid-plane site: every iteration
     after the first replays the cached digest in closed form *)
  let pc0, pc1 =
    run_pair "uniform loop credit"
      {|#pragma gpcc dim w 64
__kernel void t(float a[64][64], float b[64], float c[64], int w) {
  float sum = 0;
  for (int i = 0; i < w; i++)
    sum += a[i][idx] * b[i];
  c[idx] = sum;
}|}
      (1, 1) (64, 1)
  in
  Alcotest.(check bool)
    "uniform loop: closed-form credits advance" true
    L.(pc1.pc_closed_form > pc0.pc_closed_form);
  (* a row walk: [idy + i] is lane-affine, so every trip after the
     first of the run moves the base by a whole row, congruent modulo the
     memo granularity, and replays the digest: 4 blocks x 32 trips - 1 *)
  let pc0, pc1 =
    run_pair "row walk credit"
      {|#pragma gpcc dim w 32
__kernel void r(float a[64][64], float c[32][32], int w) {
  float sum = 0;
  for (int i = 0; i < w; i++)
    sum += a[idy + i][idx];
  c[idy][idx] = sum;
}|}
      (2, 2) (16, 16)
  in
  let credits = L.(pc1.pc_closed_form - pc0.pc_closed_form) in
  if credits < 127 then
    Alcotest.failf "row walk: %d closed-form credits, want >= 127" credits;
  (* a shared inner loop: the bank costs of [sh[tidx + (i + k)]] are
     invariant under the uniform shift, so 31 of 32 trips are credits *)
  let pc0, pc1 =
    run_pair "shared inner loop credit"
      {|__kernel void s(float a[64], float ws0[32], float o[32]) {
  __shared__ float sh[64];
  __shared__ float ws[32];
  sh[tidx] = a[tidx];
  sh[tidx + 32] = a[tidx + 32];
  ws[tidx] = ws0[tidx];
  __syncthreads();
  float sum = 0;
  for (int i = 0; i < 1; i++)
    for (int k = 0; k < 32; k++)
      sum += sh[tidx + (i + k)] * ws[k];
  o[idx] = sum;
}|}
      (1, 1) (32, 1)
  in
  let credits = L.(pc1.pc_closed_form - pc0.pc_closed_form) in
  if credits < 31 then
    Alcotest.failf "shared inner loop: %d closed-form credits, want >= 31"
      credits

(** Run [k] on machine [cfg] (Full unless [mode] says otherwise) on the
    reference and vector backends and require the same bits: outputs
    (where [compare] equates nans and signed zeros, so the raw bits are
    compared too), every statistic and the timing; a reference runtime
    error must be the vector backend's error too. *)
let run_kernel ?(cfg = cfg280) ?(mode = L.Full) ?streams ?block_budget label k
    (grid_x, grid_y) (block_x, block_y) inputs =
  let bits a = Array.map Int64.bits_of_float a in
  let launch = { Gpcc_ast.Ast.grid_x; grid_y; block_x; block_y } in
  let exec ~backend =
    let mem = Gpcc_sim.Devmem.of_kernel k in
    List.iter (fun (n, d) -> Gpcc_sim.Devmem.write mem n d) inputs;
    match
      L.run ~mode ?streams ?block_budget ~backend ~jobs:1 cfg k launch mem
    with
    | r ->
        let read a = (a, Gpcc_sim.Devmem.read mem a) in
        let arrays = List.map read (global_arrays k) in
        Ok (r, arrays)
    | exception Gpcc_sim.Interp.Runtime_error m -> Error m
  in
  let fb0 = Gpcc_sim.Vector.fallback_count () in
  let rr = exec ~backend:L.Reference and rv = exec ~backend:L.Vector in
  Alcotest.(check int)
    (label ^ " vector without fallback")
    fb0
    (Gpcc_sim.Vector.fallback_count ());
  match (rr, rv) with
  | Ok a, Ok b ->
      bit_identical label a b;
      List.iter2
        (fun (n, x) (_, y) ->
          if bits x <> bits y then
            Alcotest.failf "%s: array %s differs in its bits" label n)
        (snd a) (snd b)
  | Error a, Error b -> Alcotest.(check string) (label ^ " error") a b
  | Error m, Ok _ -> Alcotest.failf "%s: only the reference failed: %s" label m
  | Ok _, Error m -> Alcotest.failf "%s: only vector failed: %s" label m

(** {!run_kernel} on a kernel's source text. *)
let run_src ?cfg ?mode ?streams ?block_budget label src grid block inputs =
  run_kernel ?cfg ?mode ?streams ?block_budget label (parse_kernel src) grid
    block inputs

let ramp n = Array.init n (fun i -> float_of_int ((i * 37) mod 101) -. 50.)

(** Lane-affine index shapes (coefficients that cancel, negative ones,
    [#pragma gpcc dim] strides, a runtime multiplier and a varying loop
    variable that keep the plane-combining plan, guarded and
    out-of-bounds sites) and every float operator in plane/plane,
    plane/uniform and uniform/plane shapes over nan, infinities and
    signed zeros. *)
let test_vector_affine_and_float_edges () =
  run_src "lane-affine shapes"
    {|#pragma gpcc dim w 8
__kernel void shapes(float a[256], float o[8][16], int w) {
  __shared__ float s[64];
  s[tidy * w + tidx] = a[idy * 16 + idx];
  __syncthreads();
  float acc = 0;
  for (int j = 0; j < 4; j++) {
    acc += a[63 - tidx + j];
    acc += a[-idx + 63 + j * 2];
    acc += a[idx - tidx + j];
    acc += a[tidy * w + tidx + j];
    acc += a[tidx * j];
    acc += s[-tidy * 8 + 31 - tidx + j];
  }
  for (int t = tidx; t < 8; t++)
    acc += s[tidx + t];
  o[idy][idx] = acc;
  o[idy][idx - tidx + (tidx - tidx)] = acc;
}|}
    (2, 2) (8, 4)
    [ ("a", ramp 256) ];
  (* two opaque dimensions: the scratch plane combining them must not be
     a temporary of the second dimension's fill *)
  run_src "multi-plane index"
    {|__kernel void m(float a[64], float o[8][16]) {
  o[tidy % 8][tidx % 8 + tidx % 1] = a[idx];
}|}
    (1, 1) (8, 4)
    [ ("a", ramp 64) ];
  run_src "lane-affine guarded store"
    {|__kernel void g(float a[64], float o[4][64]) {
  if (tidx < 8) o[tidy][idx * 2 + 1] = a[idx];
  if (tidx < 8) o[tidy + 2][bidx * 16] = a[idx];
}|}
    (2, 1) (16, 2)
    [ ("a", ramp 64) ];
  run_src "lane-affine load out of bounds"
    {|__kernel void oob(float a[64], float o[64]) {
  o[idx] = a[idx + 1];
}|}
    (1, 1) (64, 1)
    [ ("a", ramp 64) ];
  run_src "lane-affine store out of bounds"
    {|__kernel void oob(float a[64], float o[64]) {
  if (tidx > 3) o[66 - tidx] = a[idx];
}|}
    (1, 1) (64, 1)
    [ ("a", ramp 64) ];
  let edges =
    [| Float.nan; Float.infinity; Float.neg_infinity; -0.0; 0.0; 1.0; -2.5;
       3.0e38 |]
  in
  let a = Array.init 64 (fun i -> edges.(i mod 8)) in
  let b = Array.init 64 (fun i -> edges.(i / 8 mod 8)) in
  (* uniforms: a[0] nan, a[1] inf, a[3] -0.0, b[16] -inf, b[32] 0.0 *)
  run_src "float operators on edge values"
    {|__kernel void fe(float a[64], float b[64], float o[32][64]) {
  float x = a[idx];
  float y = b[idx];
  o[0][idx] = x + y;
  o[1][idx] = x + a[3];
  o[2][idx] = b[32] + y;
  o[3][idx] = x - y;
  o[4][idx] = x - a[1];
  o[5][idx] = b[16] - y;
  o[6][idx] = x * y;
  o[7][idx] = x * a[0];
  o[8][idx] = b[32] * y;
  o[9][idx] = x / y;
  o[10][idx] = x / a[3];
  o[11][idx] = b[32] / y;
  o[12][idx] = fmaxf(x, y);
  o[13][idx] = fmaxf(x, a[3]);
  o[14][idx] = fmaxf(b[32], y);
  o[15][idx] = fminf(x, y);
  o[16][idx] = fminf(x, a[0]);
  o[17][idx] = fminf(b[16], y);
  o[18][idx] = x < y ? x : y;
  o[19][idx] = x < a[3] ? a[1] : y;
  o[20][idx] = b[32] < y ? x : b[16];
  if (x < y) { o[21][idx] = x; } else { o[21][idx] = y; }
  float s = 0;
  s = x;
  s += y;
  s -= a[3];
  s = s * 0.5;
  s += x * y;
  s -= a[1] * y;
  o[22][idx] = s;
  s = a[3];
  o[23][idx] = s;
  o[24][idx] = b[16];
  o[25][idx] = -x;
  o[26][idx] = sqrtf(x) + fabsf(y);
  o[a[1] < 0.0 ? 28 : 27][idx] = x;
}|}
    (1, 1) (64, 1)
    [ ("a", a); ("b", b) ]

(** The vector plan of [k] at [launch]. *)
let plan label (k : Gpcc_ast.Ast.kernel) launch =
  match Gpcc_sim.Vector.compile k launch with
  | Ok code -> code
  | Error m -> Alcotest.failf "%s: vector plan refused: %s" label m

(** The plan's count of guards it evaluates lane by lane. *)
let varying_guards label k launch =
  (plan label k launch).Gpcc_sim.Vector.co_varying_guards

(** Uniformity the plan derives from the launch and the kernel text: a
    block dimension of 1 makes [tidx]/[tidy] the constant 0 and
    [idx]/[idy] the block index, and an [int] local whose uniform
    initializer is its only write is a uniform register wherever it is
    declared. Guards over such values stay scalar. A guard that still
    varies by lane hands its mask on when its lanes agree and divides
    it when they split. *)
let test_vector_uniform_guards () =
  let unit_dims =
    {|__kernel void u(float a[4096], float o[64][64]) {
  __shared__ float s[64];
  s[tidx + tidy] = a[idy * 64 + idx];
  __syncthreads();
  float acc = s[tidy * 2 + tidx];
  if (tidx < 1) acc += s[tidy + 1];
  if (tidy < 16) {
    acc += a[idx * 64 + idy];
    if (idx < 1) acc += 2.0;
  }
  if (idx < 40) acc += a[idy + idx * 2];
  if (idy > 40) { acc += 1.0; } else { acc -= a[idx + tidy]; }
  for (int i = tidx; i < 4; i++) acc += a[i + idy + tidy];
  o[idy][idx] = acc;
}|}
  in
  List.iter
    (fun (bx, by) ->
      run_src
        (Printf.sprintf "unit dims (%d,%d)" bx by)
        unit_dims (2, 2) (bx, by)
        [ ("a", ramp 4096) ])
    [ (32, 1); (1, 32) ];
  (* along the unit dimension only the other index's guards vary *)
  let k = parse_kernel unit_dims in
  let launch block_x block_y =
    { Gpcc_ast.Ast.grid_x = 2; grid_y = 2; block_x; block_y }
  in
  Alcotest.(check int) "(32,1) lane-varying guards" 3
    (varying_guards "unit dims" k (launch 32 1));
  Alcotest.(check int) "(1,32) lane-varying guards" 2
    (varying_guards "unit dims" k (launch 1 32));
  (* [base], [d] (under a divergent branch), [off] (in a loop) and [g]
     (from a uniform load) are uniform registers; [t] is reassigned and
     [row] varies, so both stay planes *)
  let locals =
    {|__kernel void loc(float a[4096], float o[4][64]) {
  float acc = 0;
  int base = bidx * 32;
  int row = idy;
  int t = bidy;
  t = t + 1;
  int g = a[bidy * 2] > 0.0 ? 3 : 1;
  if (tidx < 7) {
    int d = base + 2;
    acc += a[d * 16 + tidx];
    if (d > 2) acc += 1.0;
  }
  for (int i = 0; i < 4; i++) {
    int off = i * 8 + base;
    acc += a[off + tidx + row * 8];
    if (tidx < off - base) acc += 0.5;
    if (off > 9) acc += 0.25;
  }
  if (t < 2) acc += a[t * 64 + tidx];
  if (row < g) acc -= 1.0;
  if (g > 2) acc += 3.0;
  o[idy][idx] = acc + g;
}|}
  in
  run_src "uniform int locals" locals (2, 2) (32, 2) [ ("a", ramp 4096) ];
  Alcotest.(check int) "uniform locals: lane-varying guards" 4
    (varying_guards "uniform int locals" (parse_kernel locals) (launch 32 2));
  (* lane-affine against uniform, each comparison and side order: as
     [i] runs, every guard goes from unanimous to split and back, and
     the last one does so under a partial mask *)
  let sweep =
    {|__kernel void sw(float a[4096], float o[64][64]) {
  float acc = 0;
  for (int i = 0; i < 40; i++) {
    if (i < idy) acc += a[i * 64 + idx];
    if (tidx + 3 <= i) acc += 1.0;
    if (idx - i > 5) { acc -= 0.5; } else { acc += 0.25; }
    if (2 * tidy - tidx >= i - 20) acc *= 0.5;
    if (tidx < 8) {
      if (i < idy) acc += 2.0;
    }
  }
  o[idy][idx] = acc;
}|}
  in
  run_src "guard sweep" sweep (2, 2) (16, 16) [ ("a", ramp 4096) ];
  Alcotest.(check int) "guard sweep: lane-varying guards" 6
    (varying_guards "guard sweep" (parse_kernel sweep) (launch 16 16))

(** strsm's thread-merged guards [if (i + k < inv + q)] read
    [int inv = idy * 32]; at the recorded configuration (grid (4,4),
    block (32,1)) [idy] is the block index, so every copy is a scalar
    guard and only [tidx < 16] varies by lane. *)
let test_vector_strsm_guards () =
  let w = Gpcc_workloads.Registry.find_exn "strsm" in
  let n = 128 in
  let r = compile ~target:32 ~degree:32 (W.parse w n) in
  Alcotest.(check (list int))
    "strsm-opt launch" [ 4; 4; 32; 1 ]
    Gpcc_ast.Ast.
      [ r.launch.grid_x; r.launch.grid_y; r.launch.block_x; r.launch.block_y ];
  Alcotest.(check int) "strsm-opt lane-varying guards" 1
    (varying_guards "strsm-opt" r.kernel r.launch);
  bit_identical "strsm-opt (32,32)"
    (exec ~backend:L.Reference ~jobs:1 ~mode:L.Full w n r.kernel r.launch)
    (exec ~backend:L.Vector ~jobs:1 ~mode:L.Full w n r.kernel r.launch)

(** The plan's count of loops that run lane-outer. *)
let lane_outer label k launch =
  (plan label k launch).Gpcc_sim.Vector.co_lane_outer

(** The plan's count of loops whose counter is lane-affine. *)
let affine_loops label k launch =
  (plan label k launch).Gpcc_sim.Vector.co_affine_loops

(** Register-only inner loops run in a trip pass and a lane-outer values
    pass; outputs, statistics and runtime errors must stay those of the
    reference. [src] must plan [want] such loops at [block]. *)
let lane_outer_src ?cfg ~want label src grid block inputs =
  let bx, by = block and gx, gy = grid in
  let launch =
    { Gpcc_ast.Ast.grid_x = gx; grid_y = gy; block_x = bx; block_y = by }
  in
  Alcotest.(check int)
    (label ^ ": lane-outer loops")
    want
    (lane_outer label (parse_kernel src) launch);
  run_src ?cfg label src grid block inputs

(** Every leaf kind (global and shared lane-affine sites, uniform loads,
    an [int] uniform, a loop-invariant local, temporaries) in every
    accumulation shape, under guards and partial masks, with edge
    values and every runtime error at a middle trip; bodies whose
    statements share or read accumulators; near-misses that must keep
    the trip-by-trip plan. Then the plan count at the recorded
    configurations. *)
let test_vector_lane_outer () =
  let a = ramp 4096 in
  lane_outer_src ~want:1 "leaf kinds and shapes"
    {|#pragma gpcc dim w 8
__kernel void lo(float a[64][64], float s0[64], float o[32][64], int w) {
  __shared__ float sh[96];
  sh[tidy * 32 + tidx] = s0[tidx] + tidy;
  if (tidy < 1) sh[tidx + 64] = s0[tidx + 32];
  __syncthreads();
  float inv = a[idy][idx];
  float c0 = 0; float c1 = 1; float c2 = 0; float c3 = 0; float c4 = 0;
  float c5 = 0; float c6 = 0; float c7 = 0; float c8 = 0; float c9 = 0;
  float c10 = 0; float c11 = 0;
  for (int i = 0; i < w; i++) {
    c0 += a[i][idx] * a[idy][i];
    c1 -= a[i + 1][idx] * s0[i];
    c2 = a[idy][idx + i] * inv + c2;
    c3 += sh[tidx + i];
    c4 += i * sh[i];
    c5 += i * 3;
    c6 -= s0[i + w];
    c7 = inv + c7;
    c8 += i;
    c9 += 2 * a[i][idx];
    c10 += sh[tidx + i] * sh[tidy * 32 + i];
    float t = a[i + 2][idx - tidx + tidy];
    float u = s0[2 * i] * 0.5;
    c11 = t * u + c11;
  }
  o[idy][idx] = c0; o[2 + idy][idx] = c1; o[4 + idy][idx] = c2;
  o[6 + idy][idx] = c3; o[8 + idy][idx] = c4; o[10 + idy][idx] = c5;
  o[12 + idy][idx] = c6; o[14 + idy][idx] = c7; o[16 + idy][idx] = c8;
  o[18 + idy][idx] = c9; o[20 + idy][idx] = c10; o[22 + idy][idx] = c11;
}|}
    (2, 1) (32, 2)
    [ ("a", a); ("s0", ramp 64) ];
  (* the mm-opt and strsm-opt shape: a temporary shared by sixteen
     statements, half under block-uniform guards (one with an else);
     the loop that stages [ls] stores, so it stays trip by trip *)
  let staged =
    {|#pragma gpcc dim w 32
__kernel void st(float l[64][64], float b[64][64], float x[64][64], int w) {
  __shared__ float ls[16][32];
  float s0 = 0; float s1 = 0; float s2 = 0; float s3 = 0;
  float s4 = 0; float s5 = 0; float s6 = 0; float s7 = 0;
  float s8 = 0; float s9 = 0; float s10 = 0; float s11 = 0;
  float s12 = 0; float s13 = 0; float s14 = 0; float s15 = 0;
  int inv = idy * 16;
  for (int i = 0; i < w; i += 16) {
    for (int q = 0; q < 16; q++)
      ls[q][tidx] = l[inv + q][i + tidx];
    __syncthreads();
    for (int k = 0; k < 16; k++) {
      float r = b[i + k][idx];
      if (i + k < inv + 0) { s0 += ls[0][k] * r; }
      if (i + k < inv + 1) { s1 += ls[1][k] * r; }
      if (i + k < inv + 2) { s2 += ls[2][k] * r; }
      if (i + k < inv + 3) { s3 += ls[3][k] * r; } else { s4 -= ls[4][k] * r; }
      if (i + k < inv + 5) {
        s5 += ls[5][k] * r;
        if (k > 7) s6 = ls[6][k] * r + s6;
      }
      s7 += ls[7][k] * r;
      s8 += ls[8][k] * r;
      s9 -= ls[9][k] * r;
      s10 += ls[10][k] * r;
      s11 = ls[11][k] * r + s11;
      s12 += ls[12][k] * r;
      s13 += ls[13][k] * r;
      s14 += ls[14][k] * r;
      s15 += r;
    }
    __syncthreads();
  }
  x[inv + 0][idx] = s0; x[inv + 1][idx] = s1; x[inv + 2][idx] = s2;
  x[inv + 3][idx] = s3; x[inv + 4][idx] = s4; x[inv + 5][idx] = s5;
  x[inv + 6][idx] = s6; x[inv + 7][idx] = s7; x[inv + 8][idx] = s8;
  x[inv + 9][idx] = s9; x[inv + 10][idx] = s10; x[inv + 11][idx] = s11;
  x[inv + 12][idx] = s12; x[inv + 13][idx] = s13; x[inv + 14][idx] = s14;
  x[inv + 15][idx] = s15;
}|}
  in
  lane_outer_src ~want:1 "sixteen statements, shared temporary, guards"
    staged (2, 4) (32, 1)
    [ ("l", ramp 4096); ("b", Array.map (fun v -> v /. 7.) a) ];
  (* partial masks: a contiguous and a scattered one; under [tidx < 8]
     the site [a1[tidx * 7 + i]] stays in bounds although the full
     mask would leave the array *)
  lane_outer_src ~want:3 "partial masks"
    {|__kernel void pm(float a[64][64], float a1[64], float o[64]) {
  float acc = 0;
  float acc2 = 0;
  if (tidx < 20) {
    for (int i = 0; i < 16; i++) {
      acc += a[i][idx] * a[i + 16][idx + 1];
      acc2 += a[i][idx];
    }
  }
  if (tidx % 3 == 1) {
    for (int i = 0; i < 8; i++) acc -= a[idx][i] * a1[i];
  }
  if (tidx < 8) {
    for (int i = 0; i < 8; i++) acc2 += a1[tidx * 7 + i];
  }
  o[idx] = acc + acc2;
}|}
    (2, 1) (32, 1)
    [ ("a", a); ("a1", ramp 64) ];
  (* statements that read or share accumulators replay trip by trip *)
  lane_outer_src ~want:1 "dependent statements"
    {|__kernel void dep(float a[64][64], float b[64], float o[4][64]) {
  float p = 0; float q = 1; float r = 0.5;
  for (int i = 0; i < 12; i++) {
    q += p * a[i][idx];
    p += a[i + 1][idx];
    p -= b[i] * r;
    r += r * 0.25;
    q = p + q;
  }
  o[0][idx] = p; o[1][idx] = q; o[2][idx] = r;
}|}
    (2, 1) (32, 1)
    [ ("a", a); ("b", ramp 64) ];
  let edges =
    [| Float.nan; Float.infinity; Float.neg_infinity; -0.0; 0.0; 1.0; -2.5;
       3.0e38 |]
  in
  (* [w] adds a fresh nan ([inf * 0]) to a held one: the sum must keep
     the first operand's payload, as the reference does *)
  lane_outer_src ~want:1 "edge values"
    {|__kernel void fe(float a[64][64], float b[64], float o[4][64]) {
  float s = -0.0; float t = 0; float u = 3.0e38; float w = 0;
  for (int i = 0; i < 16; i++) {
    s += a[i][idx] * b[i];
    t -= a[i][idx + 1] * a[i + 1][idx];
    u = a[i][idx] * b[i + 8] + u;
    w = b[i] * 0.0 + w;
  }
  o[0][idx] = s; o[1][idx] = t; o[2][idx] = u; o[3][idx] = w;
}|}
    (2, 1) (32, 1)
    [
      ("a", Array.init 4096 (fun i -> edges.((i * 5 + (i / 64)) mod 8)));
      ("b", Array.init 64 (fun i -> edges.((i * 3) mod 8)));
    ];
  (* runtime errors at a middle trip, each with the reference's text *)
  let errs =
    [
      ( "global site out of range",
        "acc += a[i * 8 + idx] * 2.0;",
        "out-of-bounds load a[64] (size 64)" );
      ( "shared site out of range",
        "acc += sh[tidx + i];",
        "out-of-bounds shared load sh[40] (size 40)" );
      ( "uniform leaf out of range",
        "acc += a[idx] * b[i * 10];",
        "out-of-bounds load b[70] (size 64)" );
      ( "two bad sites in one trip",
        "acc += a[i * 8 + idx] * c[i * 8 + idx];",
        "out-of-bounds load a[64] (size 64)" );
      ( "bad sites in two statements",
        "acc += b[idx]; acc2 -= c[idx + i * 4] * d[idx + i * 4];",
        "out-of-bounds load d[48] (size 48)" );
      ( "negative index",
        "acc += a[idx - i * 4];",
        "out-of-bounds load a[-4] (size 64)" );
      ( "division by zero",
        "acc += a[idx] * b[8 / (4 - i)];",
        "division by zero" );
      ( "division by zero in a site",
        "acc += a2[8 / (4 - i)][idx];",
        "division by zero" );
    ]
  in
  List.iter
    (fun (label, stmt, msg) ->
      let src =
        Printf.sprintf
          {|__kernel void e(float a[64], float b[64], float c[64], float d[48], float a2[16][64], float o[64]) {
  __shared__ float sh[40];
  sh[tidx] = b[tidx];
  if (tidx < 8) sh[tidx + 32] = b[tidx + 32];
  __syncthreads();
  float acc = 0;
  float acc2 = 0;
  for (int i = 0; i < 16; i++) {
    %s
  }
  o[idx] = acc + acc2;
}|}
          stmt
      in
      let k = parse_kernel src in
      let launch =
        { Gpcc_ast.Ast.grid_x = 1; grid_y = 1; block_x = 32; block_y = 1 }
      in
      (match
         L.run ~mode:L.Full ~backend:L.Reference ~jobs:1 cfg280 k launch
           (Gpcc_sim.Devmem.of_kernel k)
       with
      | _ -> Alcotest.failf "%s: the reference did not fail" label
      | exception Gpcc_sim.Interp.Runtime_error m ->
          Alcotest.(check string) (label ^ ": reference error") msg m);
      lane_outer_src ~want:1 label src (1, 1) (32, 1)
        [
          ("a", ramp 64);
          ("b", ramp 64);
          ("c", ramp 64);
          ("d", ramp 48);
          ("a2", ramp 1024);
        ])
    errs;
  (* near-misses keep the trip-by-trip plan and its results *)
  lane_outer_src ~want:0 "store in the body"
    {|__kernel void ns(float a[64][64], float o[64][64]) {
  float acc = 0;
  for (int i = 0; i < 8; i++) {
    acc += a[i][idx];
    o[i][idx] = acc;
  }
}|}
    (2, 1) (32, 1)
    [ ("a", a) ];
  lane_outer_src ~want:1 "lane-varying guard in the body"
    {|__kernel void ng(float a[64][64], float o[64]) {
  float acc = 0;
  for (int i = 0; i < 8; i++) {
    if (tidx < i * 4) acc += a[i][idx];
  }
  o[idx] = acc;
}|}
    (2, 1) (32, 1)
    [ ("a", a) ];
  lane_outer_src ~want:0 "guard not monotone in the loop variable"
    {|__kernel void nm(float a[64][64], float o[64]) {
  float acc = 0;
  for (int i = 0; i < 8; i++) {
    if ((tidx + i) % 2 == 0) acc += a[i][idx];
  }
  o[idx] = acc;
}|}
    (2, 1) (32, 1)
    [ ("a", a) ];
  lane_outer_src ~want:0 "temporary read from an accumulator"
    {|__kernel void nt(float a[64][64], float o[64]) {
  float acc = 0;
  float acc2 = 0;
  for (int i = 0; i < 8; i++) {
    acc += a[i][idx];
    float t = acc;
    acc2 += t;
  }
  o[idx] = acc + acc2;
}|}
    (2, 1) (32, 1)
    [ ("a", a) ];
  (* a thread builtin as a leaf varies by lane, so its loop keeps the
     trip-by-trip plan; along a block dimension of 1 it is uniform *)
  let builtin_leaf stmt =
    Printf.sprintf
      {|__kernel void tb(float a[64][64], float o[64][64]) {
  float acc = 0;
  for (int i = 0; i < 8; i++) {
    %s
  }
  o[idy][idx] = acc;
}|}
      stmt
  in
  List.iter
    (fun cfg ->
      let name = cfg.Gpcc_sim.Config.name in
      List.iter
        (fun (want, block, stmt) ->
          let bx, by = block in
          lane_outer_src ~cfg ~want
            (Printf.sprintf "leaf %S at (%d,%d)@%s" stmt bx by name)
            (builtin_leaf stmt) (2, 2) block [ ("a", a) ])
        [
          (0, (16, 4), "acc += a[i][idx] * tidx;");
          (0, (16, 4), "acc += idx;");
          (0, (16, 4), "float t = tidy; acc += t * a[i][idx];");
          (0, (16, 4), "acc += a[i][idx] * (tidy + i);");
          (1, (1, 16), "acc += a[i][idx] * tidx;");
          (1, (16, 1), "float t = tidy + i; acc += t * a[i][idx];");
        ])
    [ cfg280; cfg8800 ];
  (* the recorded configurations of perfbench's winners *)
  let at name n target degree =
    let w = Gpcc_workloads.Registry.find_exn name in
    let k = W.parse w n in
    let r = compile ~target ~degree k in
    ( (name ^ "/naive", k, Option.get (Gpcc_passes.Pass_util.naive_launch k)),
      (name ^ "/opt", r.kernel, r.launch) )
  in
  let cublas name n =
    let c = Option.get (Gpcc_workloads.Cublas_sim.find name) in
    ("cublas_" ^ name, Gpcc_workloads.Cublas_sim.kernel c n, c.c_launch n)
  in
  let pin want (label, k, launch) =
    let got = lane_outer label k launch in
    if (want > 0 && got < want) || (want = 0 && got <> 0) then
      Alcotest.failf "%s: %d lane-outer loops, want %s" label got
        (if want = 0 then "0" else Printf.sprintf ">= %d" want)
  in
  let both ?(naive = 1) ?(opt = 1) (n, o) =
    pin naive n;
    pin opt o
  in
  both (at "conv" 128 32 16);
  both (at "mm" 128 32 16);
  both (at "tmv" 128 16 1);
  both (at "mv" 128 16 1);
  (* rd's grid-stride loop runs lane-outer over a lane-affine counter *)
  both ~naive:2 ~opt:2 (at "rd" 131072 128 1);
  both (at "strsm" 128 32 32);
  pin 1 (cublas "mm" 128);
  pin 1 (cublas "strsm" 128);
  pin 3 (cublas "rd" 131072);
  (* the loops whose counter is lane-affine: the grid-stride loops of
     the rd family and the staging loops of the coalescing pass *)
  let affine want (label, k, launch) =
    Alcotest.(check int) (label ^ ": lane-affine loops") want
      (affine_loops label k launch)
  in
  let rd_naive, rd_opt = at "rd" 131072 128 1 in
  let rdc_naive, rdc_opt = at "rd-complex" 131072 64 1 in
  List.iter (affine 1)
    [ rd_naive; rd_opt; rdc_naive; rdc_opt; cublas "rd" 131072 ];
  affine 1 (snd (at "conv" 128 32 16));
  affine 3 (snd (at "demosaic" 128 32 1));
  affine 3 (snd (at "imregionmax" 128 128 1))

(** Window guards (see the lane-outer note in {!Gpcc_sim.Vector}): a
    guard comparing the loop variable with a lane-affine term holds on
    one window of trips per lane. The strsm shapes, every comparison
    and branch, windows that open mid-loop, blocks where no lane's or
    every lane's window is open, a partial loop mask, a lane count that
    is not a multiple of 16, out-of-bounds leaves inside and only
    outside the windows, and edge values, on both machines. *)
let test_vector_lane_windows cfg () =
  let name = cfg.Gpcc_sim.Config.name in
  let win ?(want = 1) label src grid block inputs =
    lane_outer_src ~cfg ~want (label ^ "@" ^ name) src grid block inputs
  in
  let a = ramp 4096 in
  let strsm =
    {|#pragma gpcc dim w 64
__kernel void sn(float l[64][64], float b[64][64], float x[64][64], int w) {
  float sum = 0;
  for (int i = 0; i < w; i++) {
    if (i < idy) {
      sum += l[idy][i] * b[i][idx];
    }
  }
  x[idy][idx] = b[idy][idx] + sum;
}|}
  in
  win "i < idy" strsm (4, 4) (16, 16)
    [ ("l", a); ("b", Array.map (fun v -> v /. 3.) a) ];
  let edges =
    [| Float.nan; Float.infinity; Float.neg_infinity; -0.0; 0.0; 1.0; -2.5;
       3.0e38 |]
  in
  win "i < idy, edge values" strsm (4, 4) (16, 16)
    [
      ("l", Array.init 4096 (fun i -> edges.((i * 5 + (i / 64)) mod 8)));
      ("b", Array.init 4096 (fun i -> edges.((i * 3) mod 8)));
    ];
  win "m + kk < idy under an outer loop with barriers"
    {|#pragma gpcc dim w 64
__kernel void cs(float l[64][64], float b[64][64], float x[64][64], int w) {
  float sum = 0;
  __shared__ float bs[16][17];
  for (int m = 0; m < w; m += 16) {
    bs[tidy][tidx] = b[m + tidy][idx];
    __syncthreads();
    for (int kk = 0; kk < 16; kk++) {
      if (m + kk < idy) {
        sum += l[idy][m + kk] * bs[kk][tidx];
      }
    }
    __syncthreads();
  }
  x[idy][idx] = b[idy][idx] + sum;
}|}
    (4, 4) (16, 16)
    [ ("l", a); ("b", Array.map (fun v -> v /. 7.) a) ];
  (* every comparison, else branches, nested windows, a window under a
     uniform guard and one over it; [tidx < 4 * i] opens mid-loop *)
  let forms =
    {|__kernel void wf(float a[64][64], float s0[64], float o[8][64]) {
  float c0 = 0; float c1 = 0; float c2 = 0; float c3 = 0; float c4 = 0;
  float c5 = 0; float c6 = 0;
  for (int i = 0; i < 16; i++) {
    if (tidx < 4 * i) c0 += a[i][idx];
    if (tidx <= i + 3) { c1 += a[i][idx] * a[idy][i]; } else { c2 -= a[i + 1][idx]; }
    if (i > tidx - 5) c3 = a[i][idx] + c3;
    if (2 * i >= tidx + tidy) {
      if (i < 12) c4 += a[i][idx] * s0[i];
      if (tidy + 8 > i) c5 += 1.5;
    }
    if (i > 3) {
      if (tidx >= i * 2) { c6 += s0[i + 1]; }
    }
  }
  o[0][idx] = c0; o[1][idx] = c1; o[2][idx] = c2; o[3][idx] = c3;
  o[4][idx] = c4; o[5][idx] = c5; o[6][idx] = c6;
}|}
  in
  List.iter
    (fun (bx, by) ->
      win
        (Printf.sprintf "every comparison (%d,%d)" bx by)
        forms (2, 1) (bx, by)
        [ ("a", a); ("s0", ramp 64) ])
    [ (32, 1); (16, 2); (20, 3) ];
  (* windows open on every lane for the whole loop, on none, and under a
     partial loop mask *)
  win ~want:3 "all, none and partial masks"
    {|__kernel void wa(float a[64][64], float o[64]) {
  float acc = 0; float acc2 = 0; float acc3 = 0;
  for (int i = 0; i < 8; i++) {
    if (tidx < 100 + i) acc += a[i][idx];
  }
  for (int i = 0; i < 8; i++) {
    if (tidx > 40 + i) { acc2 += a[i][idx]; } else { acc2 -= 0.5; }
  }
  if (tidx % 3 == 1) {
    for (int i = 0; i < 12; i++) {
      if (tidx < i * 2) acc3 += a[i][idx + 1];
    }
  }
  o[idx] = acc + acc2 + acc3;
}|}
    (2, 1) (32, 1)
    [ ("a", a) ];
  (* a leaf out of bounds inside some lanes' windows fails like the
     reference; one out of bounds only outside them is never read *)
  win "out of bounds inside a window"
    {|__kernel void wo(float a[64], float o[64]) {
  float acc = 0;
  for (int i = 0; i < 16; i++) {
    if (tidx < i) acc += a[tidx * 4 + 40 - i];
  }
  o[idx] = acc;
}|}
    (1, 1) (32, 1)
    [ ("a", ramp 64) ];
  win "out of bounds only outside the windows"
    {|__kernel void wi(float a[64], float o[64]) {
  float acc = 0;
  for (int i = 0; i < 16; i++) {
    if (tidx < i) acc += a[tidx * 3 + 16 - i];
  }
  o[idx] = acc;
}|}
    (1, 1) (32, 1)
    [ ("a", ramp 64) ]

(** The one accounting pass (see the lane-outer note in
    {!Gpcc_sim.Vector}): sites whose base moves by a step that does not
    divide the memo granularity, zero-trip loops, a byte cost that a
    batched add would round (a float2 load at a width efficiency below
    1 on the GTX 280), and multi-block grids whose stream blocks record
    their transactions, on both machines. Bounds that fail at a middle
    trip are the error cases of "vector == reference on lane-outer
    loops". *)
let test_vector_one_pass cfg () =
  let name = cfg.Gpcc_sim.Config.name in
  let one ?(want = 1) label src grid block inputs =
    lane_outer_src ~cfg ~want (label ^ "@" ^ name) src grid block inputs
  in
  let odd_steps =
    {|#pragma gpcc dim w 12
__kernel void ob(float a[64][64], float a1[1024], float b[256], float o[8][64], int w) {
  float c0 = 0; float c1 = 0; float c2 = 0;
  for (int i = 0; i < w; i++) {
    c0 += a1[idx + 3 * i] * b[5 * i + 1];
    c1 -= a1[idx * 2 + 7 * i + 5];
  }
  for (int j = 1; j < 40; j += 3) {
    c2 = a[j][idx] * b[j * 2 + 3] + c2;
  }
  o[0][idx] = c0; o[1][idx] = c1; o[2][idx] = c2;
}|}
  in
  (* 60 lanes: a partial last half warp *)
  List.iter
    (fun (bx, by) ->
      one ~want:2
        (Printf.sprintf "odd base steps (%d,%d)" bx by)
        odd_steps (4, 2) (bx, by)
        [ ("a", ramp 4096); ("a1", ramp 1024); ("b", ramp 256) ])
    [ (32, 2); (20, 3) ];
  one ~want:2 "zero-trip loops"
    {|#pragma gpcc dim w 8
__kernel void zt(float a[64][64], float o[64], int w) {
  float acc = 1;
  for (int i = 0; i < 0; i++) acc += a[i][idx];
  for (int i = w; i < 4; i++) acc -= a[i][idx] * 2.0;
  o[idx] = acc;
}|}
    (2, 1) (32, 1)
    [ ("a", ramp 4096) ];
  (* the parser has no vector loads: [p]'s initializer becomes one *)
  let k =
    parse_kernel
      {|__kernel void fw(float a[64][64], float v[256], float o[64]) {
  float2 p = make_float2(v[idx], v[idx]);
  float acc = p.x + p.y;
  for (int i = 0; i < 16; i++) acc += a[i][idx] * a[idx][i];
  o[idx] = acc;
}|}
  in
  let vload =
    Gpcc_ast.Ast.Vload
      { v_arr = "v"; v_width = 2; v_index = Gpcc_ast.Ast.Builtin Idx }
  in
  let k =
    {
      k with
      k_body =
        List.map
          (function
            | Gpcc_ast.Ast.Decl ({ d_name = "p"; _ } as d) ->
                Gpcc_ast.Ast.Decl { d with d_init = Some vload }
            | s -> s)
          k.k_body;
    }
  in
  let label = "float2 load before the loop@" ^ name in
  let launch =
    { Gpcc_ast.Ast.grid_x = 2; grid_y = 1; block_x = 32; block_y = 1 }
  in
  Alcotest.(check int)
    (label ^ ": lane-outer loops")
    1
    (lane_outer label k launch);
  run_kernel ~cfg label k (2, 1) (32, 1) [ ("a", ramp 4096); ("v", ramp 256) ]

(** Lane-affine loop counters (see the lane-affine counter note in
    {!Gpcc_sim.Vector}): grid-stride loops whose lanes run different
    trip counts or none, staging loops with a partial last trip (whole
    half warps and not), the counter read as a value, in a guard and
    inside a nested uniform loop, a lane-affine loop nested in another,
    a limit that loads, negative and 2-D coefficients, partial
    incoming masks and 60-lane blocks, out-of-bounds reads in some
    lanes' last trip, and the near-misses that keep the plane counter,
    each in Full, Sampled and block-budget runs on machine [cfg]. Then
    the zero-coefficient [int] local rule and its near-misses. *)
let test_vector_affine_counters cfg () =
  let name = cfg.Gpcc_sim.Config.name in
  let a = ramp 4096 in
  let aff ~affine ~outer label src grid block inputs =
    let label = label ^ "@" ^ name in
    let bx, by = block and gx, gy = grid in
    let k = parse_kernel src in
    let launch =
      { Gpcc_ast.Ast.grid_x = gx; grid_y = gy; block_x = bx; block_y = by }
    in
    Alcotest.(check int) (label ^ ": lane-affine loops") affine
      (affine_loops label k launch);
    Alcotest.(check int) (label ^ ": lane-outer loops") outer
      (lane_outer label k launch);
    run_kernel ~cfg label k grid block inputs;
    run_kernel ~cfg ~mode:(L.Sampled 4) (label ^ "/sampled") k grid block
      inputs;
    run_kernel ~cfg ~streams:2 ~block_budget:1 (label ^ "/budget") k grid
      block inputs
  in
  (* rd's grid-stride partial sums over a multi-phase grid: [len] not a
     multiple of [nt], [len < nt] (some lanes, then a whole block, run
     no trip), an even split (the one accounting pass) and 60-lane
     blocks *)
  let grid_stride len nt =
    Printf.sprintf
      {|#pragma gpcc dim len %d
#pragma gpcc dim nt %d
__kernel void gs(float a[4096], float partial[%d], float out[16], int len, int nt) {
  float sum = 0;
  for (int i = idx; i < len; i += nt) {
    sum += a[i];
  }
  partial[idx] = sum;
  __global_sync();
  if (idx == 0) {
    float total = 0;
    for (int j = 0; j < nt; j++) {
      total += partial[j];
    }
    out[0] = total;
  }
}|}
      len nt nt
  in
  List.iter
    (fun (len, (gx, bx)) ->
      aff ~affine:1 ~outer:2
        (Printf.sprintf "grid stride len %d over %d x %d" len gx bx)
        (grid_stride len (gx * bx))
        (gx, 1) (bx, 1) [ ("a", a) ])
    [
      (200, (2, 32));
      (40, (2, 32));
      (24, (2, 32));
      (256, (2, 32));
      (130, (2, 60));
    ];
  (* staging loops: 48 over 32 lanes and 144 over 128 leave a whole half
     warp for the last trip, 40 over 32 a partial one; one loop indexes
     through [idx - tidx + t], the other through a local [inv_0] *)
  let staging len bx =
    Printf.sprintf
      {|__kernel void stg(float img[4][320], float o[4][320]) {
  __shared__ float ap[%d];
  __shared__ float aq[%d];
  int inv_0 = idx - tidx;
  for (int t = tidx; t < %d; t += %d) {
    ap[t] = img[idy][idx - tidx + t];
  }
  for (int t = tidx; t < %d; t += %d) {
    aq[t] = img[idy][inv_0 + t] * 2.0;
  }
  __syncthreads();
  o[idy][idx] = ap[tidx] + aq[tidx + %d];
}|}
      len len len bx len bx (len - bx)
  in
  List.iter
    (fun (len, bx) ->
      aff ~affine:2 ~outer:0
        (Printf.sprintf "staging %d over %d" len bx)
        (staging len bx) (2, 4) (bx, 1)
        [ ("img", ramp 1280) ])
    [ (48, 32); (144, 128); (40, 32); (64, 32) ];
  (* the counter as a value, in a guard (a window of the lane-outer
     loop) and inside a nested uniform loop, which runs lane-outer over
     each trip's lanes *)
  aff ~affine:2 ~outer:2 "counter as a value, in a guard, nested"
    {|__kernel void cv(float a[256], float o[4][64], float o2[128]) {
  float s = 0; float g = 0; float w = 0; float h = 0;
  for (int t = tidx; t < 100; t += 32) {
    s += t;
    o2[t] = t;
    if (t < 50) { g += a[t]; } else { g -= a[t + 1]; }
    for (int j = 0; j < 3; j++) w += a[t + j];
  }
  for (int t = tidx; t < 100; t += 32) {
    if (t < 70) h += a[t] * a[t + 2];
  }
  o[0][idx] = s; o[1][idx] = g; o[2][idx] = w; o[3][idx] = h;
}|}
    (2, 1) (32, 1) [ ("a", ramp 256) ];
  (* a lane-affine loop inside another, starting at its counter, and one
     whose limit loads (evaluated over each trip's lanes) while its body
     stores and synchronizes *)
  aff ~affine:3 ~outer:1 "nested, and a limit that loads"
    {|__kernel void nl(float a[256], float o[2][64]) {
  float acc = 0;
  __shared__ float sh[128];
  for (int t = tidx; t < 70; t += 32) {
    for (int j = t; j < 90; j += 16) acc += a[j + 1];
  }
  for (int t = tidx; t < (a[0] > 0.0 ? 100 : 40); t += 32) {
    sh[t] = a[t] + acc;
    __syncthreads();
  }
  o[0][idx] = acc + sh[tidx];
}|}
    (2, 1) (32, 1) [ ("a", ramp 256) ];
  (* a negative coefficient and a 2-D pattern *)
  aff ~affine:2 ~outer:2 "31 - tidx and tidy * 16 + tidx"
    {|__kernel void cf(float a[256], float o[8][64]) {
  float acc = 0; float acc2 = 0;
  for (int t = 31 - tidx; t < 80; t += 32) acc += a[t];
  for (int t = tidy * 16 + tidx; t < 200; t += 64) acc2 += a[t + 1];
  o[tidy][tidx] = acc; o[tidy + 4][tidx] = acc2;
}|}
    (1, 1) (16, 4) [ ("a", ramp 256) ];
  (* under a partial incoming mask, in 32- and 60-lane blocks *)
  List.iter
    (fun bx ->
      aff ~affine:2 ~outer:1
        (Printf.sprintf "under tidx < 20 (%d lanes)" bx)
        {|__kernel void pm(float a[256], float o[2][64]) {
  float acc = 0; float acc2 = 0;
  if (tidx < 20) {
    for (int t = tidx; t < 50; t += 16) acc += a[t];
    for (int t = tidx; t < 50; t += 16) { acc2 += a[t]; o[1][t] = acc2; }
  }
  o[0][idx] = acc + acc2;
}|}
        (1, 1) (bx, 1) [ ("a", ramp 256) ])
    [ 32; 60 ];
  (* a read out of bounds only in some lanes' last trip raises at the
     reference's trip and lane; one that only lanes past the limit would
     make is never read; lane-outer and trip by trip *)
  List.iter
    (fun (outer, store) ->
      List.iter
        (fun off ->
          let body = Printf.sprintf "acc += a[t + %d];%s" off store in
          aff ~affine:1 ~outer body
            (Printf.sprintf
               {|__kernel void ob(float a[64], float o[64]) {
  float acc = 0;
  for (int t = tidx; t < 40; t += 32) { %s }
  o[idx] = acc;
}|}
               body)
            (1, 1) (32, 1) [ ("a", ramp 64) ])
        [ 30; 24 ])
    [ (1, ""); (0, " o[t] = acc;") ];
  (* near-misses keep the plane counter: a counter the body assigns, a
     negative, zero or runtime step, a limit that reads a lane or a name
     the body assigns, an init that is not affine *)
  List.iter
    (fun (label, loop) ->
      aff ~affine:0 ~outer:0 label
        (Printf.sprintf
           {|__kernel void nm(float a[256], float o[64]) {
  float acc = 0;
  int w = bidx + 32;
  int n = 40;
  %s
  o[idx] = acc;
}|}
           loop)
        (2, 1) (32, 1) [ ("a", ramp 256) ])
    [
      ( "assigned counter",
        "for (int t = tidx; t < 64; t += 32) { acc += a[t]; t = t + 0; }" );
      ( "negative step",
        "for (int t = tidx + 64; t < 64; t += -1) acc += a[t];" );
      ("zero step", "for (int t = tidx + 64; t < 64; t += 0) acc += a[t];");
      ("runtime step", "for (int t = tidx; t < 64; t += w) acc += a[t];");
      ( "limit reads a lane",
        "for (int t = tidx; t < tidx + 40; t += 32) acc += a[t];" );
      ( "limit the body assigns",
        "for (int t = tidx; t < n; t += 32) { acc += a[t]; n = n - 1; }" );
      ("init idx % 8", "for (int t = idx % 8; t < 64; t += 32) acc += a[t];");
    ];
  (* an [int] local whose initializer's thread coefficients cancel is a
     uniform register; one that keeps a coefficient or is reassigned
     stays a plane *)
  List.iter
    (fun (label, decl, want) ->
      let src =
        Printf.sprintf
          {|__kernel void zl(float img[4][320], float o[4][320]) {
  %s
  o[idy][idx] = img[idy][z + tidx];
}|}
          decl
      in
      let launch =
        { Gpcc_ast.Ast.grid_x = 2; grid_y = 4; block_x = 32; block_y = 1 }
      in
      Alcotest.(check int)
        (label ^ "@" ^ name ^ ": uniform registers")
        want
        (plan label (parse_kernel src) launch).Gpcc_sim.Vector.co_nuregs;
      run_src ~cfg (label ^ "@" ^ name) src (2, 4) (32, 1)
        [ ("img", ramp 1280) ])
    [
      ("int z = idx - tidx", "int z = idx - tidx;", 1);
      ("int z = idx - tidx + tidx", "int z = idx - tidx + tidx;", 0);
      ("reassigned local", "int z = idx - tidx; z = z + 0;", 0);
    ]

(** Accumulations that run trip by trip (a barrier keeps them off the
    lane-outer plan) over nans and infinities: when both operands of an
    add are nans, the sum keeps the first operand's payload, as in the
    reference. Every fused and plain shape, the accumulator on either
    side, with plane and uniform operands, on the full block and under a
    partial mask. *)
let test_vector_acc_payloads cfg () =
  let name = cfg.Gpcc_sim.Config.name in
  let edges =
    [| Float.nan; Float.infinity; Float.neg_infinity; -0.0; 0.0; 1.0; -2.5;
       3.0e38 |]
  in
  run_src ~cfg ("accumulation nan payloads@" ^ name)
    {|__kernel void np(float e[64], float a[16][64], float o[16][64]) {
  float c0 = e[tidx]; float c1 = e[tidx + 1]; float c2 = e[tidx + 2];
  float c3 = e[tidx + 3]; float c4 = e[tidx + 4]; float c5 = e[tidx + 5];
  float c6 = e[tidx + 6]; float c7 = e[tidx + 7]; float c8 = e[tidx + 8];
  float c9 = e[tidx + 9]; float c10 = e[tidx + 10]; float c11 = e[tidx + 11];
  float c12 = e[tidx + 12];
  for (int i = 0; i < 16; i++) {
    c0 = e[3] * e[i % 8] + c0;
    c1 += c1 * a[i][tidx];
    c2 = a[i][tidx] * e[tidx] + c2;
    c3 -= a[i][tidx] * c3;
    c4 += a[i][tidx] * e[1];
    c5 = a[i][tidx] * e[2] + c5;
    c6 += e[i % 8] * a[i][tidx];
    c7 = e[4] * a[i][tidx] + c7;
    c8 += a[i][tidx];
    c9 = a[i][tidx] + c9;
    c10 -= a[i][tidx];
    c11 += e[i % 8] * e[1];
    c12 = e[i % 8] + c12;
    __syncthreads();
  }
  float c13 = e[tidx + 13]; float c14 = e[tidx + 14];
  if (tidx < 20) {
    for (int i = 0; i < 16; i++) {
      c13 = e[3] * e[i % 8] + c13;
      c14 = a[i][tidx] + c14;
      o[15][idx] = c13;
    }
  }
  o[0][idx] = c0; o[1][idx] = c1; o[2][idx] = c2; o[3][idx] = c3;
  o[4][idx] = c4; o[5][idx] = c5; o[6][idx] = c6; o[7][idx] = c7;
  o[8][idx] = c8; o[9][idx] = c9; o[10][idx] = c10; o[11][idx] = c11;
  o[12][idx] = c12; o[13][idx] = c13; o[14][idx] = c14;
}|}
    (2, 1) (32, 1)
    [
      ("e", Array.init 64 (fun i -> edges.(i mod 8)));
      ("a", Array.init 1024 (fun i -> edges.((i * 5 + (i / 64)) mod 8)));
    ]

(** [src] parsed with its vector accesses written as calls, which the
    parser has no syntax for: [vld2(a, i)] ([vld4]) is the float2
    (float4) load of vector element [i] of [a], and [a[i] = vst2(e)]
    ([vst4]) the vector store of [e]. *)
let parse_vec src =
  let module A = Gpcc_ast.Ast in
  let width f = if f = "vld2" || f = "vst2" then 2 else 4 in
  let k = Gpcc_ast.Parser.kernel_of_string src in
  let body =
    Gpcc_ast.Rewrite.map_block_exprs
      (function
        | A.Call ((("vld2" | "vld4") as f), [ Var a; i ]) ->
            Some (A.Vload { v_arr = a; v_width = width f; v_index = i })
        | _ -> None)
      k.k_body
  in
  let body =
    Gpcc_ast.Rewrite.map_stmts
      (function
        | A.Assign (Lindex (a, [ i ]), Call ((("vst2" | "vst4") as f), [ e ]))
          ->
            [ A.Assign (Lvec { v_arr = a; v_width = width f; v_index = i }, e) ]
        | s -> [ s ])
      body
  in
  let k = { k with k_body = body } in
  Gpcc_ast.Typecheck.check k;
  k

(** Block-uniform accesses (every lane at one address), each accounted
    as a stable site on the zero pattern plane: global scalar, float2
    and float4 loads and stores, shared loads and stores, and the leaves
    of lane-outer loops in the one accounting pass and the trip pass;
    under the full mask, masks of whole half warps (a tail group among
    them) and other partial masks, in 24-, 32-, 60- and 64-lane blocks;
    each in Full, Sampled 4 with three streams, and a block budget of 1
    with 2 streams, on machine [cfg]. Then out-of-bounds uniform indices
    of every kind (the reference's message and place), and the
    closed-form credits of uniform loads in a loop. *)
let test_vector_block_uniform cfg () =
  let name = cfg.Gpcc_sim.Config.name in
  (* [fails]: whether the kernel must raise a runtime error *)
  let runs ?(fails = false) label k grid block inputs =
    let label = label ^ "@" ^ name in
    let inputs =
      List.filter (fun (a, _) -> List.mem a (global_arrays k)) inputs
    in
    let (grid_x, grid_y), (block_x, block_y) = (grid, block) in
    let mem = Gpcc_sim.Devmem.of_kernel k in
    List.iter (fun (n, d) -> Gpcc_sim.Devmem.write mem n d) inputs;
    let launch = { Gpcc_ast.Ast.grid_x; grid_y; block_x; block_y } in
    Alcotest.(check bool)
      (label ^ ": the reference raises")
      fails
      (match L.run ~backend:L.Reference ~jobs:1 cfg k launch mem with
      | _ -> false
      | exception Gpcc_sim.Interp.Runtime_error _ -> true);
    run_kernel ~cfg label k grid block inputs;
    run_kernel ~cfg ~mode:(L.Sampled 4) ~streams:3 (label ^ "/sampled") k grid
      block inputs;
    run_kernel ~cfg ~streams:2 ~block_budget:1 (label ^ "/budget") k grid block
      inputs
  in
  let inputs = [ ("a", ramp 64); ("v", ramp 256); ("b", ramp 1024) ] in
  let guards =
    [
      "bidx >= 0";
      "tidx < 16";
      "tidx >= 16";
      "tidx == 0";
      "tidx < 5";
      "tidx > 20";
    ]
  in
  (* statement-level sites, and a trip-by-trip loop over them *)
  let statements guard =
    Printf.sprintf
      {|__kernel void st(float a[64], float v[256], float o[2][384], float o2[256], float g[16]) {
  __shared__ float s[64];
  s[tidx] = a[tidx];
  __syncthreads();
  if (%s) {
    float x = a[bidx + 3] + s[5];
    s[bidx + 7] = x;
    float2 p = vld2(v, bidx + 1);
    float4 q = vld4(v, 2 * bidx + 5);
    g[bidx * 2] = x + p.x;
    o2[bidx + 9] = vst2(p);
    o2[bidx + 30] = vst4(q);
    o[0][idx] = x + s[bidx + 7] + p.y + q.w;
    float t = 0;
    for (int i = 0; i < 6; i++) {
      float2 r = vld2(v, 3 * i + bidx);
      t += a[i * 8] + s[i + 1] + r.y;
      o2[i + 40] = vst2(r);
      g[i + 1] = t;
      s[i + 20] = t;
      __syncthreads();
    }
    o[1][idx] = t + s[22];
  }
}|}
      guard
  in
  (* lane-outer leaves: the first loop takes the one accounting pass on
     the full mask and the trip pass under a partial one; the second is
     guarded by a uniform condition, so it always takes the trip pass *)
  let leaves guard =
    Printf.sprintf
      {|#pragma gpcc dim w 8
__kernel void lu(float a[64], float b[16][64], float o[3][384], int w) {
  __shared__ float s[64];
  s[tidx] = a[tidx];
  __syncthreads();
  float acc = 0; float acc2 = 0; float acc3 = 0;
  if (%s) {
    for (int i = 0; i < w; i++) {
      acc += a[i * 3 + bidx] * b[i][tidx];
      acc2 += s[i + 2];
    }
    for (int i = 1; i < 12; i += 2) {
      if (i < w) {
        acc3 += a[i] * b[i][tidx];
        acc3 -= s[i + bidx];
      }
    }
  }
  o[0][idx] = acc; o[1][idx] = acc2; o[2][idx] = acc3;
}|}
      guard
  in
  List.iter
    (fun bx ->
      List.iter
        (fun guard ->
          let at = Printf.sprintf " under %s (%d lanes)" guard bx in
          runs ("statement sites" ^ at)
            (parse_vec (statements guard))
            (6, 1) (bx, 1) inputs;
          let k = parse_kernel (leaves guard) in
          let launch =
            { Gpcc_ast.Ast.grid_x = 6; grid_y = 1; block_x = bx; block_y = 1 }
          in
          Alcotest.(check int)
            ("lane-outer leaves" ^ at ^ ": lane-outer loops")
            2 (lane_outer "leaves" k launch);
          runs ("lane-outer leaves" ^ at) k (6, 1) (bx, 1) inputs)
        guards)
    [ 24; 32; 60; 64 ];
  (* an out-of-bounds uniform index raises the reference's message, in
     the reference's block and trip *)
  List.iter
    (fun (label, body) ->
      let src =
        Printf.sprintf
          {|#pragma gpcc dim w 8
__kernel void ob(float a[64], float v[256], float b[16][64], float o[4][64], float o2[256], float g[16], int w) {
  __shared__ float s[64];
  s[tidx] = a[tidx];
  __syncthreads();
  float acc = 0;
  float2 p = make_float2(1.0, 2.0);
  float4 q = make_float4(1.0, 2.0, 3.0, 4.0);
  %s
  o[0][idx] = acc + p.x + q.y;
}|}
          body
      in
      List.iter
        (fun bx ->
          runs ~fails:true
            (Printf.sprintf "%s (%d lanes)" label bx)
            (parse_vec src) (4, 1) (bx, 1) inputs)
        [ 24; 32 ])
    [
      ("load out of bounds", "acc = a[bidx + 62];");
      ("store out of bounds", "g[bidx + 14] = 1.0;");
      ("float2 load out of bounds", "p = vld2(v, bidx + 126);");
      ("float4 load out of bounds", "q = vld4(v, bidx + 62);");
      ("float2 store out of bounds", "o2[bidx + 126] = vst2(p);");
      ("float4 store out of bounds", "o2[bidx + 62] = vst4(q);");
      ("shared load out of bounds", "acc = s[bidx + 62];");
      ("shared store out of bounds", "s[bidx + 63] = 1.0;");
      ( "guarded load out of bounds",
        "if (tidx == 3) { acc = a[bidx * 20 + 30]; }" );
      ( "lane-outer load out of bounds",
        "for (int i = 0; i < w; i++) acc += a[i * 9 + bidx] * b[i][tidx];" );
      ( "lane-outer shared load out of bounds",
        "for (int i = 0; i < w; i++) acc += s[i * 9 + bidx] * b[i][tidx];" );
      ( "lane-outer load out of bounds under tidx < 5",
        "if (tidx < 5) { for (int i = 0; i < w; i++) acc += a[i * 9 + bidx]; }"
      );
      ( "guarded lane-outer load out of bounds",
        "for (int i = 0; i < w; i++) { if (i > 0) acc += a[i * 9 + bidx]; }" );
    ];
  (* uniform loads in a loop run trip by trip (a barrier keeps it off
     the lane-outer plan): each trip moves the global base by 64 bytes,
     a multiple of the memo granularity, and the shared word by one, so
     every trip but each site's first is a closed-form credit *)
  let k =
    parse_kernel
      {|__kernel void ul(float a[256], float o[128]) {
  __shared__ float s[16];
  if (tidx < 16) s[tidx] = a[tidx];
  __syncthreads();
  float t = 0;
  for (int i = 0; i < 8; i++) {
    t += a[i * 16] + s[i];
    __syncthreads();
  }
  o[idx] = t;
}|}
  in
  let launch =
    { Gpcc_ast.Ast.grid_x = 2; grid_y = 1; block_x = 64; block_y = 1 }
  in
  let pc0 = L.perf_counters () in
  let mem = Gpcc_sim.Devmem.of_kernel k in
  Gpcc_sim.Devmem.write mem "a" (ramp 256);
  ignore (L.run ~backend:L.Vector ~jobs:1 cfg k launch mem);
  let pc1 = L.perf_counters () in
  let credits = L.(pc1.pc_closed_form - pc0.pc_closed_form) in
  if credits < 30 then
    Alcotest.failf
      "uniform loads in a loop@%s: %d closed-form credits, want >= 30" name
      credits;
  run_kernel ~cfg ("uniform loads in a loop@" ^ name) k (2, 1) (64, 1)
    [ ("a", ramp 256) ]

(** A single-stream probe ({!L.run_block}) records no transaction
    stream: its statistics equal those of block 0 recording one beside
    a second stream block, and its timing is that statistics' estimate
    without camping, on both backends across the registry. *)
let test_run_block_records_nothing () =
  List.iter
    (fun (w : W.t) ->
      let n = w.W.test_size in
      List.iter
        (fun (label, k, launch) ->
          List.iter
            (fun backend ->
              let mem () =
                let mem = Gpcc_sim.Devmem.of_kernel k in
                List.iter
                  (fun (name, d) -> Gpcc_sim.Devmem.write mem name d)
                  (w.W.inputs n);
                mem
              in
              let probe = L.run_block ~backend cfg280 k launch (mem ()) in
              let recorded =
                L.run ~mode:L.Full ~streams:2 ~backend ~jobs:1
                  ~block_budget:1 cfg280 k launch (mem ())
              in
              let label = label ^ "/" ^ L.backend_name backend in
              List.iter2
                (fun (f, x) (_, y) ->
                  if compare x y <> 0 then
                    Alcotest.failf "%s: stats field %s: %.17g <> %.17g" label f
                      x y)
                (stats_fields probe.L.per_block)
                (stats_fields recorded.L.per_block);
              Alcotest.(check (float 0.)) (label ^ " partition_eff") 1.0
                probe.L.partition_eff;
              let want =
                Gpcc_sim.Timing.estimate cfg280 ~per_block:recorded.L.per_block
                  ~launch
                  ~regs_per_thread:(Gpcc_analysis.Regcount.estimate k)
                  ~shared_per_block:(Gpcc_analysis.Regcount.shared_bytes k)
                  ~partition_eff:1.0
                  ~mlp:recorded.L.per_block.S.loads_in_flight
              in
              List.iter2
                (fun (f, x) (_, y) ->
                  if compare x y <> 0 then
                    Alcotest.failf "%s: timing field %s: %.17g <> %.17g" label
                      f x y)
                (timing_fields probe.L.timing) (timing_fields want))
            [ L.Vector; L.Reference ])
        (kernels_of w n))
    Gpcc_workloads.Registry.all

(** Wide-vectorized kernels (float2/float4 accesses, the AMD target's
    shape) exercise the vector backend's multi-component planes, which
    the registry's optimized GTX kernels do not. *)
let test_vector_wide_vectors () =
  let w = Gpcc_workloads.Registry.find_exn "vv" in
  let n = w.W.test_size in
  let k = W.parse w n in
  List.iter
    (fun width ->
      let launch = Option.get (Gpcc_passes.Pass_util.initial_launch k) in
      let o = Gpcc_passes.Vectorize_wide.apply ~width k launch in
      Alcotest.(check bool) "wide vectorize fired" true o.fired;
      let label = Printf.sprintf "vv/float%d" width in
      let rr =
        exec ~backend:L.Reference ~jobs:1 ~mode:L.Full w n o.kernel o.launch
      in
      let rv =
        exec ~backend:L.Vector ~jobs:1 ~mode:L.Full w n o.kernel o.launch
      in
      bit_identical label rr rv)
    [ 2; 4 ]

(** [GPCC_CHECK=1] must win over the vector backend selection: the
    dynamic race checker only sees accesses made by the serial reference
    interpreter, so a checked run of a barrier-heavy shared-memory
    kernel must fall through to it (and come back clean) even when the
    environment asks for the vector backend. *)
let test_vector_check_run () =
  let tp = Gpcc_workloads.Registry.find_exn "tp" in
  let n = tp.W.test_size in
  let k, launch = Gpcc_workloads.Sdk_transpose.new_ n in
  let plain = exec ~backend:L.Reference ~jobs:1 ~mode:L.Full tp n k launch in
  Unix.putenv "GPCC_BACKEND" "vector";
  Unix.putenv "GPCC_CHECK" "1";
  let checked =
    Fun.protect
      ~finally:(fun () ->
        Unix.putenv "GPCC_CHECK" "0";
        Unix.putenv "GPCC_BACKEND" "vector")
      (fun () ->
        let mem = Gpcc_sim.Devmem.of_kernel k in
        List.iter
          (fun (name, d) -> Gpcc_sim.Devmem.write mem name d)
          (tp.W.inputs n);
        let r = L.run ~mode:L.Full cfg280 k launch mem in
        (r, List.map (fun a -> (a, Gpcc_sim.Devmem.read mem a)) (global_arrays k)))
  in
  bit_identical "sdk_transpose GPCC_CHECK" plain checked

(** The default backend's parallel path reuses one block state per
    chunk of blocks ({!Gpcc_sim.Vector.remake_block} /
    {!Gpcc_sim.Vector.retire}); it must reproduce the serial run
    exactly, without falling back. *)
let test_parallel_matches_serial mode () =
  List.iter
    (fun (w : W.t) ->
      let n = w.W.test_size in
      List.iter
        (fun (label, k, launch) ->
          let fb0 = Gpcc_sim.Vector.fallback_count () in
          let serial = exec ~backend:L.Vector ~jobs:1 ~mode w n k launch in
          let par = exec ~backend:L.Vector ~jobs:4 ~mode w n k launch in
          Alcotest.(check int)
            (label ^ " vector without fallback")
            fb0
            (Gpcc_sim.Vector.fallback_count ());
          bit_identical (label ^ " parallel==serial") serial par)
        (kernels_of w n))
    (Gpcc_workloads.Registry.all @ Gpcc_workloads.Registry.extras)

let test_parallel_reference_matches_serial () =
  (* the parallel grid executor is backend-independent *)
  let w = Gpcc_workloads.Registry.find_exn "mm" in
  let n = w.W.test_size in
  List.iter
    (fun (label, k, launch) ->
      let serial =
        exec ~backend:L.Reference ~jobs:1 ~mode:L.Full w n k launch
      in
      let par = exec ~backend:L.Reference ~jobs:4 ~mode:L.Full w n k launch in
      bit_identical (label ^ " ref parallel==serial") serial par)
    (kernels_of w n)

let test_backend_of_env () =
  let bset v = Unix.putenv "GPCC_BACKEND" v in
  let got () = L.backend_name (L.backend_of_env ()) in
  (* the unset default is [vector]; [putenv] cannot unset, so only
     observable when the process environment left it unset *)
  if Sys.getenv_opt "GPCC_BACKEND" = None then
    Alcotest.(check string) "default" "vector" (got ());
  List.iter
    (fun (v, want) ->
      bset v;
      Alcotest.(check string) ("GPCC_BACKEND=" ^ v) want (got ()))
    [
      ("vector", "vector");
      ("vec", "vector");
      ("ref", "reference");
      ("reference", "reference");
      (* unrecognized values select the default *)
      ("", "vector");
      ("closures", "vector");
    ];
  (* leave the suite on the default backend *)
  bset "vector"

let test_unsupported_falls_back () =
  (* a float scalar parameter is outside the vector subset: the run
     must fall back to the reference interpreter and still fail with the
     reference's runtime error *)
  let k =
    Gpcc_ast.Parser.kernel_of_string
      {|__kernel void f(float s, float a[64]) {
  a[idx] = s;
}|}
  in
  let launch =
    { Gpcc_ast.Ast.grid_x = 1; grid_y = 1; block_x = 64; block_y = 1 }
  in
  let mem = Gpcc_sim.Devmem.of_kernel k in
  let reason = "unsupported scalar parameter type for s" in
  let runs () =
    Option.value ~default:0
      (List.assoc_opt reason (Gpcc_sim.Vector.fallback_reasons ()))
  in
  let fb0 = Gpcc_sim.Vector.fallback_count () and runs0 = runs () in
  (match L.run ~backend:L.Vector ~jobs:1 cfg280 k launch mem with
  | _ -> Alcotest.fail "expected a runtime error"
  | exception Gpcc_sim.Interp.Runtime_error m ->
      assert_contains "reference error surfaces" m
        "unsupported scalar parameter type");
  Alcotest.(check bool) "fallback recorded" true
    (Gpcc_sim.Vector.fallback_count () > fb0);
  Alcotest.(check int) "with its reason" (runs0 + 1) (runs ())

let suite =
  let q n f = Alcotest.test_case n `Quick f in
  let s n f = Alcotest.test_case n `Slow f in
  ( "backend",
    [
      s "vector == reference (bit-identical)"
        (test_vector_matches_reference cfg280);
      s "vector == reference on the 8800"
        (test_vector_matches_reference cfg8800);
      s "vector == reference on fuzz corpus" test_vector_fuzz_corpus;
      q "plane accounting: strided/offset/loop" test_vector_plane_accounting;
      q "vector == reference on affine/edges"
        test_vector_affine_and_float_edges;
      q "vector == reference on float2/float4" test_vector_wide_vectors;
      q "vector == reference on uniform guards" test_vector_uniform_guards;
      q "vector strsm-opt: one lane-varying guard" test_vector_strsm_guards;
      q "vector == reference on lane-outer loops" test_vector_lane_outer;
      q "vector == reference on window guards"
        (test_vector_lane_windows cfg280);
      q "vector == reference on window guards (8800)"
        (test_vector_lane_windows cfg8800);
      q "vector == reference on one-pass loops" (test_vector_one_pass cfg280);
      q "vector == reference on one-pass loops (8800)"
        (test_vector_one_pass cfg8800);
      q "vector == reference on lane-affine counters"
        (test_vector_affine_counters cfg280);
      q "vector == reference on lane-affine counters (8800)"
        (test_vector_affine_counters cfg8800);
      q "vector == reference on accumulation nan payloads"
        (test_vector_acc_payloads cfg280);
      q "vector == reference on accumulation nan payloads (8800)"
        (test_vector_acc_payloads cfg8800);
      q "vector == reference on block-uniform accesses"
        (test_vector_block_uniform cfg280);
      q "vector == reference on block-uniform accesses (8800)"
        (test_vector_block_uniform cfg8800);
      q "GPCC_CHECK wins over vector selection" test_vector_check_run;
      s "run_block records no stream" test_run_block_records_nothing;
      s "parallel Full == serial Full" (test_parallel_matches_serial L.Full);
      s "parallel Sampled == serial Sampled"
        (test_parallel_matches_serial (L.Sampled 4));
      s "reference parallel == serial" test_parallel_reference_matches_serial;
      q "GPCC_BACKEND selection" test_backend_of_env;
      q "unsupported kernels fall back" test_unsupported_falls_back;
    ] )

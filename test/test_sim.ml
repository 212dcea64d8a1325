(** Simulator tests: device memory, the coalescer's strict and relaxed
    rules, shared-memory bank conflicts, the array rules both backends
    run (checked against the list ones), the SIMT interpreter's semantics
    (divergence, loops, shared memory, vectors, grid barriers),
    occupancy, and the timing model's monotonicity. *)

open Gpcc_ast
open Gpcc_sim
open Util

(* --- devmem --- *)

let test_devmem_roundtrip () =
  let k =
    parse_kernel
      "__kernel void f(float a[10][10], float o[16]) { o[idx] = a[0][0]; }"
  in
  let mem = Devmem.of_kernel k in
  let data = Array.init 100 float_of_int in
  Devmem.write mem "a" data;
  Alcotest.(check bool) "write/read round trip" true (Devmem.read mem "a" = data);
  (* padded pitch: logical row 1 starts at padded offset 16 *)
  let a = Devmem.find_exn mem "a" in
  Alcotest.(check int) "padded offset" 16 (Devmem.offset a [ 1; 0 ]);
  Alcotest.(check (float 0.0)) "padded storage" 10.0 a.Devmem.data.{16}

let test_devmem_bases_aligned () =
  let k =
    parse_kernel
      "__kernel void f(float a[100], float b[100], float o[16]) { o[idx] = a[0] + b[0]; }"
  in
  let mem = Devmem.of_kernel k in
  let a = Devmem.find_exn mem "a" and b = Devmem.find_exn mem "b" in
  Alcotest.(check int) "a base aligned" 0 (a.Devmem.base mod 256);
  Alcotest.(check int) "b base aligned" 0 (b.Devmem.base mod 256);
  Alcotest.(check bool) "disjoint" true (b.Devmem.base >= a.Devmem.base + 400)

let test_devmem_size_mismatch () =
  let k = parse_kernel "__kernel void f(float a[10], float o[16]) { o[idx] = a[0]; }" in
  let mem = Devmem.of_kernel k in
  match Devmem.write mem "a" (Array.make 11 0.0) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "size mismatch accepted"

(* --- coalescer --- *)

let lanes16 f = List.init 16 (fun l -> (l, f l))

let test_strict_coalesced () =
  let txs =
    Coalescer.global_request Config.Strict_g80 ~min_tx:32 ~elt_bytes:4
      (lanes16 (fun l -> 1024 + (4 * l)))
  in
  Alcotest.(check int) "one transaction" 1 (List.length txs);
  Alcotest.(check int) "64 bytes" 64 (List.hd txs).Coalescer.tx_bytes

let test_strict_misaligned_serializes () =
  let txs =
    Coalescer.global_request Config.Strict_g80 ~min_tx:32 ~elt_bytes:4
      (lanes16 (fun l -> 1028 + (4 * l)))
  in
  Alcotest.(check int) "16 transactions" 16 (List.length txs);
  Alcotest.(check int) "each pays min size" 32 (List.hd txs).Coalescer.tx_bytes

let test_strict_permuted_serializes () =
  (* same segment but wrong lane order: G80 still serializes *)
  let txs =
    Coalescer.global_request Config.Strict_g80 ~min_tx:32 ~elt_bytes:4
      (lanes16 (fun l -> 1024 + (4 * (15 - l))))
  in
  Alcotest.(check int) "16 transactions" 16 (List.length txs)

let test_relaxed_misaligned () =
  (* GT200: a misaligned half warp touches two segments, not sixteen *)
  let txs =
    Coalescer.global_request Config.Relaxed_gt200 ~min_tx:32 ~elt_bytes:4
      (lanes16 (fun l -> 1028 + (4 * l)))
  in
  Alcotest.(check int) "two segments" 2 (List.length txs)

let test_relaxed_uniform () =
  let txs =
    Coalescer.global_request Config.Relaxed_gt200 ~min_tx:32 ~elt_bytes:4
      (lanes16 (fun _ -> 2048))
  in
  Alcotest.(check int) "single segment" 1 (List.length txs);
  Alcotest.(check int) "shrunk to 32B" 32 (List.hd txs).Coalescer.tx_bytes

let test_relaxed_strided () =
  (* stride-2 floats span 128 bytes: two 64B segments, twice the traffic *)
  let txs =
    Coalescer.global_request Config.Relaxed_gt200 ~min_tx:32 ~elt_bytes:4
      (lanes16 (fun l -> 4096 + (8 * l)))
  in
  Alcotest.(check int) "two segments" 2 (List.length txs);
  Alcotest.(check int) "double traffic" 128
    (List.fold_left (fun a t -> a + t.Coalescer.tx_bytes) 0 txs)

let test_float2_coalesced () =
  let txs =
    Coalescer.global_request Config.Strict_g80 ~min_tx:32 ~elt_bytes:8
      (lanes16 (fun l -> 2048 + (8 * l)))
  in
  Alcotest.(check int) "one transaction" 1 (List.length txs);
  Alcotest.(check int) "128 bytes" 128 (List.hd txs).Coalescer.tx_bytes

let test_partial_halfwarp () =
  (* inactive lanes do not break the pattern when the active ones fit it *)
  let txs =
    Coalescer.global_request Config.Strict_g80 ~min_tx:32 ~elt_bytes:4
      (List.init 4 (fun l -> (l, 1024 + (4 * l))))
  in
  Alcotest.(check int) "still one transaction" 1 (List.length txs);
  (* but an active lane off-pattern serializes everyone *)
  let txs =
    Coalescer.global_request Config.Strict_g80 ~min_tx:32 ~elt_bytes:4
      [ (0, 1024); (1, 1028); (2, 1036) ]
  in
  Alcotest.(check int) "serialized" 3 (List.length txs)

(* --- banks --- *)

let test_banks_conflict_free () =
  Alcotest.(check int) "unit stride" 1
    (Coalescer.shared_request ~banks:16 (List.init 16 (fun l -> l)));
  Alcotest.(check int) "padded stride 17" 1
    (Coalescer.shared_request ~banks:16 (List.init 16 (fun l -> 17 * l)))

let test_banks_conflicts () =
  Alcotest.(check int) "stride 16: all one bank" 16
    (Coalescer.shared_request ~banks:16 (List.init 16 (fun l -> 16 * l)));
  Alcotest.(check int) "stride 2: pairs" 2
    (Coalescer.shared_request ~banks:16 (List.init 16 (fun l -> 2 * l)))

let test_banks_broadcast () =
  Alcotest.(check int) "same word broadcasts" 1
    (Coalescer.shared_request ~banks:16 (List.init 16 (fun _ -> 5)))

(* --- array rules against the list rules ---

   Both simulator backends run [Coalescer.form] and
   [Coalescer.bank_cost]; the list functions are the readable statement
   of the rules. A case is one half warp as a mask slice presents it:
   an ascending lane subset with gaps, after [off > 0] junk slots and
   before one more. Segment-aligned bases are common, because random
   ones almost never coalesce and so hide a wrong lane position. *)

let gen_slice (gen_val : int -> int QCheck.Gen.t) =
  let open QCheck.Gen in
  let* bits =
    frequency
      [
        (1, return 0xFFFF);
        (1, map (fun k -> (1 lsl k) - 1) (int_range 1 16));
        (4, int_range 1 0xFFFF);
      ]
  in
  let pos =
    Array.of_list
      (List.filter (fun t -> bits land (1 lsl t) <> 0) (List.init 16 Fun.id))
  in
  let* hw = int_range 0 7 in
  let* off = int_range 1 4 in
  let* vals = flatten_a (Array.map gen_val pos) in
  let cnt = Array.length pos in
  let lanes = Array.make (off + cnt + 1) (-1) in
  let data = Array.make (off + cnt + 1) 3 in
  Array.iteri
    (fun t p ->
      lanes.(off + t) <- (16 * hw) + p;
      data.(off + t) <- vals.(t))
    pos;
  return (off, cnt, lanes, data)

let print_slice (off, cnt, lanes, data) =
  let ints a = String.concat ";" (List.map string_of_int (Array.to_list a)) in
  Printf.sprintf "off=%d cnt=%d lanes=[%s] vals=[%s]" off cnt
    (ints (Array.sub lanes off cnt))
    (ints (Array.sub data off cnt))

let gen_request =
  let open QCheck.Gen in
  let* rules = oneofl [ Config.Strict_g80; Config.Relaxed_gt200 ] in
  let* elt_bytes = oneofl [ 4; 8; 16 ] in
  let* min_tx = oneofl [ 32; 64 ] in
  let* base =
    frequency
      [
        (3, map2 (fun k r -> (256 * k) + r) (int_range 1 64)
              (oneofl [ 0; elt_bytes; 32 ]));
        (1, map (fun w -> 4 * w) (int_range 64 4096));
      ]
  in
  let* shape = int_range 0 5 in
  let* stride = oneofl [ 0; 4; elt_bytes; 2 * elt_bytes; -elt_bytes ] in
  let* moved = int_range 0 15 in
  let* delta = oneofl [ elt_bytes; -elt_bytes; 4; 64; 128 ] in
  let addr t =
    match shape with
    | 0 | 1 (* thread k at word k: the coalesced pattern, twice as likely *)
      ->
        return (base + (t * elt_bytes))
    | 2 -> return (base + (t * stride))
    | 3 -> return (base + ((15 - t) * elt_bytes))
    | 4 ->
        return (base + (t * elt_bytes) + if t = moved then delta else 0)
    | _ -> map (fun w -> base + (4 * w)) (int_range 0 128)
  in
  let+ slice = gen_slice addr in
  (rules, elt_bytes, min_tx, slice)

let arb_request =
  QCheck.make gen_request ~print:(fun (rules, elt_bytes, min_tx, slice) ->
      Printf.sprintf "%s elt=%d min_tx=%d %s"
        (match rules with
        | Config.Strict_g80 -> "G80"
        | Config.Relaxed_gt200 -> "GT200")
        elt_bytes min_tx (print_slice slice))

(* one scratch for every case: [form] must reset it *)
let form_scratch = Coalescer.scratch ()

let law_form_is_global_request =
  QCheck.Test.make ~count:3000 ~name:"form == global_request" arb_request
    (fun (rules, elt_bytes, min_tx, (off, cnt, lanes, addrs)) ->
      let sc = form_scratch in
      Coalescer.form rules ~min_tx ~elt_bytes sc addrs ~lanes ~off ~cnt;
      let txs =
        Coalescer.global_request rules ~min_tx ~elt_bytes
          (List.init cnt (fun t -> (lanes.(off + t) mod 16, addrs.(off + t))))
      in
      List.init sc.Coalescer.ntx (fun q ->
          (sc.Coalescer.txs.(2 * q), sc.Coalescer.txs.((2 * q) + 1)))
      = List.map (fun t -> (t.Coalescer.tx_addr, t.Coalescer.tx_bytes)) txs
      && sc.Coalescer.bytes
         = List.fold_left (fun a t -> a + t.Coalescer.tx_bytes) 0 txs)

let gen_bank_request =
  let open QCheck.Gen in
  let* banks = oneofl [ 16; 32 ] in
  let* base = int_range (-64) 4096 in
  let* shape = int_range 0 2 in
  let* stride = oneofl [ 0; 1; 2; 16; 17; 32; -1 ] in
  let word t =
    if shape < 2 then return (base + (t * stride))
    else map (fun w -> base + w) (int_range 0 64)
  in
  let+ slice = gen_slice word in
  (banks, slice)

let law_bank_cost_is_shared_request =
  QCheck.Test.make ~count:3000 ~name:"bank_cost == shared_request"
    (QCheck.make gen_bank_request ~print:(fun (banks, slice) ->
         Printf.sprintf "banks=%d %s" banks (print_slice slice)))
    (fun (banks, (off, cnt, _, words)) ->
      Coalescer.bank_cost ~banks (Array.make banks 7) words ~off ~cnt
      = Coalescer.shared_request ~banks
          (Array.to_list (Array.sub words off cnt)))

(* --- interpreter semantics --- *)

let launch1 ?(gx = 1) ?(gy = 1) ?(bx = 16) ?(by = 1) () =
  { Ast.grid_x = gx; grid_y = gy; block_x = bx; block_y = by }

let test_interp_arith () =
  let k =
    parse_kernel
      {|#pragma gpcc output o
__kernel void f(float o[16]) {
  float x = idx * 2 + 1;
  float y = x / 2.0;
  o[idx] = y - 0.5 + fmaxf(0.0, 1.0) + sqrtf(4.0);
}|}
  in
  let out, _ = run_full k (launch1 ()) [] "o" in
  Array.iteri
    (fun i v ->
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "o[%d]" i)
        (float_of_int i +. 3.0)
        v)
    out

let test_interp_int_ops () =
  let k =
    parse_kernel
      {|#pragma gpcc output o
__kernel void f(float o[16]) {
  int a = idx % 3;
  int b = idx / 4;
  int c = min(a, b) + max(1, 2);
  o[idx] = c;
}|}
  in
  let out, _ = run_full k (launch1 ()) [] "o" in
  Array.iteri
    (fun i v ->
      let want = float_of_int (min (i mod 3) (i / 4) + 2) in
      Alcotest.(check (float 0.0)) (Printf.sprintf "o[%d]" i) want v)
    out

let test_interp_divergence () =
  let k =
    parse_kernel
      {|#pragma gpcc output o
__kernel void f(float o[16]) {
  float x = 0;
  if (idx % 2 == 0) {
    x = 1;
  } else {
    x = 2;
  }
  if (idx < 4) x = x + 10;
  o[idx] = x;
}|}
  in
  let out, r = run_full k (launch1 ()) [] "o" in
  Array.iteri
    (fun i v ->
      let base = if i mod 2 = 0 then 1.0 else 2.0 in
      let want = if i < 4 then base +. 10.0 else base in
      Alcotest.(check (float 0.0)) (Printf.sprintf "o[%d]" i) want v)
    out;
  Alcotest.(check bool) "divergence counted" true
    (r.Gpcc_sim.Launch.per_block.Gpcc_sim.Stats.divergent_branches >= 2.0)

let test_interp_loop_thread_dependent () =
  let k =
    parse_kernel
      {|#pragma gpcc output o
__kernel void f(float o[16]) {
  float s = 0;
  for (int i = 0; i < idx; i++)
    s += 1;
  o[idx] = s;
}|}
  in
  let out, _ = run_full k (launch1 ()) [] "o" in
  Array.iteri
    (fun i v -> Alcotest.(check (float 0.0)) "trip count" (float_of_int i) v)
    out

let test_interp_shared_memory () =
  (* reverse within a block through shared memory: exercises sync + banks *)
  let k =
    parse_kernel
      {|#pragma gpcc output o
__kernel void f(float a[16], float o[16]) {
  __shared__ float s[16];
  s[tidx] = a[idx];
  __syncthreads();
  o[idx] = s[15 - tidx];
}|}
  in
  let input = Array.init 16 (fun i -> float_of_int (i * i)) in
  let out, r = run_full k (launch1 ()) [ ("a", input) ] "o" in
  Array.iteri
    (fun i v -> Alcotest.(check (float 0.0)) "reversed" input.(15 - i) v)
    out;
  Alcotest.(check bool) "syncs counted" true
    (r.Gpcc_sim.Launch.per_block.Gpcc_sim.Stats.syncs >= 1.0)

let test_interp_vector_ops () =
  let k =
    parse_kernel
      {|#pragma gpcc output o
__kernel void f(float o[16]) {
  float2 v = make_float2(3.0, 4.0);
  float2 w = make_float2(1.0, 2.0);
  float2 u = v + w;
  u.x = u.x * 2;
  o[idx] = u.x + u.y;
}|}
  in
  let out, _ = run_full k (launch1 ()) [] "o" in
  Array.iter (fun v -> Alcotest.(check (float 1e-6)) "vector arith" 14.0 v) out

let test_interp_vload () =
  (* Vload built programmatically: o[idx] = a2[idx].x + a2[idx].y *)
  let k =
    parse_kernel
      {|#pragma gpcc output o
__kernel void f(float a[32], float o[16]) {
  o[idx] = a[2 * idx] + a[2 * idx + 1];
}|}
  in
  let launch = launch1 () in
  let o = Gpcc_passes.Vectorize.apply k launch in
  Alcotest.(check bool) "vectorizer fired" true o.fired;
  let input = Array.init 32 float_of_int in
  let out, r = run_full o.kernel launch [ ("a", input) ] "o" in
  Array.iteri
    (fun i v ->
      Alcotest.(check (float 0.0)) "pair sum" (float_of_int (4 * i) +. 1.0) v)
    out;
  Alcotest.(check bool) "8-byte transactions" true
    (r.Gpcc_sim.Launch.per_block.Gpcc_sim.Stats.gld_bytes = 128.0)

let test_interp_multi_block_grid () =
  let k =
    parse_kernel
      {|#pragma gpcc output o
__kernel void f(float o[64][64]) {
  o[idy][idx] = idy * 64 + idx;
}|}
  in
  let out, _ =
    run_full k (launch1 ~gx:4 ~gy:4 ~bx:16 ~by:16 ()) [] "o"
  in
  Alcotest.(check int) "size" 4096 (Array.length out);
  Array.iteri
    (fun i v -> Alcotest.(check (float 0.0)) "identity" (float_of_int i) v)
    out

let test_interp_global_sync () =
  (* two phases: phase 2 reads what *other* blocks wrote in phase 1, and
     registers survive the barrier *)
  let k =
    parse_kernel
      {|#pragma gpcc output o
__kernel void f(float t[64], float o[64]) {
  float mine = idx;
  t[idx] = idx * 2;
  __global_sync();
  o[idx] = t[63 - idx] + mine;
}|}
  in
  let out, _ = run_full k (launch1 ~gx:4 ()) [] "o" in
  Array.iteri
    (fun i v ->
      Alcotest.(check (float 0.0)) "cross-block + live register"
        (float_of_int (((63 - i) * 2) + i))
        v)
    out

let test_interp_oob () =
  let k =
    parse_kernel
      {|#pragma gpcc output o
__kernel void f(float a[8], float o[32]) {
  o[idx] = a[idx];
}|}
  in
  (* a[8] pads to 16 elements; lanes 16..31 overrun even the padding *)
  match run_full k (launch1 ~bx:32 ()) [] "o" with
  | exception Gpcc_sim.Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "out-of-bounds access not caught"

let test_interp_flop_count () =
  let k =
    parse_kernel
      {|#pragma gpcc output o
__kernel void f(float a[16], float o[16]) {
  o[idx] = a[idx] * 2.0 + 1.0;
}|}
  in
  let _, r = run_full k (launch1 ()) [] "o" in
  Alcotest.(check (float 0.0))
    "2 flops x 16 lanes" 32.0
    r.Gpcc_sim.Launch.per_block.Gpcc_sim.Stats.flops

(* --- occupancy --- *)

let test_occupancy_limits () =
  let occ ~regs ~shared ~tpb =
    Occupancy.calc cfg280 ~regs_per_thread:regs ~shared_per_block:shared
      ~threads_per_block:tpb
  in
  let o = occ ~regs:10 ~shared:0 ~tpb:256 in
  Alcotest.(check int) "thread-limited" 4 o.blocks_per_sm;
  let o = occ ~regs:10 ~shared:9000 ~tpb:128 in
  Alcotest.(check int) "shared-limited" 1 o.blocks_per_sm;
  Alcotest.(check string) "labeled" "shared-memory" o.limited_by;
  let o = occ ~regs:64 ~shared:0 ~tpb:256 in
  Alcotest.(check int) "register-limited" 1 o.blocks_per_sm;
  let o = occ ~regs:100 ~shared:0 ~tpb:512 in
  Alcotest.(check bool) "spill" true o.reg_spill

(* the cost model's pre-ranking keys on exactly these fields: the spill
   flag, the shared-memory limit label and the bound classification must
   stay trustworthy for the exploration funnel to prune safely *)
let test_occupancy_spill_classification () =
  let occ ~regs ~shared ~tpb =
    Occupancy.calc cfg280 ~regs_per_thread:regs ~shared_per_block:shared
      ~threads_per_block:tpb
  in
  (* 100 regs x 512 threads = 51200 > the 16384-register file: even one
     block does not fit, so the block still "runs" but spills *)
  let o = occ ~regs:100 ~shared:0 ~tpb:512 in
  Alcotest.(check bool) "spill flag" true o.reg_spill;
  Alcotest.(check int) "spilling block still scheduled" 1 o.blocks_per_sm;
  Alcotest.(check string) "spill label wins" "register-spill" o.limited_by;
  (* exact fit: 32 regs x 512 threads = 16384 — no spill *)
  let o = occ ~regs:32 ~shared:0 ~tpb:512 in
  Alcotest.(check bool) "exact fit is not a spill" false o.reg_spill;
  Alcotest.(check int) "exact fit runs one block" 1 o.blocks_per_sm;
  (* shared memory binds before registers or threads here *)
  let o = occ ~regs:10 ~shared:6000 ~tpb:64 in
  Alcotest.(check string) "shared label" "shared-memory" o.limited_by;
  Alcotest.(check int) "16KB / 6000B = 2 blocks" 2 o.blocks_per_sm

let test_timing_spill_slowdown () =
  let launch = launch1 ~gx:64 ~bx:512 () in
  let s = Stats.create () in
  s.Stats.warp_insts <- 1000.0;
  s.Stats.flops <- 10000.0;
  s.Stats.gld_bytes <- 1.0e6;
  s.Stats.gld_requests <- 100.0;
  let est regs =
    Timing.estimate cfg280 ~per_block:s ~launch ~regs_per_thread:regs
      ~shared_per_block:0 ~partition_eff:1.0 ~mlp:2.0
  in
  let fits = est 32 and spills = est 100 in
  Alcotest.(check string) "bound overridden" "register-spill" spills.bound;
  Alcotest.(check bool) "spill slows the kernel" true
    (spills.time_ms > fits.time_ms);
  Alcotest.(check bool) "no false spill" true (fits.bound <> "register-spill")

let test_timing_bound_classification () =
  let launch = launch1 ~gx:64 ~bx:256 () in
  let mk ~insts ~bytes ~requests =
    let s = Stats.create () in
    s.Stats.warp_insts <- insts;
    s.Stats.flops <- 1000.0;
    s.Stats.gld_bytes <- bytes;
    s.Stats.gld_requests <- requests;
    Timing.estimate cfg280 ~per_block:s ~launch ~regs_per_thread:16
      ~shared_per_block:0 ~partition_eff:1.0 ~mlp:1.0
  in
  Alcotest.(check string) "instruction-heavy" "compute"
    (mk ~insts:1.0e6 ~bytes:1.0e4 ~requests:10.0).bound;
  Alcotest.(check string) "byte-heavy" "memory"
    (mk ~insts:100.0 ~bytes:1.0e8 ~requests:100.0).bound;
  Alcotest.(check string) "request-heavy" "latency"
    (mk ~insts:100.0 ~bytes:1.0e4 ~requests:1.0e4).bound

let test_occupancy_8800_smaller () =
  let o280 =
    Occupancy.calc cfg280 ~regs_per_thread:32 ~shared_per_block:0
      ~threads_per_block:256
  in
  let o8800 =
    Occupancy.calc cfg8800 ~regs_per_thread:32 ~shared_per_block:0
      ~threads_per_block:256
  in
  Alcotest.(check bool) "smaller register file binds earlier" true
    (o8800.blocks_per_sm < o280.blocks_per_sm)

(* --- timing model --- *)

let test_timing_monotone_in_bytes () =
  let launch = launch1 ~gx:64 ~bx:256 () in
  let base = Stats.create () in
  base.Stats.warp_insts <- 1000.0;
  base.Stats.flops <- 10000.0;
  base.Stats.gld_bytes <- 1.0e6;
  base.Stats.gld_requests <- 100.0;
  let t1 =
    Timing.estimate cfg280 ~per_block:base ~launch ~regs_per_thread:16
      ~shared_per_block:1024 ~partition_eff:1.0 ~mlp:2.0
  in
  let more = Stats.scale 1.0 base in
  more.Stats.gld_bytes <- 4.0e6;
  let t2 =
    Timing.estimate cfg280 ~per_block:more ~launch ~regs_per_thread:16
      ~shared_per_block:1024 ~partition_eff:1.0 ~mlp:2.0
  in
  Alcotest.(check bool) "more bytes, more time" true (t2.time_ms >= t1.time_ms)

let test_timing_camping_penalty () =
  let launch = launch1 ~gx:64 ~bx:256 () in
  let s = Stats.create () in
  s.Stats.warp_insts <- 100.0;
  s.Stats.flops <- 1000.0;
  s.Stats.gld_bytes <- 1.0e6;
  s.Stats.gld_requests <- 100.0;
  let good =
    Timing.estimate cfg280 ~per_block:s ~launch ~regs_per_thread:16
      ~shared_per_block:0 ~partition_eff:1.0 ~mlp:2.0
  in
  let bad =
    Timing.estimate cfg280 ~per_block:s ~launch ~regs_per_thread:16
      ~shared_per_block:0 ~partition_eff:0.125 ~mlp:2.0
  in
  Alcotest.(check bool) "camping is slower" true (bad.time_ms > good.time_ms *. 4.0)

(* regression: a Full-mode block budget must run every partition-stream
   block, not just those inside the budget prefix — a thinned stream set
   biases partition_eff and once flipped a funnel winner (mv) *)
let test_full_budget_keeps_stream_set () =
  let k =
    parse_kernel
      {|#pragma gpcc output o
__kernel void f(float o[256][256]) {
  o[idx][idy] = idx + idy;
}|}
  in
  let launch = launch1 ~gx:16 ~gy:16 ~bx:16 ~by:16 () in
  let run budget =
    let mem = Devmem.of_kernel k in
    Launch.run ?block_budget:budget ~jobs:1 cfg280 k launch mem
  in
  let full = run None in
  (* 32 < the resident wave, so some stream blocks lie beyond the budget *)
  let budgeted = run (Some 32) in
  Alcotest.(check int) "statistics averaged over the budget prefix" 32
    budgeted.Launch.sampled_blocks;
  Alcotest.(check (float 0.0)) "partition_eff unbiased by the budget"
    full.Launch.partition_eff budgeted.Launch.partition_eff

let test_partition_efficiency_calc () =
  let same = [ [| 0; 0; 0 |]; [| 0; 0; 0 |]; [| 0; 0; 0 |]; [| 0; 0; 0 |] ] in
  let spread = [ [| 0; 1 |]; [| 2; 3 |]; [| 4; 5 |]; [| 6; 7 |] ] in
  Alcotest.(check (float 0.01)) "camped" 0.125
    (Gpcc_sim.Launch.partition_efficiency cfg280 same);
  Alcotest.(check (float 0.01)) "spread" 1.0
    (Gpcc_sim.Launch.partition_efficiency cfg280 spread)

let suite =
  let t n f = Alcotest.test_case n `Quick f in
  ( "sim",
    [
      t "devmem round trip" test_devmem_roundtrip;
      t "devmem base alignment" test_devmem_bases_aligned;
      t "devmem size mismatch" test_devmem_size_mismatch;
      t "strict: coalesced" test_strict_coalesced;
      t "strict: misaligned serializes" test_strict_misaligned_serializes;
      t "strict: permuted serializes" test_strict_permuted_serializes;
      t "relaxed: misaligned" test_relaxed_misaligned;
      t "relaxed: uniform" test_relaxed_uniform;
      t "relaxed: strided" test_relaxed_strided;
      t "float2 coalescing" test_float2_coalesced;
      t "partial half warp" test_partial_halfwarp;
      t "banks: conflict-free" test_banks_conflict_free;
      t "banks: conflicts" test_banks_conflicts;
      t "banks: broadcast" test_banks_broadcast;
      t "interp: arithmetic" test_interp_arith;
      t "interp: int ops" test_interp_int_ops;
      t "interp: divergence" test_interp_divergence;
      t "interp: thread-dependent loops" test_interp_loop_thread_dependent;
      t "interp: shared memory" test_interp_shared_memory;
      t "interp: vector load" test_interp_vload;
      t "interp: vector arithmetic" test_interp_vector_ops;
      t "interp: multi-block grid" test_interp_multi_block_grid;
      t "interp: global sync" test_interp_global_sync;
      t "interp: out of bounds" test_interp_oob;
      t "interp: flop counting" test_interp_flop_count;
      t "occupancy limits" test_occupancy_limits;
      t "occupancy: spill classification" test_occupancy_spill_classification;
      t "occupancy: 8800 vs 280" test_occupancy_8800_smaller;
      t "timing: spill slowdown" test_timing_spill_slowdown;
      t "timing: bound classification" test_timing_bound_classification;
      t "timing: bytes monotone" test_timing_monotone_in_bytes;
      t "timing: camping penalty" test_timing_camping_penalty;
      t "partition efficiency" test_partition_efficiency_calc;
      t "block budget keeps the stream set" test_full_budget_keeps_stream_set;
      QCheck_alcotest.to_alcotest law_form_is_global_request;
      QCheck_alcotest.to_alcotest law_bank_cost_is_shared_request;
    ] )

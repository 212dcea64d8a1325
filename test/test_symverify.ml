(** Tests for the two-symbolic-thread verifier: differential agreement
    with the concrete {!Gpcc_analysis.Verify} tier over the registry
    kernels and a sampled launch grid, exact rule ids on negative
    kernels, digit reasoning for [/] and [%] by constants (proved shapes
    and colliding ones), a seeded property test over randomized affine
    kernels, the [Proved_when] constraint pruning Explore candidates, the
    parametric verdict's on-disk round trip, the [verify-incomplete]
    warning when the concrete race check truncates its lane
    enumeration, and the concrete warnings that symbolic-first
    verification keeps on the launches it proves. *)

open Gpcc_ast
open Util
module V = Gpcc_analysis.Verify
module SV = Gpcc_analysis.Symverify
module Cache = Gpcc_analysis.Analysis_cache
module Registry = Gpcc_workloads.Registry
module Workload = Gpcc_workloads.Workload

(* Directional agreement: a symbolic [`Clean] must be confirmed by the
   concrete tier, and a symbolic [`Errors] must name rules the concrete
   tier also reports. [`Unknown] always falls back concretely, so it
   cannot disagree. *)
let check_agreement name (k : Ast.kernel) (res : SV.result)
    (launch : Ast.launch) =
  let where =
    Printf.sprintf "%s at (%d,%d)x(%d,%d)" name launch.Ast.grid_x
      launch.grid_y launch.block_x launch.block_y
  in
  match SV.decide res launch with
  | `Unknown _ -> ()
  | `Clean ->
      let conc = V.errors (V.check ~launch k) in
      if conc <> [] then
        Alcotest.failf "%s: symbolic Clean but concrete rejects: %s" where
          (V.to_string (List.hd conc))
  | `Errors ds ->
      let conc = V.errors (V.check ~launch k) in
      if conc = [] then
        Alcotest.failf "%s: symbolic violation fires but concrete is clean"
          where;
      let crules = List.map (fun (d : V.diagnostic) -> d.rule) conc in
      List.iter
        (fun (d : V.diagnostic) ->
          if not (List.mem d.rule crules) then
            Alcotest.failf "%s: symbolic rule %s not reported concretely"
              where d.rule)
        ds

(* --- registry kernels x sampled config grid, plus the proof floor --- *)

let launch_grid (l : Ast.launch) : Ast.launch list =
  List.concat_map
    (fun (mbx, mby) ->
      List.map
        (fun (mgx, mgy) ->
          {
            Ast.grid_x = l.grid_x * mgx;
            grid_y = l.grid_y * mgy;
            block_x = l.block_x * mbx;
            block_y = l.block_y * mby;
          })
        [ (1, 1); (2, 1); (1, 2) ])
    [ (1, 1); (2, 1); (1, 2); (4, 1) ]
  |> List.filter (fun l -> Ast.threads_per_block l <= 512)

let test_registry_differential () =
  let total = ref 0 and proved = ref 0 in
  List.iter
    (fun (w : Workload.t) ->
      let k = Workload.parse w w.test_size in
      let res = SV.check k in
      match Gpcc_passes.Pass_util.naive_launch k with
      | None -> ()
      | Some naive ->
          incr total;
          (match SV.decide res naive with `Clean -> incr proved | _ -> ());
          List.iter (check_agreement w.name k res) (launch_grid naive))
    Registry.all;
  if !proved * 3 < !total * 2 then
    Alcotest.failf
      "symbolic tier proved only %d of %d naive registry kernels (floor: 8 \
       of 12)"
      !proved !total

(* --- negative kernels: the defect must survive with its rule id --- *)

let negative_cases =
  [
    ( "missing sync",
      V.rule_race_shared,
      {|#pragma gpcc dim n 64
#pragma gpcc output c
__kernel void racy(float a[64], float c[64], int n) {
  __shared__ float s[16];
  s[tidx] = a[idx];
  c[idx] = s[(tidx + 1) % 16];
}|}
    );
    ( "divergent barrier",
      V.rule_barrier_divergence,
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
    );
    ( "global overflow",
      V.rule_oob_global,
      {|#pragma gpcc dim n 64
#pragma gpcc output c
__kernel void oobg(float a[64], float c[64], int n) {
  c[idx + 1] = a[idx];
}|}
    );
    ( "shared overflow",
      V.rule_oob_shared,
      {|#pragma gpcc dim n 64
#pragma gpcc output c
__kernel void oobs(float a[64], float c[64], int n) {
  __shared__ float s[8];
  s[tidx] = a[idx];
  __syncthreads();
  c[idx] = s[tidx % 8];
}|}
    );
    ( "global write collision",
      V.rule_race_global,
      {|#pragma gpcc dim n 64
#pragma gpcc output c
__kernel void gcol(float a[64], float c[64], int n) {
  c[idx / 2] = a[idx];
}|}
    );
  ]

let test_negative_kernels () =
  List.iter
    (fun (name, rule, src) ->
      let k = parse_kernel src in
      let launch = Option.get (Gpcc_passes.Pass_util.naive_launch k) in
      let res = SV.check k in
      match SV.decide res launch with
      | `Clean ->
          Alcotest.failf "%s: symbolic proved a defective kernel clean" name
      | `Errors ds ->
          if
            not (List.exists (fun (d : V.diagnostic) -> d.rule = rule) ds)
          then
            Alcotest.failf "%s: symbolic error decision lacks rule %s" name
              rule
      | `Unknown _ ->
          (* transparent fallback: the concrete tier must still report
             the defect under the expected rule *)
          let ds = V.errors (V.check ~launch k) in
          if
            not (List.exists (fun (d : V.diagnostic) -> d.rule = rule) ds)
          then
            Alcotest.failf "%s: concrete fallback missed rule %s" name rule)
    negative_cases

(* --- [/] and [%] by a constant, read as digits --- *)

(* One Stockham stage of the registry fft (a radix-2 butterfly per
   thread, [ns] = 4), its mv-style tile transpose, and its thread-merged
   output: all proved at their launch without the concrete tier. *)
let digit_positives =
  [
    ( "fft stage",
      {|#pragma gpcc dim __threads_x 32
#pragma gpcc output b
__kernel void stage(float a[128], float b[128]) {
  int ns = 4;
  int k = idx % ns;
  int j = idx / ns;
  float ur = a[2 * idx];
  float ui = a[2 * idx + 1];
  float xr = a[2 * (idx + 32)];
  float xi = a[2 * (idx + 32) + 1];
  int o = 2 * j * ns + k;
  b[2 * o] = ur + xr;
  b[2 * o + 1] = ui + xi;
  b[2 * (o + ns)] = ur - xr;
  b[2 * (o + ns) + 1] = ui - xi;
}|},
      { Ast.grid_x = 2; grid_y = 1; block_x = 16; block_y = 1 } );
    ( "mv tile",
      {|#pragma gpcc dim w 64
#pragma gpcc output c
__kernel void tile(float a[64][64], float c[64], int w) {
  __shared__ float shared[4][16][17];
  for (int l = 0; l < 16; l++) {
    shared[tidx / 16][l][tidx % 16] = a[idx - tidx % 16 + l][tidx % 16];
  }
  __syncthreads();
  c[idx] = shared[tidx / 16][tidx % 16][0];
}|},
      { Ast.grid_x = 1; grid_y = 1; block_x = 64; block_y = 1 } );
  ]

(* Digits must not hide a collision: two threads share [idx / 2], and
   [tidx / 4 + tidx % 4] repeats over 16 lanes. *)
let digit_negatives =
  [
    ( "halved index",
      V.rule_race_global,
      {|#pragma gpcc dim n 64
#pragma gpcc output c
__kernel void half(float a[64], float c[32], int n) {
  c[idx / 2] = a[idx];
}|},
      { Ast.grid_x = 4; grid_y = 1; block_x = 16; block_y = 1 } );
    ( "digit sum",
      V.rule_race_shared,
      {|#pragma gpcc dim n 16
#pragma gpcc output c
__kernel void dsum(float a[16], float c[16], int n) {
  __shared__ float s[16];
  s[tidx / 4 + tidx % 4] = a[idx];
  __syncthreads();
  c[idx] = s[tidx];
}|},
      { Ast.grid_x = 1; grid_y = 1; block_x = 16; block_y = 1 } );
  ]

let test_digit_shapes () =
  List.iter
    (fun (name, src, launch) ->
      let k = parse_kernel src in
      let res = SV.check k in
      (match SV.decide res launch with
      | `Clean -> ()
      | `Errors _ -> Alcotest.failf "%s: symbolic errors on a clean kernel" name
      | `Unknown why -> Alcotest.failf "%s: not proved (%s)" name why);
      List.iter (check_agreement name k res) (launch_grid launch))
    digit_positives;
  List.iter
    (fun (name, rule, src, launch) ->
      let k = parse_kernel src in
      let res = SV.check k in
      if SV.decide res launch = `Clean then
        Alcotest.failf "%s: symbolic proved a colliding index clean" name;
      if
        not
          (List.exists
             (fun (d : V.diagnostic) -> d.rule = rule)
             (V.errors (V.check ~launch k)))
      then Alcotest.failf "%s: concrete tier misses %s" name rule;
      List.iter (check_agreement name k res) (launch_grid launch))
    digit_negatives;
  (* the registry fft, naive and thread-merged, needs no fallback *)
  let w = Registry.find_exn "fft" in
  let k = Workload.parse w 256 in
  List.iter
    (fun degree ->
      let r =
        Gpcc_core.Pipeline.run
          ~pipeline:
            (Gpcc_core.Pipeline.default ~cfg:Util.cfg280
               ~target_block_threads:64 ~merge_degree:degree ~verify:false ())
          k
      in
      let res = SV.check r.kernel in
      match SV.decide res r.launch with
      | `Clean -> ()
      | `Errors _ | `Unknown _ ->
          Alcotest.failf "fft x%d: symbolic tier falls back" degree)
    [ 1; 4 ]

(* A reused loop variable is the second loop's, on the symbolic side
   too: the race survives (proved or through the concrete fallback) and
   the uniform guarded barrier is no violation, so Explore keeps the
   launch. *)
let test_loop_reuse () =
  let rules ds = List.map (fun (d : V.diagnostic) -> d.rule) ds in
  List.iter
    (fun (name, src, expected) ->
      let k = parse_kernel src in
      let launch = Option.get (Gpcc_passes.Pass_util.naive_launch k) in
      let res = SV.check k in
      let got =
        match SV.decide res launch with
        | `Clean -> []
        | `Errors ds -> rules ds
        | `Unknown _ -> rules (V.errors (V.check ~launch k))
      in
      Alcotest.(check (list string)) name expected got;
      if expected = [] then
        Alcotest.(check (option string))
          (name ^ ": no launch excluded") None
          (SV.excludes_threads res ~threads:(Ast.threads_per_block launch)))
    loop_reuse_cases

(* A local the loop body reassigns lowers to an unknown value for the
   body and the limit, so no case is proved clean at its launch or any
   launch of the sampled grid; the concrete tier still agrees wherever
   a launch is decided. *)
let test_loop_carried_locals () =
  List.iter
    (fun (name, src, _) ->
      let k = parse_kernel src in
      let launch = Option.get (Gpcc_passes.Pass_util.naive_launch k) in
      let res = SV.check k in
      List.iter
        (fun l ->
          (match SV.decide res l with
          | `Clean ->
              Alcotest.failf "%s: symbolic proved a loop-carried read clean"
                name
          | `Errors _ | `Unknown _ -> ());
          check_agreement name k res l)
        (launch_grid launch))
    loop_carried_cases

(* A second read through a rebound name is bounded on its own, so
   neither kernel is proved clean at any launch of the sampled grid,
   and the concrete tier reports the overflow wherever a launch is
   decided. *)
let test_rebound_names () =
  List.iter
    (fun (name, src, _) ->
      let k = parse_kernel src in
      let launch = Option.get (Gpcc_passes.Pass_util.naive_launch k) in
      let res = SV.check k in
      List.iter
        (fun l ->
          (match SV.decide res l with
          | `Clean ->
              Alcotest.failf "%s: symbolic proved an out-of-bounds read clean"
                name
          | `Errors _ | `Unknown _ -> ());
          check_agreement name k res l)
        (launch_grid launch))
    rebound_cases

(* A block reduction missing either barrier races, so neither mutant is
   proved clean at any launch of the sampled grid; the concrete tier
   agrees wherever a launch is decided, clean shapes included. *)
let test_block_reductions () =
  List.iter
    (fun (name, src, errors) ->
      let k = parse_kernel src in
      let launch = Option.get (Gpcc_passes.Pass_util.initial_launch k) in
      let res = SV.check k in
      List.iter
        (fun l ->
          (match SV.decide res l with
          | `Clean when errors <> [] ->
              Alcotest.failf "%s: symbolic proved a racy reduction clean" name
          | `Clean | `Errors _ | `Unknown _ -> ());
          check_agreement name k res l)
        (launch_grid launch))
    reduce_cases

(* --- property test: randomized affine kernels, seeded --- *)

let test_random_affine_agreement () =
  Random.init 42;
  for i = 0 to 39 do
    let c1 = Random.int 5 in
    let c0 = Random.int 17 in
    let guard =
      match Random.int 3 with 0 -> None | 1 -> Some 8 | _ -> Some 16
    in
    let sync = Random.bool () in
    let store = Printf.sprintf "s[(%d * tidx + %d) %% 64] = a[idx];" c1 c0 in
    let store =
      match guard with
      | None -> store
      | Some g -> Printf.sprintf "if (tidx < %d) { %s }" g store
    in
    let src =
      Printf.sprintf
        {|#pragma gpcc dim n 64
#pragma gpcc output c
__kernel void k%d(float a[64], float c[64], int n) {
  __shared__ float s[64];
  %s
  %s
  c[idx] = s[tidx %% 64];
}|}
        i store
        (if sync then "__syncthreads();" else "")
    in
    let k = parse_kernel src in
    let res = SV.check k in
    List.iter
      (fun (gx, bx) ->
        check_agreement
          (Printf.sprintf "affine#%d" i)
          k res
          { Ast.grid_x = gx; grid_y = 1; block_x = bx; block_y = 1 })
      [ (1, 16); (1, 64); (2, 32); (4, 16); (1, 512); (2, 64) ]
  done

(* --- Proved_when violations prune Explore's candidate set --- *)

let modwrap_src =
  (* each lane owns slot [lane mod 64]: clean up to 64 threads/block,
     racy beyond -- the violation is parametric in the launch *)
  {|#pragma gpcc dim n 64
#pragma gpcc output c
__kernel void modk(float a[64][64], float c[64][64], int n) {
  __shared__ float s[64];
  s[(tidx + bdimx * tidy) % 64] = a[idy][idx];
  __syncthreads();
  c[idy][idx] = s[(tidx + bdimx * tidy) % 64];
}|}

let test_proved_when_excludes_configs () =
  let k = parse_kernel modwrap_src in
  let res = SV.check k in
  (match SV.excludes_threads res ~threads:64 with
  | None -> ()
  | Some rule ->
      Alcotest.failf "64-thread blocks wrongly excluded under %s" rule);
  (match SV.excludes_threads res ~threads:256 with
  | Some rule ->
      Alcotest.(check string) "exclusion rule" V.rule_race_shared rule
  | None -> Alcotest.fail "256-thread blocks must be excluded");
  let cands, failures =
    Gpcc_core.Explore.search_with_failures ~cfg:Util.cfg280
      ~block_targets:[ 64; 256 ] ~merge_degrees:[ 1 ] ~jobs:1 k
      ~measure:(fun _ _ -> 1.0)
  in
  let excluded =
    List.filter
      (fun (f : Gpcc_core.Explore.failure) ->
        f.failed_target = 256 && f.failed_stage = `Verify)
      failures
  in
  Alcotest.(check bool)
    "256-thread config rejected at the Verify stage" true (excluded <> []);
  Alcotest.(check bool)
    "64-thread config survives into the candidate set" true
    (List.exists
       (fun (c : Gpcc_core.Explore.candidate) -> c.target_block_threads = 64)
       cands)

(* --- parametric verdicts survive the on-disk round trip --- *)

let test_pverdict_disk_round_trip () =
  let w = Registry.find_exn "tmv" in
  let k = Workload.parse w w.test_size in
  let fresh = SV.check k in
  let r1 = Cache.symbolic_result (Cache.create ()) k in
  let r2 = Cache.symbolic_result (Cache.create ()) k in
  Alcotest.(check bool)
    "first instance matches Symverify.check" true (r1 = fresh);
  Alcotest.(check bool) "disk round trip is lossless" true (r2 = fresh)

(* a kernel's pverdict records, of every codec version, located by
   their stored key (the full kernel text) *)
let pverdict_entries (k : Ast.kernel) =
  store_records ~kind:"pverdict" (Pp.kernel_to_string k)

let test_pverdict_disk_corruption () =
  let w = Registry.find_exn "vv" in
  let k = Workload.parse w w.test_size in
  let fresh = SV.check k in
  let entries () = pverdict_entries k in
  (* a store used before a codec-version bump still holds this key's
     orphaned older records: drop them all so the baseline writes the
     one live record *)
  List.iter drop_record (entries ());
  let r1 = Cache.symbolic_result (Cache.create ()) k in
  Alcotest.(check bool) "baseline verdict" true (r1 = fresh);
  let record () =
    match entries () with
    | [ r ] -> r
    | rs ->
        Alcotest.failf "expected exactly one pverdict record, got %d"
          (List.length rs)
  in
  List.iter
    (fun (what, content) ->
      let r = record () in
      overwrite_record r (content r);
      let r = Cache.symbolic_result (Cache.create ()) k in
      Alcotest.(check bool) (what ^ ": verdict recomputed") true (r = fresh);
      let r2 = Cache.symbolic_result (Cache.create ()) k in
      Alcotest.(check bool)
        (what ^ ": rewritten record round-trips") true (r2 = fresh))
    [
      ("empty file", fun _ -> "");
      ("wrong header", fun _ -> "not-a-verdict\ngarbage");
      ("truncated payload", fun _ -> "gpcc-symverify-v1\n\000\000");
      ( "well-formed record, undecodable payload",
        fun r -> envelope r "not-a-verdict" );
    ]

(* A text's verification record is written once, when its proof is
   first computed; computed at a launch it proves clean, it carries that
   launch's lints, and a fresh instance reads them back with the proof.
   A later launch is linted in memory only. *)
let test_pverdict_carries_lints () =
  let k =
    parse_kernel
      {|#pragma gpcc output out
__kernel void record_lints(float x[2048], float out[1024]) {
  out[idx] = x[2 * idx];
}|}
  in
  let launch = Option.get (Gpcc_passes.Pass_util.naive_launch k) in
  let later = { launch with Ast.grid_x = launch.grid_x / 2 } in
  List.iter drop_record (pverdict_entries k);
  let ds = Cache.verify_sym (Cache.create ()) ~launch k in
  Alcotest.(check bool)
    "proved clean" true
    (SV.decide (SV.check k) launch = `Clean);
  Alcotest.(check bool) "the lints warn" true (V.warnings ds <> []);
  let c = Cache.create () in
  Alcotest.(check bool)
    "the record reads back with the first launch's lints" true
    (Cache.record_lints c k = [ (launch, ds) ]);
  Alcotest.(check bool) "and the proof" true
    (Cache.symbolic_result c k = SV.check k);
  let third = { launch with Ast.grid_x = launch.grid_x / 4 } in
  List.iter
    (fun l ->
      let served = Cache.verify_sym c ~launch:l k in
      Alcotest.(check bool)
        "a later launch is linted as a one-lane check" true
        (served
        = List.filter
            (fun (d : V.diagnostic) -> d.rule <> V.rule_verify_incomplete)
            (V.check ~max_lanes:1 ~launch:l k)))
    [ later; third ];
  Alcotest.(check (pair int int))
    "later launches are linted from one walk" (1, 2)
    (let w = Cache.work c in
     (w.walks, w.derivations));
  Alcotest.(check bool)
    "in memory only" true
    (Cache.record_lints (Cache.create ()) k = [ (launch, ds) ])

(* A record of an older codec version is another store entry: it is
   never decoded as the current shape, and the record is computed
   again. *)
let test_pverdict_old_version_ignored () =
  let k =
    parse_kernel
      {|#pragma gpcc output out
__kernel void old_record(float x[1024], float out[1024]) {
  out[idx] = x[idx] + 1.0;
}|}
  in
  let launch = Option.get (Gpcc_passes.Pass_util.naive_launch k) in
  List.iter drop_record (pverdict_entries k);
  let v4 : SV.result Gpcc_util.Store.kind =
    Gpcc_util.Store.make_kind ~name:"pverdict" ~version:"4"
      ~encode:(fun r -> Marshal.to_string r [])
      ~decode:(fun s -> Some (Marshal.from_string s 0))
  in
  let store = Gpcc_util.Store.open_root () in
  let full = Pp.kernel_to_string k in
  Gpcc_util.Store.store store v4 ~key:full (SV.check k);
  Alcotest.(check int) "one version-4 entry" 1
    (List.length (pverdict_entries k));
  let c = Cache.create () in
  let ds = Cache.verify_sym c ~launch k in
  Alcotest.(check bool) "proof recomputed" true
    (Cache.symbolic_result c k = SV.check k);
  Alcotest.(check (pair int int))
    "proved and linted from one walk" (1, 1)
    (let w = Cache.work c in
     (w.walks, w.derivations));
  Alcotest.(check bool)
    "a current record written beside it" true
    (List.length (pverdict_entries k) = 2
    && Cache.record_lints (Cache.create ()) k = [ (launch, ds) ]);
  Alcotest.(check bool) "the old entry left as it was" true
    (Gpcc_util.Store.find store v4 ~key:full = Some (SV.check k))

(* --- the concrete tier flags its own truncated race check --- *)

let test_verify_incomplete_warning () =
  let k =
    parse_kernel
      {|#pragma gpcc dim n 64
#pragma gpcc output c
__kernel void wide(float a[64], float c[64], int n) {
  __shared__ float s[16];
  s[tidx % 16] = a[idx % 64];
  __syncthreads();
  c[idx % 64] = s[tidx % 16];
}|}
  in
  let wide = { Ast.grid_x = 1; grid_y = 1; block_x = 1024; block_y = 1 } in
  let ds = V.check ~launch:wide k in
  Alcotest.(check bool)
    "truncated enumeration is flagged" true
    (List.exists
       (fun (d : V.diagnostic) ->
         d.rule = V.rule_verify_incomplete && d.severity = V.Warning)
       ds);
  let narrow = { Ast.grid_x = 4; grid_y = 1; block_x = 16; block_y = 1 } in
  let ds = V.check ~launch:narrow k in
  Alcotest.(check bool)
    "full enumeration stays silent" true
    (not
       (List.exists
          (fun (d : V.diagnostic) -> d.rule = V.rule_verify_incomplete)
          ds))

(* --- symbolic-first verification reports the concrete diagnostics --- *)

(* A launch the symbolic tier proves clean still gets the concrete
   verifier's warnings from [Analysis_cache.verify_sym], since the
   pipeline records them per step. Every warning rule is exercised:
   merged mv (unproven bounds, uncoalesced), merged rd and fft
   (uncoalesced), a column-major shared tile (bank conflicts) and a block
   wider than the race search enumerates. *)
let test_verify_sym_reports_warnings () =
  let targets = ref [] in
  let add name k l = targets := (name, k, l) :: !targets in
  List.iter
    (fun (name, size, target, degree) ->
      let k = Workload.parse (Registry.find_exn name) size in
      List.iter
        (fun (s : Gpcc_core.Pipeline.step) ->
          if s.fired then
            add (name ^ " " ^ s.step_name) s.kernel_after s.launch_after)
        (compile ~target ~degree ~verify:false k).steps)
    [ ("mv", 64, 32, 1); ("rd", 16384, 256, 1); ("fft", 2048, 64, 8) ];
  add "column tile"
    (parse_kernel
       {|#pragma gpcc dim n 256
#pragma gpcc output c
__kernel void bank(float a[256][16], float c[256][16], int n) {
  __shared__ float s[16][16];
  s[tidx][tidy] = a[idy][idx];
  __syncthreads();
  c[idy][idx] = s[tidx][tidy];
}|})
    { Ast.grid_x = 1; grid_y = 16; block_x = 16; block_y = 16 };
  add "wide block"
    (parse_kernel
       {|#pragma gpcc dim n 1024
#pragma gpcc output c
__kernel void copy(float a[1024], float c[1024], int n) {
  c[idx] = a[idx];
}|})
    { Ast.grid_x = 1; grid_y = 1; block_x = 1024; block_y = 1 };
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (name, k, launch) ->
      if SV.decide (SV.check k) launch = `Clean then begin
        let conc = V.check ~launch k in
        List.iter
          (fun (d : V.diagnostic) -> Hashtbl.replace seen d.rule ())
          conc;
        let sym = Cache.verify_sym (Cache.create ()) ~launch k in
        if sym <> conc then
          Alcotest.failf "%s: verify_sym reports %s, Verify.check %s" name
            (V.json_of_diagnostics sym) (V.json_of_diagnostics conc)
      end)
    (List.rev !targets);
  List.iter
    (fun rule ->
      if not (Hashtbl.mem seen rule) then
        Alcotest.failf "no symbolically proved target reports %s" rule)
    [
      V.rule_noncoalesced;
      V.rule_oob_unproven;
      V.rule_bank_conflict;
      V.rule_verify_incomplete;
    ]

let suite =
  ( "symverify",
    [
      Alcotest.test_case "registry differential gate" `Slow
        test_registry_differential;
      Alcotest.test_case "loop-carried locals stay unproved" `Quick
        test_loop_carried_locals;
      Alcotest.test_case "loop variables bound at loop entry" `Quick
        test_loop_reuse;
      Alcotest.test_case "rebound names stay unproved" `Quick
        test_rebound_names;
      Alcotest.test_case "racy block reductions stay unproved" `Quick
        test_block_reductions;
      Alcotest.test_case "negative kernels keep rule ids" `Quick
        test_negative_kernels;
      Alcotest.test_case "digit maps for / and % by constants" `Quick
        test_digit_shapes;
      Alcotest.test_case "random affine agreement" `Slow
        test_random_affine_agreement;
      Alcotest.test_case "Proved_when prunes explore configs" `Quick
        test_proved_when_excludes_configs;
      Alcotest.test_case "parametric verdicts: disk round trip" `Quick
        test_pverdict_disk_round_trip;
      Alcotest.test_case "parametric verdicts: corrupt files recovered"
        `Quick test_pverdict_disk_corruption;
      Alcotest.test_case "verification records carry first lints" `Quick
        test_pverdict_carries_lints;
      Alcotest.test_case "verification records: old codec ignored" `Quick
        test_pverdict_old_version_ignored;
      Alcotest.test_case "verify-incomplete warning" `Quick
        test_verify_incomplete_warning;
      Alcotest.test_case "proved launches keep concrete warnings" `Quick
        test_verify_sym_reports_warnings;
    ] )

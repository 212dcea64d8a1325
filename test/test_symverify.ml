(** Tests for the two-symbolic-thread verifier: differential agreement
    with the concrete {!Gpcc_analysis.Verify} tier over the registry
    kernels and a sampled launch grid, exact rule ids on negative
    kernels, a seeded property test over randomized affine kernels, the
    [Proved_when] constraint pruning Explore candidates, the parametric
    verdict's on-disk round trip, and the [verify-incomplete] warning
    when the concrete race check truncates its lane enumeration. *)

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

let test_pverdict_disk_corruption () =
  let w = Registry.find_exn "vv" in
  let k = Workload.parse w w.test_size in
  let fresh = SV.check k in
  (* pverdicts live in the sharded artifact store, keyed by the full
     kernel text; find this kernel's entry by its stored key *)
  let root = Gpcc_util.Store.default_root () in
  let full = Pp.kernel_to_string k in
  let read_file p =
    let ic = open_in_bin p in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let contains ~needle hay =
    let n = String.length needle and h = String.length hay in
    let rec scan i =
      i + n <= h && (String.equal (String.sub hay i n) needle || scan (i + 1))
    in
    scan 0
  in
  let entries () =
    Sys.readdir root |> Array.to_list
    |> List.concat_map (fun shard ->
           let d = Filename.concat root shard in
           if Sys.is_directory d then
             Sys.readdir d |> Array.to_list
             |> List.filter (fun f -> Filename.extension f = ".pverdict")
             |> List.map (Filename.concat d)
           else [])
    |> List.filter (fun p -> contains ~needle:full (read_file p))
  in
  (* a store used before a codec-version bump still holds this key's
     orphaned older entries: drop them all so the baseline writes the
     one live entry *)
  List.iter Sys.remove (entries ());
  let r1 = Cache.symbolic_result (Cache.create ()) k in
  Alcotest.(check bool) "baseline verdict" true (r1 = fresh);
  let path =
    match entries () with
    | [ p ] -> p
    | ps ->
        Alcotest.failf "expected exactly one pverdict entry, got %d"
          (List.length ps)
  in
  Alcotest.(check bool) "pverdict file exists" true (Sys.file_exists path);
  let overwrite content =
    let oc = open_out_bin path in
    output_string oc content;
    close_out oc
  in
  List.iter
    (fun (what, content) ->
      overwrite content;
      let r = Cache.symbolic_result (Cache.create ()) k in
      Alcotest.(check bool) (what ^ ": verdict recomputed") true (r = fresh);
      let r2 = Cache.symbolic_result (Cache.create ()) k in
      Alcotest.(check bool)
        (what ^ ": rewritten file round-trips") true (r2 = fresh))
    [
      ("empty file", "");
      ("wrong header", "not-a-verdict\ngarbage");
      ("truncated payload", "gpcc-symverify-v1\n\000\000");
    ]

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

let suite =
  ( "symverify",
    [
      Alcotest.test_case "registry differential gate" `Slow
        test_registry_differential;
      Alcotest.test_case "loop variables bound at loop entry" `Quick
        test_loop_reuse;
      Alcotest.test_case "negative kernels keep rule ids" `Quick
        test_negative_kernels;
      Alcotest.test_case "random affine agreement" `Slow
        test_random_affine_agreement;
      Alcotest.test_case "Proved_when prunes explore configs" `Quick
        test_proved_when_excludes_configs;
      Alcotest.test_case "parametric verdicts: disk round trip" `Quick
        test_pverdict_disk_round_trip;
      Alcotest.test_case "parametric verdicts: corrupt files recovered"
        `Quick test_pverdict_disk_corruption;
      Alcotest.test_case "verify-incomplete warning" `Quick
        test_verify_incomplete_warning;
    ] )

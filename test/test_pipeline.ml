(** The pass-manager layer: declarative pipelines, the cached analysis
    manager, per-pass remarks, and the deprecated options facade.

    - bit-identity: the declarative driver and the legacy boolean-options
      facade produce byte-identical optimized kernels and launches for
      every registry workload, and repeated (analysis-cache-warm) runs
      change nothing;
    - staged: the single-instrumented-run Figure-12 prefixes equal the
      old per-prefix recompiles;
    - a property test that every registered pass declares its analysis
      invalidations soundly;
    - bounded LRU eviction of the analysis cache (hot entries survive);
    - structured remarks carry the required fields. *)

open Util
module Pipeline = Gpcc_core.Pipeline
module Pass = Gpcc_passes.Pass
module Cache = Gpcc_analysis.Analysis_cache
module Workload = Gpcc_workloads.Workload
module Registry = Gpcc_workloads.Registry

let printed (k : Gpcc_ast.Ast.kernel) (l : Gpcc_ast.Ast.launch) =
  Gpcc_ast.Pp.kernel_to_string ~launch:l k
  ^ Printf.sprintf "launch (%d,%d)x(%d,%d)\n" l.grid_x l.grid_y l.block_x
      l.block_y

(* --- bit-identity: Pipeline.run == the options facade, cold == warm --- *)

let test_bit_identity () =
  List.iter
    (fun (w : Workload.t) ->
      let k = Workload.parse w w.test_size in
      List.iter
        (fun (target, degree) ->
          let pipeline =
            Pipeline.default ~cfg:cfg280 ~target_block_threads:target
              ~merge_degree:degree ()
          in
          let r = Pipeline.run ~pipeline k in
          let via_options =
            let opts =
              {
                ((Gpcc_core.Compiler.default_options ~cfg:cfg280 ())
                 [@alert "-deprecated"])
                with
                target_block_threads = target;
                merge_degree = degree;
              }
            in
            Gpcc_core.Compiler.run ~opts k
          in
          Alcotest.(check string)
            (Printf.sprintf "%s (%d,%d): options facade" w.name target degree)
            (printed r.kernel r.launch)
            (printed via_options.kernel via_options.launch);
          (* a second, analysis-cache-warm run is byte-identical *)
          let r2 = Pipeline.run ~pipeline k in
          Alcotest.(check string)
            (Printf.sprintf "%s (%d,%d): warm rerun" w.name target degree)
            (printed r.kernel r.launch)
            (printed r2.kernel r2.launch))
        [ (256, 16); (128, 4) ])
    Registry.all

(* --- staged: one instrumented run == the old per-prefix recompiles --- *)

let test_staged_matches_prefix_recompiles () =
  List.iter
    (fun name ->
      let w = Registry.find_exn name in
      let naive = Workload.parse w w.test_size in
      let staged =
        Pipeline.staged ~cfg:cfg280 ~target_block_threads:128 ~merge_degree:4
          naive
      in
      (* the pre-refactor staged: one full recompile per cumulative
         prefix, a prefix being a set of disabled passes *)
      let prefixes =
        [
          ("naive",
           [ "vectorize-wide"; "vectorize"; "coalesce"; "merge"; "licm";
             "prefetch"; "partition-camping" ]);
          ("+vectorization",
           [ "coalesce"; "merge"; "licm"; "prefetch"; "partition-camping" ]);
          ("+coalescing", [ "merge"; "licm"; "prefetch"; "partition-camping" ]);
          ("+thread/block merge", [ "prefetch"; "partition-camping" ]);
          ("+prefetching", [ "partition-camping" ]);
          ("+partition camping elim.", []);
        ]
      in
      Alcotest.(check (list string))
        (name ^ ": stage labels") (List.map fst prefixes)
        (List.map (fun (l, _, _) -> l) staged);
      List.iter2
        (fun (label, off) (label', k, l) ->
          Alcotest.(check string) "label" label label';
          let r =
            Pipeline.run
              ~pipeline:
                (Pipeline.disable off
                   (Pipeline.default ~cfg:cfg280 ~target_block_threads:128
                      ~merge_degree:4 ()))
              naive
          in
          let launch =
            if Gpcc_ast.Ast.equal_kernel r.kernel naive then
              Option.value
                (Gpcc_passes.Pass_util.naive_launch naive)
                ~default:r.launch
            else r.launch
          in
          Alcotest.(check string)
            (Printf.sprintf "%s stage %S" name label)
            (printed r.kernel launch) (printed k l))
        prefixes staged)
    [ "mm"; "tp" ]

(* --- property: every pass declares its invalidations soundly --- *)

(* Thread each workload through the registry passes by hand, carrying
   the analyses each pass declares preserved; after every fired
   sub-step, a carried analysis must equal a fresh recomputation on the
   transformed kernel. An unsound [invalidates] declaration (a pass
   that changes an analysis it claims to preserve) fails here. *)
let test_invalidation_declarations_sound () =
  List.iter
    (fun name ->
      let w = Registry.find_exn name in
      let naive = Workload.parse w w.test_size in
      let cache = Cache.create () in
      let ctx =
        { Pass.cfg = cfg280; target_block_threads = 128; merge_degree = 4;
          cache }
      in
      let launch =
        Option.get (Gpcc_passes.Pass_util.initial_launch naive)
      in
      let prime k l =
        ignore (Cache.accesses cache ~launch:l k);
        ignore (Cache.coalesced cache ~launch:l k);
        ignore (Cache.sharing cache ~launch:l k);
        ignore (Cache.regcount cache k);
        ignore (Cache.verify cache ~launch:l k)
      in
      let check_preserved pass step (k : Gpcc_ast.Ast.kernel) l =
        List.iter
          (fun kind ->
            let ok =
              match kind with
              | Cache.Affine ->
                  Cache.accesses cache ~launch:l k
                  = Gpcc_analysis.Coalesce_check.analyze_kernel ~launch:l k
              | Cache.Coalesce ->
                  Cache.coalesced cache ~launch:l k
                  = Gpcc_analysis.Coalesce_check.all_coalesced
                      (Gpcc_analysis.Coalesce_check.analyze_kernel ~launch:l
                         k)
              | Cache.Sharing ->
                  Cache.sharing cache ~launch:l k
                  = Gpcc_analysis.Sharing.analyze ~launch:l k
              | Cache.Regcount ->
                  Cache.regcount cache k
                  = ( Gpcc_analysis.Regcount.estimate k,
                      Gpcc_analysis.Regcount.shared_bytes k )
              | Cache.Verify ->
                  Cache.verify cache ~launch:l k
                  = Gpcc_analysis.Verify.check ~launch:l k
            in
            if not ok then
              Alcotest.failf
                "%s: pass %s (step %S) declares it preserves %s but the \
                 carried value differs from a fresh recomputation"
                name pass step (Cache.kind_name kind))
          (Pass.preserved (Option.get (Pass.find pass)))
      in
      let k = ref naive and l = ref launch in
      List.iter
        (fun (p : Pass.t) ->
          match p.applies ctx !k !l with
          | Pass.Declined _ -> ()
          | Pass.Applies ->
              let emit step k0 l0 f =
                prime k0 l0;
                let o : Gpcc_passes.Pass_util.outcome = f k0 l0 in
                if o.fired then begin
                  Cache.preserve cache ~kinds:(Pass.preserved p)
                    ~from_:(k0, l0) ~to_:(o.kernel, o.launch);
                  check_preserved p.name step o.kernel o.launch
                end;
                o
              in
              let k', l' = p.transform ctx emit !k !l in
              k := k';
              l := l')
        Pass.registry)
    [ "mm"; "mv"; "tp"; "vv"; "rd" ]

(* --- bounded LRU eviction: hot entries survive past capacity --- *)

let test_lru_eviction_keeps_hot_entries () =
  let kernel i =
    parse_kernel
      (Printf.sprintf
         {|#pragma gpcc dim n 64
__kernel void k%d(float a[64], float o[64], int n) {
  o[idx] = a[idx] * %d;
}|}
         i i)
  in
  let cache = Cache.create ~capacity:4 () in
  let touch i = ignore (Cache.regcount cache (kernel i)) in
  touch 1;
  (* churn five cold entries through a capacity-4 slot, re-touching
     entry 1 after each insertion so it stays the hottest *)
  List.iter
    (fun i ->
      touch i;
      touch 1)
    [ 2; 3; 4; 5; 6 ];
  let hits_before = Cache.hits cache in
  touch 1;
  Alcotest.(check int)
    "hot entry survived the churn" (hits_before + 1) (Cache.hits cache);
  let misses_before = Cache.misses cache in
  touch 2;
  Alcotest.(check int)
    "cold entry was evicted" (misses_before + 1) (Cache.misses cache)

(* --- state keys: the per-domain print memo answers like printing --- *)

let test_state_keys_memo () =
  let w = Registry.find_exn "mm" in
  let k = Workload.parse w w.test_size in
  let l1 = Option.get (Gpcc_passes.Pass_util.initial_launch k) in
  let l2 = Option.get (Gpcc_passes.Pass_util.naive_launch k) in
  Alcotest.(check bool) "two launches" false (Gpcc_ast.Ast.equal_launch l1 l2);
  let printed_digest ?launch k =
    Digest.string (Gpcc_ast.Pp.kernel_to_string ?launch k)
  in
  (* the same kernel keyed at two launches in turn, with and without *)
  let keys k =
    [
      Cache.key k l1; Cache.kernel_key k; Cache.key k l2; Cache.key k l1;
      Cache.kernel_key k; Cache.key k l2;
    ]
  in
  let expected k =
    [
      printed_digest ~launch:l1 k; printed_digest k;
      printed_digest ~launch:l2 k; printed_digest ~launch:l1 k;
      printed_digest k; printed_digest ~launch:l2 k;
    ]
  in
  let digests = Alcotest.(list string) in
  Alcotest.check digests "keys are digests of the printed state" (expected k)
    (keys k);
  let copy = { k with k_body = k.k_body } in
  Alcotest.(check bool) "a distinct value" false (copy == k);
  Alcotest.check digests "a structurally equal copy keys the same"
    (expected k) (keys copy);
  let renamed = { k with k_name = "renamed" } in
  Alcotest.check digests "another kernel gets its own keys"
    (expected renamed) (keys renamed);
  Alcotest.check digests "a second domain gets the same keys" (expected k)
    (Domain.join (Domain.spawn (fun () -> keys k)))

(* --- verifier verdicts survive the on-disk round trip --- *)

let test_verify_disk_round_trip () =
  let w = Registry.find_exn "mv" in
  let k = Workload.parse w w.test_size in
  let launch = Option.get (Gpcc_passes.Pass_util.naive_launch k) in
  let fresh = Gpcc_analysis.Verify.check ~launch k in
  (* first fresh instance computes (or reads) and persists the verdict;
     the second starts with an empty memory slot, so it must serve the
     marshalled file — the round trip has to be structurally lossless *)
  let d1 = Cache.verify (Cache.create ()) ~launch k in
  let d2 = Cache.verify (Cache.create ()) ~launch k in
  Alcotest.(check bool) "first instance matches Verify.check" true (d1 = fresh);
  Alcotest.(check bool) "disk round trip is lossless" true (d2 = fresh)

(* --- a corrupt on-disk verdict is dropped and recomputed, not fatal --- *)

let test_verify_disk_corruption () =
  let w = Registry.find_exn "vv" in
  let k = Workload.parse w w.test_size in
  let launch = Option.get (Gpcc_passes.Pass_util.naive_launch k) in
  let fresh = Gpcc_analysis.Verify.check ~launch k in
  (* verdicts now live in the sharded artifact store; locate this
     kernel's entry by its stored key (the full kernel text) rather
     than re-deriving the digest scheme *)
  let root = Gpcc_util.Store.default_root () in
  let full = Gpcc_ast.Pp.kernel_to_string ~launch k in
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
  let verdict_files () =
    Sys.readdir root |> Array.to_list
    |> List.concat_map (fun shard ->
           let d = Filename.concat root shard in
           if Sys.is_directory d then
             Sys.readdir d |> Array.to_list
                (* note: [check_suffix ".verdict"] would also match
                   the parametric ".pverdict" entries *)
             |> List.filter (fun f -> Filename.extension f = ".verdict")
             |> List.map (Filename.concat d)
           else [])
  in
  let entries () =
    List.filter (fun p -> contains ~needle:full (read_file p)) (verdict_files ())
  in
  (* a store used before a codec-version bump still holds this key's
     orphaned older entries: drop them all so the baseline writes the
     one live entry *)
  List.iter Sys.remove (entries ());
  let d1 = Cache.verify (Cache.create ()) ~launch k in
  Alcotest.(check bool) "baseline verdict" true (d1 = fresh);
  let path =
    match entries () with
    | [ p ] -> p
    | ps ->
        Alcotest.failf "expected exactly one verdict entry for kernel, got %d"
          (List.length ps)
  in
  Alcotest.(check bool) "verdict file exists" true (Sys.file_exists path);
  let overwrite content =
    let oc = open_out_bin path in
    output_string oc content;
    close_out oc
  in
  let recovered what =
    (* a fresh instance must treat the damaged file as a miss, recompute
       the verdict, and leave a readable file behind *)
    let d = Cache.verify (Cache.create ()) ~launch k in
    Alcotest.(check bool) (what ^ ": verdict recomputed") true (d = fresh);
    let d2 = Cache.verify (Cache.create ()) ~launch k in
    Alcotest.(check bool) (what ^ ": rewritten file round-trips") true
      (d2 = fresh)
  in
  overwrite "";
  recovered "empty file";
  overwrite "gpcc-verify-v2\n";
  recovered "truncated after header";
  overwrite "gpcc-verify-v1\nstale-format-payload";
  recovered "old format version";
  overwrite "gpcc-verify-v2\nthis is not marshalled data";
  recovered "garbage payload"

(* --- remarks: structure and JSON emission --- *)

let test_remarks_structure () =
  let w = Registry.find_exn "mm" in
  let r = compile (Workload.parse w w.test_size) in
  let remarks = Pipeline.remarks r in
  Alcotest.(check bool) "one remark per step" true
    (List.length remarks = List.length r.steps && remarks <> []);
  List.iter
    (fun (rm : Gpcc_core.Remark.t) ->
      Alcotest.(check bool) "pass name non-empty" true (rm.pass <> "");
      Alcotest.(check bool) "step label non-empty" true (rm.step <> "");
      Alcotest.(check bool) "paper section non-empty" true (rm.section <> "");
      Alcotest.(check bool) "reason non-empty" true (rm.reason <> "");
      Alcotest.(check bool) "duration is a time" true (rm.duration_ms >= 0.0);
      Alcotest.(check bool) "metrics populated" true
        (rm.before_m.threads_per_block > 0 && rm.after_m.threads_per_block > 0);
      if not rm.fired then
        Alcotest.(check bool) "declined step keeps metrics equal" true
          (rm.before_m = rm.after_m))
    remarks;
  (* at least one fired merge sub-step reshapes the launch *)
  Alcotest.(check bool) "merge fired with metric delta" true
    (List.exists
       (fun (rm : Gpcc_core.Remark.t) ->
         rm.pass = "merge" && rm.fired && rm.after_m <> rm.before_m)
       remarks);
  let json = Pipeline.remarks_json r in
  List.iter
    (assert_contains "remarks json" json)
    [
      {|"schema":"gpcc-remarks-v1"|}; {|"pass":|}; {|"fired":|};
      {|"duration_ms":|}; {|"before":|}; {|"after":|}; {|"regs":|};
    ]

(* --- pipeline surgery: --passes / --disable-pass semantics --- *)

let test_pipeline_surgery () =
  let p = Pipeline.default () in
  Alcotest.(check (list string))
    "registry order"
    [ "vectorize-wide"; "vectorize"; "coalesce"; "merge"; "licm";
      "partition-camping"; "prefetch" ]
    (Pipeline.pass_names p);
  let disabled = Pipeline.disable [ "prefetch"; "merge" ] p in
  Alcotest.(check (list string))
    "disable removes from the enabled set"
    [ "vectorize-wide"; "vectorize"; "coalesce"; "licm"; "partition-camping" ]
    (Pipeline.enabled_names disabled);
  Alcotest.(check (list string))
    "with_passes keeps the user's order" [ "coalesce"; "vectorize" ]
    (Pipeline.enabled_names (Pipeline.with_passes [ "coalesce"; "vectorize" ] p));
  (match Pipeline.disable [ "no-such-pass" ] p with
  | exception Invalid_argument m ->
      assert_contains "unknown pass error lists the registry" m "coalesce"
  | _ -> Alcotest.fail "unknown pass name accepted");
  let descr = Pipeline.describe disabled in
  List.iter
    (assert_contains "describe" descr)
    [ "merge"; "3.5"; "invalidates" ]

(* --- the deprecated facade still routes through the pass manager --- *)

let test_options_facade_mapping () =
  let opts =
    ((Gpcc_core.Compiler.default_options ()) [@alert "-deprecated"])
  in
  Alcotest.(check (list string))
    "all-on options denote the full pipeline"
    (Pipeline.enabled_names (Pipeline.default ()))
    (Pipeline.enabled_names (Gpcc_core.Compiler.pipeline_of_options opts));
  Alcotest.(check (list string))
    "enable_merge gates merge and the hoisting cleanup"
    [ "vectorize-wide"; "vectorize"; "coalesce"; "partition-camping";
      "prefetch" ]
    (Pipeline.enabled_names
       (Gpcc_core.Compiler.pipeline_of_options { opts with enable_merge = false }));
  Alcotest.(check (list string))
    "enable_vectorize gates both Section-3.1 passes"
    [ "coalesce"; "merge"; "licm"; "partition-camping"; "prefetch" ]
    (Pipeline.enabled_names
       (Gpcc_core.Compiler.pipeline_of_options
          { opts with enable_vectorize = false }))

let suite =
  ( "pipeline",
    [
      Alcotest.test_case "bit-identity: driver == options facade, cold == warm"
        `Slow test_bit_identity;
      Alcotest.test_case "staged == per-prefix recompiles (mm, tp)" `Quick
        test_staged_matches_prefix_recompiles;
      Alcotest.test_case "pass invalidation declarations are sound" `Quick
        test_invalidation_declarations_sound;
      Alcotest.test_case "analysis cache: LRU keeps hot entries" `Quick
        test_lru_eviction_keeps_hot_entries;
      Alcotest.test_case "analysis cache: keys match printing" `Quick
        test_state_keys_memo;
      Alcotest.test_case "verifier verdicts: disk round trip" `Quick
        test_verify_disk_round_trip;
      Alcotest.test_case "verifier verdicts: corrupt files recovered" `Quick
        test_verify_disk_corruption;
      Alcotest.test_case "remarks: structure and JSON" `Quick
        test_remarks_structure;
      Alcotest.test_case "pipeline surgery: disable / with_passes / describe"
        `Quick test_pipeline_surgery;
      Alcotest.test_case "options facade maps onto the pass manager" `Quick
        test_options_facade_mapping;
    ] )

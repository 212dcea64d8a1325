(** The pass-manager layer: declarative pipelines, the cached analysis
    manager and per-pass remarks.

    - bit-identity: repeated (analysis-cache-warm) runs of the driver
      produce byte-identical optimized kernels and launches for every
      registry workload;
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

(* --- bit-identity: cold == warm --- *)

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

(* the launch comment spliced into the one print of a state is what
   printing with the launch gives, whichever pragma lines precede it *)
let test_printed_splices_launch () =
  let launch =
    { Gpcc_ast.Ast.grid_x = 4; grid_y = 2; block_x = 16; block_y = 8 }
  in
  let body =
    "__kernel void k(float a[64], float b[64], int n, int m) {\n\
    \  b[idx] = a[idx];\n\
     }"
  in
  List.iter
    (fun (name, pragmas) ->
      let k = parse_kernel (pragmas ^ body) in
      Alcotest.(check string)
        (name ^ ", at a launch")
        (Gpcc_ast.Pp.kernel_to_string ~launch k)
        (Cache.printed ~launch k);
      Alcotest.(check string)
        (name ^ ", bare")
        (Gpcc_ast.Pp.kernel_to_string k)
        (Cache.printed k))
    [
      ("no pragmas", "");
      ("sizes only", "#pragma gpcc dim n 64\n#pragma gpcc dim m 8\n");
      ("outputs only", "#pragma gpcc output a b\n");
      ("both", "#pragma gpcc dim n 64\n#pragma gpcc output b\n");
    ]

(* --- a warm store serves proved launches from verification records --- *)

(* The states a compile validates: the input at its launch and each
   fired step's output. *)
let validated naive (r : Pipeline.result) =
  (naive, Option.get (Gpcc_passes.Pass_util.initial_launch naive))
  :: List.filter_map
       (fun (s : Pipeline.step) ->
         if s.fired then Some (s.kernel_after, s.launch_after) else None)
       r.steps

(* The states of a compile the verifier rejects: those [validated] gives
   for the unverified compile, up to the first with an error. *)
let validated_until_rejected ~pipeline naive =
  let r =
    Pipeline.run ~pipeline:{ pipeline with Pipeline.verify = false } naive
  in
  let rec upto = function
    | [] -> []
    | ((k, launch) as s) :: rest ->
        if Gpcc_analysis.Verify.is_clean (Gpcc_analysis.Verify.check ~launch k)
        then s :: upto rest
        else [ s ]
  in
  upto (validated naive r)

let distinct_texts states =
  List.sort_uniq String.compare
    (List.map (fun (k, _) -> Cache.kernel_key k) states)

(* The registry x grid sweep on the GTX 280 in a fresh domain (a fresh
   analysis cache, as in a fresh process): each configuration's
   transcript (every step's diagnostics, or the rejection), the states
   it validated, and what the domain walked and derived. *)
let sweep_in_fresh_domain () =
  Domain.join
    (Domain.spawn (fun () ->
         let runs =
           List.concat_map
             (fun (w : Workload.t) ->
               let naive =
                 Workload.parse w (List.assoc w.name Golden_sweep.sizes)
               in
               List.concat_map
                 (fun target ->
                   List.map
                     (fun degree ->
                       let pipeline =
                         Pipeline.default ~cfg:cfg280
                           ~target_block_threads:target ~merge_degree:degree
                           ()
                       in
                       match Pipeline.run ~pipeline naive with
                       | r ->
                           ( List.map
                               (fun (s : Pipeline.step) ->
                                 s.step_name ^ " "
                                 ^ Gpcc_analysis.Verify.json_of_diagnostics
                                     s.diagnostics)
                               r.steps,
                             `Validated (validated naive r) )
                       | exception e when Pipeline.verifier_rejected e ->
                           ( [ Printexc.to_string e ],
                             `Rejected (pipeline, naive) ))
                     Gpcc_core.Explore.default_merge_degrees)
                 Gpcc_core.Explore.default_block_targets)
             Registry.all
         in
         (runs, Cache.work (Cache.domain ()))))

(* A cold registry x grid sweep walks each distinct kernel text once,
   whatever the number of launches it is validated at. On the store it
   filled, a sweep in a fresh domain reports every step's diagnostics
   byte for byte and walks each text at most once. Replayed through
   [verify_sym] in a fresh instance on that store, a proved launch that
   a stored record carries costs no walk and no derivation, and any
   other is linted from its text's plan with one derivation, each text
   walked once, some at two launches. *)
let test_warm_records_serve_lints () =
  let store = Gpcc_util.Store.open_root () in
  Gpcc_util.Store.clear ~kind:"pverdict" store;
  Gpcc_util.Store.clear ~kind:"verdict" store;
  let cold, cold_work = sweep_in_fresh_domain () in
  let states =
    List.concat_map
      (fun (_, v) ->
        match v with
        | `Validated states -> states
        | `Rejected (pipeline, naive) ->
            validated_until_rejected ~pipeline naive)
      cold
  in
  let texts = distinct_texts states in
  Alcotest.(check int)
    "a cold sweep walks each distinct kernel text once" (List.length texts)
    cold_work.walks;
  let warm, warm_work = sweep_in_fresh_domain () in
  Alcotest.(check (list (list string)))
    "every step's diagnostics" (List.map fst cold) (List.map fst warm);
  Alcotest.(check bool)
    "a warm sweep walks a text at most once" true
    (warm_work.walks <= List.length texts);
  (* the proved launches, a text's launches together *)
  let stored = Cache.create () in
  let proved =
    List.filter
      (fun (k, (l : Gpcc_ast.Ast.launch)) ->
        l.block_x * l.block_y <= 512
        && Gpcc_analysis.Symverify.decide (Cache.symbolic_result stored k) l
           = `Clean)
      states
    |> List.map (fun (k, l) -> ((Cache.kernel_key k, Cache.key k l), (k, l)))
    |> List.sort_uniq (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
  in
  let replay = Cache.create () in
  let linted =
    List.filter
      (fun (k, (l : Gpcc_ast.Ast.launch)) ->
        let carried =
          List.exists
            (fun (l', _) -> Gpcc_ast.Ast.equal_launch l l')
            (Cache.record_lints stored k)
        in
        let before = Cache.work replay in
        ignore (Cache.verify_sym replay ~launch:l k);
        let after = Cache.work replay in
        let walks = after.walks - before.walks
        and derivations = after.derivations - before.derivations in
        if
          if carried then walks <> 0 || derivations <> 0
          else walks > 1 || derivations <> 1
        then
          Alcotest.failf "%s at (%d,%d)x(%d,%d): %d walks, %d derivations"
            k.k_name l.grid_x l.grid_y l.block_x l.block_y walks derivations;
        not carried)
      proved
  in
  Alcotest.(check bool)
    "some launches are served by a stored record" true
    (List.length linted < List.length proved);
  Alcotest.(check int)
    "the others are linted from one walk of their text"
    (List.length (distinct_texts linted))
    (Cache.work replay).walks;
  Alcotest.(check bool)
    "some texts are linted at two launches" true
    (List.length (distinct_texts linted) < List.length linted)

(* --- the step table: a served step equals a computed one --- *)

let in_fresh_domain f = Domain.join (Domain.spawn f)

let grid =
  List.concat_map
    (fun target ->
      List.map (fun degree -> (target, degree))
        Gpcc_core.Explore.default_merge_degrees)
    Gpcc_core.Explore.default_block_targets

let sweep_kernels () =
  List.map
    (fun (w : Workload.t) ->
      (w.name, Workload.parse w (List.assoc w.name Golden_sweep.sizes)))
    (Registry.all @ Registry.extras)

let outcome ?(specs = Fun.id) ~cfg (target, degree) naive =
  let p =
    Pipeline.default ~cfg ~target_block_threads:target ~merge_degree:degree ()
  in
  match Pipeline.run ~pipeline:{ p with specs = specs p.specs } naive with
  | r -> Ok r
  | exception e -> Error e

let runs pass =
  fst
    (Option.value ~default:(0, 0.0)
       (List.assoc_opt pass (Pipeline.pass_timings ())))

let computed () =
  List.fold_left (fun n (_, (runs, _)) -> n + runs) 0 (Pipeline.pass_timings ())

(* [configs] compiled in order in one domain: each one [check] selects
   reports what it reports compiled alone in a fresh domain (a fresh
   step table and analysis cache). *)
let check_served_equal_fresh what ~check configs =
  let served =
    in_fresh_domain (fun () ->
        List.map
          (fun ((_, cfg, point, naive) as c) ->
            (c, Golden_sweep.transcript (outcome ~cfg point naive)))
          configs)
  in
  List.iter
    (fun (((name, (cfg : Gpcc_sim.Config.t), (target, degree), naive) as c),
          transcript) ->
      if
        check c
        && not
             (String.equal transcript
                (in_fresh_domain (fun () ->
                     Golden_sweep.transcript
                       (outcome ~cfg (target, degree) naive))))
      then
        Alcotest.failf "%s: %s on %s at (%d, %d) differs from a fresh compile"
          what name cfg.name target degree)
    served

(* The registry x grid on two machines the golden pins do not cover:
   the HD 5870, whose wide vectorization takes its width from the input
   launch, and a GTX 280 that differs from the stock one only in its
   partition count, compiled right after the stock one, so a table keyed
   by the machine's name would serve it the stock partition-camping
   steps. *)
let test_served_steps_equal_fresh () =
  let modified = { cfg280 with num_partitions = 4 } in
  check_served_equal_fresh "registry x grid"
    ~check:(fun (_, cfg, _, _) -> cfg != cfg280)
    (List.concat_map
       (fun (name, naive) ->
         List.concat_map
           (fun cfg -> List.map (fun point -> (name, cfg, point, naive)) grid)
           [ cfg280; modified; Gpcc_sim.Config.hd5870 ])
       (sweep_kernels ()))

(* A second compile whose steps diverge from the first one's part way:
   mm's thread merge along Y at a second degree, and tmv's block merge
   at a second target. *)
let test_second_compile_equals_fresh () =
  let kernels = sweep_kernels () in
  List.iter
    (fun (name, first, second) ->
      let naive = List.assoc name kernels in
      check_served_equal_fresh "second compile"
        ~check:(fun (_, _, point, _) -> point = second)
        [ (name, cfg280, first, naive); (name, cfg280, second, naive) ])
    [ ("mm", (256, 16), (256, 32)); ("tmv", (16, 16), (512, 16)) ]

(* A cold sweep of each kernel's grid computes [vectorize] once and
   every distinct step (pass, label and input state) once; sweeping the
   grid again in the same domain computes nothing and serves every
   step. The emitted steps are seen through passes that wrap the
   registry's, under the same names. *)
let test_each_step_computed_once () =
  in_fresh_domain (fun () ->
      List.iter
        (fun (name, naive) ->
          let emitted = Hashtbl.create 128 and calls = ref 0 in
          let watch (spec : Pipeline.spec) =
            let p = spec.sp_pass in
            let transform ctx emit k l =
              p.transform ctx
                (fun label k0 l0 f ->
                  incr calls;
                  Hashtbl.replace emitted (p.name, label, Cache.key k0 l0) ();
                  emit label k0 l0 f)
                k l
            in
            { spec with sp_pass = { p with transform } }
          in
          let sweep () =
            let computed0 = computed ()
            and served0 = Pipeline.served_steps ()
            and vectorize0 = runs "vectorize" in
            calls := 0;
            List.iter
              (fun point ->
                ignore
                  (outcome ~specs:(List.map watch) ~cfg:cfg280 point naive))
              grid;
            ( computed () - computed0,
              Pipeline.served_steps () - served0,
              runs "vectorize" - vectorize0 )
          in
          let cold, cold_served, cold_vectorize = sweep () in
          let distinct = Hashtbl.length emitted in
          Alcotest.(check int) (name ^ ": vectorize computed once") 1
            cold_vectorize;
          Alcotest.(check int)
            (name ^ ": each distinct step computed once") distinct cold;
          Alcotest.(check int)
            (name ^ ": the others served") (!calls - distinct) cold_served;
          let warm, warm_served, _ = sweep () in
          Alcotest.(check int) (name ^ ": a second sweep computes none") 0 warm;
          Alcotest.(check int) (name ^ ": and serves every step") !calls
            warm_served;
          Alcotest.(check int)
            (name ^ ": on the same states") distinct (Hashtbl.length emitted))
        (sweep_kernels ()))

(* --- an explored naive text's record carries its lints --- *)

(* Explore asks for the naive text's proof before compiling anything. It
   asks at the launch the pipeline validates the input at, so the record
   it stores carries that launch's lints, and a warm explore in a fresh
   domain (a fresh analysis cache, like a fresh process) is served the
   naive text's lints by the stored record: it walks and derives what an
   explore whose naive lints were already served does. A warm explore
   walks each text it validates at most once, so a proved launch costs
   no walk, and the launches no stored record carries (a text proved at
   a second launch) are linted from the text's plan, as one-lane checks
   would lint them. *)
let test_explore_naive_record_lints () =
  let w = Registry.find_exn "mm" in
  let naive = Workload.parse w w.test_size in
  let launch = Option.get (Gpcc_passes.Pass_util.initial_launch naive) in
  (* cold for this text: drop its stored record *)
  List.iter drop_record
    (store_records ~kind:"pverdict" (Gpcc_ast.Pp.kernel_to_string naive));
  let fresh_domain f =
    Domain.join
      (Domain.spawn (fun () ->
           let v = f () in
           (v, Cache.work (Cache.domain ()))))
  in
  let explore () =
    Gpcc_core.Explore.search ~cfg:cfg280 ~block_targets:[ 64; 128 ]
      ~merge_degrees:[ 1; 4 ] ~jobs:1 naive ~measure:(fun _ _ -> 1.0)
  in
  let _, _ = fresh_domain explore in
  (* the warm explore, and in its domain each validated state that is
     proved clean with lints no stored record carries, with whether its
     in-memory lints are the one-lane check's *)
  let (texts, second), warm =
    fresh_domain (fun () ->
        let states =
          List.concat_map
            (fun (c : Gpcc_core.Explore.candidate) -> validated naive c.result)
            (explore ())
        in
        let stored = Cache.create () in
        let second =
          List.filter_map
            (fun (k, (l : Gpcc_ast.Ast.launch)) ->
              let at_launch (l', _) = Gpcc_ast.Ast.equal_launch l l' in
              if
                l.block_x * l.block_y <= 512
                && Gpcc_analysis.Symverify.decide
                     (Cache.symbolic_result stored k) l
                   = `Clean
                && not (List.exists at_launch (Cache.record_lints stored k))
              then
                Some
                  ( Cache.key k l,
                    List.find_opt at_launch
                      (Cache.record_lints (Cache.domain ()) k)
                    = Some
                        ( l,
                          List.filter
                            (fun (d : Gpcc_analysis.Verify.diagnostic) ->
                              d.rule
                              <> Gpcc_analysis.Verify.rule_verify_incomplete)
                            (Gpcc_analysis.Verify.check ~max_lanes:1 ~launch:l
                               k) ) )
              else None)
            states
          |> List.sort_uniq compare
        in
        (distinct_texts states, second))
  in
  let served, after =
    fresh_domain (fun () ->
        ignore (Cache.verify_sym (Cache.domain ()) ~launch naive);
        let served = Cache.work (Cache.domain ()) in
        ignore (explore ());
        served)
  in
  Alcotest.(check bool)
    "the naive text is proved at its launch" true
    (Gpcc_analysis.Symverify.decide
       (Cache.symbolic_result (Cache.create ()) naive)
       launch
    = `Clean);
  Alcotest.(check (pair int int))
    "its lints come from the stored record" (0, 0)
    (served.walks, served.derivations);
  Alcotest.(check (pair int int))
    "the warm explore walks and derives for other texts only"
    (after.walks, after.derivations)
    (warm.walks, warm.derivations);
  Alcotest.(check bool)
    "a warm explore walks each text at most once" true
    (warm.walks <= List.length texts);
  Alcotest.(check bool)
    "some launches are linted past the stored record" true (second <> []);
  List.iter
    (fun (key, same) ->
      if not same then
        Alcotest.failf "%s: lints served from the plan differ"
          (Digest.to_hex key))
    second

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
  (* locate this kernel's record by its stored key (the full kernel
     text) rather than re-deriving the digest scheme *)
  let full = Gpcc_ast.Pp.kernel_to_string ~launch k in
  let records () = store_records ~kind:"verdict" full in
  (* a store used before a codec-version bump still holds this key's
     orphaned older records: drop them all so the baseline writes the
     one live record *)
  List.iter drop_record (records ());
  let d1 = Cache.verify (Cache.create ()) ~launch k in
  Alcotest.(check bool) "baseline verdict" true (d1 = fresh);
  let record () =
    match records () with
    | [ r ] -> r
    | rs ->
        Alcotest.failf "expected exactly one verdict record for kernel, got %d"
          (List.length rs)
  in
  let recovered what =
    (* a fresh instance must treat the damaged record as a miss,
       recompute the verdict, and leave a readable record behind *)
    let d = Cache.verify (Cache.create ()) ~launch k in
    Alcotest.(check bool) (what ^ ": verdict recomputed") true (d = fresh);
    let d2 = Cache.verify (Cache.create ()) ~launch k in
    Alcotest.(check bool) (what ^ ": rewritten record round-trips") true
      (d2 = fresh)
  in
  List.iter
    (fun (what, content) ->
      let r = record () in
      overwrite_record r (content r);
      recovered what)
    [
      ("empty file", fun _ -> "");
      ("truncated after header", fun _ -> "gpcc-verify-v2\n");
      ("old format version", fun _ -> "gpcc-verify-v1\nstale-format-payload");
      ("garbage payload", fun _ -> "gpcc-verify-v2\nthis is not marshalled data");
      ( "well-formed record, undecodable payload",
        fun r -> envelope r "this is not marshalled data" );
    ]

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

(* the verifier's walk fills the [Affine] slot: on every state a
   compile validates, the table it reads off that walk must be the
   access table, and its diagnostics those of [Verify.check] *)
let test_verifier_table_is_access_table () =
  List.iter
    (fun (w : Workload.t) ->
      let naive = Workload.parse w w.test_size in
      let r = Pipeline.run ~pipeline:(Pipeline.default ~cfg:cfg280 ()) naive in
      List.iter
        (fun (s : Pipeline.step) ->
          let k = s.kernel_after and launch = s.launch_after in
          let ds, table =
            Gpcc_analysis.Verify.(check_plan ~max_lanes:1 (plan k) ~launch)
          in
          if
            table <> Gpcc_analysis.Coalesce_check.analyze_kernel ~launch k
            || ds <> Gpcc_analysis.Verify.check ~max_lanes:1 ~launch k
          then Alcotest.failf "%s, step %S: verifier table differs" w.name
              s.step_name)
        r.steps)
    Registry.all

(* --- property: served lints equal the one-lane check --- *)

let one_lane (k : Gpcc_ast.Ast.kernel) launch =
  List.filter
    (fun (d : Gpcc_analysis.Verify.diagnostic) ->
      d.rule <> Gpcc_analysis.Verify.rule_verify_incomplete)
    (Gpcc_analysis.Verify.check ~max_lanes:1 ~launch k)

(* Distinct kernel texts, each with the launches to check it at in
   order: those it was validated at, then neighbours
   ({!Test_symverify.launch_grid}), so that a text is linted at more
   than one launch. *)
let lint_targets () :
    (string * Gpcc_ast.Ast.kernel * Gpcc_ast.Ast.launch list) list =
  let order = ref [] and launches = Hashtbl.create 256 in
  let add name k l =
    let key = Cache.kernel_key k in
    if not (Hashtbl.mem launches key) then begin
      Hashtbl.replace launches key (k, ref []);
      order := (name, key) :: !order
    end;
    let ls = snd (Hashtbl.find launches key) in
    if not (List.exists (Gpcc_ast.Ast.equal_launch l) !ls) then
      ls := !ls @ [ l ]
  in
  (* every state the registry x grid sweep validates *)
  List.iter
    (fun (r : Golden_sweep.run) ->
      match r.outcome with
      | Ok res ->
          List.iter
            (fun (k, l) -> add r.workload k l)
            (validated r.naive res)
      | Error _ -> ())
    (Lazy.force Golden_sweep.runs);
  (* the fuzz corpus, compiled without validation *)
  List.iter
    (fun ((spec : Test_fuzz.spec), (target, degree, _)) ->
      let k = parse_kernel (Test_fuzz.source_of_spec spec) in
      let pipeline =
        Pipeline.default ~cfg:cfg280 ~target_block_threads:target
          ~merge_degree:degree ~verify:false ()
      in
      List.iter
        (fun (k, l) -> add "fuzz" k l)
        (validated k (Pipeline.run ~pipeline k)))
    (QCheck.Gen.generate ~rand:(Random.State.make [| 23 |]) ~n:20
       QCheck.Gen.(pair Test_fuzz.gen_spec Test_fuzz.knob_gen));
  (* the verifier reproducers *)
  List.iter
    (fun (name, src) ->
      let k = parse_kernel src in
      add name k (Option.get (Gpcc_passes.Pass_util.initial_launch k)))
    (List.map (fun (n, s, _) -> (n, s)) loop_carried_cases
    @ List.map (fun (n, s, _) -> (n, s)) reduce_cases
    @ List.map (fun (n, s, _) -> (n, s)) rebound_cases);
  List.rev_map
    (fun (name, key) ->
      let k, ls = Hashtbl.find launches key in
      let neighbours =
        List.filter
          (fun l -> not (List.exists (Gpcc_ast.Ast.equal_launch l) !ls))
          (Test_symverify.launch_grid (List.hd !ls))
      in
      (name, k, !ls @ List.filteri (fun i _ -> i < 2) neighbours))
    !order

(* The lints [verify_sym] serves at a launch the symbolic tier proves
   clean are the one-lane check's, without its [verify-incomplete]
   warning, whichever way they are served: by the text's stored record
   read back by a fresh instance, by a plan built for the launch, or by
   the plan of an earlier launch of the text. A launch the tier does not
   prove is linted from the text's plan to the same diagnostics. Both
   range and bank-check a replica group through its representative; at
   every launch they must equal the lints of the same plan with every
   access its own group ({!Gpcc_analysis.Verify.singletons}). At every
   launch the [Affine] slot's table is the access table. *)
let test_served_lints_equal_one_lane () =
  let served = Hashtbl.create 3 in
  let count path = Hashtbl.replace served path () in
  List.iter
    (fun (name, (k : Gpcc_ast.Ast.kernel), launches) ->
      let proof = Gpcc_analysis.Symverify.check k in
      let plan = Gpcc_analysis.Verify.plan k in
      let ungrouped = Gpcc_analysis.Verify.singletons plan in
      (* twice, each in a fresh instance: the first may compute the
         text's record, the second reads it back *)
      List.iter
        (fun () ->
          let c = Cache.create () in
          List.iter
            (fun (l : Gpcc_ast.Ast.launch) ->
              let want = one_lane k l in
              let before = Cache.work c in
              let proved =
                l.block_x * l.block_y <= 512
                && Gpcc_analysis.Symverify.decide proof l = `Clean
              in
              let fail what =
                Alcotest.failf "%s %s at (%d,%d)x(%d,%d): %s differ" name
                  k.k_name l.grid_x l.grid_y l.block_x l.block_y what
              in
              if fst (Gpcc_analysis.Verify.lint ungrouped ~launch:l) <> want
              then fail "ungrouped lints";
              if proved then begin
                let got = Cache.verify_sym c ~launch:l k in
                let after = Cache.work c in
                count
                  (if after.walks > before.walks then `Fresh_plan
                   else if after.derivations > before.derivations then
                     `Reused_plan
                   else `Record);
                if got <> want then fail "served lints"
              end
              else if fst (Gpcc_analysis.Verify.lint plan ~launch:l) <> want
              then fail "plan lints";
              if
                Cache.accesses c ~launch:l k
                <> Gpcc_analysis.Coalesce_check.analyze_kernel ~launch:l k
              then fail "access tables")
            launches)
        [ (); () ])
    (lint_targets ());
  List.iter
    (fun (path, what) ->
      Alcotest.(check bool)
        ("some lints served " ^ what) true
        (Hashtbl.mem served path))
    [
      (`Record, "by a stored record");
      (`Fresh_plan, "by a fresh plan");
      (`Reused_plan, "by a plan reused at a second launch");
    ]

let suite =
  ( "pipeline",
    [
      Alcotest.test_case "bit-identity: cold == warm rerun" `Slow
        test_bit_identity;
      Alcotest.test_case "staged == per-prefix recompiles (mm, tp)" `Quick
        test_staged_matches_prefix_recompiles;
      Alcotest.test_case "pass invalidation declarations are sound" `Quick
        test_invalidation_declarations_sound;
      Alcotest.test_case "analysis cache: LRU keeps hot entries" `Quick
        test_lru_eviction_keeps_hot_entries;
      Alcotest.test_case "analysis cache: keys match printing" `Quick
        test_state_keys_memo;
      Alcotest.test_case "analysis cache: launch spliced into print" `Quick
        test_printed_splices_launch;
      Alcotest.test_case "verification records serve a warm compile" `Quick
        test_warm_records_serve_lints;
      Alcotest.test_case "explored naive records carry their lints" `Quick
        test_explore_naive_record_lints;
      Alcotest.test_case "step table: served steps equal fresh compiles"
        `Slow test_served_steps_equal_fresh;
      Alcotest.test_case "step table: a second compile equals a fresh one"
        `Quick test_second_compile_equals_fresh;
      Alcotest.test_case "step table: each distinct step computed once"
        `Quick test_each_step_computed_once;
      Alcotest.test_case "verifier verdicts: disk round trip" `Quick
        test_verify_disk_round_trip;
      Alcotest.test_case "verifier verdicts: corrupt files recovered" `Quick
        test_verify_disk_corruption;
      Alcotest.test_case "remarks: structure and JSON" `Quick
        test_remarks_structure;
      Alcotest.test_case "pipeline surgery: disable / with_passes / describe"
        `Quick test_pipeline_surgery;
      Alcotest.test_case "analysis cache: verifier table is the access table"
        `Quick test_verifier_table_is_access_table;
      Alcotest.test_case "analysis cache: served lints equal one-lane checks"
        `Quick test_served_lints_equal_one_lane;
    ] )

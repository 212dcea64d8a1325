(** Design-space exploration (paper Section 4).

    The number of threads per block (via thread-block merge) and the
    number of threads merged into one (via thread merge) interact
    non-linearly with occupancy and reuse, so — exactly like the paper —
    the compiler generates one kernel version per configuration and picks
    the best by empirically running each one (here: on the simulator; in
    the paper: on the GPU).

    The candidate space widens the paper's Section-4 grid: targets
    {!default_block_targets} and merge degrees {!default_merge_degrees}
    (see the mli for why).

    Two search strategies share the compile phase (every configuration
    compiled in parallel on a {!Pool}, kernels that compiled identically
    grouped by a digest of their printed text and scored once):

    - {!search_with_failures}: the paper's exhaustive sweep — every
      distinct version fully measured;
    - {!search_funnel}: the model-guided funnel — rank every version
      with a single-block probe through {!Gpcc_analysis.Cost_model},
      prune dominated predictions, run the survivors through successive
      halving on growing block budgets (partial simulation), and fully
      measure only the final rung.

    Per-candidate failures are isolated in both: a raising compile,
    probe or measurement is recorded, never aborting the sweep. *)

open Gpcc_ast
module Cost_model = Gpcc_analysis.Cost_model
module Pool = Gpcc_util.Pool

type provenance =
  [ `Measured  (** fully measured (possibly served from the cache) *)
  | `Halved of int  (** eliminated at this halving rung (1-based);
                        score is the partial-simulation estimate *)
  | `Pruned  (** dominated at stage 1; score is the model prediction *)
  | `Predicted  (** score is the model prediction and no empirical run
                    happened (the probe failed, or halving was cut) *) ]

type candidate = {
  target_block_threads : int;
  merge_degree : int;
  result : Pipeline.result;
  score : float;  (** GFLOPS, higher is better; see [provenance] *)
  provenance : provenance;
}

type failure = {
  failed_target : int;
  failed_degree : int;
  failed_stage : [ `Compile | `Verify | `Predict | `Measure ];
  reason : string;
}

let default_block_targets = [ 16; 32; 64; 128; 256; 512 ]
let default_merge_degrees = [ 1; 4; 8; 16; 32 ]
let default_prune_threshold = 0.5

type funnel = {
  f_configs : int;  (** (target, degree) points compiled *)
  f_distinct : int;  (** distinct kernel versions (digest groups) *)
  f_predicted : int;  (** stage-1 probes (predictions computed) *)
  f_pruned : int;  (** groups discarded on the prediction alone *)
  f_rungs : int;  (** successive-halving rungs run *)
  f_partial_runs : int;
      (** partial-simulation measurements that actually executed (cache
          hits are not counted, so a warm replay reports 0) *)
  f_measured : int;  (** groups fully measured (the final rung) *)
  f_spearman : float;
      (** Spearman rank correlation of prediction vs the best empirical
          score, over the stage-1 survivors *)
  f_spearman_n : int;  (** pairs the correlation ranks *)
}

(* phase-1 outcome for one (target, degree) configuration *)
type compiled = {
  c_target : int;
  c_degree : int;
  c_result : Pipeline.result;
  c_digest : string;  (** of the printed kernel + launch *)
}

(* cache keys embed the block budget so a partial-simulation estimate
   can never masquerade as a full measurement (and vice versa) *)
let full_key prefix digest = prefix ^ "|full|" ^ digest
let probe_key prefix digest = prefix ^ "|probe|" ^ digest

let rung_key prefix budget digest =
  Printf.sprintf "%s|b%d|%s" prefix budget digest

(* the [bool] reports a cache hit, so callers can count only the
   simulations that actually executed (e.g. [f_partial_runs]) *)
let cached_score cache key compute : float * bool =
  match Option.bind cache (fun c -> Explore_cache.find c key) with
  | Some s -> (s, true)
  | None ->
      let s = compute () in
      Option.iter (fun c -> Explore_cache.store c key s) cache;
      (s, false)

(* --- phase 1: compile every configuration ---------------------------- *)

let compile_all pool ~cfg configs naive :
    compiled list * failure list =
  (* symbolic pre-filter: one launch-parametric proof covers the whole
     grid, and a violation that provably fires at every launch with a
     config's block-thread product excludes that config before any
     compilation (the pipeline's verifier would reject it anyway). The
     proof is asked for at the launch {!Pipeline.run} validates the
     input at, so the naive text's stored record carries its lints *)
  let sym =
    Gpcc_analysis.Analysis_cache.symbolic_result
      ?launch:(Gpcc_passes.Pass_util.initial_launch naive)
      (Gpcc_analysis.Analysis_cache.domain ())
      naive
  in
  let configs, excluded =
    List.partition_map
      (fun (target, degree) ->
        match
          Gpcc_analysis.Symverify.excludes_threads sym ~threads:target
        with
        | None -> Left (target, degree)
        | Some rule ->
            Right
              {
                failed_target = target;
                failed_degree = degree;
                failed_stage = `Verify;
                reason =
                  Printf.sprintf
                    "symbolic verifier: %s fires at every launch with %d \
                     threads/block"
                    rule target;
              })
      configs
  in
  let compile (target, degree) =
    let pipeline =
      Pipeline.default ~cfg ~target_block_threads:target ~merge_degree:degree
        ()
    in
    let result = Pipeline.run ~pipeline naive in
    {
      c_target = target;
      c_degree = degree;
      c_result = result;
      c_digest =
        Digest.to_hex
          (Gpcc_analysis.Analysis_cache.key result.kernel result.launch);
    }
  in
  let outcomes = List.combine configs (Pool.map_result pool compile configs) in
  let compiled, failures =
    List.fold_left
      (fun (cs, fs) ((target, degree), outcome) ->
        match outcome with
        | Ok c -> (c :: cs, fs)
        | Error e ->
            ( cs,
              {
                failed_target = target;
                failed_degree = degree;
                failed_stage =
                  (if Pipeline.verifier_rejected e then `Verify else `Compile);
                reason = Printexc.to_string e;
              }
              :: fs ))
      ([], []) outcomes
  in
  (List.rev compiled, excluded @ List.rev failures)

let configs_of block_targets merge_degrees =
  List.concat_map
    (fun target -> List.map (fun degree -> (target, degree)) merge_degrees)
    block_targets

(* group identical kernel versions: score each digest once *)
let distinct_reps (compiled : compiled list) : compiled list =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun c ->
      if Hashtbl.mem seen c.c_digest then false
      else begin
        Hashtbl.add seen c.c_digest ();
        true
      end)
    compiled

let failure_of (c : compiled) stage e =
  {
    failed_target = c.c_target;
    failed_degree = c.c_degree;
    failed_stage = stage;
    reason = Printexc.to_string e;
  }

let candidates_of compiled score_tbl =
  List.map
    (fun c ->
      let score, provenance = Hashtbl.find score_tbl c.c_digest in
      {
        target_block_threads = c.c_target;
        merge_degree = c.c_degree;
        result = c.c_result;
        score;
        provenance;
      })
    compiled

(* --- the exhaustive sweep (the paper's Section 4, verbatim) ---------- *)

let search_with_failures ?(cfg = Gpcc_sim.Config.gtx280)
    ?(block_targets = default_block_targets)
    ?(merge_degrees = default_merge_degrees) ?jobs ?cache
    ?(cache_prefix = "") (naive : Ast.kernel)
    ~(measure : Ast.kernel -> Ast.launch -> float) :
    candidate list * failure list =
  let configs = configs_of block_targets merge_degrees in
  Pool.with_pool ?jobs (fun pool ->
      let compiled, compile_failures = compile_all pool ~cfg configs naive in
      let reps = distinct_reps compiled in
      (* phase 2: score each distinct version, cache first *)
      let score_rep (c : compiled) : float =
        fst
          (cached_score cache
             (full_key cache_prefix c.c_digest)
             (fun () -> measure c.c_result.kernel c.c_result.launch))
      in
      let scored = Pool.map_result pool score_rep reps in
      let score_tbl = Hashtbl.create 16 in
      let measure_failures =
        List.concat
          (List.map2
             (fun rep outcome ->
               match outcome with
               | Ok s ->
                   Hashtbl.replace score_tbl rep.c_digest (s, `Measured);
                   []
               | Error e ->
                   Hashtbl.replace score_tbl rep.c_digest
                     (Float.neg_infinity, `Measured);
                   [ failure_of rep `Measure e ])
             reps scored)
      in
      ( candidates_of compiled score_tbl,
        compile_failures @ measure_failures ))

let search ?cfg ?block_targets ?merge_degrees ?jobs ?cache ?cache_prefix
    naive ~measure : candidate list =
  fst
    (search_with_failures ?cfg ?block_targets ?merge_degrees ?jobs ?cache
       ?cache_prefix naive ~measure)

(* --- the model-guided funnel: rank, halve, measure ------------------- *)

let search_funnel ?(cfg = Gpcc_sim.Config.gtx280)
    ?(block_targets = default_block_targets)
    ?(merge_degrees = default_merge_degrees) ?jobs ?cache
    ?(cache_prefix = "") ?(prune_threshold = default_prune_threshold)
    ?(budget_sensitive = true) (naive : Ast.kernel)
    ~(predict : Ast.kernel -> Ast.launch -> float)
    ~(measure : ?blocks:int -> Ast.kernel -> Ast.launch -> float) :
    candidate list * failure list * funnel =
  let configs = configs_of block_targets merge_degrees in
  Pool.with_pool ?jobs (fun pool ->
      let compiled, compile_failures = compile_all pool ~cfg configs naive in
      let reps = distinct_reps compiled in
      let failures = ref (List.rev compile_failures) in
      let fail c stage e = failures := failure_of c stage e :: !failures in
      let score_tbl : (string, float * provenance) Hashtbl.t =
        Hashtbl.create 16
      in
      let set c score prov = Hashtbl.replace score_tbl c.c_digest (score, prov) in
      (* stage 1 (rank): probe every distinct version once — a
         single-block simulation through the cost model — in parallel *)
      let probe (c : compiled) : float =
        fst
          (cached_score cache
             (probe_key cache_prefix c.c_digest)
             (fun () -> predict c.c_result.kernel c.c_result.launch))
      in
      let probed =
        List.map2
          (fun c outcome -> (c, outcome))
          reps
          (Pool.map_result pool probe reps)
      in
      let predictions =
        List.filter_map
          (fun (c, outcome) ->
            match outcome with
            | Ok p -> Some (c, p)
            | Error e ->
                (* a crashing probe means the kernel cannot run; score
                   it like the exhaustive sweep scores a crashing
                   measurement *)
                fail c `Predict e;
                set c Float.neg_infinity `Predicted;
                None)
          probed
      in
      let n_predicted = List.length predictions in
      let best_prediction =
        List.fold_left (fun b (_, p) -> Float.max b p) Float.neg_infinity
          predictions
      in
      let survivors, pruned =
        List.partition
          (fun (_, p) ->
            Cost_model.keep ~threshold:prune_threshold ~best:best_prediction p)
          predictions
      in
      List.iter (fun (c, p) -> set c p `Pruned) pruned;
      (* stage 2 (halve): growing block budgets, bottom half out at each
         rung; the final rung is the only full-grid measurement *)
      let n_partial = ref 0 in
      let n_rungs = ref 0 in
      (* best empirical estimate per digest, for the rank correlation *)
      let empirical : (string, float) Hashtbl.t = Hashtbl.create 16 in
      (* full-grid scores already obtained by a whole-grid-covering rung *)
      let full_scores : (string, float) Hashtbl.t = Hashtbl.create 16 in
      let max_blocks =
        List.fold_left
          (fun m (c, _) -> max m (Ast.total_blocks c.c_result.launch))
          1 survivors
      in
      let rec halve rung budget (survivors : (compiled * float) list) =
        if List.length survivors <= 2 || budget >= max_blocks then survivors
        else begin
          incr n_rungs;
          let measure_rung (c : compiled) =
            let total = Ast.total_blocks c.c_result.launch in
            let b = min budget total in
            (* a budget covering the candidate's whole grid IS the full
               measurement: store it under the full key, so the final
               stage (and the exhaustive sweep) hit instead of re-running *)
            let key =
              if b >= total then full_key cache_prefix c.c_digest
              else rung_key cache_prefix b c.c_digest
            in
            cached_score cache key (fun () ->
                measure ~blocks:b c.c_result.kernel c.c_result.launch)
          in
          let reps = List.map fst survivors in
          let outcomes = Pool.map_result pool measure_rung reps in
          (* count only rung simulations that executed: a cache hit ran
             nothing, an error means the measurement ran and raised *)
          List.iter
            (function
              | Ok (_, true) -> ()
              | Ok (_, false) | Error _ -> incr n_partial)
            outcomes;
          let scored =
            List.concat
              (List.map2
                 (fun c outcome ->
                   match outcome with
                   | Ok (s, _) ->
                       Hashtbl.replace empirical c.c_digest s;
                       if budget >= Ast.total_blocks c.c_result.launch then
                         Hashtbl.replace full_scores c.c_digest s;
                       [ (c, s) ]
                   | Error e ->
                       fail c `Measure e;
                       set c Float.neg_infinity (`Halved rung);
                       [])
                 reps outcomes)
          in
          let kept = Cost_model.halve scored in
          List.iter
            (fun (c, s) ->
              if not (List.exists (fun (k, _) -> k == c) kept) then
                set c s (`Halved rung))
            scored;
          halve (rung + 1)
            (Cost_model.next_budget ~total:max_blocks budget)
            kept
        end
      in
      (* when [measure]'s cost does not shrink with the budget (sampled
         single-phase simulation interprets a handful of blocks no
         matter what), a rung run costs as much as the full measurement
         it approximates: skip straight to stage 3 and fully measure
         every survivor — pruning is then the only saving, but no work
         is duplicated *)
      let finalists =
        if budget_sensitive then
          halve 1 (Cost_model.initial_budget ~total:max_blocks) survivors
        else survivors
      in
      (* stage 3 (measure): full-grid scores for the finalists, shared
         with — and cached under the same key as — the exhaustive sweep *)
      let measure_full (c : compiled) =
        match Hashtbl.find_opt full_scores c.c_digest with
        | Some s -> s
        | None ->
            fst
              (cached_score cache
                 (full_key cache_prefix c.c_digest)
                 (fun () -> measure c.c_result.kernel c.c_result.launch))
      in
      let finalist_reps = List.map fst finalists in
      let final_outcomes = Pool.map_result pool measure_full finalist_reps in
      List.iter2
        (fun c outcome ->
          match outcome with
          | Ok s ->
              Hashtbl.replace empirical c.c_digest s;
              set c s `Measured
          | Error e ->
              fail c `Measure e;
              set c Float.neg_infinity `Measured)
        finalist_reps final_outcomes;
      let ranked =
        List.filter_map
          (fun (c, p) ->
            Option.map (fun m -> (p, m)) (Hashtbl.find_opt empirical c.c_digest))
          survivors
      in
      let stats =
        {
          f_configs = List.length configs;
          f_distinct = List.length reps;
          f_predicted = n_predicted;
          f_pruned = List.length pruned;
          f_rungs = !n_rungs;
          f_partial_runs = !n_partial;
          f_measured = List.length finalists;
          f_spearman = Cost_model.spearman ranked;
          f_spearman_n = List.length ranked;
        }
      in
      (candidates_of compiled score_tbl, List.rev !failures, stats))

(** Deduplicate candidates that compiled to the same kernel (different
    knobs can coincide), keeping the first. *)
let distinct (cands : candidate list) : candidate list =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun c ->
      let key =
        Gpcc_analysis.Analysis_cache.key c.result.kernel c.result.launch
      in
      (not (Hashtbl.mem seen key)) && (Hashtbl.replace seen key (); true))
    cands

let best (cands : candidate list) : candidate option =
  List.fold_left
    (fun acc c ->
      match acc with
      | None -> Some c
      | Some b -> if c.score > b.score then Some c else acc)
    None cands

(** Winner of a funnel sweep: the best fully measured candidate. Scores
    with other provenances are estimates on a slightly different scale
    (predictions, partial simulations) and must not outrank an actual
    measurement. *)
let best_measured (cands : candidate list) : candidate option =
  match best (List.filter (fun c -> c.provenance = `Measured) cands) with
  | Some b when b.score > Float.neg_infinity -> Some b
  | _ -> best cands

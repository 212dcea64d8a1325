(** Design-space exploration (paper Section 4): generate one kernel
    version per (threads-per-block, thread-merge-degree) configuration and
    select the best by empirically running each — on the simulator here,
    on the GPU in the paper.

    The sweep is embarrassingly parallel, so candidates are fanned out
    across a {!Gpcc_util.Pool} of worker domains, and measured scores can
    be persisted in an {!Explore_cache} so repeated searches skip
    already-measured points. The outcome is deterministic: for a fixed
    candidate grid the chosen best is byte-identical whatever [jobs] is
    and whether scores came from the cache or fresh measurement.

    Besides the exhaustive sweep ({!search_with_failures}), a
    model-guided funnel ({!search_funnel}) reaches the same winner while
    fully measuring only a handful of candidates: an analytic
    pre-ranking stage ({!Gpcc_analysis.Cost_model} over single-block
    probes) prunes dominated versions, successive halving on growing
    partial-simulation block budgets eliminates the rest, and only the
    final rung pays for full-grid measurement. *)

(** How a candidate's [score] was obtained. Only [`Measured] scores are
    full-grid measurements comparable with the exhaustive sweep; the
    other provenances are funnel-internal estimates. *)
type provenance =
  [ `Measured  (** fully measured (possibly served from the cache) *)
  | `Halved of int
    (** eliminated at this successive-halving rung (1-based); the score
        is the partial-simulation estimate from that rung *)
  | `Pruned
    (** discarded by the stage-1 analytic ranking; the score is the
        model prediction *)
  | `Predicted
    (** the score is a model prediction and no empirical run happened
        (currently only probe failures) *) ]

type candidate = {
  target_block_threads : int;
  merge_degree : int;
  result : Pipeline.result;
  score : float;  (** GFLOPS, higher is better; see [provenance] *)
  provenance : provenance;
}

type failure = {
  failed_target : int;  (** requested threads per block *)
  failed_degree : int;  (** requested thread-merge degree *)
  failed_stage : [ `Compile | `Verify | `Predict | `Measure ];
      (** [`Verify]: the pipeline ran but translation validation rejected
          the result (see {!Pipeline.verifier_rejected}); [`Predict]: the
          funnel's single-block probe raised *)
  reason : string;  (** printed exception *)
}

val default_block_targets : int list
(** [[16; 32; 64; 128; 256; 512]]. The paper sweeps only 128/256/512
    threads per block; the default space is widened downwards because
    the simulated machine models small kernels too (a 64-point FFT fits
    in one 64-thread block) and because thread merge multiplies work per
    thread — at degree 32 a 512-thread target can exceed the
    per-block register file, while 16-thread blocks keep such high-merge
    versions launchable. *)

val default_merge_degrees : int list
(** [[1; 4; 8; 16; 32]]. The paper's 4/8/16/32 plus degree 1 (no thread
    merge), so the unmerged baseline competes in the same sweep instead
    of being assumed. *)

val default_prune_threshold : float
(** Stage-1 pruning threshold of {!search_funnel}: candidates predicted
    below this fraction of the best prediction are discarded. *)

(** Funnel statistics, as reported by {!search_funnel}. *)
type funnel = {
  f_configs : int;  (** (target, degree) points compiled *)
  f_distinct : int;  (** distinct kernel versions (digest groups) *)
  f_predicted : int;  (** stage-1 probes (predictions computed) *)
  f_pruned : int;  (** versions discarded on the prediction alone *)
  f_rungs : int;  (** successive-halving rungs run *)
  f_partial_runs : int;
      (** partial-simulation measurements that actually executed (cache
          hits are not counted, so a warm replay reports 0) *)
  f_measured : int;  (** versions fully measured (the final rung) *)
  f_spearman : float;
      (** Spearman rank correlation of prediction vs best empirical
          score over the stage-1 survivors; 0 when undefined *)
  f_spearman_n : int;
      (** pairs the correlation ranks; below 3 it is [±1] or 0 by
          construction and says nothing about the model *)
}

(** Compile every configuration (in parallel on [jobs] domains, default
    {!Gpcc_util.Pool.default_jobs}) and score it with [measure].
    Candidates whose kernels coincide are measured once and share the
    score. A candidate that raises is isolated, never aborting the
    sweep: compile failures are dropped from the candidate list, measure
    failures score [Float.neg_infinity]; both are reported in the
    [failure] list.

    When [cache] is given, measured scores are looked up / persisted
    under [cache_prefix] plus a budget tag plus a digest of the compiled
    kernel text, so any compiler change that alters generated code
    invalidates the entry implicitly. [cache_prefix] must identify
    everything else the score depends on (machine, workload, problem
    size). Full measurements share cache entries with
    {!search_funnel}'s final stage. *)
val search_with_failures :
  ?cfg:Gpcc_sim.Config.t ->
  ?block_targets:int list ->
  ?merge_degrees:int list ->
  ?jobs:int ->
  ?cache:Explore_cache.t ->
  ?cache_prefix:string ->
  Gpcc_ast.Ast.kernel ->
  measure:(Gpcc_ast.Ast.kernel -> Gpcc_ast.Ast.launch -> float) ->
  candidate list * failure list

(** [search_with_failures] without the failure report. *)
val search :
  ?cfg:Gpcc_sim.Config.t ->
  ?block_targets:int list ->
  ?merge_degrees:int list ->
  ?jobs:int ->
  ?cache:Explore_cache.t ->
  ?cache_prefix:string ->
  Gpcc_ast.Ast.kernel ->
  measure:(Gpcc_ast.Ast.kernel -> Gpcc_ast.Ast.launch -> float) ->
  candidate list

(** The three-stage pruned sweep: {b rank} every distinct version with
    [predict] (expected: a single-block {!Gpcc_sim.Launch.run_block}
    probe fed through {!Gpcc_analysis.Cost_model.predict}) and discard
    versions predicted below [prune_threshold] of the best prediction
    (default {!default_prune_threshold}; pass [1.0] to keep only ties
    with the best, [0.0] to disable pruning); {b halve} the survivors on
    a growing block-budget schedule, where [measure ~blocks:b] must
    return a whole-grid estimate from simulating only [b] blocks, and
    the bottom half of each rung is eliminated; {b measure} the
    finalists with [measure] (no [blocks]) — a full-grid run, cached
    under the same key as the exhaustive sweep.

    [budget_sensitive] (default [true]) declares whether [measure]'s
    cost actually shrinks with [blocks]. Multi-phase kernels simulate
    in [Full] mode, where a block budget genuinely aborts early;
    single-phase kernels simulate [Sampled], whose cost is a handful of
    blocks no matter the budget (see {!Gpcc_sim.Launch.run}, and
    {!Gpcc_workloads.Workload.budget_sensitive} for the per-workload
    answer). With [~budget_sensitive:false] the halving stage is
    skipped — a rung run would cost as much as the full measurement it
    approximates — and every stage-1 survivor is fully measured.

    Every compiled candidate is returned with the score of its last
    stage and a {!provenance}. Use {!best_measured} to select the
    winner. Ties at every stage are cut in candidate-enumeration order,
    so for a rank-faithful model the funnel's winner is identical to
    the exhaustive sweep's. *)
val search_funnel :
  ?cfg:Gpcc_sim.Config.t ->
  ?block_targets:int list ->
  ?merge_degrees:int list ->
  ?jobs:int ->
  ?cache:Explore_cache.t ->
  ?cache_prefix:string ->
  ?prune_threshold:float ->
  ?budget_sensitive:bool ->
  Gpcc_ast.Ast.kernel ->
  predict:(Gpcc_ast.Ast.kernel -> Gpcc_ast.Ast.launch -> float) ->
  measure:(?blocks:int -> Gpcc_ast.Ast.kernel -> Gpcc_ast.Ast.launch -> float) ->
  candidate list * failure list * funnel

(** Drop candidates whose kernel and launch coincide with an earlier one
    (different knobs often converge to the same version). *)
val distinct : candidate list -> candidate list

val best : candidate list -> candidate option
(** Highest score; earliest in list order on ties (which makes the
    winner independent of [jobs]). *)

val best_measured : candidate list -> candidate option
(** Winner of a funnel sweep: {!best} restricted to [`Measured]
    candidates — estimates from other provenances live on slightly
    different scales and must not outrank an actual measurement. Falls
    back to {!best} over everything when no candidate was successfully
    measured. *)

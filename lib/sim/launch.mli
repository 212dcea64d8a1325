(** Grid-level kernel execution on the simulator.

    [Full] interprets every thread block (correctness runs; also forced
    for kernels with [__global_sync], whose phases execute grid-wide in
    order with per-block thread state kept alive). [Sampled n] interprets
    representative blocks only and scales their statistics: [n] blocks
    spread over the grid for per-block averages, plus blocks spread over
    one resident wave whose aligned transaction streams estimate the
    partition efficiency. *)

type mode =
  | Full
  | Sampled of int

type result = {
  per_block : Stats.t;  (** average statistics of one thread block *)
  total : Stats.t;  (** scaled to the whole grid *)
  timing : Timing.result;
  sampled_blocks : int;  (** blocks whose statistics were averaged *)
  partition_eff : float;  (** 1.0 = traffic spread over all partitions *)
}

(** Split a kernel body at top-level [__global_sync] barriers. *)
val phases_of_body : Gpcc_ast.Ast.block -> Gpcc_ast.Ast.block list

(** Simulator backend: the warp-vectorized backend ({!Vector}) is the
    default and is bit-identical to the tree-walking reference
    interpreter ({!Interp}). A kernel the vector backend cannot plan
    falls back to the reference per run. *)
type backend =
  | Reference
  | Vector

val backend_name : backend -> string

(** Backend selected by [GPCC_BACKEND] ([vector]/[vec] or
    [ref]/[reference]). Default is [Vector]. *)
val backend_of_env : unit -> backend

(** Cumulative wall-clock seconds spent inside {!run} since program
    start (the [sim_wall_clock_s] bench field). *)
val sim_seconds : unit -> float

(** Cumulative accounting-cache counters across every backend run and
    worker domain since program start: the plane-digest memo (in
    {!Coalescer}) and the vector backend's closed-form uniform-loop
    replays. Read before/after a run to attribute deltas (bench JSON,
    perf tooling, tests). *)
type perf_counters = {
  pc_memo_hits : int;
      (** always 0: the half-warp request memo is gone, since every
          access, block-uniform ones included, is accounted through the
          plane memo. Kept for the benchmark's [sim.memo_hits], which a
          later benchmark change drops together with [sim.memo_misses] *)
  pc_memo_misses : int;  (** always 0, as [pc_memo_hits] *)
  pc_plane_hits : int;
  pc_plane_misses : int;
  pc_closed_form : int;
}

val perf_counters : unit -> perf_counters

(** Static memory-level-parallelism estimate (independent loads one warp
    keeps in flight), used by the timing model's latency term. *)
val mlp_estimate : Gpcc_ast.Ast.kernel -> float

(** Partition efficiency of a set of aligned per-block transaction
    streams: mean over time of (distinct partitions hit) / (ideal). A
    stream is one block's partition ids in issue order, copied out of
    the flat buffer both backends record into
    ({!Interp.record_part}, {!Interp.tx_stream}). *)
val partition_efficiency : Config.t -> int array list -> float

(** Run a kernel. Every [int] parameter must be bound via [k_sizes] and
    every global array allocated in the memory. [streams] bounds how many
    resident-wave blocks feed the partition estimate. [backend] defaults
    to {!backend_of_env}. [jobs] bounds the worker domains used to
    execute independent blocks of each phase in parallel ([1] forces
    serial; default [GPCC_JOBS] or the domain count). [GPCC_CHECK=1]
    forces the serial reference backend.

    [block_budget] enables partial simulation with early abort:
    [Full] interprets the prefix of that many linear block ids plus
    every partition-stream block beyond it, still phase-synchronised
    at grid barriers; [Sampled] caps only the representative
    statistics sample. In both modes the partition-estimate streams
    are never thinned — a budget-dependent subset would bias the
    camping estimate. Statistics stay per-block averages over the
    budgeted blocks and [total]/[timing] are still whole-grid
    estimates, but device memory holds a partial execution — never
    check it against a reference. *)
val run :
  ?mode:mode ->
  ?streams:int ->
  ?backend:backend ->
  ?jobs:int ->
  ?block_budget:int ->
  Config.t ->
  Gpcc_ast.Ast.kernel ->
  Gpcc_ast.Ast.launch ->
  Devmem.t ->
  result

(** One representative block (linear id 0), serially, through every
    phase: the cheapest whole-grid performance estimate the simulator
    can produce, used by the exploration funnel's analytic pre-ranking
    stage. Equivalent to
    [run ~mode:Full ~streams:1 ~block_budget:1 ~jobs:1]; [streams:1]
    requests a single transaction stream, so [partition_eff] is always
    1.0 (see {!Gpcc_analysis.Cost_model.memory_optimism}). *)
val run_block :
  ?backend:backend ->
  Config.t ->
  Gpcc_ast.Ast.kernel ->
  Gpcc_ast.Ast.launch ->
  Devmem.t ->
  result

(** First-class optimization passes.

    Each pass of the paper's Figure 1 pipeline is a {!t} record: a
    stable name, the paper section it implements, an [applies] predicate
    (which may consult cached analyses and explains a refusal), the
    [transform] itself, and the pass's declared analysis dependencies
    ([uses]) and invalidations ([invalidates]). The pipeline driver in
    {!Gpcc_core.Pipeline} is generic over this record: it owns timing,
    translation validation, remark recording and analysis-cache
    bookkeeping, while the pass owns the decision logic — including the
    Section 3.5.3 merge-selection heuristics, which previously lived
    inline in the compiler driver.

    [invalidates] lists the analyses a {e fired} transform may change;
    everything else is carried forward in the {!Gpcc_analysis.Analysis_cache}
    to the transformed kernel without recomputation. Declarations are
    property-tested: a preserved analysis recomputed on the transformed
    kernel must equal the carried value. *)

open Gpcc_ast
module Cache = Gpcc_analysis.Analysis_cache

(** Per-compilation context a pass sees: the target machine, the two
    Section-4 knobs, and the analysis cache. *)
type ctx = {
  cfg : Gpcc_sim.Config.t;
  target_block_threads : int;  (** 128 / 256 / 512 (Section 4.1) *)
  merge_degree : int;  (** threads merged into one: 4 / 8 / 16 / 32 *)
  cache : Cache.t;
}

(** Outcome of [applies]: run the transform, or skip it with a reason
    (recorded as a declined remark). *)
type decision =
  | Applies
  | Declined of string

(** Provided by the pipeline driver to [transform]: [emit label k l f]
    runs [f k l] as one recorded sub-step — timed, translation-validated
    when it fires, cache bookkeeping applied — and returns its outcome.
    Multi-step passes (merge) call it once per sub-transform. The driver
    serves a kept outcome to a later step of the same pass, label and
    machine on the same input state, so [label] names every parameter
    [f] reads besides [k], [l] and the machine. *)
type emit =
  string ->
  Ast.kernel ->
  Ast.launch ->
  (Ast.kernel -> Ast.launch -> Pass_util.outcome) ->
  Pass_util.outcome

type t = {
  name : string;  (** stable registry id, e.g. ["merge"] *)
  label : string;  (** default human step label, e.g. ["vectorization"] *)
  section : string;  (** paper section implemented *)
  summary : string;  (** one line for [--print-pipeline] *)
  uses : Cache.kind list;  (** analyses consulted (served from the cache) *)
  invalidates : Cache.kind list;
      (** analyses a fired transform may change; the rest are carried
          forward to the transformed kernel *)
  applies : ctx -> Ast.kernel -> Ast.launch -> decision;
  transform : ctx -> emit -> Ast.kernel -> Ast.launch -> Ast.kernel * Ast.launch;
}

let preserved (p : t) : Cache.kind list =
  List.filter (fun k -> not (List.mem k p.invalidates)) Cache.all_kinds

let always _ _ _ = Applies

(* Most passes are a single sub-step around an existing [apply]. *)
let single label f : emit -> Ast.kernel -> Ast.launch -> Ast.kernel * Ast.launch
    =
 fun emit k l ->
  let o = emit label k l f in
  (o.Pass_util.kernel, o.Pass_util.launch)

(* --- Section 3.1: vectorization --- *)

let vectorize_wide : t =
  {
    name = "vectorize-wide";
    label = "wide vectorization (AMD)";
    section = "3.1";
    summary =
      "absorb neighboring work items into float2/float4 accesses \
       (AMD-style aggressive vectorization)";
    uses = [];
    invalidates = Cache.all_kinds;
    applies =
      (fun ctx _ _ ->
        if ctx.cfg.Gpcc_sim.Config.prefer_wide_vectors then Applies
        else Declined "target does not prefer wide vector accesses");
    transform =
      (fun _ctx emit k l ->
        let width = if l.Ast.grid_x mod 4 = 0 then 4 else 2 in
        single "wide vectorization (AMD)" (Vectorize_wide.apply ~width) emit k
          l);
  }

let vectorize : t =
  {
    name = "vectorize";
    label = "vectorization";
    section = "3.1";
    summary = "pair adjacent loads into float2 accesses";
    uses = [];
    invalidates = Cache.all_kinds;
    applies = always;
    transform = (fun _ctx emit k l -> single "vectorization" Vectorize.apply emit k l);
  }

(* --- Sections 3.2-3.3: coalescing --- *)

let coalesce : t =
  {
    name = "coalesce";
    label = "memory coalescing";
    section = "3.2-3.3";
    summary =
      "stage non-coalesced global accesses through shared memory \
       (loop/row/apron staging, idx/idy exchange)";
    uses = [ Cache.Affine; Cache.Coalesce ];
    invalidates = Cache.all_kinds;
    applies = always;
    transform =
      (fun _ctx emit k l -> single "memory coalescing" Coalesce.apply emit k l);
  }

(* --- Section 3.5: thread-block merge and thread merge --- *)

(* The Section 3.5.3 selection heuristics, over the cached Section 3.4
   sharing analysis: sharing caused by a global-to-shared access prefers
   thread-block merge (shared-memory reuse); sharing caused by a
   global-to-register access prefers thread merge (register reuse); and
   blocks that end up with too few threads are grown by thread-block
   merge even without sharing. *)

let sharing_facts ctx (k : Ast.kernel) (launch : Ast.launch) =
  let sharing = Cache.sharing ctx.cache ~launch k in
  let share_y_g2r =
    List.exists
      (fun s ->
        s.Gpcc_analysis.Sharing.share_y
        && s.role = Gpcc_analysis.Sharing.G2R)
      sharing
  in
  let share_y_g2s =
    List.exists
      (fun s ->
        s.Gpcc_analysis.Sharing.share_y
        && s.role = Gpcc_analysis.Sharing.G2S)
      sharing
  in
  let share_x_any =
    List.exists (fun s -> s.Gpcc_analysis.Sharing.share_x) sharing
  in
  (share_x_any, share_y_g2r, share_y_g2s)

let merge : t =
  {
    name = "merge";
    label = "thread/block merge";
    section = "3.5";
    summary =
      "grow blocks by thread-block merge and aggregate work items by \
       thread merge, selected per the Section 3.5.3 sharing rules";
    uses = [ Cache.Sharing ];
    invalidates = Cache.all_kinds;
    applies =
      (fun ctx k launch ->
        let _, share_y_g2r, share_y_g2s = sharing_facts ctx k launch in
        let bm =
          ctx.target_block_threads
          / max 1 (launch.Ast.block_x * launch.Ast.block_y)
        in
        let one_d =
          launch.Ast.grid_y = 1 && launch.Ast.grid_x > 1
          && min ctx.merge_degree launch.Ast.grid_x > 1
        in
        if bm > 1 || share_y_g2r || share_y_g2s || one_d then Applies
        else
          Declined
            "block already at the target thread count and no Y-direction \
             sharing or 1-D work to aggregate");
    transform =
      (fun ctx emit k launch ->
        let share_x_any, share_y_g2r, share_y_g2s =
          sharing_facts ctx k launch
        in
        let k = ref k and launch = ref launch in
        (* 1. thread-block merge along X: grow the block toward the target
           thread count; motivated by G2S X-sharing, and used even without
           sharing just to have enough threads per block. *)
        let bm =
          ctx.target_block_threads
          / max 1 (!launch.Ast.block_x * !launch.Ast.block_y)
        in
        let block_merge_fired =
          if bm > 1 then begin
            let o =
              emit
                (Printf.sprintf "thread-block merge X x%d" bm)
                !k !launch
                (fun k l -> Merge.block_merge_x k l bm)
            in
            k := o.kernel;
            launch := o.launch;
            o.fired
          end
          else true
        in
        (* 2. when block merge was blocked (per-sub-block staging, as in
           mv) but X-sharing exists, fall back to thread merge along X
           (register and shared reuse across the merged threads). *)
        if (not block_merge_fired) && share_x_any then begin
          let o =
            emit
              (Printf.sprintf "thread merge X x%d (block merge blocked)"
                 ctx.merge_degree)
              !k !launch
              (fun k l -> Merge.thread_merge Merge.X k l ctx.merge_degree)
          in
          k := o.kernel;
          launch := o.launch
        end;
        (* 3. Y-direction sharing: G2R prefers thread merge (paper's mm);
           G2S along Y would prefer a block merge, which our block merge
           does not implement along Y — thread merge still captures the
           reuse through replicated stagings, so it is used for both. *)
        if share_y_g2r || share_y_g2s then begin
          let o =
            emit
              (Printf.sprintf "thread merge Y x%d" ctx.merge_degree)
              !k !launch
              (fun k l -> Merge.thread_merge Merge.Y k l ctx.merge_degree)
          in
          k := o.kernel;
          launch := o.launch
        end
        else if
          !launch.Ast.grid_y = 1 && !launch.Ast.grid_x > 1
          && block_merge_fired
        then begin
          (* 1-D kernels without Y direction: give each thread more work
             along X (amortizes addressing and loop overhead; registers
             reused across the merged work items). *)
          let deg = min ctx.merge_degree !launch.Ast.grid_x in
          if deg > 1 then begin
            let o =
              emit
                (Printf.sprintf "thread merge X x%d (1-D)" deg)
                !k !launch
                (fun k l -> Merge.thread_merge Merge.X k l deg)
            in
            k := o.kernel;
            launch := o.launch
          end
        end;
        (!k, !launch));
  }

(* --- loop-invariant hoisting of the arithmetic merges replicate --- *)

let licm : t =
  {
    name = "licm";
    label = "invariant hoisting";
    section = "3.5";
    summary =
      "hoist loop-invariant thread-position arithmetic replicated by the \
       merges";
    uses = [];
    (* Hoisting only rebinds integer address arithmetic to names the
       affine machinery resolves, so the data-sharing summary and the
       coalescing verdict survive; the access table (whose contexts
       record the new bindings), register pressure and the verifier's
       view do not. Property-tested in test_pipeline. *)
    invalidates = [ Cache.Affine; Cache.Regcount; Cache.Verify ];
    applies = always;
    transform =
      (fun _ctx emit k l -> single "invariant hoisting" Licm.apply emit k l);
  }

(* --- Section 3.7: partition-camping elimination --- *)

let partition_camp : t =
  {
    name = "partition-camping";
    label = "partition-camping elimination";
    section = "3.7";
    summary =
      "rotate 1-D sweeps / diagonally reorder 2-D grids whose block \
       stride camps on one memory partition";
    uses = [ Cache.Affine ];
    invalidates = Cache.all_kinds;
    applies = always;
    transform =
      (fun ctx emit k l ->
        single "partition-camping elimination"
          (Partition_camp.apply ~cfg:ctx.cfg)
          emit k l);
  }

(* --- Section 3.6: data prefetching --- *)

let prefetch : t =
  {
    name = "prefetch";
    label = "data prefetching";
    section = "3.6";
    summary =
      "double-buffer global-to-shared loads through a register unless \
       the extra registers cost occupancy";
    uses = [ Cache.Regcount ];
    invalidates = Cache.all_kinds;
    applies = always;
    transform =
      (fun ctx emit k l ->
        single "data prefetching" (Prefetch.apply ~cfg:ctx.cfg) emit k l);
  }

(** The paper's Figure 1 pipeline, in the order the compiler runs it.
    Note the ordering deviation documented in {!Gpcc_core.Pipeline}:
    partition-camping elimination runs before prefetching because the
    1-D address-offset rotation introduces a computed index that
    prefetching must not advance past the array end. The [merge] pass
    implements both of Section 3.5's transforms (thread-block merge and
    thread merge), so the registry's seven records cover the paper's
    eight transformations. *)
let registry : t list =
  [ vectorize_wide; vectorize; coalesce; merge; licm; partition_camp; prefetch ]

let find (name : string) : t option =
  List.find_opt (fun p -> String.equal p.name name) registry

let names () : string list = List.map (fun p -> p.name) registry

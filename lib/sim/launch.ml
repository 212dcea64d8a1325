(** Grid-level kernel execution.

    Two modes:
    - [Full] interprets every thread block — used by correctness tests,
      which compare device output arrays against CPU references, and by
      kernels containing [__global_sync] (the grid barrier splits the body
      into phases; every block finishes phase [p] before any block starts
      phase [p+1], with per-block thread state kept alive across phases);
    - [Sampled n] interprets [n] representative blocks of the first
      resident wave and scales their (identical-by-construction) per-block
      statistics to the whole grid. The sampled blocks have consecutive
      linear ids, which is exactly the set whose simultaneous memory
      traffic determines partition camping; their aligned transaction
      streams give the partition-efficiency estimate. *)

open Gpcc_ast
module Pool = Gpcc_util.Pool

type mode =
  | Full
  | Sampled of int

type result = {
  per_block : Stats.t;  (** average statistics of one thread block *)
  total : Stats.t;  (** scaled to the whole grid *)
  timing : Timing.result;
  sampled_blocks : int;
  partition_eff : float;
}

(** Split the kernel body at top-level [__global_sync] barriers
    (both backends agree on the same phase structure). *)
let phases_of_body = Interp.phases_of_body

(** Static memory-level-parallelism estimate: the largest number of global
    load sites inside one innermost loop body (independent loads from one
    warp overlap their latencies). *)
let mlp_estimate (k : Ast.kernel) : float =
  let globals =
    List.filter_map
      (fun (p : Ast.param) ->
        match p.p_ty with
        | Array { space = Global; _ } -> Some p.p_name
        | _ -> None)
      k.k_params
  in
  let count_sites (b : Ast.block) =
    Rewrite.collect_accesses b
    |> List.filter (fun (a, _, st) -> (not st) && List.mem a globals)
    |> List.length
  in
  (* a staging loop's iterations are independent loads: the warp keeps
     several in flight; a compute loop stalls at each load's use *)
  let is_staging_body (b : Ast.block) =
    b <> []
    && List.for_all
         (function Ast.Assign (Lindex _, _) -> true | _ -> false)
         b
  in
  let rec innermost_counts (b : Ast.block) : int list =
    List.concat_map
      (function
        | Ast.For l ->
            let inner = innermost_counts l.l_body in
            if inner <> [] then inner
            else if is_staging_body l.l_body && count_sites l.l_body > 0 then
              [ 8 ]
            else [ count_sites l.l_body ]
        | Ast.If (_, t, f) -> innermost_counts t @ innermost_counts f
        | _ -> [])
      b
  in
  let counts = innermost_counts k.k_body in
  (* straight-line kernels: every load in the body is independent *)
  let counts = if counts = [] then [ count_sites k.k_body ] else counts in
  let m = List.fold_left max 1 counts in
  float_of_int (min m 8)

(** Queue window: how many in-flight transactions per block the memory
    system can reorder across partitions. Sequential streams that cycle
    through partitions within this window reach full bandwidth; true
    camping (whole windows on one partition) does not. *)
let queue_window = 8

(** Partition efficiency from the aligned transaction streams of the
    sampled blocks: at each instant, count how many distinct partitions
    the concurrently executing blocks' next [queue_window] transactions
    cover. *)
let partition_efficiency (cfg : Config.t) (streams : int array list) : float =
  let streams = List.filter (fun s -> Array.length s > 0) streams in
  let s = List.length streams in
  if s <= 1 then 1.0
  else begin
    let len = List.fold_left (fun m a -> min m (Array.length a)) max_int streams in
    let denom = min cfg.num_partitions (s * queue_window) in
    (* keep windows fully inside the streams so tails do not skew *)
    let t_max = max 1 (len - queue_window + 1) in
    let step = max 1 (t_max / 512) in
    (* sliding multiset of the partitions inside the current window:
       [live] is the distinct count the old per-slice rescan computed,
       maintained incrementally so a slide costs O(step · streams)
       instead of O(window · streams) and allocates nothing *)
    let counts = Array.make cfg.num_partitions 0 in
    let live = ref 0 in
    let add p =
      let c = counts.(p) in
      counts.(p) <- c + 1;
      if c = 0 then incr live
    in
    let rm p =
      let c = counts.(p) - 1 in
      counts.(p) <- c;
      if c = 0 then decr live
    in
    let win_end t = min (len - 1) (t + queue_window - 1) in
    List.iter
      (fun st ->
        for u = 0 to win_end 0 do
          add st.(u)
        done)
      streams;
    let slices = ref 0 and acc = ref 0.0 in
    let t = ref 0 in
    let running = ref true in
    while !running do
      acc := !acc +. (float_of_int !live /. float_of_int denom);
      incr slices;
      let t' = !t + step in
      if t' < t_max then begin
        if step < queue_window then
          (* windows overlap: retire the entries sliding out, admit the
             ones sliding in (interior windows are never truncated) *)
          List.iter
            (fun st ->
              for u = !t to t' - 1 do
                rm st.(u)
              done;
              for u = win_end !t + 1 to win_end t' do
                add st.(u)
              done)
            streams
        else begin
          Array.fill counts 0 (Array.length counts) 0;
          live := 0;
          List.iter
            (fun st ->
              for u = t' to win_end t' do
                add st.(u)
              done)
            streams
        end;
        t := t'
      end
      else running := false
    done;
    if !slices = 0 then 1.0 else !acc /. float_of_int !slices
  end

let block_coords (launch : Ast.launch) (linear : int) =
  (linear mod launch.grid_x, linear / launch.grid_x)

(* --- simulator backends --- *)

type backend =
  | Reference  (** tree-walking {!Interp}; supports GPCC_CHECK *)
  | Vector
      (** warp-vectorized {!Vector} on flat planes; falls back to the
          reference *)

let backend_name = function Reference -> "reference" | Vector -> "vector"

(** Backend selected by the environment: [GPCC_BACKEND] is
    [vector]/[vec] or [ref]/[reference]. Unset (or unrecognized) selects
    the vector backend. *)
let backend_of_env () =
  match Sys.getenv_opt "GPCC_BACKEND" with
  | Some ("ref" | "reference") -> Reference
  | _ -> Vector

(** Per-block execution state of either backend. *)
type bstate = Bref of Interp.bctx | Bvec of Vector.vrt

(* --- execution pool ---

   Blocks of one phase are independent (CUDA requires inter-block race
   freedom within a grid phase), so Full and Sampled runs fan blocks out
   over a shared worker-domain pool. The pool is created lazily on first
   parallel run and never shut down. Per-block statistics are merged in
   block-index order at each barrier, so results do not depend on the
   interleaving. *)

let shared_pool = Gpcc_util.Once.make (fun () -> Pool.create ())

let with_exec_pool ?jobs (f : Pool.t option -> 'a) : 'a =
  match jobs with
  | Some j when j <= 1 -> f None
  | Some j -> Pool.with_pool ~jobs:j (fun p -> f (Some p))
  | None ->
      if Pool.default_jobs () <= 1 then f None
      else f (Some (Gpcc_util.Once.get shared_pool))

(* --- cumulative simulator wall clock --- *)

let sim_mutex = Mutex.create ()
let sim_total = ref 0.0

(** Wall-clock seconds spent inside {!run} since program start,
    cumulative over all calls (reported as [sim_wall_clock_s] in bench
    output). *)
let sim_seconds () =
  Mutex.lock sim_mutex;
  let t = !sim_total in
  Mutex.unlock sim_mutex;
  t

(* --- cumulative accounting-cache counters --- *)

type perf_counters = {
  pc_memo_hits : int;
  pc_memo_misses : int;
  pc_plane_hits : int;
  pc_plane_misses : int;
  pc_closed_form : int;
}

(** One snapshot of every accounting-cache counter: the {!Coalescer}
    plane memo (summed across worker domains, including exited ones) and
    the vector backend's closed-form loop replays. The request-memo
    fields read 0 (see the interface). *)
let perf_counters () =
  {
    pc_memo_hits = 0;
    pc_memo_misses = 0;
    pc_plane_hits = Coalescer.plane_memo_hits ();
    pc_plane_misses = Coalescer.plane_memo_misses ();
    pc_closed_form = Vector.closed_form_credits ();
  }

(** Run a kernel. The caller is responsible for having bound every [int]
    parameter via [k_sizes] and allocated the arrays in [mem].
    [streams] bounds how many resident-wave blocks feed the
    partition-efficiency estimate. [backend] defaults to
    {!backend_of_env}; [jobs] bounds the worker domains ([1] forces
    serial execution). [GPCC_CHECK=1] forces the serial reference
    backend so the dynamic race checker sees every access.

    [block_budget] caps how many blocks are actually interpreted
    (partial simulation with early abort): [Full] runs the prefix of
    [b] linear block ids plus every partition-stream block beyond the
    prefix — the stream set is never thinned (see the NB below) —
    with multi-phase kernels still synchronising all simulated blocks
    at every grid barrier; [Sampled] caps only the spread statistics
    samples and deliberately keeps the full partition-stream set.
    Per-block statistics are averaged over the budgeted prefix (resp.
    the statistics samples) and [total]/[timing] are still scaled to
    the whole grid, so the result remains a whole-grid estimate;
    device memory, however, holds the output of a partial execution
    and must not be checked against a reference. *)
let run ?(mode = Full) ?(streams = 12) ?backend ?jobs ?block_budget
    (cfg : Config.t) (k : Ast.kernel) (launch : Ast.launch) (mem : Devmem.t) :
    result =
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let dt = Unix.gettimeofday () -. t0 in
      Mutex.lock sim_mutex;
      sim_total := !sim_total +. dt;
      Mutex.unlock sim_mutex)
  @@ fun () ->
  let phases = phases_of_body k.k_body in
  let nblocks = Ast.total_blocks launch in
  let regs = Gpcc_analysis.Regcount.estimate k in
  let shared = Gpcc_analysis.Regcount.shared_bytes k in
  let occ0 =
    Occupancy.calc cfg ~regs_per_thread:regs ~shared_per_block:shared
      ~threads_per_block:(Ast.threads_per_block launch)
  in
  (* partition camping happens among the concurrently resident wave of
     blocks; sample that wave evenly (consecutive blocks alone miss
     schedules like the diagonal reorder, which spreads partitions across
     the wave, not between neighbors) *)
  let wave = min nblocks (cfg.num_sms * occ0.blocks_per_sm) in
  let stream_ids =
    (* [streams <= 1] requests a deliberate single-stream probe (see
       {!run_block}); camping is an inter-block effect, so any real
       estimate needs at least two streams, and a single stream would
       only be recorded for {!partition_efficiency} to discard *)
    if streams <= 1 then []
    else
      let s = max 2 (min streams wave) in
      List.init s (fun i -> i * wave / s) |> List.sort_uniq compare
  in
  let mode = if List.length phases > 1 then Full else mode in
  let budget =
    match block_budget with
    | None -> nblocks
    | Some b -> max 1 (min b nblocks)
  in
  (* NB: the budget must not thin the partition-stream set: those few
     blocks are what keeps the camping estimate unbiased (a prefix of
     linear ids systematically under-covers the partitions), and they
     are a negligible share of the cost being capped *)
  let check = Interp.env_check () in
  let backend =
    if check then Reference
    else match backend with Some b -> b | None -> backend_of_env ()
  in
  let jobs = if check then Some 1 else jobs in
  (* fallback chain: vector -> reference; a kernel shape the vector
     backend rejects is counted, with its reason, in
     {!Vector.fallback_reasons} *)
  let vprep =
    match backend with
    | Reference -> None
    | Vector -> (
        match Vector.compile k launch with
        | Ok code -> (
            try Some (Vector.prepare code mem)
            with Vector.Unsupported reason ->
              Vector.note_fallback reason;
              None)
        | Error reason ->
            Vector.note_fallback reason;
            None)
  in
  let phases_arr = Array.of_list phases in
  let nph = Array.length phases_arr in
  let make_block ~record_tx lstats ~bidx ~bidy =
    match vprep with
    | Some p -> Bvec (Vector.make_block p cfg lstats ~record_tx ~bidx ~bidy)
    | None ->
        Bref
          (Interp.make_bctx ~record_tx ~check cfg lstats k launch mem ~bidx
             ~bidy)
  in
  let exec_phase b p =
    match b with
    | Bvec rt -> Vector.run_phase (Option.get vprep) rt p
    | Bref c -> Interp.run_block c phases_arr.(p)
  in
  let tx_stream = function
    | Bvec rt -> Interp.tx_stream rt.Vector.c
    | Bref c -> Interp.tx_stream c
  in
  let per_block, streams, sampled =
    match mode with
    | Full ->
        (* under a block budget the prefix of [budget] blocks runs
           (early abort) plus every partition-stream block beyond the
           prefix — the budget never thins the stream set (see the NB
           above); statistics are averaged over the prefix only, so the
           extra stream blocks cannot skew the whole-grid estimate *)
        let ids =
          Array.of_list
            (List.init budget Fun.id
            @ List.filter (fun i -> i >= budget) stream_ids)
        in
        let nrun = Array.length ids in
        let in_stream = Array.make nblocks false in
        List.iter (fun i -> in_stream.(i) <- true) stream_ids;
        (* per-block statistics merged in block order at the end, so the
           parallel interleaving cannot perturb the totals *)
        let bstats = Array.init nrun (fun _ -> Stats.create ()) in
        let chunks_of pool =
          match pool with
          | None -> [ (0, nrun - 1) ]
          | Some pool ->
              let nw = max 1 (Pool.size pool) in
              let nchunks = min nrun (nw * 4) in
              List.init nchunks (fun ci ->
                  (ci * nrun / nchunks, ((ci + 1) * nrun / nchunks) - 1))
        in
        let streams_arr = Array.make (max 1 nrun) [||] in
        if nph = 1 then
          (* single-phase: block state need not outlive its block, so
             each worker runs its chunk through one backend state,
             re-initialized per block (the vector backend reuses its
             planes in place) *)
          let run_range (lo, hi) =
            let prev = ref None in
            for j = lo to hi do
              let i = ids.(j) in
              let bx, by = block_coords launch i in
              let b =
                match (vprep, !prev) with
                | Some p, Some (Bvec rt) ->
                    Bvec
                      (Vector.remake_block p cfg bstats.(j)
                         ~record_tx:in_stream.(i) ~bidx:bx ~bidy:by rt)
                | _ ->
                    make_block ~record_tx:in_stream.(i) bstats.(j) ~bidx:bx
                      ~bidy:by
              in
              prev := Some b;
              exec_phase b 0;
              if in_stream.(i) then streams_arr.(j) <- tx_stream b
            done;
            (* the chunk's last block state goes back to the reuse pool
               for the next run of the same code *)
            match (vprep, !prev) with
            | Some p, Some (Bvec rt) -> Vector.retire p rt
            | _ -> ()
          in
          with_exec_pool ?jobs (fun pool ->
              (* contiguous chunks in index order ([ids] is ascending):
                 Pool.map re-raises the earliest failing chunk, whose
                 first failure is the globally lowest failing block,
                 like serial *)
              match pool with
              | None -> run_range (0, nrun - 1)
              | Some p -> ignore (Pool.map p run_range (chunks_of pool)))
        else begin
          (* create block state upfront so thread state persists across
             global-sync phases *)
          let blocks =
            Array.init nrun (fun j ->
                let i = ids.(j) in
                let bx, by = block_coords launch i in
                make_block ~record_tx:in_stream.(i) bstats.(j) ~bidx:bx
                  ~bidy:by)
          in
          with_exec_pool ?jobs (fun pool ->
              for p = 0 to nph - 1 do
                (* barrier between phases: every block finishes phase [p]
                   before any block starts phase [p+1] *)
                match pool with
                | None -> Array.iter (fun b -> exec_phase b p) blocks
                | Some pool ->
                    ignore
                      (Pool.map pool
                         (fun (lo, hi) ->
                           for i = lo to hi do
                             exec_phase blocks.(i) p
                           done)
                         (chunks_of (Some pool)))
              done);
          Array.iteri
            (fun j b ->
              if in_stream.(ids.(j)) then streams_arr.(j) <- tx_stream b)
            blocks;
          match vprep with
          | Some p ->
              Array.iter
                (function Bvec rt -> Vector.retire p rt | _ -> ())
                blocks
          | None -> ()
        end;
        let stats = Stats.create () in
        for j = 0 to budget - 1 do
          Stats.add stats bstats.(j)
        done;
        let streams = ref [] in
        for j = nrun - 1 downto 0 do
          if in_stream.(ids.(j)) then streams := streams_arr.(j) :: !streams
        done;
        (Stats.scale (1.0 /. float_of_int budget) stats, !streams, budget)
    | Sampled n ->
        (* two sample sets: statistics come from blocks spread evenly over
           the whole grid (work can vary with the block id, e.g.
           triangular kernels); partition streams come from consecutive
           first-wave blocks, the set whose simultaneous traffic causes
           camping *)
        let s = max 1 (min n budget) in
        let spread =
          List.init s (fun i -> i * nblocks / s) |> List.sort_uniq compare
        in
        let in_spread = Array.make nblocks false in
        List.iter (fun i -> in_spread.(i) <- true) spread;
        let in_consec = Array.make nblocks false in
        List.iter
          (fun i -> if i < nblocks then in_consec.(i) <- true)
          stream_ids;
        let tasks =
          List.map (fun i -> (i, true, in_spread.(i))) stream_ids
          @ (List.filter (fun i -> not in_consec.(i)) spread
            |> List.map (fun i -> (i, false, true)))
        in
        let run_one (i, record, count) =
          let bx, by = block_coords launch i in
          let local = Stats.create () in
          let b = make_block ~record_tx:record local ~bidx:bx ~bidy:by in
          (match
             for p = 0 to nph - 1 do
               exec_phase b p
             done
           with
          | () -> ()
          | exception Interp.Runtime_error m ->
              raise
                (Interp.Runtime_error
                   (Printf.sprintf "%s (block %d,%d)" m bx by)));
          let stream = if record then Some (tx_stream b) else None in
          (match (vprep, b) with
          | Some p, Bvec rt -> Vector.retire p rt
          | _ -> ());
          (local, count, stream)
        in
        let results =
          with_exec_pool ?jobs (fun pool ->
              match pool with
              | None -> List.map run_one tasks
              | Some pool -> Pool.map pool run_one tasks)
        in
        let stats = Stats.create () in
        let stat_runs = ref 0 in
        let streams = ref [] in
        List.iter
          (fun (local, count, stream) ->
            if count then begin
              Stats.add stats local;
              incr stat_runs
            end;
            match stream with
            | Some s -> streams := s :: !streams
            | None -> ())
          results;
        let denom = float_of_int (max 1 !stat_runs) in
        (Stats.scale (1.0 /. denom) stats, List.rev !streams, !stat_runs)
  in
  per_block.Stats.loads_in_flight <- mlp_estimate k;
  let partition_eff = partition_efficiency cfg streams in
  let timing =
    Timing.estimate cfg ~per_block ~launch ~regs_per_thread:regs
      ~shared_per_block:shared ~partition_eff
      ~mlp:per_block.Stats.loads_in_flight
  in
  {
    per_block;
    total = Stats.scale (float_of_int nblocks) per_block;
    timing;
    sampled_blocks = sampled;
    partition_eff;
  }

(** Probe run for the exploration funnel's analytic pre-ranking: a
    single representative block (linear id 0), serially, through every
    phase. With one block there is no second transaction stream to
    camp against, so the probe records none and [partition_eff] is
    always 1.0 — inter-block partition camping is
    invisible to a probe, which is exactly what
    {!Gpcc_analysis.Cost_model.memory_optimism} corrects for. *)
let run_block ?backend (cfg : Config.t) (k : Ast.kernel)
    (launch : Ast.launch) (mem : Devmem.t) : result =
  run ~mode:Full ~streams:1 ?backend ~jobs:1 ~block_budget:1 cfg k launch mem

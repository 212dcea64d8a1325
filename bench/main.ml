(** Benchmark harness: regenerates every table and figure of the paper's
    evaluation (Section 6) on the GPU simulator.

    Usage:
      dune exec bench/main.exe                 (all sections)
      dune exec bench/main.exe -- fig11 fig13  (selected sections)
      GPCC_FAST=1 dune exec bench/main.exe     (reduced sizes)
      dune exec bench/main.exe -- --jobs=4 fig11   (search parallelism;
                                                    GPCC_JOBS=N also works)

    Design-space searches fan out across a pool of worker domains and
    persist measured scores in the on-disk exploration cache (default
    [_gpcc_cache/], override with GPCC_CACHE_DIR), so repeated runs skip
    already-measured points. Each section additionally writes a
    machine-readable [BENCH_<section>.json] next to the working
    directory: per-workload numbers, the empirically chosen
    configurations, cache hit/miss counts and wall-clock — see the
    README for the schema.

    Absolute numbers come from the machine model; the claims reproduced
    are the paper's *shapes*: who wins, by roughly what factor, and where
    the crossovers are. EXPERIMENTS.md records paper-vs-measured. *)

open Gpcc_workloads

let fast = Sys.getenv_opt "GPCC_FAST" <> None
let gtx280 = Gpcc_sim.Config.gtx280
let gtx8800 = Gpcc_sim.Config.gtx8800

(* worker-pool size: --jobs=N > GPCC_JOBS > the machine's domain count
   (Pool.default_jobs). [jobs_requested] keeps what was asked for so the
   JSON can record request and effective value separately. *)
let jobs = ref (Gpcc_util.Pool.default_jobs ())
let jobs_requested = ref None

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let note fmt = Printf.ksprintf (fun s -> Printf.printf "  (%s)\n" s) fmt

(* ------------------------------------------------------------------ *)
(* Machine-readable results: one BENCH_<section>.json per section      *)
(* ------------------------------------------------------------------ *)

module Record = struct
  let rows : Json_out.t list ref = ref []
  let add fields = rows := Json_out.Obj fields :: !rows
  let reset () = rows := []
  let take () = List.rev !rows
end

(* ------------------------------------------------------------------ *)
(* Configuration selection: the paper's empirical search (Section 4)   *)
(* ------------------------------------------------------------------ *)

(* cheap workloads are probed at full size; expensive ones at a smaller
   probe (the paper notes the optimum depends on the input size — the
   probe is the concession that makes simulation affordable) *)
let probe_size (w : Workload.t) n =
  if w.flops n < 5e7 then n else min n (if fast then 256 else 512)

(* measured scores persist across runs in the on-disk cache; the chosen
   configs are additionally memoized per process to skip re-deriving *)
let explore_cache = lazy (Gpcc_core.Explore_cache.open_dir ())
let chosen_configs : (string, int * int) Hashtbl.t = Hashtbl.create 32

(** Best (threads-per-block, merge-degree) for a workload on a GPU, found
    by compiling every Section-4 configuration and running the
    model-guided funnel ({!Gpcc_core.Explore.search_funnel}): analytic
    pre-ranking on single-block probes, successive halving on partial
    simulations, full measurement of the finalists only — fanned out
    across the domain pool, with scores served from the persistent
    exploration cache when available. Selects the same winner as the
    exhaustive sweep (the invariant the test suite and CI enforce). *)
let best_config (cfg : Gpcc_sim.Config.t) (w : Workload.t) (n : int) :
    int * int =
  let pn = probe_size w n in
  let key = Printf.sprintf "%s/%s/%d" cfg.name w.name pn in
  match Hashtbl.find_opt chosen_configs key with
  | Some c -> c
  | None ->
      let k = Workload.parse w pn in
      let cands, failures, _stats =
        Gpcc_core.Explore.search_funnel ~cfg ~jobs:!jobs
          ~cache:(Lazy.force explore_cache)
          ~cache_prefix:("bench/sample1/streams3/" ^ key)
          ~budget_sensitive:(Workload.budget_sensitive w pn) k
          ~predict:(Workload.predict_gflops cfg w pn)
          ~measure:(Workload.measure_gflops_blocks ~sample:1 ~streams:3 cfg w pn)
      in
      let chosen =
        match Gpcc_core.Explore.best_measured cands with
        | Some b when b.score > Float.neg_infinity ->
            (b.target_block_threads, b.merge_degree)
        | _ ->
            (* every candidate failed to compile or measure: make the
               fallback loud instead of silently pretending (256,16) was
               empirically selected *)
            Logs.warn (fun m ->
                m
                  "design-space search for %s: no runnable candidate (%d \
                   candidates, %d failures); falling back to (256,16)"
                  key (List.length cands) (List.length failures));
            List.iter
              (fun (f : Gpcc_core.Explore.failure) ->
                Logs.debug (fun m ->
                    m "  t=%d d=%d %s: %s" f.failed_target f.failed_degree
                      (match f.failed_stage with
                      | `Compile -> "compile"
                      | `Verify -> "verify"
                      | `Predict -> "predict"
                      | `Measure -> "measure")
                      f.reason))
              failures;
            (256, 16)
      in
      Hashtbl.replace chosen_configs key chosen;
      chosen

(** Compile a workload at size [n] with the empirically chosen knobs. *)
let compile_best (cfg : Gpcc_sim.Config.t) (w : Workload.t) (n : int) :
    Gpcc_core.Pipeline.result =
  let target, degree = best_config cfg w n in
  let pipeline =
    Gpcc_core.Pipeline.default ~cfg ~target_block_threads:target
      ~merge_degree:degree ()
  in
  Gpcc_core.Pipeline.run ~pipeline (Workload.parse w n)

let measure_naive ?(sample = 4) cfg (w : Workload.t) n =
  let k = Workload.parse w n in
  let launch = Option.get (Gpcc_passes.Pass_util.naive_launch k) in
  Workload.measure ~sample cfg w n k launch

let measure_opt ?(sample = 4) cfg (w : Workload.t) n =
  let r = compile_best cfg w n in
  Workload.measure ~sample cfg w n r.kernel r.launch

let geomean = function
  | [] -> 0.0
  | xs ->
      exp (List.fold_left (fun a x -> a +. log (Float.max 1e-9 x)) 0.0 xs
           /. float_of_int (List.length xs))

(* ------------------------------------------------------------------ *)
(* Table 1                                                              *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table 1: algorithms optimized with the compiler";
  Printf.printf "  %-14s %-42s %-22s %s\n" "algorithm" "description"
    "input sizes" "naive LOC";
  List.iter
    (fun (w : Workload.t) ->
      Printf.printf "  %-14s %-42s %-22s %d\n" w.name w.description
        (String.concat "," (List.map string_of_int w.sizes))
        (Workload.naive_loc w))
    Registry.all;
  note "paper LOC: tmv 11, mm 10, mv 11, vv 3, rd 9, strsm 18, conv 12, tp 11, demosaicing 27, imregionmax 26"

(* ------------------------------------------------------------------ *)
(* Figure 10: mm design space on GTX 280                                *)
(* ------------------------------------------------------------------ *)

let fig10 () =
  section "Figure 10: mm performance vs merge configuration (GTX 280)";
  let w = Registry.find_exn "mm" in
  let sizes = if fast then [ 256 ] else [ 512; 1024 ] in
  List.iter
    (fun n ->
      Printf.printf "  n=%d (GFLOPS; rows: threads/block, cols: thread-merge degree)\n" n;
      Printf.printf "  %8s" "";
      List.iter (fun d -> Printf.printf " %8d" d) [ 4; 8; 16; 32 ];
      print_newline ();
      List.iter
        (fun target ->
          Printf.printf "  %8d" target;
          List.iter
            (fun degree ->
              let pipeline =
                Gpcc_core.Pipeline.default ~cfg:gtx280
                  ~target_block_threads:target ~merge_degree:degree ()
              in
              match Gpcc_core.Pipeline.run ~pipeline (Workload.parse w n) with
              | r -> (
                  match
                    Workload.measure ~sample:1 ~streams:4 gtx280 w n r.kernel
                      r.launch
                  with
                  | t -> Printf.printf " %8.1f" t.gflops
                  | exception _ -> Printf.printf " %8s" "-")
              | exception _ -> Printf.printf " %8s" "-")
            [ 4; 8; 16; 32 ];
          print_newline ())
        [ 128; 256; 512 ];
      print_newline ())
    sizes;
  note "paper: optimum at 16 merged blocks along X with 16-way thread merge; ridge along moderate configurations, cliffs at resource limits"

(* ------------------------------------------------------------------ *)
(* Figure 11: optimized vs naive speedups, both GPUs                    *)
(* ------------------------------------------------------------------ *)

let fig11_size (w : Workload.t) =
  let n = if fast then w.test_size * 4 else w.bench_size in
  max n w.test_size

let fig11 () =
  section "Figure 11: kernel speedup of optimized over naive";
  Printf.printf "  %-14s %8s | %10s %10s %8s | %10s %10s %8s\n" "" "size"
    "8800-naive" "8800-opt" "speedup" "280-naive" "280-opt" "speedup";
  let speedups8800 = ref [] and speedups280 = ref [] in
  List.iter
    (fun (w : Workload.t) ->
      let n = fig11_size w in
      (* transpose has no flops: report effective bandwidth instead;
         speedups are always time-based *)
      let metric t =
        if w.flops n > 0.0 then t.Gpcc_sim.Timing.gflops
        else Workload.effective_bandwidth w n t
      in
      let row cfg acc =
        try
          let tn = measure_naive cfg w n in
          let topt = measure_opt cfg w n in
          let s = tn.time_ms /. Float.max 1e-9 topt.time_ms in
          acc := s :: !acc;
          let target, degree = best_config cfg w n in
          Record.add
            [
              ("workload", Json_out.Str w.name);
              ("gpu", Json_out.Str cfg.Gpcc_sim.Config.name);
              ("size", Json_out.Int n);
              ( "metric",
                Json_out.Str (if w.flops n > 0.0 then "gflops" else "gbps") );
              ("naive", Json_out.Float (metric tn));
              ("optimized", Json_out.Float (metric topt));
              ("speedup", Json_out.Float s);
              ( "config",
                Json_out.Obj
                  [
                    ("threads_per_block", Json_out.Int target);
                    ("merge_degree", Json_out.Int degree);
                  ] );
            ];
          Printf.sprintf "%10.2f %10.2f %7.1fx" (metric tn) (metric topt) s
        with e ->
          Record.add
            [
              ("workload", Json_out.Str w.name);
              ("gpu", Json_out.Str cfg.Gpcc_sim.Config.name);
              ("size", Json_out.Int n);
              ("error", Json_out.Str (Printexc.to_string e));
            ];
          Printf.sprintf "error: %s" (Printexc.to_string e)
      in
      let r8800 = row gtx8800 speedups8800 in
      let r280 = row gtx280 speedups280 in
      Printf.printf "  %-14s %8d | %s | %s\n%!" w.name n r8800 r280)
    Registry.all;
  Printf.printf "  %-14s %8s | %22s %7.1fx | %22s %7.1fx\n" "geometric mean"
    "" "" (geomean !speedups8800) "" (geomean !speedups280);
  note "paper: geometric means 15.1x (GTX8800) and 7.9x (GTX280); GTX280 benefits less because relaxed coalescing improves its naive baseline"

(* ------------------------------------------------------------------ *)
(* Figure 12: effect of each optimization step                          *)
(* ------------------------------------------------------------------ *)

let fig12 () =
  section "Figure 12: cumulative effect of each compilation step (geomean over kernels)";
  let stage_labels =
    [
      "naive"; "+vectorization"; "+coalescing"; "+thread/block merge";
      "+prefetching"; "+partition camping elim.";
    ]
  in
  List.iter
    (fun cfg ->
      let per_stage = Array.make (List.length stage_labels) [] in
      List.iter
        (fun (w : Workload.t) ->
          let n = fig11_size w in
          let target, degree = best_config cfg w n in
          try
            let stages =
              Gpcc_core.Pipeline.staged ~cfg ~target_block_threads:target
                ~merge_degree:degree (Workload.parse w n)
            in
            let naive_ms = ref None in
            List.iteri
              (fun i (_, kernel, launch) ->
                match Workload.measure ~sample:2 ~streams:6 cfg w n kernel launch with
                | t ->
                    (match !naive_ms with
                    | None -> naive_ms := Some (Float.max 1e-9 t.time_ms)
                    | Some _ -> ());
                    let base = Option.get !naive_ms in
                    per_stage.(i) <- (base /. Float.max 1e-9 t.time_ms) :: per_stage.(i)
                | exception _ -> ())
              stages
          with _ -> ())
        Registry.all;
      Printf.printf "  %s:\n" cfg.Gpcc_sim.Config.name;
      List.iteri
        (fun i label ->
          Printf.printf "    %-28s %6.2fx\n%!" label (geomean per_stage.(i)))
        stage_labels)
    [ gtx8800; gtx280 ];
  note "paper: thread/thread-block merge has the largest impact; prefetching shows little impact (skipped when registers are exhausted); camping elimination matters more on GTX280"

(* ------------------------------------------------------------------ *)
(* Figure 13: optimized vs CUBLAS 2.2 on GTX 280                        *)
(* ------------------------------------------------------------------ *)

let fig13 () =
  section "Figure 13: optimized kernels vs CUBLAS 2.2 (GTX 280, GFLOPS)";
  let sizes_for (w : Workload.t) =
    match w.name with
    | "rd" -> if fast then [ 262144 ] else [ 1048576; 4194304 ]
    | "vv" -> [ 1024; 4096 ]
    | _ -> if fast then [ 512 ] else [ 1024; 2048 ]
  in
  let ratios = ref [] in
  List.iter
    (fun (w : Workload.t) ->
      if w.in_cublas then
        List.iter
          (fun n ->
            try
              let topt = measure_opt gtx280 w n in
              let c = Option.get (Cublas_sim.find w.name) in
              let kc = Cublas_sim.kernel c n in
              let tc = Workload.measure gtx280 w n kc (c.c_launch n) in
              let ratio = topt.gflops /. Float.max 1e-9 tc.gflops in
              ratios := ratio :: !ratios;
              Record.add
                [
                  ("workload", Json_out.Str w.name);
                  ("gpu", Json_out.Str gtx280.Gpcc_sim.Config.name);
                  ("size", Json_out.Int n);
                  ("metric", Json_out.Str "gflops");
                  ("optimized", Json_out.Float topt.gflops);
                  ("cublas", Json_out.Float tc.gflops);
                  ("ratio", Json_out.Float ratio);
                ];
              Printf.printf "  %-8s n=%-8d ours %8.2f | cublas %8.2f | ratio %5.2fx\n%!"
                w.name n topt.gflops tc.gflops ratio
            with e ->
              Printf.printf "  %-8s n=%-8d error: %s\n%!" w.name n
                (Printexc.to_string e))
          (sizes_for w))
    Registry.all;
  Printf.printf "  geometric-mean ratio over all points: %.2fx\n" (geomean !ratios);
  note "paper: better than CUBLAS on tmv, mv, vv, strsm; within 2%% on mm and rd; 26-33%% average improvement"

(* ------------------------------------------------------------------ *)
(* Figure 14: vectorization of the complex reduction                    *)
(* ------------------------------------------------------------------ *)

let fig14 () =
  section "Figure 14: complex reduction with and without vectorization (GTX 280)";
  let w = Registry.find_exn "rd-complex" in
  let sizes = if fast then [ 262144 ] else [ 1048576; 4194304 ] in
  List.iter
    (fun n ->
      try
        let target, degree = best_config gtx280 w n in
        let pipeline =
          Gpcc_core.Pipeline.default ~cfg:gtx280 ~target_block_threads:target
            ~merge_degree:degree ()
        in
        let with_vec = Gpcc_core.Pipeline.run ~pipeline (Workload.parse w n) in
        let without =
          Gpcc_core.Pipeline.run
            ~pipeline:
              (Gpcc_core.Pipeline.disable [ "vectorize-wide"; "vectorize" ]
                 pipeline)
            (Workload.parse w n)
        in
        let tv = Workload.measure gtx280 w n with_vec.kernel with_vec.launch in
        let tw = Workload.measure gtx280 w n without.kernel without.launch in
        Record.add
          [
            ("workload", Json_out.Str w.name);
            ("gpu", Json_out.Str gtx280.Gpcc_sim.Config.name);
            ("size", Json_out.Int n);
            ("metric", Json_out.Str "gflops");
            ("optimized", Json_out.Float tv.gflops);
            ("optimized_wo_vectorize", Json_out.Float tw.gflops);
            ( "vectorization_gain",
              Json_out.Float (tv.gflops /. Float.max 1e-9 tw.gflops) );
          ];
        Printf.printf
          "  n=%-8d optimized %8.2f GFLOPS | optimized_wo_vec %8.2f GFLOPS | vectorization gain %.2fx\n%!"
          n tv.gflops tw.gflops (tv.gflops /. Float.max 1e-9 tw.gflops)
      with e -> Printf.printf "  n=%d error: %s\n%!" n (Printexc.to_string e))
    sizes;
  note "paper: vectorization significantly better — float2 bandwidth plus direct register loads instead of shared-memory destaging"

(* ------------------------------------------------------------------ *)
(* Figure 15: transpose bandwidth                                       *)
(* ------------------------------------------------------------------ *)

let fig15 () =
  section "Figure 15: transpose effective bandwidth (GTX 280, GB/s)";
  let w = Registry.find_exn "tp" in
  let sizes = if fast then [ 1024 ] else [ 1024; 2048; 4096 ] in
  Printf.printf "  %8s %10s %10s %10s %10s\n" "size" "naive" "SDK-prev"
    "SDK-new" "ours";
  List.iter
    (fun n ->
      try
        let bw t = Workload.effective_bandwidth w n t in
        let tn = measure_naive gtx280 w n in
        let kp, lp = Sdk_transpose.prev n in
        let tp_ = Workload.measure gtx280 w n kp lp in
        let kn, ln = Sdk_transpose.new_ n in
        let tnew = Workload.measure gtx280 w n kn ln in
        let to_ = measure_opt gtx280 w n in
        Record.add
          [
            ("workload", Json_out.Str w.name);
            ("gpu", Json_out.Str gtx280.Gpcc_sim.Config.name);
            ("size", Json_out.Int n);
            ("metric", Json_out.Str "gbps");
            ("naive", Json_out.Float (bw tn));
            ("sdk_prev", Json_out.Float (bw tp_));
            ("sdk_new", Json_out.Float (bw tnew));
            ("optimized", Json_out.Float (bw to_));
          ];
        Printf.printf "  %8d %10.1f %10.1f %10.1f %10.1f\n%!" n (bw tn)
          (bw tp_) (bw tnew) (bw to_)
      with e -> Printf.printf "  %8d error: %s\n%!" n (Printexc.to_string e))
    sizes;
  note "paper: naive << SDK-prev (partition camping) < SDK-new ~ ours (diagonal reordering); ours matches or beats the SDK version"

(* ------------------------------------------------------------------ *)
(* Figure 16: mv and partition camping                                  *)
(* ------------------------------------------------------------------ *)

let fig16 () =
  section "Figure 16: mv — naive / optimized without camping elimination / optimized / CUBLAS (GTX 280, GFLOPS)";
  let w = Registry.find_exn "mv" in
  let sizes = if fast then [ 512; 1024 ] else [ 1024; 2048; 4096 ] in
  Printf.printf "  %8s %10s %12s %10s %10s\n" "size" "naive" "Opti_PC"
    "optimized" "CUBLAS";
  List.iter
    (fun n ->
      try
        let tn = measure_naive gtx280 w n in
        let target, degree = best_config gtx280 w n in
        let pipeline =
          Gpcc_core.Pipeline.default ~cfg:gtx280 ~target_block_threads:target
            ~merge_degree:degree ()
        in
        let nopc =
          Gpcc_core.Pipeline.run
            ~pipeline:
              (Gpcc_core.Pipeline.disable [ "partition-camping" ] pipeline)
            (Workload.parse w n)
        in
        let full = Gpcc_core.Pipeline.run ~pipeline (Workload.parse w n) in
        let tnopc = Workload.measure gtx280 w n nopc.kernel nopc.launch in
        let tfull = Workload.measure gtx280 w n full.kernel full.launch in
        let c = Option.get (Cublas_sim.find "mv") in
        let tc =
          Workload.measure gtx280 w n (Cublas_sim.kernel c n) (c.c_launch n)
        in
        Record.add
          [
            ("workload", Json_out.Str w.name);
            ("gpu", Json_out.Str gtx280.Gpcc_sim.Config.name);
            ("size", Json_out.Int n);
            ("metric", Json_out.Str "gflops");
            ("naive", Json_out.Float tn.gflops);
            ("optimized_no_camping_elim", Json_out.Float tnopc.gflops);
            ("optimized", Json_out.Float tfull.gflops);
            ("cublas", Json_out.Float tc.gflops);
          ];
        Printf.printf "  %8d %10.2f %12.2f %10.2f %10.2f\n%!" n tn.gflops
          tnopc.gflops tfull.gflops tc.gflops
      with e -> Printf.printf "  %8d error: %s\n%!" n (Printexc.to_string e))
    sizes;
  note "paper: Opti_PC already beats CUBLAS; eliminating partition camping improves it further"

(* ------------------------------------------------------------------ *)
(* Section 7 case study: FFT                                            *)
(* ------------------------------------------------------------------ *)

let fig17_fft () =
  section "Section 7 case study: 1-D FFT, naive 2-point butterflies vs compiler-merged";
  let w = Registry.find_exn "fft" in
  let sizes = if fast then [ 4096 ] else [ 16384; 65536 ] in
  List.iter
    (fun n ->
      try
        let tn = measure_naive gtx280 w n in
        let topt = measure_opt gtx280 w n in
        let target, degree = best_config gtx280 w n in
        Record.add
          [
            ("workload", Json_out.Str w.name);
            ("gpu", Json_out.Str gtx280.Gpcc_sim.Config.name);
            ("size", Json_out.Int n);
            ("metric", Json_out.Str "gflops");
            ("naive", Json_out.Float tn.gflops);
            ("optimized", Json_out.Float topt.gflops);
            ( "speedup",
              Json_out.Float (tn.time_ms /. Float.max 1e-9 topt.time_ms) );
            ( "config",
              Json_out.Obj
                [
                  ("threads_per_block", Json_out.Int target);
                  ("merge_degree", Json_out.Int degree);
                ] );
          ];
        Printf.printf
          "  n=%-7d naive 2-point %7.2f GFLOPS | optimized (vectorized, %d-way merge, %d-thread blocks) %7.2f GFLOPS | gain %.2fx\n%!"
          n tn.gflops degree target topt.gflops
          (tn.time_ms /. Float.max 1e-9 topt.time_ms)
      with e -> Printf.printf "  n=%d error: %s\n%!" n (Printexc.to_string e))
    sizes;
  note "paper: 24 GFLOPS naive 2-point -> 41 GFLOPS after thread merge (vs CUFFT 2.2's 26); a hand-written 8-point naive kernel (44) then re-optimized (59) beats both — the compiler aids but does not replace algorithm exploration"

(* ------------------------------------------------------------------ *)
(* Ablations of individual design choices                               *)
(* ------------------------------------------------------------------ *)

let ablations () =
  section "Ablations: isolating the design choices the compiler makes";

  (* 1. shared-memory padding: the [16][17] tile vs an unpadded [16][16]
     one — the column reads shared1[tidx][k] hit one bank without the
     padding word (paper Section 3.3 "padding to avoid bank conflicts") *)
  (try
     let w = Registry.find_exn "mv" in
     let n = if fast then 512 else 1024 in
     let r = compile_best gtx280 w n in
     let unpad (k : Gpcc_ast.Ast.kernel) =
       {
         k with
         k_body =
           Gpcc_ast.Rewrite.map_stmts
             (function
               | Gpcc_ast.Ast.Decl
                   ({ d_ty = Array ({ space = Shared; dims; _ } as a); _ } as d)
                 ->
                   let dims' =
                     List.map (fun x -> if x = 17 then 16 else x) dims
                   in
                   [ Gpcc_ast.Ast.Decl { d with d_ty = Array { a with dims = dims' } } ]
               | s -> [ s ])
             k.k_body;
       }
     in
     let padded, _ =
       Workload.execute ~mode:(Gpcc_sim.Launch.Sampled 2) gtx280 w n r.kernel
         r.launch
     in
     let stripped, _ =
       Workload.execute ~mode:(Gpcc_sim.Launch.Sampled 2) gtx280 w n
         (unpad r.kernel) r.launch
     in
     Printf.printf
       "  shared-memory padding (mv tile): padded [16][17] %6.2f GFLOPS (%.0f conflict cycles/block) | unpadded [16][16] %6.2f GFLOPS (%.0f conflict cycles/block)\n"
       padded.timing.gflops padded.per_block.bank_extra
       stripped.timing.gflops stripped.per_block.bank_extra
   with e -> Printf.printf "  padding ablation failed: %s\n" (Printexc.to_string e));

  (* 2. coalescing rules: the same naive mm under the G80 strict rule vs
     the GT200 relaxed rule (all other machine parameters held at GTX280
     values) — why Figure 11's speedups are larger on the older GPU *)
  (try
     let w = Registry.find_exn "mm" in
     let n = if fast then 256 else 512 in
     let k = Workload.parse w n in
     let launch = Option.get (Gpcc_passes.Pass_util.naive_launch k) in
     let strict_cfg =
       { gtx280 with Gpcc_sim.Config.coalesce_rules = Gpcc_sim.Config.Strict_g80;
         name = "GTX280+strict" }
     in
     let relaxed = Workload.measure ~sample:2 gtx280 w n k launch in
     let strict = Workload.measure ~sample:2 strict_cfg w n k launch in
     Printf.printf
       "  coalescing rules (naive mm, same chip otherwise): strict-G80 %6.2f GFLOPS | relaxed-GT200 %6.2f GFLOPS (%.1fx from the rule alone)\n"
       strict.gflops relaxed.gflops (relaxed.gflops /. Float.max 1e-9 strict.gflops)
   with e -> Printf.printf "  rules ablation failed: %s\n" (Printexc.to_string e));

  (* 3. prefetching: a configuration with register headroom where the
     pass actually fires, on vs off *)
  (try
     let w = Registry.find_exn "mm" in
     let n = if fast then 256 else 512 in
     let pipeline =
       Gpcc_core.Pipeline.default ~cfg:gtx280 ~target_block_threads:64
         ~merge_degree:4 ()
     in
     let with_pf = Gpcc_core.Pipeline.run ~pipeline (Workload.parse w n) in
     let without =
       Gpcc_core.Pipeline.run
         ~pipeline:(Gpcc_core.Pipeline.disable [ "prefetch" ] pipeline)
         (Workload.parse w n)
     in
     let fired =
       List.exists
         (fun (s : Gpcc_core.Pipeline.step) ->
           s.step_name = "data prefetching" && s.fired)
         with_pf.steps
     in
     let tp_ = Workload.measure ~sample:2 gtx280 w n with_pf.kernel with_pf.launch in
     let tn = Workload.measure ~sample:2 gtx280 w n without.kernel without.launch in
     Printf.printf
       "  prefetching (mm, 64-thread blocks, 4-way merge; pass fired: %b): with %6.2f GFLOPS | without %6.2f GFLOPS\n"
       fired tp_.gflops tn.gflops
   with e -> Printf.printf "  prefetch ablation failed: %s\n" (Printexc.to_string e));

  (* 4. the empirical search (Section 4): the per-workload selected
     configuration vs the paper's mm-tuned default (256 threads, 16-way
     merge) applied blindly *)
  (try
     List.iter
       (fun name ->
         let w = Registry.find_exn name in
         let n = if fast then 512 else 1024 in
         let fixed =
           Gpcc_core.Pipeline.run
             ~pipeline:
               (Gpcc_core.Pipeline.default ~cfg:gtx280
                  ~target_block_threads:256 ~merge_degree:16 ())
             (Workload.parse w n)
         in
         let tf = Workload.measure ~sample:2 gtx280 w n fixed.kernel fixed.launch in
         let tb = measure_opt ~sample:2 gtx280 w n in
         let target, degree = best_config gtx280 w n in
         Printf.printf
           "  empirical search (%s): fixed (256,16) %6.2f GFLOPS | searched (%d,%d) %6.2f GFLOPS\n"
           name tf.gflops target degree tb.gflops)
       [ "tmv"; "mv" ]
   with e -> Printf.printf "  search ablation failed: %s\n" (Printexc.to_string e));
  note "each row isolates one mechanism: bank-conflict padding, the hardware coalescing rule, prefetch double-buffering, and the Section-4 empirical search"

(* ------------------------------------------------------------------ *)
(* Simulator-backend microbenchmark: vector vs reference               *)
(* ------------------------------------------------------------------ *)

(* [GPCC_BENCH_REPS]: a fixed number of timed repetitions, when set *)
let fixed_reps () =
  match Sys.getenv_opt "GPCC_BENCH_REPS" with
  | Some s -> (
      match int_of_string_opt s with Some r when r >= 1 -> Some r | _ -> None)
  | None -> None

(** Blocks simulated per second, per workload, for the warp-vectorized
    plane backend vs the tree-walking reference interpreter. Naive
    kernels at [test_size] (plus the fixed SDK-transpose and CUBLAS
    comparator artifacts), full grid, serial execution in both backends
    so the measurement isolates the interpreter itself, plan caches
    warm.

    [GPCC_BENCH_REPS=N] switches from the wall-clock budget to exactly
    [N] timed repetitions per backend — fixed work, so the two columns
    of one run are comparable as a ratio in CI. Either way the sides
    alternate in five batches and report their median batch rate. *)
let interp () =
  section "Interpreter backends: blocks/s, vector vs reference (naive, serial)";
  let module L = Gpcc_sim.Launch in
  let fixed_reps = fixed_reps () in
  Printf.printf "  %-16s %8s | %11s %11s %9s\n" "workload" "blocks" "vector"
    "reference" "vec/ref";
  let bench label (k : Gpcc_ast.Ast.kernel) (launch : Gpcc_ast.Ast.launch)
      (inputs : (string * float array) list) =
    let nblocks = Gpcc_ast.Ast.total_blocks launch in
    let run backend =
      let mem = Gpcc_sim.Devmem.of_kernel k in
      List.iter
        (fun (name, d) ->
          if Gpcc_sim.Devmem.find mem name <> None then
            Gpcc_sim.Devmem.write mem name d)
        inputs;
      ignore (L.run ~mode:L.Full ~backend ~jobs:1 gtx280 k launch mem)
    in
    (* warm both backends (and the plan cache) before timing *)
    run L.Vector;
    run L.Reference;
    (* the two sides run in alternating batches, and each reports its
       median batch rate: a stall of the host slows one batch, not the
       row. With [GPCC_BENCH_REPS] the batches split exactly that many
       runs per side. *)
    let batches =
      match fixed_reps with Some r -> min 5 r | None -> 5
    in
    let batch backend k =
      match fixed_reps with
      | Some r ->
          let reps = (r * (k + 1) / batches) - (r * k / batches) in
          let t0 = Unix.gettimeofday () in
          for _ = 1 to reps do
            run backend
          done;
          float_of_int (reps * nblocks) /. (Unix.gettimeofday () -. t0)
      | None ->
          let budget = (if fast then 0.2 else 0.5) /. float_of_int batches in
          let reps = ref 0 in
          let t0 = Unix.gettimeofday () in
          while Unix.gettimeofday () -. t0 < budget || !reps = 0 do
            run backend;
            incr reps
          done;
          float_of_int (!reps * nblocks) /. (Unix.gettimeofday () -. t0)
    in
    let rv = Array.make batches 0.0 and rr = Array.make batches 0.0 in
    for k = 0 to batches - 1 do
      if k mod 2 = 0 then begin
        rv.(k) <- batch L.Vector k;
        rr.(k) <- batch L.Reference k
      end
      else begin
        rr.(k) <- batch L.Reference k;
        rv.(k) <- batch L.Vector k
      end
    done;
    let median a =
      let a = Array.copy a in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
    in
    let bv = median rv in
    let br = median rr in
    let vec_over_ref = bv /. Float.max 1e-9 br in
    Record.add
      [
        ("workload", Json_out.Str label);
        ("backend", Json_out.Str (L.backend_name (L.backend_of_env ())));
        ("blocks", Json_out.Int nblocks);
        ("blocks_per_s_vector", Json_out.Float bv);
        ("blocks_per_s_reference", Json_out.Float br);
        ("vector_over_reference", Json_out.Float vec_over_ref);
      ];
    Printf.printf "  %-16s %8d | %11.0f %11.0f %8.2fx\n%!" label nblocks bv br
      vec_over_ref
  in
  List.iter
    (fun (w : Workload.t) ->
      let n = w.test_size in
      let k = Workload.parse w n in
      let launch = Option.get (Gpcc_passes.Pass_util.naive_launch k) in
      bench w.name k launch (w.inputs n))
    (Registry.all @ Registry.extras);
  (* the fixed artifacts the paper compares against: the SDK transpose
     pair (barrier-heavy shared-tile kernels) and the CUBLAS comparator
     kernels (register-blocked, loop-heavy) *)
  let tp = Registry.find_exn "tp" in
  let tpn = tp.test_size in
  let kp, lp = Sdk_transpose.prev tpn in
  bench "sdk_tp_prev" kp lp (tp.inputs tpn);
  let kn, ln = Sdk_transpose.new_ tpn in
  bench "sdk_tp_new" kn ln (tp.inputs tpn);
  List.iter
    (fun (c : Cublas_sim.comparator) ->
      let w = Registry.find_exn c.c_for in
      let n = max w.test_size 128 in
      bench
        ("cublas_" ^ c.c_for)
        (Cublas_sim.kernel c n)
        (c.c_launch n) (w.inputs n))
    Cublas_sim.all

(* ------------------------------------------------------------------ *)
(* Verifier lints: one plan per kernel text vs a one-lane check each    *)
(* ------------------------------------------------------------------ *)

(** The concrete verifier's lints at the launches the symbolic tier
    proves clean, per kernel: the staged path (each kernel text walked
    and planned once, {!Gpcc_analysis.Verify.plan}, then linted at each
    of its launches, {!Gpcc_analysis.Verify.lint}) against a one-lane
    {!Gpcc_analysis.Verify.check} per launch, which walks the text every
    time. The targets are the states the GTX 280 Section-4 grid compiles
    validate, at their launches, that {!Gpcc_analysis.Symverify} decides
    clean. Each side's diagnostics are digested (the one-lane check's
    without its [verify-incomplete] warning), so a row whose digests
    differ is a lint the staged path got wrong.

    [GPCC_BENCH_REPS=N] times exactly [N] repetitions of each side, as
    in [interp]: fixed work, so the ratio of one run is comparable. *)
let lint () =
  section "Verifier lints: staged plans vs one-lane checks (GTX 280 grid)";
  let module V = Gpcc_analysis.Verify in
  let module SV = Gpcc_analysis.Symverify in
  let fixed_reps = fixed_reps () in
  Printf.printf "  %-12s %5s %8s | %10s %10s %8s\n" "workload" "texts"
    "launches" "staged ms" "1-lane ms" "1-lane/st";
  let ratios =
    List.map
      (fun (w : Workload.t) ->
        let n = if fast then w.test_size else w.bench_size in
        let naive = Workload.parse w n in
        (* distinct texts in first-seen order, each with its proved
           launches *)
        let texts = ref [] in
        let add (k : Gpcc_ast.Ast.kernel) (l : Gpcc_ast.Ast.launch) =
          let key = Gpcc_analysis.Analysis_cache.kernel_key k in
          let ls =
            match List.assoc_opt key !texts with
            | Some (_, ls) -> ls
            | None ->
                let entry = (k, ref []) in
                texts := !texts @ [ (key, entry) ];
                snd entry
          in
          if
            Gpcc_ast.Ast.threads_per_block l <= 512
            && (not (List.exists (Gpcc_ast.Ast.equal_launch l) !ls))
            && SV.decide
                 (Gpcc_analysis.Analysis_cache.symbolic_result
                    (Gpcc_analysis.Analysis_cache.domain ())
                    k)
                 l
               = `Clean
          then ls := !ls @ [ l ]
        in
        List.iter
          (fun target ->
            List.iter
              (fun degree ->
                let pipeline =
                  Gpcc_core.Pipeline.default ~cfg:gtx280
                    ~target_block_threads:target ~merge_degree:degree ()
                in
                match Gpcc_core.Pipeline.run ~pipeline naive with
                | r ->
                    add naive
                      (Option.get (Gpcc_passes.Pass_util.initial_launch naive));
                    List.iter
                      (fun (s : Gpcc_core.Pipeline.step) ->
                        if s.fired then add s.kernel_after s.launch_after)
                      r.steps
                | exception e when Gpcc_core.Pipeline.verifier_rejected e -> ())
              Gpcc_core.Explore.default_merge_degrees)
          Gpcc_core.Explore.default_block_targets;
        let texts =
          List.filter_map
            (fun (_, (k, ls)) -> if !ls = [] then None else Some (k, !ls))
            !texts
        in
        let launches =
          List.fold_left (fun a (_, ls) -> a + List.length ls) 0 texts
        in
        let digest (ds : V.diagnostic list list) =
          Digest.to_hex
            (Digest.string
               (String.concat "\n" (List.map V.json_of_diagnostics ds)))
        in
        let staged () =
          List.concat_map
            (fun (k, ls) ->
              let p = V.plan k in
              List.map (fun launch -> fst (V.lint p ~launch)) ls)
            texts
        and one_lane () =
          List.concat_map
            (fun (k, ls) ->
              List.map
                (fun launch ->
                  List.filter
                    (fun (d : V.diagnostic) ->
                      d.rule <> V.rule_verify_incomplete)
                    (V.check ~max_lanes:1 ~launch k))
                ls)
            texts
        in
        let staged_digest = digest (staged ())
        and one_lane_digest = digest (one_lane ()) in
        (* the two sides alternate, so that both see the same machine *)
        let reps = Option.value fixed_reps ~default:(if fast then 5 else 10) in
        let time f =
          let t0 = Unix.gettimeofday () in
          ignore (f ());
          Unix.gettimeofday () -. t0
        in
        let st = ref 0.0 and ol = ref 0.0 in
        for _ = 1 to reps do
          st := !st +. time staged;
          ol := !ol +. time one_lane
        done;
        let st = !st /. float_of_int reps and ol = !ol /. float_of_int reps in
        let ratio = ol /. Float.max 1e-9 st in
        Record.add
          [
            ("workload", Json_out.Str w.name);
            ("size", Json_out.Int n);
            ("texts", Json_out.Int (List.length texts));
            ("launches", Json_out.Int launches);
            ("staged_s", Json_out.Float st);
            ("one_lane_s", Json_out.Float ol);
            ("one_lane_over_staged", Json_out.Float ratio);
            ("staged_digest", Json_out.Str staged_digest);
            ("one_lane_digest", Json_out.Str one_lane_digest);
          ];
        Printf.printf "  %-12s %5d %8d | %10.2f %10.2f %7.2fx%s\n%!" w.name
          (List.length texts) launches (st *. 1e3) (ol *. 1e3) ratio
          (if staged_digest = one_lane_digest then "" else "  DIGESTS DIFFER");
        ratio)
      (Registry.all @ Registry.extras)
  in
  note "geomean one-lane/staged %.2fx over %d kernels" (geomean ratios)
    (List.length ratios)

(* ------------------------------------------------------------------ *)
(* Beyond the paper's evaluation: the AMD target it sketches in 3.1     *)
(* ------------------------------------------------------------------ *)

let amd_vectors () =
  section "AMD HD 5870: aggressive vectorization (paper Sections 2a/3.1)";
  let amd = Gpcc_sim.Config.hd5870 in
  let w = Registry.find_exn "vv" in
  let n = if fast then 262144 else 1048576 in
  Printf.printf "  element-wise vv over %d floats; effective GB/s by access width:\n" n;
  List.iter
    (fun width ->
      try
        let k = Workload.parse w n in
        let launch0 = Option.get (Gpcc_passes.Pass_util.initial_launch k) in
        let o =
          if width = 1 then Gpcc_passes.Pass_util.unchanged k launch0
          else Gpcc_passes.Vectorize_wide.apply ~width k launch0
        in
        let bm = Gpcc_passes.Merge.block_merge_x o.kernel o.launch 16 in
        let t = Workload.measure ~sample:2 amd w n bm.kernel bm.launch in
        Printf.printf "    float%-2s %7.1f GB/s\n"
          (if width = 1 then "" else string_of_int width)
          (Workload.effective_bandwidth w n t)
      with e -> Printf.printf "    width %d error: %s\n" width (Printexc.to_string e))
    [ 1; 2; 4 ];
  (try
     let k = Workload.parse w n in
     let r =
       Gpcc_core.Pipeline.run
         ~pipeline:(Gpcc_core.Pipeline.default ~cfg:amd ())
         k
     in
     let fired =
       List.exists
         (fun (s : Gpcc_core.Pipeline.step) ->
           s.fired && s.step_name = "wide vectorization (AMD)")
         r.steps
     in
     let t = Workload.measure ~sample:2 amd w n r.kernel r.launch in
     Printf.printf
       "  full pipeline on HD 5870 (wide vectorization fired: %b): %7.1f GB/s\n"
       fired
       (Workload.effective_bandwidth w n t)
   with e -> Printf.printf "  pipeline error: %s\n" (Printexc.to_string e));
  note "paper Section 2a: the HD 5870 sustains 71 / 98 / 101 GB/s for float / float2 / float4 — the measured widths must reproduce that ordering"

(* ------------------------------------------------------------------ *)
(* Exploration funnel: model-guided pruned sweep vs exhaustive          *)
(* ------------------------------------------------------------------ *)

(* throwaway score-cache directories for the cold/warm timings
   (recursive: a store may still hold the earlier layout's shard
   directories) *)
let rec remove_cache_dir dir =
  (match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | names ->
      Array.iter
        (fun n ->
          let p = Filename.concat dir n in
          if Sys.is_directory p then remove_cache_dir p
          else try Sys.remove p with Sys_error _ -> ())
        names);
  try Sys.rmdir dir with Sys_error _ -> ()

(** Head-to-head of the exhaustive Section-4 sweep and the model-guided
    funnel, per workload at the fig11 probe size: both sweeps run on
    fresh throwaway caches (cold), the funnel a second time on its now
    populated cache (warm). The row records the funnel statistics, the
    prediction-vs-measurement rank correlation, and whether both sweeps
    chose the same configuration — the invariant CI gates on. *)
let explore () =
  section "Design-space exploration: model-guided funnel vs exhaustive sweep";
  let names =
    if fast then [ "mm"; "rd" ]
    else
      List.map
        (fun (w : Workload.t) -> w.name)
        (Registry.all @ Registry.extras)
  in
  let cfg = gtx280 in
  let timed f =
    (* level the heap before each timed sweep: the large device arrays
       of earlier runs otherwise bloat major collections into the next
       measurement and the comparison stops being apples-to-apples *)
    Gc.compact ();
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  Printf.printf "  %-14s | %9s %9s %9s | %4s %4s %5s %4s | %8s | %s\n"
    "workload" "exhaust_s" "cold_s" "warm_s" "cand" "dist" "prune" "meas"
    "spearman" "same winner";
  let tot_ex = ref 0.0 and tot_cold = ref 0.0 and tot_warm = ref 0.0 in
  List.iter
    (fun name ->
      let w = Registry.find_exn name in
      try
        let pn = probe_size w (fig11_size w) in
        let k = Workload.parse w pn in
        let measure = Workload.measure_gflops ~sample:1 ~streams:3 cfg w pn in
        let measure_blocks =
          Workload.measure_gflops_blocks ~sample:1 ~streams:3 cfg w pn
        in
        let predict = Workload.predict_gflops cfg w pn in
        let key =
          Printf.sprintf "%s/%s/%d" cfg.Gpcc_sim.Config.name w.name pn
        in
        let tmp tag =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "gpcc-explore-%d-%s-%s" (Unix.getpid ()) w.name tag)
        in
        let ex_dir = tmp "ex" and fu_dir = tmp "funnel" in
        let (ex_cands, _), ex_s =
          timed (fun () ->
              Gpcc_core.Explore.search_with_failures ~cfg ~jobs:!jobs
                ~cache:(Gpcc_core.Explore_cache.open_dir ~dir:ex_dir ())
                ~cache_prefix:key k ~measure)
        in
        let run_funnel () =
          (* a fresh handle each time: warm must hit the disk, not the
             previous handle's in-memory memo *)
          Gpcc_core.Explore.search_funnel ~cfg ~jobs:!jobs
            ~cache:(Gpcc_core.Explore_cache.open_dir ~dir:fu_dir ())
            ~cache_prefix:key
            ~budget_sensitive:(Workload.budget_sensitive w pn)
            k ~predict ~measure:measure_blocks
        in
        let (fu_cands, _, stats), cold_s = timed run_funnel in
        let _, warm_s = timed run_funnel in
        remove_cache_dir ex_dir;
        remove_cache_dir fu_dir;
        let config_of = function
          | Some (c : Gpcc_core.Explore.candidate) ->
              (c.target_block_threads, c.merge_degree, c.score)
          | None -> (0, 0, Float.neg_infinity)
        in
        let et, ed, es = config_of (Gpcc_core.Explore.best ex_cands) in
        let ft, fd, fs = config_of (Gpcc_core.Explore.best_measured fu_cands) in
        let matched = et = ft && ed = fd in
        tot_ex := !tot_ex +. ex_s;
        tot_cold := !tot_cold +. cold_s;
        tot_warm := !tot_warm +. warm_s;
        let config t d =
          Json_out.Obj
            [
              ("threads_per_block", Json_out.Int t);
              ("merge_degree", Json_out.Int d);
            ]
        in
        Record.add
          [
            ("workload", Json_out.Str w.name);
            ("gpu", Json_out.Str cfg.Gpcc_sim.Config.name);
            ("size", Json_out.Int pn);
            ("candidates", Json_out.Int stats.f_configs);
            ("distinct", Json_out.Int stats.f_distinct);
            ("predicted", Json_out.Int stats.f_predicted);
            ("pruned", Json_out.Int stats.f_pruned);
            ("halving_rungs", Json_out.Int stats.f_rungs);
            ("partial_runs", Json_out.Int stats.f_partial_runs);
            ("fully_measured", Json_out.Int stats.f_measured);
            ( "spearman",
              if stats.f_spearman_n < 3 then Json_out.Null
              else Json_out.Float stats.f_spearman );
            ("spearman_n", Json_out.Int stats.f_spearman_n);
            ("exhaustive_wall_s", Json_out.Float ex_s);
            ("funnel_cold_wall_s", Json_out.Float cold_s);
            ("funnel_warm_wall_s", Json_out.Float warm_s);
            ("exhaustive_config", config et ed);
            ("exhaustive_gflops", Json_out.Float es);
            ("funnel_config", config ft fd);
            ("funnel_gflops", Json_out.Float fs);
            ("winner_match", Json_out.Bool matched);
          ];
        Printf.printf
          "  %-14s | %9.2f %9.2f %9.2f | %4d %4d %5d %4d | %8s | %s\n%!"
          w.name ex_s cold_s warm_s stats.f_configs stats.f_distinct
          stats.f_pruned stats.f_measured
          (if stats.f_spearman_n < 3 then "n/a"
           else Printf.sprintf "%.2f" stats.f_spearman)
          (if matched then Printf.sprintf "yes (%d,%d)" ft fd
           else Printf.sprintf "NO (%d,%d) vs (%d,%d)" ft fd et ed)
      with e ->
        Record.add
          [
            ("workload", Json_out.Str w.name);
            ("gpu", Json_out.Str cfg.Gpcc_sim.Config.name);
            ("error", Json_out.Str (Printexc.to_string e));
          ];
        Printf.printf "  %-14s | error: %s\n%!" w.name (Printexc.to_string e))
    names;
  Printf.printf
    "  total sweep wall-clock: exhaustive %.2fs | funnel cold %.2fs (%.1fx) | funnel warm %.2fs\n"
    !tot_ex !tot_cold
    (!tot_ex /. Float.max 1e-9 !tot_cold)
    !tot_warm;
  note
    "gate: the funnel must select the exhaustive winner while fully measuring only the stage-1 survivors (single-phase) or the final halving rung (multi-phase)"

(* ------------------------------------------------------------------ *)

let sections =
  [
    ("table1", table1); ("fig10", fig10); ("fig11", fig11); ("fig12", fig12);
    ("fig13", fig13); ("fig14", fig14); ("fig15", fig15); ("fig16", fig16);
    ("fig17_fft", fig17_fft); ("ablations", ablations); ("explore", explore);
    ("interp", interp); ("lint", lint); ("amd_vectors", amd_vectors);
  ]

(** Write BENCH_<section>.json: rows recorded by the section, the wall
    clock, the worker-pool size and the exploration-cache traffic (hit
    and miss deltas over this section). *)
let emit_json ~name ~wall_s ~sim_s ~hits ~misses ~analysis_hits
    ~analysis_misses ~plane_hits
    ~plane_misses ~closed_form ~store_hits ~store_misses ~store_evictions
    ~verify_wall_s ~sym_proofs ~concrete_fallbacks ~rows =
  let cache_fields =
    (if Lazy.is_val explore_cache then
       let c = Lazy.force explore_cache in
       [
         ("dir", Json_out.Str (Gpcc_core.Explore_cache.dir c));
         ("hits", Json_out.Int hits);
         ("misses", Json_out.Int misses);
         ("entries", Json_out.Int (Gpcc_core.Explore_cache.entries c));
       ]
     else [ ("hits", Json_out.Int 0); ("misses", Json_out.Int 0) ])
    (* the in-process analysis manager (memoized Affine/Sharing/Coalesce/
       Regcount/Verify results), aggregated across worker domains *)
    @ [
        ("analysis_hits", Json_out.Int analysis_hits);
        ("analysis_misses", Json_out.Int analysis_misses);
        (* plane-granularity accounting, aggregated across worker
           domains: whole access planes resolved against the
           plane-digest memo, and loop iterations credited in closed
           form without touching the memo at all *)
        ("coalescer_plane_hits", Json_out.Int plane_hits);
        ("coalescer_plane_misses", Json_out.Int plane_misses);
        ("closed_form_credits", Json_out.Int closed_form);
        (* the shared artifact store (scores, verdicts, bundles),
           aggregated across every handle and domain *)
        ("store_hits", Json_out.Int store_hits);
        ("store_misses", Json_out.Int store_misses);
        ("store_evictions", Json_out.Int store_evictions);
      ]
  in
  let pass_timings =
    List.map
      (fun (pass, (runs, total_ms)) ->
        Json_out.Obj
          [
            ("pass", Json_out.Str pass);
            ("runs", Json_out.Int runs);
            ("total_ms", Json_out.Float total_ms);
          ])
      (Gpcc_core.Pipeline.pass_timings ())
  in
  Json_out.to_file
    (Printf.sprintf "BENCH_%s.json" name)
    (Json_out.Obj
       [
         ("schema", Json_out.Str "gpcc-bench-v1");
         ("section", Json_out.Str name);
         ("mode", Json_out.Str (if fast then "fast" else "full"));
         ( "jobs_requested",
           Json_out.Int (Option.value ~default:!jobs !jobs_requested) );
         ("jobs", Json_out.Int !jobs);
         ( "interp_backend",
           Json_out.Str
             (Gpcc_sim.Launch.backend_name (Gpcc_sim.Launch.backend_of_env ()))
         );
         ("wall_clock_s", Json_out.Float wall_s);
         ("sim_wall_clock_s", Json_out.Float sim_s);
         (* verifier cost over this section: wall clock inside the
            verify entry points, launches discharged symbolically vs
            handed to the concrete verifier *)
         ("verify_wall_clock_s", Json_out.Float verify_wall_s);
         ("symbolic_proofs", Json_out.Int sym_proofs);
         ("concrete_fallbacks", Json_out.Int concrete_fallbacks);
         ("cache", Json_out.Obj cache_fields);
         ("pass_timings", Json_out.List pass_timings);
         ("workloads", Json_out.List rows);
       ])

let cache_traffic () =
  if Lazy.is_val explore_cache then
    let c = Lazy.force explore_cache in
    (Gpcc_core.Explore_cache.hits c, Gpcc_core.Explore_cache.misses c)
  else (0, 0)

let () =
  Logs.set_reporter (Logs.format_reporter ());
  if Logs.level () = None then Logs.set_level (Some Logs.Warning);
  let args = List.tl (Array.to_list Sys.argv) in
  let requested =
    List.filter
      (fun a ->
        match String.index_opt a '=' with
        | Some i when String.sub a 0 i = "--jobs" -> (
            (match
               int_of_string_opt
                 (String.sub a (i + 1) (String.length a - i - 1))
             with
            | Some n when n >= 1 ->
                jobs_requested := Some n;
                jobs := n
            | _ -> Printf.eprintf "ignoring bad %s (want --jobs=N)\n" a);
            false)
        | _ -> true)
      args
  in
  let requested =
    match requested with [] -> List.map fst sections | names -> names
  in
  Printf.printf "gpcc benchmark harness (%s mode, %d search jobs)\n"
    (if fast then "fast" else "full")
    !jobs;
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> (
          Record.reset ();
          Gpcc_core.Pipeline.reset_pass_timings ();
          let hits0, misses0 = cache_traffic () in
          let ahits0 = Gpcc_analysis.Analysis_cache.global_hits ()
          and amisses0 = Gpcc_analysis.Analysis_cache.global_misses () in
          let pc0 = Gpcc_sim.Launch.perf_counters () in
          let shits0 = Gpcc_util.Store.global_hits ()
          and smisses0 = Gpcc_util.Store.global_misses ()
          and sevict0 = Gpcc_util.Store.global_evictions () in
          let vwall0 =
            Gpcc_analysis.Analysis_cache.global_verify_wall_clock_s ()
          and sym0 = Gpcc_analysis.Analysis_cache.global_symbolic_proofs ()
          and fb0 =
            Gpcc_analysis.Analysis_cache.global_concrete_fallbacks ()
          in
          let sim0 = Gpcc_sim.Launch.sim_seconds () in
          let t0 = Unix.gettimeofday () in
          let finish () =
            let wall_s = Unix.gettimeofday () -. t0 in
            let hits1, misses1 = cache_traffic () in
            let pc1 = Gpcc_sim.Launch.perf_counters () in
            emit_json ~name ~wall_s
              ~sim_s:(Gpcc_sim.Launch.sim_seconds () -. sim0)
              ~hits:(hits1 - hits0)
              ~misses:(misses1 - misses0)
              ~analysis_hits:(Gpcc_analysis.Analysis_cache.global_hits () - ahits0)
              ~analysis_misses:
                (Gpcc_analysis.Analysis_cache.global_misses () - amisses0)
              ~plane_hits:
                Gpcc_sim.Launch.(pc1.pc_plane_hits - pc0.pc_plane_hits)
              ~plane_misses:
                Gpcc_sim.Launch.(pc1.pc_plane_misses - pc0.pc_plane_misses)
              ~closed_form:
                Gpcc_sim.Launch.(pc1.pc_closed_form - pc0.pc_closed_form)
              ~store_hits:(Gpcc_util.Store.global_hits () - shits0)
              ~store_misses:(Gpcc_util.Store.global_misses () - smisses0)
              ~store_evictions:(Gpcc_util.Store.global_evictions () - sevict0)
              ~verify_wall_s:
                (Gpcc_analysis.Analysis_cache.global_verify_wall_clock_s ()
                -. vwall0)
              ~sym_proofs:
                (Gpcc_analysis.Analysis_cache.global_symbolic_proofs () - sym0)
              ~concrete_fallbacks:
                (Gpcc_analysis.Analysis_cache.global_concrete_fallbacks ()
                - fb0)
              ~rows:(Record.take ());
            wall_s
          in
          match f () with
          | () -> Printf.printf "  [section %s: %.1fs]\n%!" name (finish ())
          | exception e ->
              ignore (finish ());
              Printf.printf "  section %s failed: %s\n%!" name
                (Printexc.to_string e))
      | None -> Printf.printf "unknown section %s\n" name)
    requested

(** gpcc — the GPGPU optimizing compiler, as a command-line tool.

    Subcommands:
    - [compile FILE]: run the Figure-1 pipeline on a naive kernel and
      print the optimized kernel, the launch configuration, and the
      per-pass report;
    - [check FILE]: parse and type-check a kernel, report the coalescing
      verdict of every global access (Section 3.2's analysis);
    - [explore FILE]: generate the Section-4 design space, simulate every
      version, and print the scored table (exits non-zero when every
      candidate fails);
    - [lint FILE | --workloads]: run the static kernel verifier and
      report diagnostics (races, barrier divergence, bounds, bank
      conflicts, coalescing), humanly or as JSON;
    - [deploy FILE]: select one optimized version per GPU (Section 4.2);
    - [bench WORKLOAD]: compile a built-in workload and report
      naive/optimized simulated performance;
    - [list]: list the built-in workloads (the paper's Table 1). *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let gpu_conv =
  let parse s =
    match Gpcc_sim.Config.by_name s with
    | Some c -> Ok c
    | None -> Error (`Msg (Printf.sprintf "unknown GPU %S (try GTX8800 or GTX280)" s))
  in
  let print fmt (c : Gpcc_sim.Config.t) = Format.fprintf fmt "%s" c.name in
  Arg.conv (parse, print)

let gpu_arg =
  Arg.(
    value
    & opt gpu_conv Gpcc_sim.Config.gtx280
    & info [ "g"; "gpu" ] ~docv:"GPU" ~doc:"Target GPU model (GTX8800 or GTX280).")

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Kernel source file.")

let jobs_arg =
  Arg.(
    value
    & opt int (Gpcc_util.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the design-space sweep (defaults to \
           \\$(b,GPCC_JOBS) or the recommended domain count).")

let backend_conv =
  let parse s =
    match s with
    | "vector" | "vec" | "ref" | "reference" -> Ok s
    | _ ->
        Error
          (`Msg (Printf.sprintf "unknown backend %S (vector or reference)" s))
  in
  Arg.conv (parse, Format.pp_print_string)

let backend_arg =
  Arg.(
    value
    & opt (some backend_conv) None
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:
          "Simulator backend: $(b,vector) (default; executes a half-warp \
           at a time over flat per-register planes) or $(b,reference) \
           (tree-walking interpreter). Equivalent to setting \
           \\$(b,GPCC_BACKEND); the two backends are bit-identical.")

(** The simulator reads the backend from the environment at each run, so
    the flag just seeds it for this process. *)
let apply_backend = function
  | Some b -> Unix.putenv "GPCC_BACKEND" b
  | None -> ()

let handle_errors f =
  try f () with
  | Gpcc_ast.Lexer.Error (m, line) ->
      Printf.eprintf "lex error (line %d): %s\n" line m;
      exit 1
  | Gpcc_ast.Parser.Error (m, line) ->
      Printf.eprintf "parse error (line %d): %s\n" line m;
      exit 1
  | Gpcc_ast.Typecheck.Type_error m ->
      Printf.eprintf "type error: %s\n" m;
      exit 1
  | Gpcc_core.Pipeline.Compile_error m ->
      Printf.eprintf "compile error: %s\n" m;
      exit 1
  | Invalid_argument m ->
      Printf.eprintf "error: %s\n" m;
      exit 1

(* --- compile --- *)

let compile_cmd =
  let run cfg target degree verbose passes disabled print_pipeline
      remarks_json file =
    handle_errors (fun () ->
        let pipeline =
          let p =
            Gpcc_core.Pipeline.default ~cfg ~target_block_threads:target
              ~merge_degree:degree ()
          in
          let p =
            match passes with
            | Some names -> Gpcc_core.Pipeline.with_passes names p
            | None -> p
          in
          Gpcc_core.Pipeline.disable disabled p
        in
        if print_pipeline then
          print_string (Gpcc_core.Pipeline.describe pipeline)
        else begin
          let k = Gpcc_ast.Parser.kernel_of_string (read_file file) in
          let r = Gpcc_core.Pipeline.run ~pipeline k in
          if remarks_json then
            print_endline (Gpcc_core.Pipeline.remarks_json r)
          else begin
            if verbose then print_string (Gpcc_core.Pipeline.report r);
            print_string
              (Gpcc_ast.Pp.kernel_to_string ~launch:r.launch r.kernel)
          end
        end)
  in
  let target =
    Arg.(value & opt int 256 & info [ "t"; "threads" ] ~doc:"Target threads per block.")
  in
  let degree =
    Arg.(value & opt int 16 & info [ "m"; "merge" ] ~doc:"Thread-merge degree.")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print the per-pass report.")
  in
  let passes =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "passes" ] ~docv:"P1,P2,..."
          ~doc:
            "Run exactly these passes, in this order (registry names; see \
             $(b,--print-pipeline)).")
  in
  let disabled =
    Arg.(
      value & opt_all string []
      & info [ "disable-pass" ] ~docv:"PASS"
          ~doc:"Disable one pass by registry name (repeatable).")
  in
  let print_pipeline =
    Arg.(
      value & flag
      & info [ "print-pipeline" ]
          ~doc:
            "Print the resolved pass pipeline (names, paper sections, \
             summaries) and exit without compiling.")
  in
  let remarks_json =
    Arg.(
      value & flag
      & info [ "remarks-json" ]
          ~doc:
            "Emit the structured per-pass optimization remarks (fired, \
             reason, before/after metrics, wall-clock) as one JSON document \
             instead of the optimized kernel.")
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Optimize a naive kernel")
    Term.(
      const run $ gpu_arg $ target $ degree $ verbose $ passes $ disabled
      $ print_pipeline $ remarks_json $ file_arg)

(* --- check --- *)

let check_cmd =
  let run file =
    handle_errors (fun () ->
        let k = Gpcc_ast.Parser.kernel_of_string (read_file file) in
        Gpcc_ast.Typecheck.check k;
        match Gpcc_passes.Pass_util.initial_launch k with
        | None ->
            print_endline "type check: OK (no thread domain; access analysis skipped)"
        | Some launch ->
            print_endline "type check: OK";
            Gpcc_analysis.Coalesce_check.analyze_kernel ~launch k
            |> List.iter (fun a ->
                   print_endline ("  " ^ Gpcc_analysis.Coalesce_check.to_string a)))
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Type-check a kernel and report coalescing verdicts")
    Term.(const run $ file_arg)

(* --- explore --- *)

let explore_cmd =
  let run cfg jobs backend prune threshold file =
    handle_errors (fun () ->
        apply_backend backend;
        let source = read_file file in
        let k = Gpcc_ast.Parser.kernel_of_string source in
        (* persist scores through the shared artifact store so repeated
           and concurrent invocations skip already-measured points; the
           prefix pins everything the score depends on besides the
           compiled kernel digest (appended by Explore itself) *)
        let cache = Gpcc_core.Explore_cache.open_dir () in
        let cache_prefix =
          Printf.sprintf "cli/%s/%s/%s" cfg.Gpcc_sim.Config.name
            (if prune then "funnel" else "occ")
            (Digest.to_hex (Digest.string source))
        in
        (* score by static occupancy x inverse instruction estimate when no
           workload data is attached; kernel versions are still printed *)
        let static_measure kernel launch =
          let regs = Gpcc_analysis.Regcount.estimate kernel in
          let shmem = Gpcc_analysis.Regcount.shared_bytes kernel in
          let occ =
            Gpcc_sim.Occupancy.calc cfg ~regs_per_thread:regs
              ~shared_per_block:shmem
              ~threads_per_block:(Gpcc_ast.Ast.threads_per_block launch)
          in
          float_of_int occ.active_warps
        in
        let cands, failures =
          if not prune then
            Gpcc_core.Explore.search_with_failures ~cfg ~jobs ~cache
              ~cache_prefix k ~measure:static_measure
          else begin
            (* --prune runs the model-guided funnel on the simulator over
               zero-initialized device memory (the tool has no workload
               inputs): analytic ranking on single-block probes, then
               successive halving on partial simulations *)
            let predict kernel launch =
              let mem = Gpcc_sim.Devmem.of_kernel kernel in
              let r = Gpcc_sim.Launch.run_block cfg kernel launch mem in
              let t = r.Gpcc_sim.Launch.timing in
              let occ = t.Gpcc_sim.Timing.occupancy in
              let probe =
                {
                  Gpcc_analysis.Cost_model.p_gflops = t.gflops;
                  p_bound = t.bound;
                  p_active_warps = occ.active_warps;
                  p_blocks_per_sm = occ.blocks_per_sm;
                  p_reg_spill = occ.reg_spill;
                  p_waves = t.waves;
                  p_total_blocks = Gpcc_ast.Ast.total_blocks launch;
                }
              in
              (Gpcc_analysis.Cost_model.predict probe).score
            in
            let measure ?blocks kernel launch =
              let mem = Gpcc_sim.Devmem.of_kernel kernel in
              (Gpcc_sim.Launch.run
                 ~mode:(Gpcc_sim.Launch.Sampled 1)
                 ~streams:3 ?block_budget:blocks cfg kernel launch mem)
                .timing
                .gflops
            in
            let budget_sensitive =
              List.length (Gpcc_sim.Launch.phases_of_body k.k_body) > 1
            in
            let cands, failures, stats =
              Gpcc_core.Explore.search_funnel ~cfg ~jobs ~cache
                ~cache_prefix ~prune_threshold:threshold ~budget_sensitive k
                ~predict ~measure
            in
            Printf.eprintf
              "funnel: %d configs, %d distinct, %d pruned by the model, %d \
               halving rungs (%d partial runs), %d fully measured, spearman \
               %s\n"
              stats.f_configs stats.f_distinct stats.f_pruned stats.f_rungs
              stats.f_partial_runs stats.f_measured
              (if stats.f_spearman_n < 3 then "n/a"
               else Printf.sprintf "%.2f" stats.f_spearman);
            (cands, failures)
          end
        in
        let cands = Gpcc_core.Explore.distinct cands in
        List.iter
          (fun (f : Gpcc_core.Explore.failure) ->
            Printf.eprintf "failed t=%d m=%d (%s): %s\n" f.failed_target
              f.failed_degree
              (match f.failed_stage with
              | `Compile -> "compile"
              | `Verify -> "verify"
              | `Predict -> "predict"
              | `Measure -> "measure")
              f.reason)
          failures;
        let usable =
          List.filter
            (fun (c : Gpcc_core.Explore.candidate) ->
              c.score > Float.neg_infinity)
            cands
        in
        if usable = [] then begin
          Printf.eprintf
            "explore: every candidate failed (%d compile/verify, %d \
             unusable scores)\n"
            (List.length failures)
            (List.length cands);
          exit 1
        end;
        Printf.printf "%-8s %-8s %-10s %-14s %-8s\n" "threads" "merge" "score"
          "provenance" "launch";
        List.iter
          (fun (c : Gpcc_core.Explore.candidate) ->
            Printf.printf "%-8d %-8d %-10.1f %-14s (%d,%d)x(%d,%d)\n"
              c.target_block_threads c.merge_degree c.score
              (match c.provenance with
              | `Measured -> "measured"
              | `Halved r -> Printf.sprintf "halved@%d" r
              | `Pruned -> "pruned"
              | `Predicted -> "predicted")
              c.result.launch.grid_x c.result.launch.grid_y
              c.result.launch.block_x c.result.launch.block_y)
          cands)
  in
  let prune =
    Arg.(
      value
      & vflag false
          [
            ( true,
              info [ "prune" ]
                ~doc:
                  "Score candidates with the model-guided funnel (analytic \
                   pre-ranking on single-block simulator probes, successive \
                   halving on partial simulations, full measurement of the \
                   finalists) instead of the static occupancy score. Device \
                   memory is zero-initialized." );
            ( false,
              info [ "no-prune" ]
                ~doc:"Static occupancy scoring of every candidate (default)."
            );
          ])
  in
  let threshold =
    Arg.(
      value
      & opt float Gpcc_core.Explore.default_prune_threshold
      & info [ "prune-threshold" ] ~docv:"FRACTION"
          ~doc:
            "With $(b,--prune): discard candidates whose predicted score is \
             below FRACTION of the best prediction (0 disables pruning, 1 \
             keeps only ties with the best).")
  in
  Cmd.v
    (Cmd.info "explore" ~doc:"Enumerate the design space of merge configurations")
    Term.(
      const run $ gpu_arg $ jobs_arg $ backend_arg $ prune $ threshold
      $ file_arg)


(* --- lint --- *)

let lint_cmd =
  let module V = Gpcc_analysis.Verify in
  let module SV = Gpcc_analysis.Symverify in
  (* one lint unit: kernel name, variant label, launch, diagnostics,
     and (with --symbolic) the parametric verdict, its decision at this
     launch, why it is unknown there (empty when decided), and whether
     it agrees with the concrete verdict *)
  let lint_kernel ~symbolic ~variant (k : Gpcc_ast.Ast.kernel)
      (launch : Gpcc_ast.Ast.launch) =
    let ds = V.check ~launch k in
    let sym =
      if not symbolic then None
      else
        let r = SV.check k in
        let decision, sym_errs, reason =
          match SV.decide r launch with
          | `Clean -> ("clean", [], "")
          | `Errors es -> ("errors", es, "")
          | `Unknown why -> ("unknown", [], why)
        in
        let conc_errs = V.errors ds in
        let agree =
          match decision with
          | "clean" -> conc_errs = []
          | "errors" ->
              (* same failure, same rule ids *)
              conc_errs <> []
              && List.for_all
                   (fun (e : V.diagnostic) ->
                     List.exists
                       (fun (c : V.diagnostic) -> String.equal c.rule e.rule)
                       conc_errs)
                   sym_errs
          | _ -> true (* unknown: the concrete fallback decides *)
        in
        Some (SV.verdict_to_string r.verdict, decision, reason, agree)
    in
    (k.k_name, variant, launch, ds, sym)
  in
  let optimize cfg k =
    let pipeline = Gpcc_core.Pipeline.default ~cfg ~verify:false () in
    let r = Gpcc_core.Pipeline.run ~pipeline k in
    (r.kernel, r.launch)
  in
  let launch_of k =
    match Gpcc_passes.Pass_util.naive_launch k with
    | Some l -> Some l
    | None -> Gpcc_passes.Pass_util.initial_launch k
  in
  let results_of_file cfg optimized symbolic file =
    let k = Gpcc_ast.Parser.kernel_of_string (read_file file) in
    Gpcc_ast.Typecheck.check k;
    match launch_of k with
    | None ->
        Printf.eprintf "lint: cannot derive a launch configuration for %s\n"
          file;
        exit 1
    | Some launch ->
        if optimized then begin
          let k', l' = optimize cfg k in
          [ lint_kernel ~symbolic ~variant:"optimized" k' l' ]
        end
        else [ lint_kernel ~symbolic ~variant:"naive" k launch ]
  in
  let results_of_workloads cfg symbolic =
    let of_workload (w : Gpcc_workloads.Workload.t) =
      let k = Gpcc_workloads.Workload.parse w w.test_size in
      let naive =
        match launch_of k with
        | Some launch -> [ lint_kernel ~symbolic ~variant:"naive" k launch ]
        | None -> []
      in
      let k', l' = optimize cfg k in
      naive @ [ lint_kernel ~symbolic ~variant:"optimized" k' l' ]
    in
    let of_comparator (c : Gpcc_workloads.Cublas_sim.comparator) =
      let n = 64 in
      let k = Gpcc_workloads.Cublas_sim.kernel c n in
      [ lint_kernel ~symbolic ~variant:"cublas" k (c.c_launch n) ]
    in
    List.concat_map of_workload
      (Gpcc_workloads.Registry.all @ Gpcc_workloads.Registry.extras)
    @ List.concat_map of_comparator Gpcc_workloads.Cublas_sim.all
  in
  let emit_json results nerr nwarn =
    let result_json (name, variant, (l : Gpcc_ast.Ast.launch), ds, sym) =
      let sym_json =
        match sym with
        | None -> ""
        | Some (verdict, decision, reason, agree) ->
            Printf.sprintf
              {|,"symbolic":{"verdict":"%s","decision":"%s","reason":"%s",|}
              (V.json_escape verdict) (V.json_escape decision)
              (V.json_escape reason)
            ^ Printf.sprintf {|"agree":%b}|} agree
      in
      Printf.sprintf
        {|{"kernel":"%s","variant":"%s","launch":"(%d,%d)x(%d,%d)","diagnostics":%s%s}|}
        name variant l.grid_x l.grid_y l.block_x l.block_y
        (V.json_of_diagnostics ds) sym_json
    in
    Printf.printf
      {|{"schema":"gpcc-lint-v1","errors":%d,"warnings":%d,"results":[%s]}|}
      nerr nwarn
      (String.concat "," (List.map result_json results));
    print_newline ()
  in
  let emit_human results nerr nwarn =
    List.iter
      (fun (name, variant, (l : Gpcc_ast.Ast.launch), ds, sym) ->
        Printf.printf "%s (%s) at (%d,%d)x(%d,%d): %s\n" name variant
          l.grid_x l.grid_y l.block_x l.block_y
          (if ds = [] then "clean"
           else
             Printf.sprintf "%d error(s), %d warning(s)"
               (List.length (V.errors ds))
               (List.length (V.warnings ds)));
        (match sym with
        | None -> ()
        | Some (verdict, decision, reason, agree) ->
            Printf.printf "  symbolic: %s -> %s at this launch%s%s\n" verdict
              decision
              (if reason = "" then "" else " (" ^ reason ^ ")")
              (if agree then "" else "  ** DISAGREES with concrete verdict"));
        List.iter (fun d -> Printf.printf "  %s\n" (V.to_string d)) ds)
      results;
    Printf.printf "lint: %d error(s), %d warning(s)\n" nerr nwarn
  in
  let run cfg json optimized workloads symbolic file =
    handle_errors (fun () ->
        let results =
          if workloads then results_of_workloads cfg symbolic
          else
            match file with
            | Some f -> results_of_file cfg optimized symbolic f
            | None ->
                Printf.eprintf "lint: give a FILE or --workloads\n";
                exit 1
        in
        let all = List.concat_map (fun (_, _, _, ds, _) -> ds) results in
        let nerr = List.length (V.errors all)
        and nwarn = List.length (V.warnings all) in
        if json then emit_json results nerr nwarn
        else emit_human results nerr nwarn;
        let disagreements =
          List.filter
            (fun (_, _, _, _, sym) ->
              match sym with Some (_, _, _, false) -> true | _ -> false)
            results
        in
        if nerr > 0 || disagreements <> [] then exit 1)
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON.")
  in
  let optimized_arg =
    Arg.(
      value & flag
      & info [ "O"; "optimized" ]
          ~doc:"Lint the pipeline's optimized output instead of the input.")
  in
  let symbolic_arg =
    Arg.(
      value & flag
      & info [ "symbolic" ]
          ~doc:
            "Also run the launch-parametric symbolic verifier and report \
             its verdict and its agreement with the concrete verdict; \
             exit non-zero on any disagreement.")
  in
  let workloads_arg =
    Arg.(
      value & flag
      & info [ "workloads" ]
          ~doc:
            "Lint every built-in workload (naive and optimized) and the \
             CUBLAS comparator kernels instead of a file.")
  in
  let opt_file_arg =
    Arg.(
      value & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Kernel source file.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically verify kernels: data races, barrier divergence, \
          bounds, bank conflicts, coalescing")
    Term.(
      const run $ gpu_arg $ json_arg $ optimized_arg $ workloads_arg
      $ symbolic_arg $ opt_file_arg)

(* --- bench --- *)

let bench_cmd =
  let run cfg backend name size =
    handle_errors (fun () ->
        apply_backend backend;
        match Gpcc_workloads.Registry.find name with
        | None ->
            Printf.eprintf "unknown workload %s (see `gpcc list`)\n" name;
            exit 1
        | Some w ->
            let n = Option.value size ~default:w.bench_size in
            let k = Gpcc_workloads.Workload.parse w n in
            let nl = Option.get (Gpcc_passes.Pass_util.naive_launch k) in
            let fallbacks0 = Gpcc_sim.Vector.fallback_reasons () in
            let tn = Gpcc_workloads.Workload.measure cfg w n k nl in
            let r =
              Gpcc_core.Pipeline.run
                ~pipeline:(Gpcc_core.Pipeline.default ~cfg ()) k
            in
            let topt = Gpcc_workloads.Workload.measure cfg w n r.kernel r.launch in
            (* flop-free kernels (transpose) report effective bandwidth *)
            let metric (t : Gpcc_sim.Timing.result) =
              if w.flops n > 0.0 then Printf.sprintf "%8.2f GFLOPS" t.gflops
              else
                Printf.sprintf "%8.2f GB/s"
                  (Gpcc_workloads.Workload.effective_bandwidth w n t)
            in
            Printf.printf "%s on %s, n=%d\n" w.name cfg.name n;
            Printf.printf "  naive:     %s (%s-bound)\n" (metric tn) tn.bound;
            Printf.printf "  optimized: %s (%s-bound)  speedup %.1fx\n"
              (metric topt) topt.bound
              (tn.time_ms /. Float.max 1e-9 topt.time_ms);
            (* a run the vector backend refused ran on the reference
               interpreter: same results, slower; say why *)
            List.iter
              (fun (reason, runs) ->
                let runs0 =
                  Option.value ~default:0 (List.assoc_opt reason fallbacks0)
                in
                if runs > runs0 then
                  Printf.eprintf
                    "note: %d run(s) fell back to the reference interpreter: \
                     %s\n"
                    (runs - runs0) reason)
              (Gpcc_sim.Vector.fallback_reasons ()))
  in
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD")
  in
  let size_arg =
    Arg.(value & opt (some int) None & info [ "n"; "size" ] ~doc:"Problem size.")
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"Simulate a built-in workload, naive vs optimized")
    Term.(const run $ gpu_arg $ backend_arg $ name_arg $ size_arg)

(* --- deploy --- *)

let deploy_cmd =
  let run file =
    handle_errors (fun () ->
        let k = Gpcc_ast.Parser.kernel_of_string (read_file file) in
        (* static scoring (occupancy-based), as in explore: deployment
           with measured scoring is what `bench` and the library API do *)
        let measure cfg kernel launch =
          let regs = Gpcc_analysis.Regcount.estimate kernel in
          let shmem = Gpcc_analysis.Regcount.shared_bytes kernel in
          let occ =
            Gpcc_sim.Occupancy.calc cfg ~regs_per_thread:regs
              ~shared_per_block:shmem
              ~threads_per_block:(Gpcc_ast.Ast.threads_per_block launch)
          in
          float_of_int occ.active_warps
        in
        let b =
          (* bundles persist through the artifact store: the key embeds
             the GPU list and the naive kernel text, the prefix the
             scoring mode *)
          Gpcc_core.Deploy.build_cached ~prefix:"cli/static-occupancy"
            ~gpus:
              [ Gpcc_sim.Config.gtx8800; Gpcc_sim.Config.gtx280;
                Gpcc_sim.Config.hd5870 ]
            ~measure k
        in
        print_string (Gpcc_core.Deploy.describe b))
  in
  Cmd.v
    (Cmd.info "deploy"
       ~doc:"Select one optimized version per GPU (Section 4.2)")
    Term.(const run $ file_arg)

(* --- cache --- *)

let cache_cmds =
  let module Store = Gpcc_util.Store in
  let dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:
            "Cache directory (default: \\$(b,GPCC_CACHE_DIR), else \
             $(b,_gpcc_cache) under the nearest enclosing project root).")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON.")
  in
  let open_store dir = Store.open_root ?root:dir ~auto_gc:false () in
  let stats_cmd =
    let run dir json =
      handle_errors (fun () ->
          let s = open_store dir in
          let d = Store.disk_stats s in
          if json then begin
            let kind_json (k : Store.kind_stats) =
              Printf.sprintf {|{"kind":"%s","entries":%d,"bytes":%d}|}
                k.ks_kind k.ks_entries k.ks_bytes
            in
            Printf.printf
              {|{"schema":"gpcc-cache-v1","root":"%s","entries":%d,"bytes":%d,"tmp_files":%d,"packs":%d,"kinds":[%s]}|}
              (Gpcc_analysis.Verify.json_escape (Store.root s))
              d.ds_entries d.ds_bytes d.ds_tmp_files d.ds_packs
              (String.concat "," (List.map kind_json d.ds_kinds));
            print_newline ()
          end
          else begin
            Printf.printf "root: %s\n" (Store.root s);
            Printf.printf
              "entries: %d (%d bytes) in %d pack(s), %d stale tmp file(s)\n"
              d.ds_entries d.ds_bytes d.ds_packs d.ds_tmp_files;
            List.iter
              (fun (k : Store.kind_stats) ->
                Printf.printf "  %-10s %6d entries  %10d bytes\n" k.ks_kind
                  k.ks_entries k.ks_bytes)
              d.ds_kinds
          end)
    in
    Cmd.v
      (Cmd.info "stats" ~doc:"Show artifact-store contents per kind")
      Term.(const run $ dir_arg $ json_arg)
  in
  let gc_cmd =
    let run dir json max_mb max_age =
      handle_errors (fun () ->
          let s = open_store dir in
          let max_bytes =
            match max_mb with
            | Some mb -> Some (mb * 1024 * 1024)
            | None -> Store.default_max_bytes ()
          in
          let g = Store.gc ?max_bytes ?max_age_s:max_age s in
          if json then begin
            Printf.printf
              {|{"schema":"gpcc-cache-gc-v1","live":%d,"live_bytes":%d,"evicted":%d,"evicted_bytes":%d,"swept_tmps":%d}|}
              g.gc_live g.gc_live_bytes g.gc_evicted g.gc_evicted_bytes
              g.gc_swept_tmps;
            print_newline ()
          end
          else
            Printf.printf
              "gc: %d live (%d bytes), %d evicted (%d bytes), %d stale tmp \
               file(s) swept\n"
              g.gc_live g.gc_live_bytes g.gc_evicted g.gc_evicted_bytes
              g.gc_swept_tmps)
    in
    let max_mb =
      Arg.(
        value
        & opt (some int) None
        & info [ "max-mb" ] ~docv:"MB"
            ~doc:
              "Evict least-recently-used packs until the store fits in MB \
               megabytes (default: \\$(b,GPCC_CACHE_MAX_MB), else no size \
               limit).")
    in
    let max_age =
      Arg.(
        value
        & opt (some float) None
        & info [ "max-age-s" ] ~docv:"SECONDS"
            ~doc:"Evict packs not touched for SECONDS (default: no limit).")
    in
    Cmd.v
      (Cmd.info "gc"
         ~doc:
           "Remove the earlier sharded layout, evict packs by age/size (LRU) \
            and rewrite damaged packs; always safe under concurrent readers \
            and writers")
      Term.(const run $ dir_arg $ json_arg $ max_mb $ max_age)
  in
  let clear_cmd =
    let run dir kind =
      handle_errors (fun () -> Store.clear ?kind (open_store dir))
    in
    let kind_arg =
      Arg.(
        value
        & opt (some string) None
        & info [ "kind" ] ~docv:"KIND"
            ~doc:
              "Only delete entries of this kind (e.g. $(b,score), \
               $(b,verdict), $(b,pverdict), $(b,bundle)); default: \
               everything.")
    in
    Cmd.v
      (Cmd.info "clear" ~doc:"Delete cached artifacts")
      Term.(const run $ dir_arg $ kind_arg)
  in
  Cmd.group
    (Cmd.info "cache"
       ~doc:"Inspect and maintain the shared artifact store")
    [ stats_cmd; gc_cmd; clear_cmd ]

(* --- list --- *)

let list_cmd =
  let run () =
    List.iter
      (fun (w : Gpcc_workloads.Workload.t) ->
        Printf.printf "%-12s %-45s sizes %s\n" w.name w.description
          (String.concat "," (List.map string_of_int w.sizes)))
      (Gpcc_workloads.Registry.all @ Gpcc_workloads.Registry.extras)
  in
  Cmd.v (Cmd.info "list" ~doc:"List built-in workloads") Term.(const run $ const ())

let () =
  let doc = "an optimizing compiler for naive GPGPU kernels (PLDI 2010 reproduction)" in
  let man =
    [
      `S Manpage.s_environment;
      `P "$(b,GPCC_BACKEND) — simulator backend: $(b,vector) (default) \
          executes a half-warp at a time over flat per-register planes; \
          $(b,ref) selects the tree-walking reference interpreter. The two \
          are bit-identical; a kernel outside the vector backend's subset \
          falls back to the reference per run. The $(b,--backend) flag on \
          $(b,explore) and $(b,bench) sets this for one invocation.";
      `P "$(b,GPCC_JOBS) — worker domains for the design-space sweep and \
          parallel grid execution (default: recommended domain count).";
      `P "$(b,GPCC_CHECK) — enable the dynamic race checker (forces the \
          serial reference backend).";
      `P "$(b,GPCC_CACHE_DIR) — artifact-store directory (exploration \
          scores, verifier verdicts, deployment bundles). Default: \
          $(b,_gpcc_cache) under the nearest enclosing directory with a \
          $(b,dune-project) or $(b,.git) marker, so every invocation in a \
          project shares one cache; see $(b,gpcc cache).";
      `P "$(b,GPCC_CACHE_MAX_MB) — artifact-store size budget in \
          megabytes; when set, opening the store garbage-collects \
          least-recently-used entries down to the budget (also the \
          default for $(b,gpcc cache gc)).";
    ]
  in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "gpcc" ~version:"1.0.0" ~doc ~man)
          [ compile_cmd; check_cmd; explore_cmd; lint_cmd; deploy_cmd; bench_cmd;
            cache_cmds; list_cmd ]))

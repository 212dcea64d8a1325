(** The paper's Section 5 case study, replayed: matrix multiplication
    through every pipeline stage, printing the kernel after each step so
    you can follow the transformations (Figures 2a -> 3a -> 5 -> 7).

    Run with:  dune exec examples/matmul_case_study.exe *)

open Gpcc_passes

let n = 256

let () =
  let w = Gpcc_workloads.Registry.find_exn "mm" in
  let naive = Gpcc_workloads.Workload.parse w n in
  let launch0 = Option.get (Pass_util.initial_launch naive) in

  let show title kernel launch =
    Printf.printf "\n--- %s (grid %dx%d, block %dx%d) ---\n" title
      launch.Gpcc_ast.Ast.grid_x launch.Gpcc_ast.Ast.grid_y
      launch.Gpcc_ast.Ast.block_x launch.Gpcc_ast.Ast.block_y;
    print_string (Gpcc_ast.Pp.kernel_to_string kernel)
  in

  show "Figure 2a: the naive kernel" naive launch0;

  (* Step 1: coalescing (paper Figure 3a) — a[idy][i] is not coalesced, so
     the loop is unrolled by 16 and the row slice staged in shared memory *)
  let c = Coalesce.apply naive launch0 in
  List.iter (Printf.printf "  * %s\n") c.notes;
  show "Figure 3a: after memory coalescing" c.kernel c.launch;

  (* Step 2: data sharing (paper Section 3.4/5) — a's staging is
     global-to-shared and bidx-independent (shared along X); b's load is
     global-to-register and bidy-independent (shared along Y) *)
  print_endline "\n--- data-sharing analysis (Section 3.4) ---";
  Gpcc_analysis.Sharing.analyze ~launch:c.launch c.kernel
  |> List.iter (fun s ->
         Printf.printf "  array %-3s role %-3s  shared along X: %-5b  along Y: %b\n"
           s.Gpcc_analysis.Sharing.arr
           (match s.role with Gpcc_analysis.Sharing.G2S -> "G2S" | G2R -> "G2R")
           s.share_x s.share_y);

  (* Step 3: thread-block merge along X (paper Figure 5) — G2S sharing
     prefers merging blocks; the redundant loads get the tidx guard *)
  let bm = Merge.block_merge_x c.kernel c.launch 8 in
  List.iter (Printf.printf "  * %s\n") bm.notes;
  show "Figure 5: after thread-block merge" bm.kernel bm.launch;

  (* Step 4: thread merge along Y (paper Figure 7) — G2R sharing prefers
     merging threads; b's load is hoisted into a register shared by all
     replicas *)
  let tm = Merge.thread_merge Merge.Y bm.kernel bm.launch 8 in
  List.iter (Printf.printf "  * %s\n") tm.notes;
  show "Figure 7: after thread merge" tm.kernel tm.launch;

  (* Step 5: the full pipeline end-to-end, and the empirical check that it
     computes the same matrix as the naive kernel *)
  let cfg = Gpcc_sim.Config.gtx280 in
  let pipeline =
    Gpcc_core.Pipeline.default ~cfg ~target_block_threads:128 ~merge_degree:8 ()
  in
  let r = Gpcc_core.Pipeline.run ~pipeline naive in
  Gpcc_workloads.Workload.check cfg w n r.kernel r.launch;
  print_endline "\nfull pipeline output verified against the CPU reference.";

  let naive_t =
    let l = Option.get (Pass_util.naive_launch naive) in
    Gpcc_workloads.Workload.measure cfg w n naive l
  in
  let opt_t = Gpcc_workloads.Workload.measure cfg w n r.kernel r.launch in
  Printf.printf "simulated GTX 280: naive %.2f GFLOPS, optimized %.2f GFLOPS (%.1fx)\n"
    naive_t.gflops opt_t.gflops (opt_t.gflops /. naive_t.gflops)

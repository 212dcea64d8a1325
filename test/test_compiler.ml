(** End-to-end compiler tests: the full pipeline on every Table-1
    workload checked against CPU references, the staged (Figure 12)
    prefixes, the design-space exploration, and the launch-configuration
    arithmetic. *)

open Util

let configs = [ (128, 4); (256, 8); (256, 16) ]

let test_all_workloads_all_configs () =
  List.iter
    (fun (w : Gpcc_workloads.Workload.t) ->
      List.iter
        (fun (target, degree) ->
          (* use a size large enough for the block merge to fire *)
          let n = if target > 128 then w.test_size * 2 else w.test_size in
          match check_workload ~target ~degree w.name n with
          | _ -> ()
          | exception Gpcc_workloads.Workload.Check_failed m ->
              Alcotest.failf "%s (t=%d d=%d): %s" w.name target degree m
          | exception e ->
              Alcotest.failf "%s (t=%d d=%d): %s" w.name target degree
                (Printexc.to_string e))
        configs)
    (Gpcc_workloads.Registry.all @ Gpcc_workloads.Registry.extras)

let test_both_gpus () =
  List.iter
    (fun cfg ->
      List.iter
        (fun name -> ignore (check_workload ~cfg name 64))
        [ "mm"; "mv"; "tp" ])
    [ cfg280; cfg8800 ]

let test_report_readable () =
  let w = Gpcc_workloads.Registry.find_exn "mm" in
  let k = Gpcc_workloads.Workload.parse w 128 in
  let r = compile ~target:128 ~degree:8 k in
  let report = Gpcc_core.Pipeline.report r in
  assert_contains "mentions coalescing" report "memory coalescing";
  assert_contains "mentions merge" report "merge";
  assert_contains "mentions launch" report "launch:"

let test_launch_covers_domain () =
  (* grid x block always covers exactly the thread domain, whatever the
     merge configuration *)
  List.iter
    (fun (w : Gpcc_workloads.Workload.t) ->
      let n = w.test_size * 2 in
      let k = Gpcc_workloads.Workload.parse w n in
      let dom = Option.get (Gpcc_passes.Pass_util.thread_domain k) in
      List.iter
        (fun (target, degree) ->
          let r = compile ~target ~degree k in
          let threads =
            r.launch.grid_x * r.launch.block_x * r.launch.grid_y
            * r.launch.block_y
          in
          let covered_items = fst dom * snd dom in
          Alcotest.(check bool)
            (Printf.sprintf "%s covers its domain" w.name)
            true
            (threads > 0 && covered_items mod threads = 0))
        configs)
    [ Gpcc_workloads.Registry.find_exn "mm"; Gpcc_workloads.Registry.find_exn "vv" ]

let test_staged_prefixes () =
  let w = Gpcc_workloads.Registry.find_exn "mm" in
  let k = Gpcc_workloads.Workload.parse w 128 in
  let stages =
    Gpcc_core.Pipeline.staged ~target_block_threads:128 ~merge_degree:4 k
  in
  Alcotest.(check int) "six stages" 6 (List.length stages);
  let labels = List.map (fun (l, _, _) -> l) stages in
  Alcotest.(check (list string)) "stage order"
    [
      "naive"; "+vectorization"; "+coalescing"; "+thread/block merge";
      "+prefetching"; "+partition camping elim.";
    ]
    labels;
  (* every stage's kernel computes the right answer *)
  List.iter
    (fun (label, kernel, launch) ->
      match Gpcc_workloads.Workload.check cfg280 w 128 kernel launch with
      | () -> ()
      | exception Gpcc_workloads.Workload.Check_failed m ->
          Alcotest.failf "stage %s wrong: %s" label m)
    stages

let test_explore_search () =
  let w = Gpcc_workloads.Registry.find_exn "mm" in
  let n = 256 in
  let k = Gpcc_workloads.Workload.parse w n in
  let measure = Gpcc_workloads.Workload.measure_gflops ~sample:1 cfg280 w n in
  let cands =
    Gpcc_core.Explore.search ~cfg:cfg280 ~block_targets:[ 64; 128 ]
      ~merge_degrees:[ 1; 4 ] k ~measure
  in
  Alcotest.(check int) "four candidates" 4 (List.length cands);
  let distinct = Gpcc_core.Explore.distinct cands in
  Alcotest.(check bool) "dedup keeps some" true (List.length distinct >= 2);
  match Gpcc_core.Explore.best cands with
  | None -> Alcotest.fail "no best candidate"
  | Some b ->
      Alcotest.(check bool) "best scored" true (b.score > 0.0);
      List.iter
        (fun (c : Gpcc_core.Explore.candidate) ->
          Alcotest.(check bool) "best is max" true (b.score >= c.score))
        cands

let test_compile_error_on_missing_domain () =
  let k =
    parse_kernel "__kernel void f(float a[16]) { float x = a[0]; x = x + 1; }"
  in
  match Gpcc_core.Pipeline.run k with
  | exception Gpcc_core.Pipeline.Compile_error _ -> ()
  | _ -> Alcotest.fail "missing output/domain accepted"

let test_optimized_traffic_drops () =
  (* the whole point: coalescing + merges cut off-chip traffic *)
  let w = Gpcc_workloads.Registry.find_exn "mm" in
  let n = 128 in
  let k = Gpcc_workloads.Workload.parse w n in
  let naive_launch = Option.get (Gpcc_passes.Pass_util.naive_launch k) in
  let rn, _ = Gpcc_workloads.Workload.execute cfg280 w n k naive_launch in
  let r = compile ~target:128 ~degree:8 k in
  let ro, _ = Gpcc_workloads.Workload.execute cfg280 w n r.kernel r.launch in
  let naive_bytes = Gpcc_sim.Stats.global_bytes rn.total in
  let opt_bytes = Gpcc_sim.Stats.global_bytes ro.total in
  Alcotest.(check bool)
    (Printf.sprintf "traffic falls (%.0f -> %.0f)" naive_bytes opt_bytes)
    true
    (opt_bytes *. 4.0 < naive_bytes)

let test_speedup_on_8800 () =
  (* Figure 11's direction: optimized beats naive, markedly on the G80
     whose strict coalescing punishes the naive kernel *)
  let w = Gpcc_workloads.Registry.find_exn "mm" in
  let n = 128 in
  let k = Gpcc_workloads.Workload.parse w n in
  let naive_launch = Option.get (Gpcc_passes.Pass_util.naive_launch k) in
  let tn = Gpcc_workloads.Workload.measure ~sample:2 cfg8800 w n k naive_launch in
  let r = compile ~cfg:cfg8800 ~target:128 ~degree:8 k in
  let topt = Gpcc_workloads.Workload.measure ~sample:2 cfg8800 w n r.kernel r.launch in
  Alcotest.(check bool)
    (Printf.sprintf "speedup > 3 (naive %.2f opt %.2f)" tn.gflops topt.gflops)
    true
    (topt.gflops > 3.0 *. tn.gflops)

let suite =
  let t n f = Alcotest.test_case n `Slow f in
  ( "compiler",
    [
      t "all workloads, all configs" test_all_workloads_all_configs;
      t "both GPUs" test_both_gpus;
      t "report readable" test_report_readable;
      t "launch covers domain" test_launch_covers_domain;
      t "staged prefixes (Fig 12)" test_staged_prefixes;
      t "design-space search" test_explore_search;
      t "missing domain rejected" test_compile_error_on_missing_domain;
      t "optimized traffic drops" test_optimized_traffic_drops;
      t "speedup on GTX8800" test_speedup_on_8800;
    ] )

(* appended: per-hardware deployment (paper Section 4.2) *)
let test_deploy_bundle () =
  let w = Gpcc_workloads.Registry.find_exn "mm" in
  let n = 256 in
  let k = Gpcc_workloads.Workload.parse w n in
  let measure cfg kernel launch =
    (Gpcc_workloads.Workload.measure ~sample:1 ~streams:3 cfg w n kernel launch)
      .gflops
  in
  let b =
    Gpcc_core.Deploy.build
      ~gpus:[ cfg8800; cfg280 ]
      ~measure k
  in
  Alcotest.(check int) "one entry per GPU" 2 (List.length b.entries);
  let r8800 = Gpcc_core.Deploy.pick b "GTX8800" in
  let r280 = Gpcc_core.Deploy.pick b "GTX280" in
  (* both versions must be correct... *)
  Gpcc_workloads.Workload.check cfg8800 w n r8800.kernel r8800.launch;
  Gpcc_workloads.Workload.check cfg280 w n r280.kernel r280.launch;
  (* ...and the description readable *)
  assert_contains "describes both" (Gpcc_core.Deploy.describe b) "GTX8800";
  (match Gpcc_core.Deploy.pick b "GTX9999" with
  | exception Gpcc_core.Deploy.No_version _ -> ()
  | _ -> Alcotest.fail "unknown GPU accepted")

let suite =
  let name, cases = suite in
  ( name,
    cases
    @ [ Alcotest.test_case "deployment bundle (4.2)" `Slow test_deploy_bundle ] )

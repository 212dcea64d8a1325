(** The parallel design-space exploration engine: the domain pool, the
    jobs-invariance of the Section-4 search, per-candidate failure
    isolation, and the persistent exploration cache. *)

let fresh_cache_dir () = Filename.temp_dir "gpcc_test_cache" ""

(* score equality must treat -inf = -inf as equal (a failed measurement
   is a legitimate, shareable score) *)
let score_t =
  Alcotest.testable Fmt.float (fun a b -> a = b || Float.abs (a -. b) <= 1e-9)

(* --- the pool itself --- *)

let test_pool_map_order () =
  let xs = List.init 100 Fun.id in
  List.iter
    (fun jobs ->
      let got = Gpcc_core.Pool.with_pool ~jobs (fun p ->
          Gpcc_core.Pool.map p (fun x -> x * x) xs)
      in
      Alcotest.(check (list int))
        (Printf.sprintf "squares in order (jobs=%d)" jobs)
        (List.map (fun x -> x * x) xs)
        got)
    [ 1; 4 ]

let test_pool_failure_isolation () =
  let xs = [ 1; 2; 3; 4; 5 ] in
  let f x = if x mod 2 = 0 then failwith (string_of_int x) else x * 10 in
  List.iter
    (fun jobs ->
      let results = Gpcc_core.Pool.run ~jobs f xs in
      let show = function
        | Ok y -> Printf.sprintf "ok:%d" y
        | Error e -> "err:" ^ Printexc.to_string e
      in
      Alcotest.(check (list string))
        (Printf.sprintf "per-element results (jobs=%d)" jobs)
        [ "ok:10"; "err:Failure(\"2\")"; "ok:30"; "err:Failure(\"4\")";
          "ok:50" ]
        (List.map show results);
      (* map re-raises the earliest failing element *)
      match
        Gpcc_core.Pool.with_pool ~jobs (fun p -> Gpcc_core.Pool.map p f xs)
      with
      | _ -> Alcotest.fail "map should re-raise"
      | exception Failure m ->
          Alcotest.(check string)
            (Printf.sprintf "earliest error wins (jobs=%d)" jobs)
            "2" m)
    [ 1; 4 ]

let test_pool_reuse_and_shutdown () =
  let p = Gpcc_core.Pool.create ~jobs:3 () in
  Alcotest.(check int) "workers" 3 (Gpcc_core.Pool.size p);
  let a = Gpcc_core.Pool.map p succ [ 1; 2; 3 ] in
  let b = Gpcc_core.Pool.map p succ [ 4; 5 ] in
  Alcotest.(check (list int)) "first batch" [ 2; 3; 4 ] a;
  Alcotest.(check (list int)) "second batch" [ 5; 6 ] b;
  Gpcc_core.Pool.shutdown p;
  Gpcc_core.Pool.shutdown p;
  (* after shutdown the pool degrades to sequential, it does not hang *)
  Alcotest.(check (list int))
    "post-shutdown map" [ 7 ]
    (Gpcc_core.Pool.map p succ [ 6 ])

(* --- jobs-invariance of the search --- *)

let sim_measure cfg w n =
  Gpcc_workloads.Workload.measure_gflops ~sample:1 ~streams:3 cfg w n

let search_best ~jobs ?cache ?cache_prefix name n =
  let w = Gpcc_workloads.Registry.find_exn name in
  let k = Gpcc_workloads.Workload.parse w n in
  let cands =
    Gpcc_core.Explore.search ~cfg:Util.cfg280 ~jobs ?cache ?cache_prefix k
      ~measure:(sim_measure Util.cfg280 w n)
  in
  (cands, Gpcc_core.Explore.best cands)

let test_parallel_matches_sequential () =
  List.iter
    (fun name ->
      let cands1, best1 = search_best ~jobs:1 name 64 in
      let cands4, best4 = search_best ~jobs:4 name 64 in
      Alcotest.(check int)
        (name ^ ": same candidate count")
        (List.length cands1) (List.length cands4);
      List.iter2
        (fun (a : Gpcc_core.Explore.candidate)
             (b : Gpcc_core.Explore.candidate) ->
          Alcotest.(check (pair int int))
            (name ^ ": same candidate order")
            (a.target_block_threads, a.merge_degree)
            (b.target_block_threads, b.merge_degree);
          Alcotest.check score_t (name ^ ": same score") a.score b.score)
        cands1 cands4;
      match (best1, best4) with
      | Some b1, Some b4 ->
          Alcotest.(check (pair int int))
            (name ^ ": same best config")
            (b1.target_block_threads, b1.merge_degree)
            (b4.target_block_threads, b4.merge_degree);
          Alcotest.(check string)
            (name ^ ": byte-identical chosen kernel")
            (Gpcc_ast.Pp.kernel_to_string ~launch:b1.result.launch
               b1.result.kernel)
            (Gpcc_ast.Pp.kernel_to_string ~launch:b4.result.launch
               b4.result.kernel)
      | _ -> Alcotest.failf "%s: search found no best candidate" name)
    [ "mm"; "tp" ]

(* --- failure isolation in the sweep --- *)

let test_raising_candidate_isolated () =
  let w = Gpcc_workloads.Registry.find_exn "mm" in
  let k = Gpcc_workloads.Workload.parse w 64 in
  (* deliberately blow up the measurement of every >=32-thread version
     (at n=64 the compiled blocks are 16..64 threads); the sweep must
     complete and still pick among the surviving ones *)
  let measure kernel launch =
    if Gpcc_ast.Ast.threads_per_block launch >= 32 then
      failwith "injected measurement fault"
    else sim_measure Util.cfg280 w 64 kernel launch
  in
  List.iter
    (fun jobs ->
      let cands, failures =
        Gpcc_core.Explore.search_with_failures ~cfg:Util.cfg280 ~jobs k
          ~measure
      in
      let poisoned, healthy =
        List.partition
          (fun (c : Gpcc_core.Explore.candidate) ->
            c.score = Float.neg_infinity)
          cands
      in
      if List.length poisoned = 0 then
        Alcotest.failf "jobs=%d: fault was never injected" jobs;
      if List.length healthy = 0 then
        Alcotest.failf "jobs=%d: no candidate survived" jobs;
      if
        not
          (List.exists
             (fun (f : Gpcc_core.Explore.failure) ->
               f.failed_stage = `Measure
               && Util.contains ~needle:"injected measurement fault" f.reason)
             failures)
      then Alcotest.failf "jobs=%d: fault not reported in failures" jobs;
      match Gpcc_core.Explore.best cands with
      | Some b ->
          if b.score = Float.neg_infinity then
            Alcotest.failf "jobs=%d: best is a poisoned candidate" jobs
      | None -> Alcotest.failf "jobs=%d: sweep aborted" jobs)
    [ 1; 4 ]

(* --- the persistent cache --- *)

let test_cache_roundtrip () =
  let dir = fresh_cache_dir () in
  let c = Gpcc_core.Explore_cache.open_dir ~dir () in
  Alcotest.(check (option (float 0.))) "empty" None
    (Gpcc_core.Explore_cache.find c "k1");
  Gpcc_core.Explore_cache.store c "k1" 123.456;
  Gpcc_core.Explore_cache.store c "k2" Float.neg_infinity;
  Alcotest.(check (option (float 1e-12)))
    "memo hit" (Some 123.456)
    (Gpcc_core.Explore_cache.find c "k1");
  (* a fresh handle on the same directory reads from disk *)
  let c2 = Gpcc_core.Explore_cache.open_dir ~dir () in
  Alcotest.(check (option (float 1e-12)))
    "disk round-trip" (Some 123.456)
    (Gpcc_core.Explore_cache.find c2 "k1");
  Alcotest.(check bool)
    "-inf survives" true
    (Gpcc_core.Explore_cache.find c2 "k2" = Some Float.neg_infinity);
  Alcotest.(check int) "entries" 2 (Gpcc_core.Explore_cache.entries c2);
  Alcotest.(check int) "hits" 2 (Gpcc_core.Explore_cache.hits c2);
  Alcotest.(check int) "misses" 1 (Gpcc_core.Explore_cache.misses c);
  Gpcc_core.Explore_cache.clear c2;
  Alcotest.(check int) "cleared" 0 (Gpcc_core.Explore_cache.entries c2);
  Alcotest.(check (option (float 0.)))
    "gone after clear" None
    (Gpcc_core.Explore_cache.find c2 "k1")

let test_cached_search_identical () =
  let dir = fresh_cache_dir () in
  let cold = Gpcc_core.Explore_cache.open_dir ~dir () in
  let cands_cold, _ =
    search_best ~jobs:1 ~cache:cold ~cache_prefix:"t/mm/64" "mm" 64
  in
  let measured = Gpcc_core.Explore_cache.entries cold in
  Alcotest.(check bool) "cold run measured something" true (measured > 0);
  (* fresh handle: every distinct version must now come from disk, and
     the scored sweep must be identical — also under a parallel pool *)
  List.iter
    (fun jobs ->
      let warm = Gpcc_core.Explore_cache.open_dir ~dir () in
      let cands_warm, _ =
        search_best ~jobs ~cache:warm ~cache_prefix:"t/mm/64" "mm" 64
      in
      Alcotest.(check int)
        (Printf.sprintf "all hits (jobs=%d)" jobs)
        measured
        (Gpcc_core.Explore_cache.hits warm);
      Alcotest.(check int)
        (Printf.sprintf "no misses (jobs=%d)" jobs)
        0
        (Gpcc_core.Explore_cache.misses warm);
      List.iter2
        (fun (a : Gpcc_core.Explore.candidate)
             (b : Gpcc_core.Explore.candidate) ->
          Alcotest.check score_t
            (Printf.sprintf "identical score t=%d d=%d (jobs=%d)"
               a.target_block_threads a.merge_degree jobs)
            a.score b.score)
        cands_cold cands_warm)
    [ 1; 4 ]

(* --- the model-guided funnel --- *)

let funnel_search ~jobs ?cache ?cache_prefix ?prune_threshold name n =
  let w = Gpcc_workloads.Registry.find_exn name in
  let k = Gpcc_workloads.Workload.parse w n in
  Gpcc_core.Explore.search_funnel ~cfg:Util.cfg280 ~jobs ?cache ?cache_prefix
    ?prune_threshold
    ~budget_sensitive:(Gpcc_workloads.Workload.budget_sensitive w n)
    k
    ~predict:(Gpcc_workloads.Workload.predict_gflops Util.cfg280 w n)
    ~measure:
      (Gpcc_workloads.Workload.measure_gflops_blocks ~sample:1 ~streams:3
         Util.cfg280 w n)

(* the tentpole invariant: over every registry workload the pruned
   funnel must select the same configuration as the exhaustive sweep,
   while fully measuring strictly fewer versions than it compiled *)
let test_funnel_matches_exhaustive () =
  List.iter
    (fun (w : Gpcc_workloads.Workload.t) ->
      let name = w.name and n = w.test_size in
      let _, ex_best = search_best ~jobs:1 name n in
      let cands, _, stats = funnel_search ~jobs:1 name n in
      let fu_best = Gpcc_core.Explore.best_measured cands in
      (match (ex_best, fu_best) with
      | Some e, Some f ->
          Alcotest.(check (pair int int))
            (name ^ ": funnel picks the exhaustive winner")
            (e.target_block_threads, e.merge_degree)
            (f.target_block_threads, f.merge_degree);
          Alcotest.check score_t
            (name ^ ": winner's score is the full measurement")
            e.score f.score
      | _ -> Alcotest.failf "%s: a sweep found no winner" name);
      Alcotest.(check bool)
        (name ^ ": fully measured fewer than compiled")
        true
        (stats.f_measured < stats.f_configs);
      Alcotest.(check bool)
        (name ^ ": probed every distinct version")
        true
        (stats.f_predicted <= stats.f_distinct))
    (Gpcc_workloads.Registry.all @ Gpcc_workloads.Registry.extras)

let test_funnel_provenance () =
  let cands, _, stats = funnel_search ~jobs:1 "mm" 64 in
  let count p =
    List.length
      (List.filter (fun (c : Gpcc_core.Explore.candidate) -> p c.provenance)
         cands)
  in
  Alcotest.(check bool)
    "at least one fully measured candidate" true
    (count (fun p -> p = `Measured) > 0);
  Alcotest.(check bool)
    "pruning happened iff stats say so" true
    (stats.f_pruned > 0 = (count (fun p -> p = `Pruned) > 0));
  (* every candidate carries some provenance and a comparable score *)
  List.iter
    (fun (c : Gpcc_core.Explore.candidate) ->
      match c.provenance with
      | `Measured | `Halved _ | `Pruned | `Predicted -> ())
    cands;
  match Gpcc_core.Explore.best_measured cands with
  | Some b ->
      Alcotest.(check bool)
        "winner is a full measurement" true
        (b.provenance = `Measured)
  | None -> Alcotest.fail "no winner"

let test_funnel_warm_cache () =
  let dir = fresh_cache_dir () in
  let run () =
    (* a fresh handle each time: warm must hit the disk, not a
       previous handle's in-memory memo *)
    let cache = Gpcc_core.Explore_cache.open_dir ~dir () in
    let r = funnel_search ~jobs:1 ~cache ~cache_prefix:"t/mm/64" "mm" 64 in
    (r, cache)
  in
  let (cold_cands, _, _), _ = run () in
  let (warm_cands, _, _), warm_cache = run () in
  Alcotest.(check int) "warm funnel never re-measures" 0
    (Gpcc_core.Explore_cache.misses warm_cache);
  List.iter2
    (fun (a : Gpcc_core.Explore.candidate) (b : Gpcc_core.Explore.candidate) ->
      Alcotest.check score_t
        (Printf.sprintf "identical score t=%d d=%d" a.target_block_threads
           a.merge_degree)
        a.score b.score;
      Alcotest.(check bool)
        (Printf.sprintf "identical provenance t=%d d=%d"
           a.target_block_threads a.merge_degree)
        true
        (a.provenance = b.provenance))
    cold_cands warm_cands

(* [f_partial_runs] counts executed rung measurements only: a warm
   replay serves every rung from the cache and must report 0 (rd is
   multi-phase, so its funnel actually takes the halving path) *)
let test_funnel_partial_runs_count_executions () =
  let w = Gpcc_workloads.Registry.find_exn "rd" in
  let n = w.test_size in
  let dir = fresh_cache_dir () in
  let run () =
    let cache = Gpcc_core.Explore_cache.open_dir ~dir () in
    funnel_search ~jobs:1 ~cache ~cache_prefix:"t/rd" "rd" n
  in
  let _, _, cold = run () in
  let _, _, warm = run () in
  Alcotest.(check bool) "cold rungs executed their measurements" true
    (cold.f_rungs = 0 || cold.f_partial_runs > 0);
  Alcotest.(check int) "warm replay executes no partial simulations" 0
    warm.f_partial_runs

(* a funnel and an exhaustive sweep share full-measurement entries: the
   funnel's finals must be served from the exhaustive run's cache *)
let test_funnel_shares_full_cache () =
  let dir = fresh_cache_dir () in
  let cache = Gpcc_core.Explore_cache.open_dir ~dir () in
  let _ = search_best ~jobs:1 ~cache ~cache_prefix:"t/mm/64" "mm" 64 in
  let full_entries = Gpcc_core.Explore_cache.entries cache in
  let cache2 = Gpcc_core.Explore_cache.open_dir ~dir () in
  let cands, _, stats =
    funnel_search ~jobs:1 ~cache:cache2 ~cache_prefix:"t/mm/64" "mm" 64
  in
  (* probes are new entries; full measurements are not *)
  Alcotest.(check int)
    "only probe entries added"
    (full_entries + stats.f_predicted)
    (Gpcc_core.Explore_cache.entries cache2);
  match Gpcc_core.Explore.best_measured cands with
  | Some _ -> ()
  | None -> Alcotest.fail "no winner"

(* --- cache corruption hardening --- *)

let test_cache_corrupt_entry () =
  let dir = fresh_cache_dir () in
  let c = Gpcc_core.Explore_cache.open_dir ~dir () in
  let module C = Gpcc_core.Explore_cache in
  C.store c "k1" 42.0;
  (* the store appends records to one pack per process: find the newest
     record under k1 wherever it landed *)
  let newest () =
    match List.rev (Util.store_records ~root:dir ~kind:"score" "k1") with
    | r :: _ -> r
    | [] -> Alcotest.fail "no score record"
  in
  (* a record of the same length in the newest one's place, so a warm
     index still points at it *)
  let in_place ~key payload =
    let r = newest () in
    Util.overwrite_record r (Util.envelope { r with sr_key = key } payload)
  in
  let check_dropped what =
    (* a fresh handle, so the in-memory memo cannot mask the disk *)
    Alcotest.(check (option (float 0.)))
      (what ^ " reads as a miss") None
      (C.find (C.open_dir ~dir ()) "k1")
  in
  (* truncated: the writer died mid-header *)
  Util.overwrite_record (newest ()) "gpcc-store-v1 score";
  check_dropped "truncated record";
  C.store c "k1" 42.0;
  (* envelope intact but the payload is not a float *)
  in_place ~key:"k1" "notfloat";
  check_dropped "garbage score";
  (* a newer record is read past both damaged ones *)
  C.store c "k1" 7.5;
  Alcotest.(check (option (float 1e-12)))
    "re-stored after corruption" (Some 7.5)
    (C.find (C.open_dir ~dir ()) "k1");
  (* gc deletes the torn stretch: the pack is rewritten with its
     complete records, and the value still reads back *)
  List.iter
    (fun p ->
      let t = Unix.gettimeofday () -. 60. in
      Unix.utimes p t t)
    (Util.pack_files dir);
  ignore (C.gc c);
  Alcotest.(check bool)
    "gc deletes the torn record" true
    (List.for_all Util.pack_is_records (Util.pack_files dir));
  Alcotest.(check (option (float 1e-12)))
    "the value survives the rewrite" (Some 7.5)
    (C.find (C.open_dir ~dir ()) "k1");
  (* a well-formed record storing a different key in k1's place (the
     full-key check behind the hash index) is a miss but NOT deleted *)
  in_place ~key:"kX" "0x1.ep+2";
  check_dropped "foreign key";
  Alcotest.(check int)
    "foreign record is preserved" 1
    (List.length (Util.store_records ~root:dir ~kind:"score" "kX"))

let suite =
  ( "explore",
    [
      Alcotest.test_case "pool: map preserves order" `Quick
        test_pool_map_order;
      Alcotest.test_case "pool: per-task failure isolation" `Quick
        test_pool_failure_isolation;
      Alcotest.test_case "pool: reuse and shutdown" `Quick
        test_pool_reuse_and_shutdown;
      Alcotest.test_case "search: parallel == sequential (mm, tp)" `Slow
        test_parallel_matches_sequential;
      Alcotest.test_case "search: raising candidate is isolated" `Slow
        test_raising_candidate_isolated;
      Alcotest.test_case "cache: round-trip" `Quick test_cache_roundtrip;
      Alcotest.test_case "cache: cached search returns identical scores"
        `Slow test_cached_search_identical;
      Alcotest.test_case "funnel: same winner as exhaustive (all workloads)"
        `Slow test_funnel_matches_exhaustive;
      Alcotest.test_case "funnel: provenance" `Slow test_funnel_provenance;
      Alcotest.test_case "funnel: warm cache never re-measures" `Slow
        test_funnel_warm_cache;
      Alcotest.test_case "funnel: shares full measurements with exhaustive"
        `Slow test_funnel_shares_full_cache;
      Alcotest.test_case "funnel: partial_runs counts executions only"
        `Slow test_funnel_partial_runs_count_executions;
      Alcotest.test_case "cache: corrupt entries dropped and deleted" `Quick
        test_cache_corrupt_entry;
    ] )

(** The content-addressed artifact store: layout, recovery, root
    resolution, eviction, and multi-process safety; and the domain-safe
    one-time initialization of the library's process-wide values. *)

module Store = Gpcc_util.Store

let fresh_root () = Filename.temp_dir "gpcc_test_store" ""

(* a fixed-width codec so eviction byte-accounting is predictable *)
let text_kind =
  Store.make_kind ~name:"text" ~version:"1"
    ~encode:(fun s -> s)
    ~decode:(fun s -> Some s)

let float_kind =
  Store.make_kind ~name:"fval" ~version:"1"
    ~encode:(fun f -> Printf.sprintf "%h" f)
    ~decode:(fun s -> float_of_string_opt (String.trim s))

(* every entry file of the store under [root], relative then absolute *)
let entry_files root =
  Sys.readdir root |> Array.to_list |> List.sort compare
  |> List.concat_map (fun shard ->
         let d = Filename.concat root shard in
         if Sys.is_directory d then
           Sys.readdir d |> Array.to_list |> List.sort compare
           |> List.map (fun f ->
                  (Filename.concat shard f, Filename.concat d f))
         else [])

let read_file p =
  let ic = open_in_bin p in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let backdate path seconds_ago =
  let t = Unix.gettimeofday () -. seconds_ago in
  Unix.utimes path t t

(* --- round trip, sharded layout, typed kinds --- *)

let test_roundtrip_and_layout () =
  let root = fresh_root () in
  let s = Store.open_root ~root () in
  Alcotest.(check (option string)) "empty" None
    (Store.find s text_kind ~key:"k1");
  Store.store s text_kind ~key:"k1" "hello";
  Store.store s float_kind ~key:"k1" 42.5;
  Alcotest.(check (option string))
    "round trip" (Some "hello")
    (Store.find s text_kind ~key:"k1");
  Alcotest.(check bool)
    "kinds are disjoint namespaces" true
    (Store.find s float_kind ~key:"k1" = Some 42.5);
  Alcotest.(check int) "per-handle hits" 2 (Store.hits s);
  Alcotest.(check int) "per-handle misses" 1 (Store.misses s);
  (* layout: <root>/<2 hex>/<30 hex>.<kind> *)
  List.iter
    (fun (rel, _) ->
      let shard = Filename.dirname rel and base = Filename.basename rel in
      Alcotest.(check int) "shard is two chars" 2 (String.length shard);
      let stem = Filename.remove_extension base in
      Alcotest.(check int) "stem is the remaining 30 digits" 30
        (String.length stem);
      Alcotest.(check bool)
        "hex shard + stem" true
        (String.for_all
           (function 'a' .. 'f' | '0' .. '9' -> true | _ -> false)
           (shard ^ stem)))
    (entry_files root);
  Alcotest.(check int) "two entries on disk" 2 (Store.entries s);
  Alcotest.(check int) "one text entry" 1 (Store.entries ~kind:"text" s);
  let d = Store.disk_stats s in
  Alcotest.(check int) "disk_stats entries" 2 d.ds_entries;
  Alcotest.(check int) "disk_stats kinds" 2 (List.length d.ds_kinds);
  (* a fresh handle reads the same bytes back *)
  let s2 = Store.open_root ~root () in
  Alcotest.(check (option string))
    "fresh handle" (Some "hello")
    (Store.find s2 text_kind ~key:"k1");
  Store.clear ~kind:"text" s2;
  Alcotest.(check int) "kind-filtered clear" 0 (Store.entries ~kind:"text" s2);
  Alcotest.(check int) "other kind untouched" 1
    (Store.entries ~kind:"fval" s2);
  Store.clear s2;
  Alcotest.(check int) "full clear" 0 (Store.entries s2)

(* --- corruption is reclaimed; collisions and version skew are not --- *)

let test_corruption_and_versioning () =
  let root = fresh_root () in
  let s = Store.open_root ~root () in
  Store.store s text_kind ~key:"k1" "payload";
  let path =
    match entry_files root with
    | [ (_, p) ] -> p
    | fs -> Alcotest.failf "expected one entry, got %d" (List.length fs)
  in
  let overwrite content =
    let oc = open_out_bin path in
    output_string oc content;
    close_out oc
  in
  let dropped what =
    Alcotest.(check (option string))
      (what ^ " is a miss") None
      (Store.find s text_kind ~key:"k1");
    Alcotest.(check bool) (what ^ " deleted") false (Sys.file_exists path);
    Store.store s text_kind ~key:"k1" "payload"
  in
  overwrite "";
  dropped "empty file";
  overwrite "gpcc-store-v1 text 1 2 7\nk1";
  dropped "truncated payload";
  overwrite "gpcc-store-v1 text 1 2 7\nk1payloadEXTRA";
  dropped "trailing bytes";
  overwrite "gpcc-store-v0 text 1 2 7\nk1payload";
  dropped "wrong format version";
  (* a well-formed entry under the same path but a different key — a
     digest collision — must be preserved and reported as a miss *)
  overwrite "gpcc-store-v1 text 1 2 7\nkXpayload";
  Alcotest.(check (option string))
    "foreign key is a miss" None
    (Store.find s text_kind ~key:"k1");
  Alcotest.(check bool) "foreign entry kept" true (Sys.file_exists path);
  (* a codec version bump addresses different files entirely *)
  let text_v2 =
    Store.make_kind ~name:"text" ~version:"2"
      ~encode:(fun s -> s)
      ~decode:(fun s -> Some s)
  in
  Store.store s text_kind ~key:"k1" "payload";
  Alcotest.(check (option string))
    "old codec version is invisible to the new one" None
    (Store.find s text_v2 ~key:"k1");
  Alcotest.(check (option string))
    "old entries still served to the old codec" (Some "payload")
    (Store.find s text_kind ~key:"k1")

(* --- root resolution --- *)

let test_root_resolution () =
  (* the env override must not leak between cases: empty = unset *)
  let saved = Sys.getenv_opt "GPCC_CACHE_DIR" in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "GPCC_CACHE_DIR" (Option.value saved ~default:""))
    (fun () ->
      Unix.putenv "GPCC_CACHE_DIR" "";
      let top = Filename.temp_dir "gpcc_test_root" "" in
      let nested = Filename.concat (Filename.concat top "a") "b" in
      let rec mkdir_p p =
        if not (Sys.file_exists p) then begin
          mkdir_p (Filename.dirname p);
          Sys.mkdir p 0o755
        end
      in
      mkdir_p nested;
      (* no marker anywhere above: fall back to the cwd itself *)
      Alcotest.(check string)
        "no marker: cwd"
        (Filename.concat nested "_gpcc_cache")
        (Store.resolve_root ~cwd:nested ());
      (* a dune-project at the top wins from any depth *)
      let oc = open_out (Filename.concat top "dune-project") in
      close_out oc;
      Alcotest.(check string)
        "marker: project root"
        (Filename.concat top "_gpcc_cache")
        (Store.resolve_root ~cwd:nested ());
      Alcotest.(check string)
        "marker: from the root itself"
        (Filename.concat top "_gpcc_cache")
        (Store.resolve_root ~cwd:top ());
      (* .git marks a root too, and the nearest marker wins *)
      Sys.mkdir (Filename.concat (Filename.concat top "a") ".git") 0o755;
      Alcotest.(check string)
        "nearest marker wins"
        (Filename.concat (Filename.concat top "a") "_gpcc_cache")
        (Store.resolve_root ~cwd:nested ());
      (* the env override beats everything *)
      Unix.putenv "GPCC_CACHE_DIR" "/somewhere/else";
      Alcotest.(check string)
        "GPCC_CACHE_DIR override" "/somewhere/else"
        (Store.resolve_root ~cwd:nested ());
      Unix.putenv "GPCC_CACHE_DIR" "")

(* --- stale temp files are swept; fresh ones are not --- *)

let test_tmp_sweep () =
  let root = fresh_root () in
  let s = Store.open_root ~root () in
  Store.store s text_kind ~key:"live" "v";
  let make_tmp dir name age =
    let p = Filename.concat dir name in
    let oc = open_out_bin p in
    output_string oc "partial write";
    close_out oc;
    backdate p age;
    p
  in
  (* a stray at the root (legacy layout) and one inside a shard *)
  let shard_dir =
    match entry_files root with
    | (rel, _) :: _ -> Filename.concat root (Filename.dirname rel)
    | [] -> Alcotest.fail "no entry"
  in
  let old1 = make_tmp root "deadbeef.score.tmp.1234.0" 7200. in
  let old2 = make_tmp shard_dir "cafe.text.tmp.99.3.ab12cd" 7200. in
  let fresh = make_tmp shard_dir "face.text.tmp.99.4.ef34ab" 10. in
  let g = Store.gc ~tmp_ttl_s:3600. s in
  Alcotest.(check int) "two stale tmps swept" 2 g.gc_swept_tmps;
  Alcotest.(check bool) "old root tmp gone" false (Sys.file_exists old1);
  Alcotest.(check bool) "old shard tmp gone" false (Sys.file_exists old2);
  Alcotest.(check bool) "fresh tmp kept" true (Sys.file_exists fresh);
  Alcotest.(check (option string))
    "live entry untouched" (Some "v")
    (Store.find s text_kind ~key:"live")

(* --- LRU eviction under a byte budget --- *)

let test_lru_eviction () =
  let root = fresh_root () in
  let s = Store.open_root ~root () in
  (* three entries of identical size, with distinct ages *)
  let payload = String.make 100 'x' in
  List.iter
    (fun k -> Store.store s text_kind ~key:k payload)
    [ "e1"; "e2"; "e3" ];
  let path_of k =
    match
      List.filter
        (fun (_, p) ->
          let c = read_file p in
          let n = String.length k in
          String.length c >= n
          && String.sub c (String.index c '\n' + 1) n = k)
        (entry_files root)
    with
    | [ (_, p) ] -> p
    | _ -> Alcotest.failf "entry for %s not found" k
  in
  backdate (path_of "e1") 300.;
  backdate (path_of "e2") 200.;
  backdate (path_of "e3") 100.;
  (* a read hit touches e1: it becomes the most recent *)
  ignore (Store.find s text_kind ~key:"e1");
  let size = String.length (read_file (path_of "e2")) in
  let before = Store.global_evictions () in
  (* budget for exactly two entries: the least-recently-used (e2) goes *)
  let g = Store.gc ~max_bytes:(2 * size) s in
  Alcotest.(check int) "one entry evicted" 1 g.gc_evicted;
  Alcotest.(check int) "live count" 2 g.gc_live;
  Alcotest.(check int) "eviction counter advanced" (before + 1)
    (Store.global_evictions ());
  Alcotest.(check (option string))
    "touched entry survived" (Some payload)
    (Store.find s text_kind ~key:"e1");
  Alcotest.(check (option string))
    "most recent entry survived" (Some payload)
    (Store.find s text_kind ~key:"e3");
  Alcotest.(check (option string))
    "LRU entry evicted" None
    (Store.find s text_kind ~key:"e2");
  (* age policy: everything older than 50s goes (both survivors are) *)
  backdate (path_of "e1") 300.;
  backdate (path_of "e3") 100.;
  let g = Store.gc ~max_age_s:50. s in
  Alcotest.(check int) "age policy evicted the rest" 2 g.gc_evicted;
  Alcotest.(check int) "store is empty" 0 (Store.entries s)

(* --- eviction never removes an entry written during the GC pass --- *)

let test_gc_never_evicts_fresh_write () =
  let root = fresh_root () in
  let s = Store.open_root ~root () in
  Store.store s text_kind ~key:"fresh" "just written";
  (* simulate a pass that started before the write by backdating [now]:
     the entry's mtime is >= pass start, so even a zero-byte budget and
     a zero age limit must not touch it *)
  let pass_start = Unix.gettimeofday () -. 30. in
  let g = Store.gc ~max_bytes:0 ~max_age_s:0. ~now:pass_start s in
  Alcotest.(check int) "nothing evicted" 0 g.gc_evicted;
  Alcotest.(check (option string))
    "entry written during the pass survives" (Some "just written")
    (Store.find s text_kind ~key:"fresh")

(* --- multi-process stress --- *)

(* Deterministic final state: every child writes the same value for the
   same key, so any interleaving of N children must converge to the
   same bytes a serial writer produces. The children are fresh copies
   of this very executable (OCaml 5 forbids [fork] once any domain has
   been spawned, and earlier suites use the domain pool): the test
   entry point calls {!maybe_run_child} before Alcotest, which diverts
   the process into {!stress_child} when the env var is set. *)
let stress_keys = 32
let stress_key i = Printf.sprintf "stress-key-%04d" i
let stress_value i = Printf.sprintf "value-%04d-%s" i (String.make 40 'v')

let stress_child root seed : unit =
  let s = Store.open_root ~root () in
  let order = Array.init stress_keys (fun i -> i) in
  (* a child-specific deterministic shuffle so writers interleave *)
  let st = Random.State.make [| seed |] in
  for i = stress_keys - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  Array.iter
    (fun i ->
      Store.store s text_kind ~key:(stress_key i) (stress_value i);
      (* interleave reads of keys other children may be writing *)
      (match Store.find s text_kind ~key:(stress_key ((i + 7) mod stress_keys)) with
      | Some v ->
          if not (String.equal v (stress_value ((i + 7) mod stress_keys)))
          then Unix._exit 3
      | None -> ());
      (* and the occasional concurrent GC (no budget: tmp sweep only) *)
      if i mod 11 = seed mod 11 then ignore (Store.gc s))
    order;
  (* every key this child wrote must be readable *)
  Array.iter
    (fun i ->
      match Store.find s text_kind ~key:(stress_key i) with
      | Some v when String.equal v (stress_value i) -> ()
      | _ -> Unix._exit 4)
    order

let child_env_var = "GPCC_STORE_STRESS_CHILD"

(* --- one-time initialization from racing domains --- *)

(* Run [f d] on [n] domains released together: each spins until all
   have arrived, so their first calls overlap. *)
let race_domains n f =
  let arrived = Atomic.make 0 in
  let domains =
    List.init n (fun d ->
        Domain.spawn (fun () ->
            Atomic.incr arrived;
            while Atomic.get arrived < n do
              Domain.cpu_relax ()
            done;
            f d))
  in
  List.map Domain.join domains

let test_once_racing_domains () =
  let calls = Atomic.make 0 in
  let once =
    Gpcc_util.Once.make (fun () ->
        Atomic.incr calls;
        (* hold the first computation open while the others arrive *)
        Unix.sleepf 0.02;
        ref 42)
  in
  let got = race_domains 4 (fun _ -> Gpcc_util.Once.get once) in
  Alcotest.(check int) "computed once" 1 (Atomic.get calls);
  Alcotest.(check bool)
    "every domain got the same value" true
    (List.for_all (fun v -> v == List.hd got) got);
  Alcotest.(check int) "the value" 42 !(List.hd got)

(* The library's own process-wide values (the simulator's shared domain
   pool, the verdict store handle and the symbolic-tier switch, each
   domain's tmp-name generator) are first used inside a fresh child
   process, a re-exec of this executable with [once_child_arg], by
   racing domains: a verification, a default-jobs simulation and a
   store write each. Then four domains race through the symbolic
   verifier's memo tables on thread-merged kernels, and each must get
   the results a serial run gets. Any exception or mismatch fails the
   child. *)
let once_child_arg = "once-race-child"

(* thread-merged kernels from the pipeline with validation off, so no
   proof runs before the race *)
let merged_kernels () =
  let pipeline =
    Gpcc_core.Pipeline.default ~cfg:Util.cfg280 ~target_block_threads:256
      ~merge_degree:8 ~verify:false ()
  in
  List.map
    (fun name ->
      let w = Gpcc_workloads.Registry.find_exn name in
      (Gpcc_core.Pipeline.run ~pipeline
         (Gpcc_workloads.Workload.parse w w.test_size))
        .kernel)
    [ "mm"; "conv"; "strsm"; "tmv"; "fft" ]

let once_child root =
  let k =
    Util.parse_kernel
      {|#pragma gpcc output b
__kernel void once_race(float a[1024], float b[1024]) {
  b[idx] = a[idx] + 1.0;
}|}
  in
  let launch = Option.get (Gpcc_passes.Pass_util.naive_launch k) in
  let s = Store.open_root ~root () in
  let results =
    race_domains 4 (fun d ->
        match
          ignore
            (Gpcc_analysis.Analysis_cache.verify_sym
               (Gpcc_analysis.Analysis_cache.domain ())
               ~launch k);
          ignore
            (Gpcc_sim.Launch.run ~mode:Gpcc_sim.Launch.Full Util.cfg280 k launch
               (Gpcc_sim.Devmem.of_kernel k));
          Store.store s text_kind ~key:(Printf.sprintf "once-%d" d) "v"
        with
        | () -> true
        | exception _ -> false)
  in
  if not (List.for_all Fun.id results) then Unix._exit 7;
  let kernels = merged_kernels () in
  let check_all () = List.map Gpcc_analysis.Symverify.check kernels in
  let raced = race_domains 4 (fun _ -> check_all ()) in
  let serial = check_all () in
  Unix._exit (if List.for_all (fun r -> r = serial) raced then 0 else 8)

let test_once_library_values () =
  let root = fresh_root () in
  let env =
    Array.append (Unix.environment ())
      [| "GPCC_CACHE_DIR=" ^ root; "GPCC_JOBS=2" |]
  in
  let pid =
    Unix.create_process_env Sys.executable_name
      [| Sys.executable_name; once_child_arg; root |]
      env Unix.stdin Unix.stdout Unix.stderr
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED c -> Alcotest.failf "racing first use failed (exit %d)" c
  | _ -> Alcotest.fail "child killed"

(* called by the test entry point before Alcotest: in a child process
   (env var "<seed>:<root>") run the stress loop and exit; with
   [once_child_arg] and a root as arguments, race the library's first
   uses and exit *)
let maybe_run_child () =
  (match Sys.argv with
  | [| _; arg; root |] when arg = once_child_arg -> once_child root
  | _ -> ());
  match Sys.getenv_opt child_env_var with
  | None -> ()
  | Some spec -> (
      match String.index_opt spec ':' with
      | Some i -> (
          let seed = int_of_string (String.sub spec 0 i) in
          let root =
            String.sub spec (i + 1) (String.length spec - i - 1)
          in
          try
            stress_child root seed;
            Unix._exit 0
          with _ -> Unix._exit 5)
      | None -> Unix._exit 6)

let test_multiprocess_stress () =
  let root = fresh_root () in
  let children =
    List.init 4 (fun seed ->
        let env =
          Array.append (Unix.environment ())
            [| Printf.sprintf "%s=%d:%s" child_env_var seed root |]
        in
        Unix.create_process_env Sys.executable_name
          [| Sys.executable_name |]
          env Unix.stdin Unix.stdout Unix.stderr)
  in
  List.iter
    (fun pid ->
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, Unix.WEXITED c -> Alcotest.failf "child failed with exit %d" c
      | _ -> Alcotest.fail "child killed")
    children;
  (* no lost updates, no corrupt entries *)
  let s = Store.open_root ~root () in
  for i = 0 to stress_keys - 1 do
    Alcotest.(check (option string))
      (Printf.sprintf "key %d survived" i)
      (Some (stress_value i))
      (Store.find s text_kind ~key:(stress_key i))
  done;
  Alcotest.(check int) "exactly one entry per key" stress_keys
    (Store.entries s);
  (* no tmp litter: everything was renamed in or cleaned up *)
  let d = Store.disk_stats s in
  Alcotest.(check int) "no stray tmp files" 0 d.ds_tmp_files;
  (* byte-identical to a serial run: same relative file names, same
     contents (mtimes aside, which are not part of the format) *)
  let serial_root = fresh_root () in
  let serial = Store.open_root ~root:serial_root () in
  for i = 0 to stress_keys - 1 do
    Store.store serial text_kind ~key:(stress_key i) (stress_value i)
  done;
  let concurrent_files = entry_files root
  and serial_files = entry_files serial_root in
  Alcotest.(check (list string))
    "identical file sets"
    (List.map fst serial_files)
    (List.map fst concurrent_files);
  List.iter2
    (fun (rel, p_serial) (_, p_concurrent) ->
      Alcotest.(check string)
        (Printf.sprintf "%s byte-identical" rel)
        (read_file p_serial) (read_file p_concurrent))
    serial_files concurrent_files

(* --- in-process concurrency: domains hammering one root --- *)

let test_domain_stress () =
  let root = fresh_root () in
  let worker d () =
    let s = Store.open_root ~root () in
    for i = 0 to 63 do
      let key = Printf.sprintf "dom-%d" (i mod 16) in
      Store.store s text_kind ~key (Printf.sprintf "v-%d" (i mod 16));
      ignore (Store.find s text_kind ~key);
      if i mod 17 = d then ignore (Store.gc s)
    done
  in
  let domains = List.init 4 (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join domains;
  let s = Store.open_root ~root () in
  for i = 0 to 15 do
    Alcotest.(check (option string))
      (Printf.sprintf "dom key %d" i)
      (Some (Printf.sprintf "v-%d" i))
      (Store.find s text_kind ~key:(Printf.sprintf "dom-%d" i))
  done

let suite =
  ( "store",
    [
      Alcotest.test_case "round trip + sharded layout" `Quick
        test_roundtrip_and_layout;
      Alcotest.test_case "corruption reclaimed, collisions kept" `Quick
        test_corruption_and_versioning;
      Alcotest.test_case "root resolution" `Quick test_root_resolution;
      Alcotest.test_case "stale tmp sweep" `Quick test_tmp_sweep;
      Alcotest.test_case "LRU + age eviction" `Quick test_lru_eviction;
      Alcotest.test_case "gc never evicts a same-pass write" `Quick
        test_gc_never_evicts_fresh_write;
      Alcotest.test_case "multi-process stress (fork)" `Slow
        test_multiprocess_stress;
      Alcotest.test_case "multi-domain stress" `Slow test_domain_stress;
      Alcotest.test_case "once: racing domains share one value" `Quick
        test_once_racing_domains;
      Alcotest.test_case "once: library values survive racing first use"
        `Quick test_once_library_values;
    ] )

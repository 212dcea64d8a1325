(** The content-addressed artifact store: the pack layout, recovery,
    root resolution, eviction, and multi-process safety (concurrent,
    killed, forked and unlinked writers); and the domain-safe one-time
    initialization of the library's process-wide values. *)

module Store = Gpcc_util.Store

(* a fresh root, removed when the test ends *)
let with_root f = Util.with_temp_root "gpcc_test_store" f

(* a fixed-width codec so eviction byte-accounting is predictable *)
let text_kind =
  Store.make_kind ~name:"text" ~version:"1"
    ~encode:(fun s -> s)
    ~decode:(fun s -> Some s)

let float_kind =
  Store.make_kind ~name:"fval" ~version:"1"
    ~encode:(fun f -> Printf.sprintf "%h" f)
    ~decode:(fun s -> float_of_string_opt (String.trim s))

let backdate path seconds_ago =
  let t = Unix.gettimeofday () -. seconds_ago in
  Unix.utimes path t t

let mtime path = (Unix.stat path).Unix.st_mtime

(* the one text record under [key] in the store at [root] *)
let record_of root key =
  match
    List.filter
      (fun (r : Util.store_record) -> r.sr_key = key)
      (Util.store_records ~root ~kind:"text" key)
  with
  | [ r ] -> r
  | rs -> Alcotest.failf "%d records under %s" (List.length rs) key

(* --- store operations in a fresh process --- *)

(* Several cases need a second process on one root: its own pack, its
   own index, its own pid. The test re-execs this executable with
   [store_op_arg], a root and a list of operations, and the entry point
   diverts into {!run_store_ops} before Alcotest. The child exits 0
   when every operation did what it expected. *)
let store_op_arg = "store-op"

(* the killed writer's records: large enough that one record takes
   several [write] calls, so the writer can be stopped inside one *)
let torn_key i = Printf.sprintf "torn-%04d" i
let torn_payload = String.make (512 * 1024) 't'
let torn_records = 64

let torn_len =
  String.length
    (Printf.sprintf "gpcc-store-v1 text 1 %d %d\n"
       (String.length (torn_key 0))
       (String.length torn_payload))
  + String.length (torn_key 0)
  + String.length torn_payload

let rec run_ops s = function
  | [] -> ()
  | "put" :: key :: v :: rest ->
      Store.store s text_kind ~key v;
      run_ops s rest
  | "expect" :: key :: v :: rest ->
      if Store.find s text_kind ~key <> Some v then Unix._exit 10;
      run_ops s rest
  | "expect-miss" :: key :: rest ->
      if Store.find s text_kind ~key <> None then Unix._exit 11;
      run_ops s rest
  | "clear" :: rest ->
      Store.clear s;
      run_ops s rest
  | "fork-put" :: key :: v :: rest ->
      (* the child stores through the handle it inherited *)
      (match Unix.fork () with
      | 0 -> (
          match Store.store s text_kind ~key v with
          | () -> Unix._exit 0
          | exception _ -> Unix._exit 14)
      | pid -> (
          match Unix.waitpid [] pid with
          | _, Unix.WEXITED 0 -> ()
          | _ -> Unix._exit 15));
      run_ops s rest
  | [ "torn-writer" ] ->
      (* stores until killed: finishing means it never was stopped
         mid-record *)
      for i = 0 to torn_records - 1 do
        Store.store s text_kind ~key:(torn_key i) torn_payload
      done
  | _ -> Unix._exit 12

let run_store_ops root ops =
  (match run_ops (Store.open_root ~root ()) ops with
  | () -> ()
  | exception _ -> Unix._exit 13);
  Unix._exit 0

let spawn_store_ops root ops =
  Unix.create_process Sys.executable_name
    (Array.of_list (Sys.executable_name :: store_op_arg :: root :: ops))
    Unix.stdin Unix.stdout Unix.stderr

let store_ops root ops =
  match Unix.waitpid [] (spawn_store_ops root ops) with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED c ->
      Alcotest.failf "store-op %s failed (exit %d)" (String.concat " " ops) c
  | _ -> Alcotest.fail "store-op child killed"

(* --- round trip, pack layout, typed kinds --- *)

let test_roundtrip_and_layout () =
  with_root @@ fun root ->
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
  (* layout: the lock file and one pack for this process,
     <pid>-<6 hex>.pack, whose bytes are its records back to back *)
  let pack =
    match List.sort compare (Array.to_list (Sys.readdir root)) with
    | [ ".lock"; pack ] -> pack
    | names -> Alcotest.failf "root holds %s" (String.concat " " names)
  in
  let prefix = string_of_int (Unix.getpid ()) ^ "-" in
  let p = String.length prefix in
  Alcotest.(check string) "named by the pid" prefix (String.sub pack 0 p);
  Alcotest.(check string)
    "then six hex digits" ".pack"
    (String.sub pack (p + 6) (String.length pack - p - 6));
  Alcotest.(check bool)
    "hex suffix" true
    (String.for_all
       (function 'a' .. 'f' | '0' .. '9' -> true | _ -> false)
       (String.sub pack p 6));
  Alcotest.(check string)
    "records back to back"
    ("gpcc-store-v1 text 1 2 5\nk1hello"
    ^ Printf.sprintf "gpcc-store-v1 fval 1 2 %d\nk1%s"
        (String.length (Printf.sprintf "%h" 42.5))
        (Printf.sprintf "%h" 42.5))
    (Util.read_file (Filename.concat root pack));
  Alcotest.(check int) "two entries on disk" 2 (Store.entries s);
  Alcotest.(check int) "one text entry" 1 (Store.entries ~kind:"text" s);
  (* a record stored again is one entry, however many packs hold it *)
  Store.store s text_kind ~key:"k1" "hello";
  let d = Store.disk_stats s in
  Alcotest.(check int) "disk_stats entries" 2 d.ds_entries;
  Alcotest.(check int) "disk_stats kinds" 2 (List.length d.ds_kinds);
  Alcotest.(check int) "disk_stats packs" 1 d.ds_packs;
  Alcotest.(check int)
    "disk_stats bytes: one of each record"
    (String.length (Util.read_file (Filename.concat root pack))
    - String.length "gpcc-store-v1 text 1 2 5\nk1hello")
    d.ds_bytes;
  (* a fresh handle reads the same bytes back *)
  let s2 = Store.open_root ~root () in
  Alcotest.(check (option string))
    "fresh handle" (Some "hello")
    (Store.find s2 text_kind ~key:"k1");
  Store.clear ~kind:"text" s2;
  Alcotest.(check int) "kind-filtered clear" 0 (Store.entries ~kind:"text" s2);
  Alcotest.(check int) "other kind untouched" 1
    (Store.entries ~kind:"fval" s2);
  Alcotest.(check bool)
    "the pack was replaced by one of its other records" true
    (match Util.pack_files root with
    | [ p' ] ->
        Filename.basename p' <> pack
        && List.map
             (fun (r : Util.store_record) -> r.sr_kind)
             (Util.pack_records p')
           = [ "fval" ]
        && Util.pack_is_records p'
    | _ -> false);
  Alcotest.(check bool)
    "the cleared kind is a miss" true
    (Store.find s text_kind ~key:"k1" = None
    && Store.find s float_kind ~key:"k1" = Some 42.5);
  Store.clear s2;
  Alcotest.(check int) "full clear" 0 (Store.entries s2);
  Alcotest.(check (list string))
    "only the lock file is left" [ ".lock" ]
    (Array.to_list (Sys.readdir root))

(* --- corruption is skipped and reclaimed; collisions are kept --- *)

let test_corruption_and_versioning () =
  with_root @@ fun root ->
  let s = Store.open_root ~root () in
  Store.store s float_kind ~key:"f" 1.5;
  Store.store s text_kind ~key:"k2" "neighbour";
  Store.store s text_kind ~key:"k1" "payload";
  let newest () =
    match List.rev (Util.store_records ~root ~kind:"text" "k1") with
    | r :: _ -> r
    | [] -> Alcotest.fail "no k1 record"
  in
  let restore () = Store.store s text_kind ~key:"k1" "payload" in
  let miss what =
    Alcotest.(check (option string))
      (what ^ " is a miss") None
      (Store.find s text_kind ~key:"k1")
  in
  (* a damaged or torn record is a miss, and the artifact is stored
     again after it *)
  List.iter
    (fun (what, content) ->
      Util.overwrite_record (newest ()) content;
      miss what;
      restore ())
    [
      ("torn record", "");
      ("truncated payload", "gpcc-store-v1 text 1 2 7\nk1");
      ("lengths past the end", "gpcc-store-v1 text 1 2 9\nk1payload");
      ("wrong format version", "gpcc-store-v0 text 1 2 7\nk1payload");
      ("record then garbage", "gpcc-store-v1 text 1 2 7\nk1payloadEXTRA");
    ];
  (* a fresh process lists the pack and reads past every damaged
     stretch: the newest k1 and the neighbour are served, and no
     stretch is taken for a record *)
  store_ops root [ "expect"; "k1"; "payload"; "expect"; "k2"; "neighbour" ];
  Alcotest.(check bool)
    "damaged stretches are not records" false
    (List.for_all Util.pack_is_records (Util.pack_files root));
  (* a well-formed record of a different key where k1's index entry
     points (as under a hash collision) is a miss and is kept *)
  let r = newest () in
  Util.overwrite_record r (Util.envelope { r with sr_key = "kX" } "payload");
  miss "foreign key";
  Alcotest.(check int) "foreign record kept" 1
    (List.length (Util.store_records ~root ~kind:"text" "kX"));
  (* gc rewrites the pack with its complete records: the damage goes,
     the foreign record and the neighbours stay *)
  List.iter (fun p -> backdate p 60.) (Util.pack_files root);
  ignore (Store.gc s);
  Alcotest.(check bool)
    "gc reclaims the damaged stretches" true
    (List.for_all Util.pack_is_records (Util.pack_files root));
  Alcotest.(check int) "foreign record survives gc" 1
    (List.length (Util.store_records ~root ~kind:"text" "kX"));
  Alcotest.(check bool)
    "neighbours survive gc" true
    (Store.find s text_kind ~key:"k2" = Some "neighbour"
    && Store.find s float_kind ~key:"f" = Some 1.5);
  (* a codec version bump addresses different records entirely *)
  let text_v2 =
    Store.make_kind ~name:"text" ~version:"2"
      ~encode:(fun s -> s)
      ~decode:(fun s -> Some s)
  in
  restore ();
  Alcotest.(check (option string))
    "old codec version is invisible to the new one" None
    (Store.find s text_v2 ~key:"k1");
  Alcotest.(check (option string))
    "old records still served to the old codec" (Some "payload")
    (Store.find s text_kind ~key:"k1");
  (* clear reclaims a kind, records of the others are copied *)
  Store.clear ~kind:"text" s;
  Alcotest.(check bool)
    "clear keeps the other kind" true
    (Store.entries s = 1
    && Store.find s float_kind ~key:"f" = Some 1.5
    && List.for_all Util.pack_is_records (Util.pack_files root))

(* --- root resolution --- *)

let test_root_resolution () =
  (* the env override must not leak between cases: empty = unset *)
  let saved = Sys.getenv_opt "GPCC_CACHE_DIR" in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "GPCC_CACHE_DIR" (Option.value saved ~default:""))
    (fun () ->
      Unix.putenv "GPCC_CACHE_DIR" "";
      Util.with_temp_root "gpcc_test_root" @@ fun top ->
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

(* --- the earlier sharded layout and its temp files are swept --- *)

let test_tmp_sweep () =
  with_root @@ fun root ->
  let s = Store.open_root ~root () in
  Store.store s text_kind ~key:"live" "v";
  let make dir name age =
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let p = Filename.concat dir name in
    let oc = open_out_bin p in
    output_string oc "gpcc-store-v1 text 1 4 1\nlivev";
    close_out oc;
    backdate p age;
    p
  in
  (* the sharded layout: entries in two-hex-digit shards, temp files
     beside them and at the root *)
  let shard = Filename.concat root "ab" and other = Filename.concat root "cd" in
  let entry = make shard "cdef0123456789abcdef0123456789.text" 10. in
  let old1 = make root "deadbeef.score.tmp.1234.0" 7200. in
  let old2 = make shard "cafe.text.tmp.99.3.ab12cd" 7200. in
  let fresh = make other "face.text.tmp.99.4.ef34ab" 10. in
  Alcotest.(check int) "three legacy temp files" 3
    (Store.disk_stats s).ds_tmp_files;
  Alcotest.(check int) "sharded entries are not records" 1 (Store.entries s);
  let g = Store.gc ~tmp_ttl_s:3600. s in
  Alcotest.(check int) "two stale tmps swept" 2 g.gc_swept_tmps;
  Alcotest.(check bool) "sharded entry gone" false (Sys.file_exists entry);
  Alcotest.(check bool) "old root tmp gone" false (Sys.file_exists old1);
  Alcotest.(check bool) "old shard tmp gone" false (Sys.file_exists old2);
  Alcotest.(check bool) "emptied shard removed" false (Sys.file_exists shard);
  Alcotest.(check bool) "fresh tmp kept" true (Sys.file_exists fresh);
  Alcotest.(check int) "one legacy temp file left" 1
    (Store.disk_stats s).ds_tmp_files;
  Alcotest.(check (option string))
    "live record untouched" (Some "v")
    (Store.find s text_kind ~key:"live")

(* --- LRU eviction of packs under a byte budget --- *)

let test_lru_eviction () =
  with_root @@ fun root ->
  (* three packs of identical size, one record each, with distinct ages *)
  let payload = String.make 100 'x' in
  List.iter (fun k -> store_ops root [ "put"; k; payload ]) [ "e1"; "e2"; "e3" ];
  let pack_of k = (record_of root k).sr_pack in
  backdate (pack_of "e1") 300.;
  backdate (pack_of "e2") 200.;
  backdate (pack_of "e3") 100.;
  let s = Store.open_root ~root () in
  (* a read hit touches e1's pack: it becomes the most recent *)
  ignore (Store.find s text_kind ~key:"e1");
  Alcotest.(check bool)
    "a hit touches its pack" true
    (mtime (pack_of "e1") > Unix.gettimeofday () -. 50.);
  (* once per handle: the next hit leaves the clock alone *)
  backdate (pack_of "e1") 300.;
  ignore (Store.find s text_kind ~key:"e1");
  Alcotest.(check bool)
    "touched once per handle" true
    (mtime (pack_of "e1") < Unix.gettimeofday () -. 250.);
  (* a fresh handle touches it again *)
  ignore (Store.find (Store.open_root ~root ()) text_kind ~key:"e1");
  let size = (Unix.stat (pack_of "e2")).st_size in
  let before = Store.global_evictions () in
  (* budget for exactly two packs: the least-recently-used (e2) goes *)
  let g = Store.gc ~max_bytes:(2 * size) s in
  Alcotest.(check int) "one entry evicted" 1 g.gc_evicted;
  Alcotest.(check int) "its pack's bytes" size g.gc_evicted_bytes;
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
  (* age policy: every pack older than 50s goes (both survivors are) *)
  backdate (pack_of "e1") 300.;
  backdate (pack_of "e3") 100.;
  let g = Store.gc ~max_age_s:50. s in
  Alcotest.(check int) "age policy evicted the rest" 2 g.gc_evicted;
  Alcotest.(check int) "store is empty" 0 (Store.entries s);
  Alcotest.(check int) "no pack left" 0 (List.length (Util.pack_files root))

(* --- eviction never removes a pack written during the GC pass --- *)

let test_gc_never_evicts_fresh_write () =
  with_root @@ fun root ->
  let s = Store.open_root ~root () in
  Store.store s text_kind ~key:"fresh" "just written";
  (* simulate a pass that started before the write by backdating [now]:
     the pack's mtime is >= pass start, so even a zero-byte budget and
     a zero age limit must not touch it *)
  let pass_start = Unix.gettimeofday () -. 30. in
  let g = Store.gc ~max_bytes:0 ~max_age_s:0. ~now:pass_start s in
  Alcotest.(check int) "nothing evicted" 0 g.gc_evicted;
  Alcotest.(check (option string))
    "entry written during the pass survives" (Some "just written")
    (Store.find s text_kind ~key:"fresh");
  (* the same pass evicts the pack once it was last written before *)
  List.iter (fun p -> backdate p 60.) (Util.pack_files root);
  let g = Store.gc ~max_bytes:0 ~now:pass_start s in
  Alcotest.(check int) "an older pack is evicted" 1 g.gc_evicted

(* --- gc keeps one copy of each record --- *)

(* Two processes that store the same keys leave a copy of each record
   in each pack, and the first also stores one key twice. Once both have
   exited, gc keeps one copy: the newer pack is left as it is, the older
   one keeps only its one record of its own, so the kept packs are the
   distinct records byte for byte, and every key still reads. *)
let test_gc_one_copy () =
  with_root @@ fun root ->
  let keys = List.init 8 (Printf.sprintf "dup-%d") in
  let puts = List.concat_map (fun k -> [ "put"; k; "v-" ^ k ]) keys in
  store_ops root (("put" :: "first" :: "f" :: puts) @ [ "put"; "first"; "f" ]);
  let older = List.hd (Util.pack_files root) in
  store_ops root (puts @ [ "put"; "second"; "s" ]);
  let newer = List.find (fun p -> p <> older) (Util.pack_files root) in
  backdate older 120.;
  backdate newer 60.;
  let s = Store.open_root ~root () in
  let distinct = (Store.disk_stats s).ds_bytes in
  let g = Store.gc s in
  Alcotest.(check int) "every record kept" 10 g.gc_live;
  Alcotest.(check int) "live bytes are the distinct records" distinct
    g.gc_live_bytes;
  Alcotest.(check int) "as disk_stats counts them" distinct
    (Store.disk_stats s).ds_bytes;
  Alcotest.(check (list (list string)))
    "the newer pack as written, the older one with its own record"
    [ keys @ [ "second" ]; [ "first" ] ]
    (List.sort compare
       (List.map
          (fun p ->
            List.map
              (fun (r : Util.store_record) -> r.sr_key)
              (Util.pack_records p))
          (Util.pack_files root)));
  Alcotest.(check bool) "the newer pack untouched" true (Sys.file_exists newer);
  List.iter
    (fun (k, v) ->
      Alcotest.(check (option string))
        k (Some v)
        (Store.find s text_kind ~key:k))
    (("first", "f") :: ("second", "s")
    :: List.map (fun k -> (k, "v-" ^ k)) keys)

(* --- multi-process stress --- *)

(* Deterministic final state: every child writes the same value for the
   same key, so any interleaving of N children must converge to the
   same records a serial writer produces. The children are fresh copies
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
      (* and the occasional concurrent GC (no budget: no eviction) *)
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

let test_multiprocess_stress () =
  with_root @@ fun root ->
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
  (* no lost updates, no corrupt records: a fresh handle reads every key
     back once *)
  let s = Store.open_root ~root () in
  for i = 0 to stress_keys - 1 do
    Alcotest.(check (option string))
      (Printf.sprintf "key %d survived" i)
      (Some (stress_value i))
      (Store.find s text_kind ~key:(stress_key i))
  done;
  Alcotest.(check int) "one entry per key" stress_keys (Store.entries s);
  (* one pack per writing process, each exactly its records, and no
     temp file or directory *)
  let packs = Util.pack_files root in
  Alcotest.(check int) "one pack per child" 4 (List.length packs);
  Alcotest.(check bool)
    "packs are records back to back" true
    (List.for_all Util.pack_is_records packs);
  Alcotest.(check int)
    "nothing but the lock and the packs" 5
    (Array.length (Sys.readdir root));
  (* each child's pack holds the records a serial run writes, byte for
     byte, in the child's order *)
  with_root @@ fun serial_root ->
  let serial = Store.open_root ~root:serial_root () in
  for i = 0 to stress_keys - 1 do
    Store.store serial text_kind ~key:(stress_key i) (stress_value i)
  done;
  let serial_pack = Util.read_file (List.hd (Util.pack_files serial_root)) in
  let bytes_of (r : Util.store_record) =
    String.sub (Util.read_file r.sr_pack) r.sr_off r.sr_len
  in
  let serial_record key = bytes_of (record_of serial_root key) in
  List.iter
    (fun pack ->
      let records = Util.pack_records pack in
      Alcotest.(check int) "every key once per pack" stress_keys
        (List.length records);
      List.iter
        (fun (r : Util.store_record) ->
          Alcotest.(check string)
            (Printf.sprintf "%s byte-identical" r.sr_key)
            (serial_record r.sr_key) (bytes_of r))
        records)
    packs;
  Alcotest.(check int)
    "serial pack size" (String.length serial_pack)
    (String.length (Util.read_file (List.hd packs)))

(* --- a writer killed mid-record --- *)

(* A writer stopped while its record is half on disk, then killed: a
   fresh handle hits every record it completed and misses the torn one,
   a later writer's records (the torn key among them) read back, and gc
   rewrites the torn pack with its complete records. *)
let test_killed_writer () =
  with_root @@ fun root ->
  let pid = spawn_store_ops root [ "torn-writer" ] in
  let pack_size () =
    match Util.pack_files root with
    | [ p ] -> (Unix.stat p).st_size
    | _ -> 0
  in
  let rec stop_mid_record tries =
    if tries = 0 then Alcotest.fail "never stopped the writer mid-record";
    Unix.kill pid Sys.sigstop;
    (match Unix.waitpid [ Unix.WUNTRACED ] pid with
    | _, Unix.WSTOPPED _ -> ()
    | _ -> Alcotest.fail "the writer finished before it was stopped mid-record");
    let size = pack_size () in
    if size > 2 * torn_len && size mod torn_len <> 0 then begin
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      size
    end
    else begin
      Unix.kill pid Sys.sigcont;
      Unix.sleepf 0.0002;
      stop_mid_record (tries - 1)
    end
  in
  let complete = stop_mid_record 5000 / torn_len in
  let s = Store.open_root ~root () in
  for i = 0 to complete - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "complete record %d hits" i)
      true
      (Store.find s text_kind ~key:(torn_key i) = Some torn_payload)
  done;
  Alcotest.(check bool)
    "the torn record misses" true
    (Store.find s text_kind ~key:(torn_key complete) = None);
  store_ops root [ "put"; "later"; "v"; "put"; torn_key complete; "again" ];
  Alcotest.(check (option string))
    "a later writer's record reads back" (Some "v")
    (Store.find s text_kind ~key:"later");
  Alcotest.(check (option string))
    "the torn key stored again" (Some "again")
    (Store.find s text_kind ~key:(torn_key complete));
  List.iter (fun p -> backdate p 60.) (Util.pack_files root);
  ignore (Store.gc s);
  Alcotest.(check bool)
    "gc drops the torn tail" true
    (List.for_all Util.pack_is_records (Util.pack_files root));
  Alcotest.(check int)
    "and keeps every complete record" (complete + 2) (Store.entries s);
  Store.clear s

(* --- a forked child writes its own pack --- *)

let test_forked_writer () =
  with_root @@ fun root ->
  store_ops root
    [ "put"; "parent-1"; "p1"; "fork-put"; "child-1"; "c1"; "put"; "parent-2"; "p2" ];
  let keys pack =
    List.map (fun (r : Util.store_record) -> r.sr_key) (Util.pack_records pack)
  in
  Alcotest.(check (list (list string)))
    "the child wrote a pack of its own; the parent's holds only its records"
    [ [ "child-1" ]; [ "parent-1"; "parent-2" ] ]
    (List.sort compare (List.map keys (Util.pack_files root)));
  let s = Store.open_root ~root () in
  List.iter
    (fun (k, v) ->
      Alcotest.(check (option string)) k (Some v) (Store.find s text_kind ~key:k))
    [ ("parent-1", "p1"); ("child-1", "c1"); ("parent-2", "p2") ]

(* --- a live handle whose pack was unlinked --- *)

let test_unlinked_pack () =
  with_root @@ fun root ->
  let s = Store.open_root ~root () in
  Store.store s text_kind ~key:"before" "b";
  (* another process clears the store, unlinking this process's pack *)
  store_ops root [ "clear" ];
  Alcotest.(check int) "the pack is gone" 0 (List.length (Util.pack_files root));
  Store.store s text_kind ~key:"after" "a";
  Alcotest.(check int) "the next record starts a new pack" 1
    (List.length (Util.pack_files root));
  store_ops root [ "expect"; "after"; "a"; "expect-miss"; "before" ]

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
   domain's pack-name generator) are first used inside a fresh child
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
  with_root @@ fun root ->
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
   uses and exit; with [store_op_arg], a root and operations, run them
   and exit *)
let maybe_run_child () =
  (match Array.to_list Sys.argv with
  | [ _; arg; root ] when arg = once_child_arg -> once_child root
  | _ :: arg :: root :: ops when arg = store_op_arg -> run_store_ops root ops
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

(* --- in-process concurrency: domains hammering one root --- *)

let test_domain_stress () =
  with_root @@ fun root ->
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
      Alcotest.test_case "round trip + pack layout" `Quick
        test_roundtrip_and_layout;
      Alcotest.test_case "corruption reclaimed, collisions kept" `Quick
        test_corruption_and_versioning;
      Alcotest.test_case "root resolution" `Quick test_root_resolution;
      Alcotest.test_case "stale tmp sweep" `Quick test_tmp_sweep;
      Alcotest.test_case "LRU + age eviction" `Quick test_lru_eviction;
      Alcotest.test_case "gc never evicts a same-pass write" `Quick
        test_gc_never_evicts_fresh_write;
      Alcotest.test_case "gc keeps one copy of each record" `Quick
        test_gc_one_copy;
      Alcotest.test_case "multi-process stress (fork)" `Slow
        test_multiprocess_stress;
      Alcotest.test_case "multi-domain stress" `Slow test_domain_stress;
      Alcotest.test_case "killed writer: torn record misses" `Quick
        test_killed_writer;
      Alcotest.test_case "forked writer: a pack of its own" `Quick
        test_forked_writer;
      Alcotest.test_case "unlinked pack: next record kept" `Quick
        test_unlinked_pack;
      Alcotest.test_case "once: racing domains share one value" `Quick
        test_once_racing_domains;
      Alcotest.test_case "once: library values survive racing first use"
        `Quick test_once_library_values;
    ] )

(** Content-addressed artifact store. See the mli for the layout,
    locking protocol, eviction policy and versioning story. *)

(* bump when the on-disk envelope changes: old files stop resolving
   (their digests no longer match) and age out through the GC *)
let format_version = "gpcc-store-v1"

(* ------------------------------------------------------------------ *)
(* Process-global counters                                             *)
(* ------------------------------------------------------------------ *)

let hit_counter = Atomic.make 0
let miss_counter = Atomic.make 0
let eviction_counter = Atomic.make 0
let contention_counter = Atomic.make 0
let global_hits () = Atomic.get hit_counter
let global_misses () = Atomic.get miss_counter
let global_evictions () = Atomic.get eviction_counter
let global_lock_contention () = Atomic.get contention_counter

(* ------------------------------------------------------------------ *)
(* Advisory locking: lockf across processes, a readers-writer monitor  *)
(* across domains of this process (POSIX record locks do not exclude   *)
(* the owning process from itself)                                     *)
(* ------------------------------------------------------------------ *)

module Lock = struct
  type state = {
    lock_path : string;
    m : Mutex.t;
    cv : Condition.t;
    mutable fd : Unix.file_descr option;
    mutable readers : int;
    mutable writer : bool;
    mutable waiting_writers : int;
  }

  (* one state per store root, shared by every handle in the process so
     the in-process monitor actually excludes concurrent handles *)
  let registry : (string, state) Hashtbl.t = Hashtbl.create 8
  let registry_mutex = Mutex.create ()

  let for_root (root : string) : state =
    let key = try Unix.realpath root with Unix.Unix_error _ -> root in
    Mutex.lock registry_mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock registry_mutex)
      (fun () ->
        match Hashtbl.find_opt registry key with
        | Some s -> s
        | None ->
            let s =
              {
                lock_path = Filename.concat root ".lock";
                m = Mutex.create ();
                cv = Condition.create ();
                fd = None;
                readers = 0;
                writer = false;
                waiting_writers = 0;
              }
            in
            Hashtbl.add registry key s;
            s)

  (* the fd stays open for the life of the process: closing any fd on a
     lockf-locked file would drop the process's locks *)
  let fd_of (s : state) : Unix.file_descr =
    match s.fd with
    | Some fd -> fd
    | None ->
        let fd =
          Unix.openfile s.lock_path
            [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ]
            0o644
        in
        s.fd <- Some fd;
        fd

  (* best-effort: a filesystem without record locks (some network
     mounts) degrades to in-process safety plus atomic renames *)
  let file_lock (s : state) ~(try_cmd : Unix.lock_command)
      ~(block_cmd : Unix.lock_command) : unit =
    match fd_of s with
    | exception Unix.Unix_error _ -> ()
    | fd -> (
        ignore (Unix.lseek fd 0 Unix.SEEK_SET);
        try Unix.lockf fd try_cmd 0
        with
        | Unix.Unix_error ((EAGAIN | EACCES | EWOULDBLOCK), _, _) -> (
            Atomic.incr contention_counter;
            try Unix.lockf fd block_cmd 0 with Unix.Unix_error _ -> ())
        | Unix.Unix_error _ -> ())

  let file_unlock (s : state) : unit =
    match s.fd with
    | None -> ()
    | Some fd -> (
        ignore (Unix.lseek fd 0 Unix.SEEK_SET);
        try Unix.lockf fd Unix.F_ULOCK 0 with Unix.Unix_error _ -> ())

  let acquire_shared (s : state) : unit =
    Mutex.lock s.m;
    if s.writer || s.waiting_writers > 0 then begin
      Atomic.incr contention_counter;
      while s.writer || s.waiting_writers > 0 do
        Condition.wait s.cv s.m
      done
    end;
    s.readers <- s.readers + 1;
    if s.readers = 1 then
      file_lock s ~try_cmd:Unix.F_TRLOCK ~block_cmd:Unix.F_RLOCK;
    Mutex.unlock s.m

  let release_shared (s : state) : unit =
    Mutex.lock s.m;
    s.readers <- s.readers - 1;
    if s.readers = 0 then file_unlock s;
    Condition.broadcast s.cv;
    Mutex.unlock s.m

  let acquire_exclusive (s : state) : unit =
    Mutex.lock s.m;
    s.waiting_writers <- s.waiting_writers + 1;
    if s.readers > 0 || s.writer then begin
      Atomic.incr contention_counter;
      while s.readers > 0 || s.writer do
        Condition.wait s.cv s.m
      done
    end;
    s.waiting_writers <- s.waiting_writers - 1;
    s.writer <- true;
    file_lock s ~try_cmd:Unix.F_TLOCK ~block_cmd:Unix.F_LOCK;
    Mutex.unlock s.m

  let release_exclusive (s : state) : unit =
    Mutex.lock s.m;
    s.writer <- false;
    file_unlock s;
    Condition.broadcast s.cv;
    Mutex.unlock s.m

  let with_shared (s : state) (f : unit -> 'a) : 'a =
    acquire_shared s;
    Fun.protect ~finally:(fun () -> release_shared s) f

  let with_exclusive (s : state) (f : unit -> 'a) : 'a =
    acquire_exclusive s;
    Fun.protect ~finally:(fun () -> release_exclusive s) f
end

(* ------------------------------------------------------------------ *)
(* Kinds                                                               *)
(* ------------------------------------------------------------------ *)

type 'a kind = {
  k_name : string;
  k_version : string;
  k_encode : 'a -> string;
  k_decode : string -> 'a option;
}

let valid_token (s : string) : bool =
  s <> ""
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> true
         | _ -> false)
       s

let make_kind ~name ~version ~encode ~decode : _ kind =
  if not (valid_token name) then
    invalid_arg (Printf.sprintf "Store.make_kind: bad kind name %S" name);
  if not (valid_token version) then
    invalid_arg
      (Printf.sprintf "Store.make_kind: bad kind version %S" version);
  { k_name = name; k_version = version; k_encode = encode; k_decode = decode }

let kind_name (k : _ kind) = k.k_name

(* ------------------------------------------------------------------ *)
(* Roots                                                               *)
(* ------------------------------------------------------------------ *)

let cache_dir_name = "_gpcc_cache"

let resolve_root ?cwd () : string =
  match Sys.getenv_opt "GPCC_CACHE_DIR" with
  | Some d when String.trim d <> "" -> d
  | _ ->
      let cwd = match cwd with Some c -> c | None -> Sys.getcwd () in
      let marked d =
        Sys.file_exists (Filename.concat d "dune-project")
        || Sys.file_exists (Filename.concat d ".git")
      in
      let rec up d =
        if marked d then Some d
        else
          let parent = Filename.dirname d in
          if String.equal parent d then None else up parent
      in
      Filename.concat (Option.value (up cwd) ~default:cwd) cache_dir_name

let default_root () = resolve_root ()

let default_max_bytes () : int option =
  match Sys.getenv_opt "GPCC_CACHE_MAX_MB" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some mb when mb > 0 -> Some (mb * 1024 * 1024)
      | _ -> None)

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Sys.mkdir path 0o755
    with Sys_error _ when Sys.file_exists path -> ()
  end

type t = {
  t_root : string;
  t_lock : Lock.state;
  t_hits : int Atomic.t;
  t_misses : int Atomic.t;
}

let root (t : t) = t.t_root
let hits (t : t) = Atomic.get t.t_hits
let misses (t : t) = Atomic.get t.t_misses

(* ------------------------------------------------------------------ *)
(* Paths                                                               *)
(* ------------------------------------------------------------------ *)

let digest_hex (kind : _ kind) (key : string) : string =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [ format_version; kind.k_name; kind.k_version; key ]))

let shard_of_hex (hex : string) = String.sub hex 0 2

let path_of (t : t) (kind : _ kind) (key : string) : string =
  let hex = digest_hex kind key in
  Filename.concat
    (Filename.concat t.t_root (shard_of_hex hex))
    (String.sub hex 2 (String.length hex - 2) ^ "." ^ kind.k_name)

let is_shard_dir (name : string) : bool =
  String.length name = 2
  && String.for_all
       (function 'a' .. 'f' | '0' .. '9' -> true | _ -> false)
       name

(* temp names carry ".tmp." so a sweep can recognize strays by name *)
let is_tmp_name (name : string) : bool =
  let marker = ".tmp." in
  let n = String.length name and m = String.length marker in
  let rec scan i =
    i + m <= n && (String.equal (String.sub name i m) marker || scan (i + 1))
  in
  scan 0

let tmp_seq = Atomic.make 0

(* pid + sequence + random suffix: unique across concurrent processes
   (pid), within the process (sequence), and across pid reuse after a
   crash (random) — no per-process counter file to coordinate. Each
   domain draws from its own generator: a [Random.State.t] must not be
   shared between domains. *)
let random_suffix = Domain.DLS.new_key Random.State.make_self_init

let fresh_tmp_path (path : string) : string =
  Printf.sprintf "%s.tmp.%d.%d.%06x" path (Unix.getpid ())
    (Atomic.fetch_and_add tmp_seq 1)
    (Random.State.bits (Domain.DLS.get random_suffix) land 0xFFFFFF)

(* ------------------------------------------------------------------ *)
(* Entry envelope                                                      *)
(* ------------------------------------------------------------------ *)

(* <format_version> <kind> <kind-version> <key bytes> <payload bytes>\n
   followed by the raw key then the raw payload; the explicit lengths
   make truncation detectable before the payload is ever decoded *)
let encode_entry (kind : _ kind) ~(key : string) ~(payload : string) : string
    =
  let b = Buffer.create (String.length key + String.length payload + 64) in
  Buffer.add_string b
    (Printf.sprintf "%s %s %s %d %d\n" format_version kind.k_name
       kind.k_version (String.length key) (String.length payload));
  Buffer.add_string b key;
  Buffer.add_string b payload;
  Buffer.contents b

type entry_read =
  | Hit of string  (** the payload *)
  | Foreign  (** a different key (digest collision): keep, miss *)
  | Corrupt  (** torn / truncated / wrong format: reclaim, miss *)
  | Absent

let read_entry (kind : _ kind) ~(key : string) (path : string) : entry_read =
  match open_in_bin path with
  | exception Sys_error _ -> Absent
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match input_line ic with
          | exception End_of_file -> Corrupt
          | header -> (
              match String.split_on_char ' ' header with
              | [ fmt; kname; kver; klen; plen ]
                when String.equal fmt format_version
                     && String.equal kname kind.k_name
                     && String.equal kver kind.k_version -> (
                  match (int_of_string_opt klen, int_of_string_opt plen) with
                  | Some klen, Some plen when klen >= 0 && plen >= 0 -> (
                      match
                        let stored_key = really_input_string ic klen in
                        let payload = really_input_string ic plen in
                        (stored_key, payload)
                      with
                      | exception End_of_file -> Corrupt
                      | stored_key, _ when not (String.equal stored_key key)
                        ->
                          Foreign
                      | _, payload ->
                          (* trailing bytes mean a torn concatenation *)
                          if pos_in ic <> in_channel_length ic then Corrupt
                          else Hit payload)
                  | _ -> Corrupt)
              | _ -> Corrupt))

(* ------------------------------------------------------------------ *)
(* Scanning                                                            *)
(* ------------------------------------------------------------------ *)

let scan_entries (t : t) :
    (string * int * float) list * (string * float) list =
  (* (entry path, bytes, mtime) and (tmp path, mtime); tmp strays are
     collected at the root level too (pre-store cache layouts kept
     their temp files there) *)
  let entries = ref [] and tmps = ref [] in
  let consider dir name =
    let path = Filename.concat dir name in
    match Unix.lstat path with
    | exception Unix.Unix_error _ -> ()
    | st when st.Unix.st_kind <> Unix.S_REG -> ()
    | st ->
        if is_tmp_name name then tmps := (path, st.Unix.st_mtime) :: !tmps
        else
          entries := (path, st.Unix.st_size, st.Unix.st_mtime) :: !entries
  in
  (match Sys.readdir t.t_root with
  | exception Sys_error _ -> ()
  | names ->
      Array.iter
        (fun name ->
          let sub = Filename.concat t.t_root name in
          if is_shard_dir name && Sys.is_directory sub then (
            match Sys.readdir sub with
            | exception Sys_error _ -> ()
            | files -> Array.iter (consider sub) files)
          else if is_tmp_name name then
            match Unix.lstat sub with
            | exception Unix.Unix_error _ -> ()
            | st when st.Unix.st_kind = Unix.S_REG ->
                tmps := (sub, st.Unix.st_mtime) :: !tmps
            | _ -> ())
        names);
  (!entries, !tmps)

let total_bytes (t : t) : int =
  let entries, _ = scan_entries t in
  List.fold_left (fun a (_, b, _) -> a + b) 0 entries

let ext_of (path : string) : string =
  let base = Filename.basename path in
  match String.rindex_opt base '.' with
  | None -> ""
  | Some i -> String.sub base (i + 1) (String.length base - i - 1)

let entries ?kind (t : t) : int =
  let entries, _ = scan_entries t in
  match kind with
  | None -> List.length entries
  | Some k ->
      List.length
        (List.filter (fun (p, _, _) -> String.equal (ext_of p) k) entries)

type kind_stats = {
  ks_kind : string;
  ks_entries : int;
  ks_bytes : int;
}

type disk_stats = {
  ds_entries : int;
  ds_bytes : int;
  ds_tmp_files : int;
  ds_kinds : kind_stats list;
}

let disk_stats (t : t) : disk_stats =
  let entries, tmps = scan_entries t in
  let by_kind : (string, int * int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (p, bytes, _) ->
      let k = ext_of p in
      let n, b = Option.value (Hashtbl.find_opt by_kind k) ~default:(0, 0) in
      Hashtbl.replace by_kind k (n + 1, b + bytes))
    entries;
  {
    ds_entries = List.length entries;
    ds_bytes = List.fold_left (fun a (_, b, _) -> a + b) 0 entries;
    ds_tmp_files = List.length tmps;
    ds_kinds =
      Hashtbl.fold
        (fun k (n, b) acc ->
          { ks_kind = k; ks_entries = n; ks_bytes = b } :: acc)
        by_kind []
      |> List.sort (fun a b -> compare a.ks_kind b.ks_kind);
  }

(* ------------------------------------------------------------------ *)
(* Eviction                                                            *)
(* ------------------------------------------------------------------ *)

type gc_stats = {
  gc_live : int;
  gc_live_bytes : int;
  gc_evicted : int;
  gc_evicted_bytes : int;
  gc_swept_tmps : int;
}

let default_tmp_ttl_s = 3600.

let remove_if_empty (dir : string) : unit =
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

let gc ?max_bytes ?max_age_s ?(tmp_ttl_s = default_tmp_ttl_s) ?now (t : t) :
    gc_stats =
  let max_bytes =
    match max_bytes with Some _ as b -> b | None -> default_max_bytes ()
  in
  Lock.with_exclusive t.t_lock (fun () ->
      let pass_start =
        match now with Some n -> n | None -> Unix.gettimeofday ()
      in
      let entries, tmps = scan_entries t in
      (* 1. stale temp files: a crashed writer's tmp can never be
         renamed in, so anything older than the TTL is garbage *)
      let swept =
        List.fold_left
          (fun n (path, mtime) ->
            if pass_start -. mtime > tmp_ttl_s then
              match Sys.remove path with
              | () -> n + 1
              | exception Sys_error _ -> n
            else n)
          0 tmps
      in
      let evicted = ref 0 and evicted_bytes = ref 0 in
      let try_evict (path, bytes, _) : bool =
        match Sys.remove path with
        | () ->
            incr evicted;
            evicted_bytes := !evicted_bytes + bytes;
            Atomic.incr eviction_counter;
            remove_if_empty (Filename.dirname path);
            true
        | exception Sys_error _ -> false
      in
      (* entries touched at or after the pass start are pinned: the GC
         must never reclaim what a concurrent writer just renamed in
         (the exclusive lock already serializes against in-flight
         renames; the mtime guard additionally covers the [?now] of a
         backdated test pass and any clock races) *)
      let pinned, evictable =
        List.partition (fun (_, _, mtime) -> mtime >= pass_start) entries
      in
      (* 2. age policy *)
      let evictable =
        match max_age_s with
        | None -> evictable
        | Some age ->
            List.filter
              (fun ((_, _, mtime) as e) ->
                not (pass_start -. mtime > age && try_evict e))
              evictable
      in
      (* 3. size policy: least-recently-touched first *)
      let evictable =
        List.sort (fun (_, _, a) (_, _, b) -> compare a b) evictable
      in
      let live_bytes =
        List.fold_left
          (fun a (_, b, _) -> a + b)
          (List.fold_left (fun a (_, b, _) -> a + b) 0 pinned)
          evictable
      in
      let rec shrink total = function
        | [] -> total
        | ((_, bytes, _) as e) :: rest -> (
            match max_bytes with
            | Some budget when total > budget ->
                shrink (if try_evict e then total - bytes else total) rest
            | _ -> total)
      in
      let live_bytes = shrink live_bytes evictable in
      {
        gc_live = List.length entries - !evicted;
        gc_live_bytes = live_bytes;
        gc_evicted = !evicted;
        gc_evicted_bytes = !evicted_bytes;
        gc_swept_tmps = swept;
      })

(* ------------------------------------------------------------------ *)
(* Opening                                                             *)
(* ------------------------------------------------------------------ *)

let open_root ?root ?(auto_gc = true) () : t =
  let root = match root with Some r -> r | None -> default_root () in
  mkdir_p root;
  let t =
    {
      t_root = root;
      t_lock = Lock.for_root root;
      t_hits = Atomic.make 0;
      t_misses = Atomic.make 0;
    }
  in
  (if auto_gc then
     match default_max_bytes () with
     | Some budget when total_bytes t > budget ->
         ignore (gc ~max_bytes:budget t)
     | _ -> ());
  t

(* ------------------------------------------------------------------ *)
(* Reading and writing                                                 *)
(* ------------------------------------------------------------------ *)

let count_hit (t : t) =
  Atomic.incr t.t_hits;
  Atomic.incr hit_counter

let count_miss (t : t) =
  Atomic.incr t.t_misses;
  Atomic.incr miss_counter

(* a hit advances the entry's LRU clock *)
let touch (path : string) : unit =
  try Unix.utimes path 0.0 0.0 with Unix.Unix_error _ -> ()

let remove_locked (t : t) (path : string) : unit =
  Lock.with_shared t.t_lock (fun () ->
      try Sys.remove path with Sys_error _ -> ())

let find (t : t) (kind : 'a kind) ~(key : string) : 'a option =
  let path = path_of t kind key in
  match read_entry kind ~key path with
  | Absent | Foreign ->
      count_miss t;
      None
  | Corrupt ->
      (* a torn or wrong-format file can never be read again; reclaim
         it so it cannot poison future runs *)
      remove_locked t path;
      count_miss t;
      None
  | Hit payload -> (
      match kind.k_decode payload with
      | Some v ->
          touch path;
          count_hit t;
          Some v
      | None ->
          remove_locked t path;
          count_miss t;
          None)

let store (t : t) (kind : 'a kind) ~(key : string) (v : 'a) : unit =
  let path = path_of t kind key in
  let content = encode_entry kind ~key ~payload:(kind.k_encode v) in
  mkdir_p (Filename.dirname path);
  let tmp = fresh_tmp_path path in
  let oc = open_out_bin tmp in
  (try
     output_string oc content;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Lock.with_shared t.t_lock (fun () ->
      try Sys.rename tmp path
      with Sys_error _ -> (
        (* a racing writer won, or the GC swept our tmp: the entry is
           content-addressed, so the surviving value is equivalent *)
        try Sys.remove tmp with Sys_error _ -> ()))

(* ------------------------------------------------------------------ *)
(* Clearing                                                            *)
(* ------------------------------------------------------------------ *)

let rec remove_tree (path : string) : unit =
  if Sys.is_directory path then begin
    (match Sys.readdir path with
    | exception Sys_error _ -> ()
    | names ->
        Array.iter (fun n -> remove_tree (Filename.concat path n)) names);
    try Unix.rmdir path with Unix.Unix_error _ -> ()
  end
  else try Sys.remove path with Sys_error _ -> ()

let clear ?kind (t : t) : unit =
  Lock.with_exclusive t.t_lock (fun () ->
      match kind with
      | Some k ->
          let entries, _ = scan_entries t in
          List.iter
            (fun (p, _, _) ->
              if String.equal (ext_of p) k then begin
                (try Sys.remove p with Sys_error _ -> ());
                remove_if_empty (Filename.dirname p)
              end)
            entries
      | None -> (
          (* everything goes, including legacy flat-layout files and
             stray temps — but not the lock file, whose inode other
             processes may already hold locks on *)
          match Sys.readdir t.t_root with
          | exception Sys_error _ -> ()
          | names ->
              Array.iter
                (fun n ->
                  if not (String.equal n ".lock") then
                    remove_tree (Filename.concat t.t_root n))
                names))

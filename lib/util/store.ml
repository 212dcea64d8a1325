(** Content-addressed artifact store. See the mli for the layout,
    locking protocol, eviction policy and versioning story. *)

(* bump when the record envelope changes: old records stop parsing and
   age out through the GC *)
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

  let create (root : string) : state =
    {
      lock_path = Filename.concat root ".lock";
      m = Mutex.create ();
      cv = Condition.create ();
      fd = None;
      readers = 0;
      writer = false;
      waiting_writers = 0;
    }

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
     mounts) degrades to in-process safety *)
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

(* ------------------------------------------------------------------ *)
(* Record envelope                                                     *)
(* ------------------------------------------------------------------ *)

(* <format_version> <kind> <kind-version> <key bytes> <payload bytes>\n
   followed by the raw key then the raw payload; the explicit lengths
   make a torn record detectable before the payload is ever decoded,
   and lead a reader from one record of a pack to the next *)
let encode_entry (kind : _ kind) ~(key : string) ~(payload : string) : string
    =
  let b = Buffer.create (String.length key + String.length payload + 64) in
  Buffer.add_string b
    (Printf.sprintf "%s %s %s %d %d\n" format_version kind.k_name
       kind.k_version (String.length key) (String.length payload));
  Buffer.add_string b key;
  Buffer.add_string b payload;
  Buffer.contents b

(* what the index files a record under: records of one kind, version
   and key share it, and the few others that do are told apart by their
   full key when read *)
let hash ~(kind : string) ~(version : string) (key : string) : int =
  Hashtbl.hash (kind, version, key)

type record = {
  r_off : int;  (** where its header starts in the bytes scanned *)
  r_len : int;  (** header, key and payload *)
  r_payload : int;  (** where its payload starts *)
  r_kind : string;
  r_version : string;
  r_key : string;
}

let record_hash (r : record) = hash ~kind:r.r_kind ~version:r.r_version r.r_key

(* a header line is a few dozen bytes; a longer one is damage *)
let header_max = 256

(* the record whose header starts at [pos] of [data], when it is
   well-formed and complete *)
let record_at (data : string) (pos : int) : record option =
  let n = String.length data in
  let rec newline i =
    if i >= n || i - pos > header_max then None
    else if data.[i] = '\n' then Some i
    else newline (i + 1)
  in
  match newline pos with
  | None -> None
  | Some nl -> (
      match String.split_on_char ' ' (String.sub data pos (nl - pos)) with
      | [ fmt; kind; version; klen; plen ]
        when String.equal fmt format_version
             && valid_token kind && valid_token version -> (
          let body = nl + 1 in
          match (int_of_string_opt klen, int_of_string_opt plen) with
          | Some klen, Some plen
            when klen >= 0 && plen >= 0 && klen <= n - body
                 && plen <= n - body - klen ->
              Some
                {
                  r_off = pos;
                  r_len = body + klen + plen - pos;
                  r_payload = body + klen;
                  r_kind = kind;
                  r_version = version;
                  r_key = String.sub data body klen;
                }
          | _ -> None)
      | _ -> None)

let marker = format_version ^ " "

(* the first header marker at or after [from] *)
let next_marker (data : string) (from : int) : int option =
  let n = String.length data and m = String.length marker in
  let rec matches j k = k = m || (data.[j + k] = marker.[k] && matches j (k + 1)) in
  let rec go i =
    if i + m > n then None
    else
      match String.index_from_opt data i marker.[0] with
      | None -> None
      | Some j when j + m <= n && matches j 0 -> Some j
      | Some j -> go (j + 1)
  in
  go from

(* whether what follows a record ending at [e] is the next header, or
   the start of one that a live or killed writer has not finished *)
let followed_by_header (data : string) (e : int) : bool =
  let k = min (String.length marker) (String.length data - e) in
  let rec agree i = i = k || (data.[e + i] = marker.[i] && agree (i + 1)) in
  agree 0

(* The complete records of [data], in order, and the end of the last
   one (0 when there is none). A damaged or torn stretch is skipped up
   to the next header marker, and a record that is not followed by a
   header is taken for one: its lengths may be damaged and run into the
   next record, whose header the skip then finds. *)
let scan (data : string) : record list * int =
  let rec go pos acc last =
    match record_at data pos with
    | Some r when followed_by_header data (pos + r.r_len) ->
        let e = pos + r.r_len in
        go e (r :: acc) e
    | _ -> (
        match next_marker data (pos + 1) with
        | Some q -> go q acc last
        | None -> (List.rev acc, last))
  in
  go 0 [] 0

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let pack_suffix = ".pack"

(* up to [len] bytes of [fd] from [off]: fewer at the end of the file *)
let read_fd (fd : Unix.file_descr) (off : int) (len : int) : string =
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  let buf = Bytes.create len in
  let rec fill n =
    if n = len then n
    else match Unix.read fd buf n (len - n) with 0 -> n | r -> fill (n + r)
  in
  let got = fill 0 in
  if got = len then Bytes.unsafe_to_string buf else Bytes.sub_string buf 0 got

let with_file (path : string) (f : Unix.file_descr -> string) : string option
    =
  match Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error _ -> None
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> try Some (f fd) with Unix.Unix_error _ -> None)

(* the bytes of a file from [off] to its end *)
let read_tail (path : string) (off : int) : string option =
  with_file path (fun fd ->
      let size = (Unix.fstat fd).Unix.st_size in
      if size <= off then "" else read_fd fd off (size - off))

(* the packs under [root]: (name, bytes, mtime), by name *)
let list_packs (root : string) : (string * int * float) list =
  match Sys.readdir root with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names |> List.sort compare
      |> List.filter_map (fun name ->
             if not (Filename.check_suffix name pack_suffix) then None
             else
               match Unix.lstat (Filename.concat root name) with
               | st when st.Unix.st_kind = Unix.S_REG ->
                   Some (name, st.Unix.st_size, st.Unix.st_mtime)
               | _ -> None
               | exception Unix.Unix_error _ -> None)

(* the complete records of a pack, and its bytes *)
let pack_records (root : string) (name : string) :
    (record list * string) option =
  Option.map
    (fun data -> (fst (scan data), data))
    (read_tail (Filename.concat root name) 0)

(* --- earlier layouts: sharded entry files and temp files --- *)

let is_shard_dir (name : string) : bool =
  String.length name = 2
  && String.for_all
       (function 'a' .. 'f' | '0' .. '9' -> true | _ -> false)
       name

(* temp names carried ".tmp." *)
let is_tmp_name (name : string) : bool =
  let marker = ".tmp." in
  let n = String.length name and m = String.length marker in
  let rec at i =
    i + m <= n && (String.equal (String.sub name i m) marker || at (i + 1))
  in
  at 0

(* the sharded layout's entry files, (path, bytes), and the temp files
   of earlier layouts, at the root or in a shard, (path, mtime) *)
let scan_legacy (root : string) :
    (string * int) list * (string * float) list =
  let entries = ref [] and tmps = ref [] in
  let consider dir name =
    let path = Filename.concat dir name in
    match Unix.lstat path with
    | exception Unix.Unix_error _ -> ()
    | st when st.Unix.st_kind <> Unix.S_REG -> ()
    | st ->
        if is_tmp_name name then tmps := (path, st.Unix.st_mtime) :: !tmps
        else if not (String.equal dir root) then
          entries := (path, st.Unix.st_size) :: !entries
  in
  (match Sys.readdir root with
  | exception Sys_error _ -> ()
  | names ->
      Array.iter
        (fun name ->
          let sub = Filename.concat root name in
          if is_shard_dir name && Sys.is_directory sub then (
            match Sys.readdir sub with
            | exception Sys_error _ -> ()
            | files -> Array.iter (consider sub) files)
          else if is_tmp_name name then consider root name)
        names);
  (!entries, !tmps)

let remove_shard_dirs (root : string) : unit =
  match Sys.readdir root with
  | exception Sys_error _ -> ()
  | names ->
      Array.iter
        (fun name ->
          if is_shard_dir name then
            try Unix.rmdir (Filename.concat root name)
            with Unix.Unix_error _ -> ())
        names

(* ------------------------------------------------------------------ *)
(* Handles and the per-root index                                      *)
(* ------------------------------------------------------------------ *)

(* where a record lies *)
type loc = { l_pack : string; l_off : int; l_len : int }

type writer = { w_pid : int; w_pack : string; w_fd : Unix.file_descr }

(* one per root, shared by every handle of the process on it, so the
   in-process monitor excludes concurrent handles and one index serves
   them all *)
type shared = {
  s_lock : Lock.state;
  s_m : Mutex.t;  (** guards the fields below *)
  s_index : (int, loc list) Hashtbl.t;
      (** every record indexed under its hash, newest first *)
  s_indexed : (string, int) Hashtbl.t;  (** pack -> bytes indexed *)
  mutable s_listed : float;  (** the root's mtime when last listed *)
  mutable s_writer : writer option;
}

let registry : (string, shared) Hashtbl.t = Hashtbl.create 8
let registry_mutex = Mutex.create ()

let shared_for (root : string) : shared =
  let key = try Unix.realpath root with Unix.Unix_error _ -> root in
  Mutex.protect registry_mutex (fun () ->
      match Hashtbl.find_opt registry key with
      | Some s -> s
      | None ->
          let s =
            {
              s_lock = Lock.create root;
              s_m = Mutex.create ();
              s_index = Hashtbl.create 256;
              s_indexed = Hashtbl.create 8;
              s_listed = Float.nan;
              s_writer = None;
            }
          in
          Hashtbl.add registry key s;
          s)

type t = {
  t_root : string;
  t_shared : shared;
  t_hits : int Atomic.t;
  t_misses : int Atomic.t;
  t_touched : (string, unit) Hashtbl.t;  (** packs this handle touched *)
  t_touch_m : Mutex.t;
}

let root (t : t) = t.t_root
let hits (t : t) = Atomic.get t.t_hits
let misses (t : t) = Atomic.get t.t_misses
let pack_path (t : t) (name : string) = Filename.concat t.t_root name

(* the functions below that take a [shared] run under its [s_m] *)

let index_add (sh : shared) (d : int) (l : loc) : unit =
  let locs = Option.value (Hashtbl.find_opt sh.s_index d) ~default:[] in
  if
    not
      (List.exists
         (fun l' -> l'.l_off = l.l_off && String.equal l'.l_pack l.l_pack)
         locs)
  then Hashtbl.replace sh.s_index d (l :: locs)

(* index the records of a pack past the bytes already indexed *)
let index_pack (t : t) (sh : shared) (name : string) : unit =
  let from = Option.value (Hashtbl.find_opt sh.s_indexed name) ~default:0 in
  match read_tail (pack_path t name) from with
  | None -> Hashtbl.remove sh.s_indexed name
  | Some data ->
      let records, last = scan data in
      List.iter
        (fun r ->
          index_add sh (record_hash r)
            { l_pack = name; l_off = from + r.r_off; l_len = r.r_len })
        records;
      Hashtbl.replace sh.s_indexed name (from + last)

(* List the root again if it changed since it was last listed (a pack
   was created or removed), indexing what the packs gained; [true] when
   it did. Appends to a pack already indexed do not change the root:
   they are read at the next listing. *)
let relist (t : t) (sh : shared) : bool =
  let mtime =
    try (Unix.stat t.t_root).Unix.st_mtime with Unix.Unix_error _ -> Float.nan
  in
  if Float.equal mtime sh.s_listed then false
  else begin
    sh.s_listed <- mtime;
    List.iter
      (fun (name, bytes, _) ->
        let indexed =
          Option.value (Hashtbl.find_opt sh.s_indexed name) ~default:0
        in
        if bytes > indexed then index_pack t sh name)
      (list_packs t.t_root);
    true
  end

(* after a gc or clear of this process: packs went, so index afresh *)
let forget (sh : shared) : unit =
  Mutex.protect sh.s_m (fun () ->
      Hashtbl.reset sh.s_index;
      Hashtbl.reset sh.s_indexed;
      sh.s_listed <- Float.nan)

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)
(* ------------------------------------------------------------------ *)

type kind_stats = {
  ks_kind : string;
  ks_entries : int;
  ks_bytes : int;
}

type disk_stats = {
  ds_entries : int;
  ds_bytes : int;
  ds_tmp_files : int;
  ds_packs : int;
  ds_kinds : kind_stats list;
}

(* the distinct records of [packs] (one per kind, version and key): per
   kind, how many and their bytes *)
let distinct_records (root : string) (packs : string list) :
    (string, int * int) Hashtbl.t =
  let seen = Hashtbl.create 256 and by_kind = Hashtbl.create 8 in
  List.iter
    (fun name ->
      match pack_records root name with
      | None -> ()
      | Some (records, _) ->
          List.iter
            (fun r ->
              let d = (r.r_kind, r.r_version, r.r_key) in
              if not (Hashtbl.mem seen d) then begin
                Hashtbl.add seen d ();
                let n, b =
                  Option.value
                    (Hashtbl.find_opt by_kind r.r_kind)
                    ~default:(0, 0)
                in
                Hashtbl.replace by_kind r.r_kind (n + 1, b + r.r_len)
              end)
            records)
    packs;
  by_kind

let disk_stats (t : t) : disk_stats =
  let packs = List.map (fun (name, _, _) -> name) (list_packs t.t_root) in
  let kinds =
    Hashtbl.fold
      (fun k (n, b) acc -> { ks_kind = k; ks_entries = n; ks_bytes = b } :: acc)
      (distinct_records t.t_root packs)
      []
    |> List.sort (fun a b -> compare a.ks_kind b.ks_kind)
  in
  let _, tmps = scan_legacy t.t_root in
  {
    ds_entries = List.fold_left (fun a k -> a + k.ks_entries) 0 kinds;
    ds_bytes = List.fold_left (fun a k -> a + k.ks_bytes) 0 kinds;
    ds_tmp_files = List.length tmps;
    ds_packs = List.length packs;
    ds_kinds = kinds;
  }

let entries ?kind (t : t) : int =
  let d = disk_stats t in
  match kind with
  | None -> d.ds_entries
  | Some k -> (
      match List.find_opt (fun s -> String.equal s.ks_kind k) d.ds_kinds with
      | Some s -> s.ks_entries
      | None -> 0)

(* ------------------------------------------------------------------ *)
(* Writing packs                                                       *)
(* ------------------------------------------------------------------ *)

(* Each domain draws from its own generator: a [Random.State.t] must
   not be shared between domains. *)
let random_suffix = Domain.DLS.new_key Random.State.make_self_init

(* a new pack named by the pid and a random suffix: unique across
   concurrent processes (pid) and across pid reuse after a crash
   (random) *)
let create_pack (root : string) : string * Unix.file_descr =
  let rec attempt tries =
    let name =
      Printf.sprintf "%d-%06x%s" (Unix.getpid ())
        (Random.State.bits (Domain.DLS.get random_suffix) land 0xFFFFFF)
        pack_suffix
    in
    match
      Unix.openfile (Filename.concat root name)
        [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL; Unix.O_APPEND; Unix.O_CLOEXEC ]
        0o644
    with
    | fd -> (name, fd)
    | exception Unix.Unix_error (Unix.EEXIST, _, _) when tries > 0 ->
        attempt (tries - 1)
    | exception Unix.Unix_error (Unix.ENOENT, _, _) when tries > 0 ->
        mkdir_p root;
        attempt (tries - 1)
  in
  attempt 4

let retire (sh : shared) (w : writer) : unit =
  (try Unix.close w.w_fd with Unix.Unix_error _ -> ());
  sh.s_writer <- None

(* This process's pack and where its end is, under the shared lock: a
   forked child does not write through the descriptor it inherited, and
   a pack that a gc or clear unlinked is left for a new one. *)
let rec writer (t : t) (sh : shared) : writer * int =
  match sh.s_writer with
  | Some w when w.w_pid = Unix.getpid () -> (
      match Unix.fstat w.w_fd with
      | st when st.Unix.st_nlink > 0 -> (w, st.Unix.st_size)
      | _ ->
          retire sh w;
          writer t sh
      | exception Unix.Unix_error _ ->
          retire sh w;
          writer t sh)
  | Some w ->
      retire sh w;
      writer t sh
  | None ->
      let name, fd = create_pack t.t_root in
      let w = { w_pid = Unix.getpid (); w_pack = name; w_fd = fd } in
      sh.s_writer <- Some w;
      (w, 0)

(* Replace a pack by a new one holding [keep] (no pack when empty),
   under the exclusive lock. The new pack keeps the old one's LRU clock,
   and it is complete before the old one goes: a crash in between leaves
   duplicates, never a loss. *)
let rewrite (t : t) (name : string) (data : string) (keep : record list)
    ~(mtime : float) : unit =
  if keep <> [] then begin
    let fresh, fd = create_pack t.t_root in
    let b = Buffer.create (String.length data) in
    List.iter (fun r -> Buffer.add_substring b data r.r_off r.r_len) keep;
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> ignore (Unix.write_substring fd (Buffer.contents b) 0 (Buffer.length b)));
    try Unix.utimes (pack_path t fresh) mtime mtime
    with Unix.Unix_error _ -> ()
  end;
  try Sys.remove (pack_path t name) with Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Eviction                                                            *)
(* ------------------------------------------------------------------ *)

(* whether the process a pack is named after is still running; a pid
   this process may not signal belongs to a running process too *)
let writer_runs (name : string) : bool =
  match String.index_opt name '-' with
  | None -> false
  | Some i -> (
      match int_of_string_opt (String.sub name 0 i) with
      | None -> false
      | Some pid -> (
          match Unix.kill pid 0 with
          | () -> true
          | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
          | exception Unix.Unix_error _ -> true))

type gc_stats = {
  gc_live : int;
  gc_live_bytes : int;
  gc_evicted : int;
  gc_evicted_bytes : int;
  gc_swept_tmps : int;
}

let default_tmp_ttl_s = 3600.

let gc ?max_bytes ?max_age_s ?(tmp_ttl_s = default_tmp_ttl_s) ?now (t : t) :
    gc_stats =
  let max_bytes =
    match max_bytes with Some _ as b -> b | None -> default_max_bytes ()
  in
  let sh = t.t_shared in
  Lock.with_exclusive sh.s_lock (fun () ->
      let pass_start =
        match now with Some n -> n | None -> Unix.gettimeofday ()
      in
      (* 1. earlier layouts: the store no longer reads sharded entries,
         and a temp file older than the TTL belongs to a writer that
         crashed (a younger one may be a live writer of that layout's) *)
      let legacy, tmps = scan_legacy t.t_root in
      List.iter
        (fun (path, _) -> try Sys.remove path with Sys_error _ -> ())
        legacy;
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
      remove_shard_dirs t.t_root;
      (* packs touched or written at or after the pass start are pinned:
         the GC must never reclaim what a concurrent writer just appended
         (the exclusive lock already serializes against in-flight
         appends; the mtime guard additionally covers the [?now] of a
         backdated test pass and any clock races) *)
      let packs = list_packs t.t_root in
      let pinned, evictable =
        List.partition (fun (_, _, mtime) -> mtime >= pass_start) packs
      in
      (* 2. age policy *)
      let aged, evictable =
        match max_age_s with
        | None -> ([], evictable)
        | Some age ->
            List.partition (fun (_, _, mtime) -> pass_start -. mtime > age)
              evictable
      in
      (* 3. size policy: least-recently-touched first *)
      let evictable =
        List.sort (fun (_, _, a) (_, _, b) -> compare a b) evictable
      in
      let bytes_of = List.fold_left (fun a (_, b, _) -> a + b) 0 in
      let rec shrink total acc = function
        | ((_, bytes, _) as p) :: rest
          when Option.fold max_bytes ~none:false ~some:(fun b -> total > b) ->
            shrink (total - bytes) (p :: acc) rest
        | rest -> (acc, rest)
      in
      let sized, kept =
        shrink (bytes_of pinned + bytes_of evictable) [] evictable
      in
      let evicted = ref 0 and evicted_bytes = ref 0 in
      List.iter
        (fun (name, bytes, _) ->
          let records =
            Option.fold ~none:0
              ~some:(fun (rs, _) -> List.length rs)
              (pack_records t.t_root name)
          in
          match Sys.remove (pack_path t name) with
          | () ->
              evicted := !evicted + records;
              evicted_bytes := !evicted_bytes + bytes;
              ignore (Atomic.fetch_and_add eviction_counter records)
          | exception Sys_error _ -> ())
        (aged @ sized);
      (* 4. a kept pack with a damaged or torn stretch (a killed writer,
         a full disk) is rewritten with its complete records. Once every
         process a pack is named after has exited, a record that several
         kept packs hold (two processes computed one key) stays only in
         the most recently touched of them, and a pack holding it twice
         keeps its first copy. While a writer runs, it may append more
         copies yet, and the packs keep the layout their writers gave
         them. *)
      let dedupe =
        not (List.exists (fun (name, _, _) -> writer_runs name) packs)
      and seen = Hashtbl.create 256 in
      let first r =
        let d = (r.r_kind, r.r_version, r.r_key) in
        (not (Hashtbl.mem seen d)) && (Hashtbl.add seen d (); true)
      in
      List.iter
        (fun (name, _, mtime) ->
          match pack_records t.t_root name with
          | Some (records, data) ->
              let keep =
                if dedupe then List.filter first records else records
              in
              if List.fold_left (fun a r -> a + r.r_len) 0 keep
                 < String.length data
              then rewrite t name data keep ~mtime
          | None -> ())
        (List.rev kept);
      forget sh;
      let live = list_packs t.t_root in
      {
        gc_live =
          Hashtbl.fold
            (fun _ (n, _) a -> a + n)
            (distinct_records t.t_root (List.map (fun (n, _, _) -> n) live))
            0;
        gc_live_bytes = bytes_of live;
        gc_evicted = !evicted;
        gc_evicted_bytes = !evicted_bytes;
        gc_swept_tmps = swept;
      })

(* ------------------------------------------------------------------ *)
(* Opening                                                             *)
(* ------------------------------------------------------------------ *)

let total_bytes (t : t) : int =
  let legacy, _ = scan_legacy t.t_root in
  List.fold_left (fun a (_, b, _) -> a + b) 0 (list_packs t.t_root)
  + List.fold_left (fun a (_, b) -> a + b) 0 legacy

let open_root ?root ?(auto_gc = true) () : t =
  let root = match root with Some r -> r | None -> default_root () in
  mkdir_p root;
  let t =
    {
      t_root = root;
      t_shared = shared_for root;
      t_hits = Atomic.make 0;
      t_misses = Atomic.make 0;
      t_touched = Hashtbl.create 8;
      t_touch_m = Mutex.create ();
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

(* a hit advances its pack's LRU clock, once per handle *)
let touch (t : t) (pack : string) : unit =
  let first =
    Mutex.protect t.t_touch_m (fun () ->
        (not (Hashtbl.mem t.t_touched pack))
        && (Hashtbl.replace t.t_touched pack ();
            true))
  in
  if first then
    try Unix.utimes (pack_path t pack) 0.0 0.0 with Unix.Unix_error _ -> ()

type entry_read =
  | Hit of string  (** the payload *)
  | Foreign  (** another record under the same hash: keep, miss *)
  | Unreadable  (** damaged, torn or gone: forget, miss *)

(* the record at [l], checked as a listing would check it and against
   the kind and full key looked up *)
let read_at (t : t) (kind : _ kind) ~(key : string) (l : loc) : entry_read =
  match
    with_file (pack_path t l.l_pack) (fun fd ->
        read_fd fd l.l_off (l.l_len + String.length marker))
  with
  | None -> Unreadable
  | Some data -> (
      match record_at data 0 with
      | Some r when r.r_len = l.l_len && followed_by_header data l.l_len ->
          if
            String.equal r.r_kind kind.k_name
            && String.equal r.r_version kind.k_version
            && String.equal r.r_key key
          then Hit (String.sub data r.r_payload (r.r_len - r.r_payload))
          else Foreign
      | _ -> Unreadable)

let find (t : t) (kind : 'a kind) ~(key : string) : 'a option =
  let sh = t.t_shared in
  let d = hash ~kind:kind.k_name ~version:kind.k_version key in
  let candidates () =
    Mutex.protect sh.s_m (fun () ->
        if Float.is_nan sh.s_listed then ignore (relist t sh);
        Option.value (Hashtbl.find_opt sh.s_index d) ~default:[])
  in
  let forget_loc l =
    Mutex.protect sh.s_m (fun () ->
        match Hashtbl.find_opt sh.s_index d with
        | None -> ()
        | Some locs -> (
            match List.filter (fun l' -> l' != l) locs with
            | [] -> Hashtbl.remove sh.s_index d
            | rest -> Hashtbl.replace sh.s_index d rest))
  in
  let rec first = function
    | [] -> None
    | l :: rest -> (
        match read_at t kind ~key l with
        | Hit payload -> (
            match kind.k_decode payload with
            | Some v ->
                touch t l.l_pack;
                Some v
            | None ->
                forget_loc l;
                first rest)
        | Foreign -> first rest
        | Unreadable ->
            forget_loc l;
            first rest)
  in
  let found =
    match first (candidates ()) with
    | Some _ as v -> v
    | None ->
        if Mutex.protect sh.s_m (fun () -> relist t sh) then
          first (candidates ())
        else None
  in
  (match found with Some _ -> count_hit t | None -> count_miss t);
  found

let store (t : t) (kind : 'a kind) ~(key : string) (v : 'a) : unit =
  let record = encode_entry kind ~key ~payload:(kind.k_encode v) in
  let len = String.length record in
  let d = hash ~kind:kind.k_name ~version:kind.k_version key in
  let sh = t.t_shared in
  Lock.with_shared sh.s_lock (fun () ->
      Mutex.protect sh.s_m (fun () ->
          let w, off = writer t sh in
          (* a record a failed write tore stays the last of its pack *)
          (try ignore (Unix.write_substring w.w_fd record 0 len)
           with e ->
             retire sh w;
             raise e);
          index_add sh d { l_pack = w.w_pack; l_off = off; l_len = len };
          if Option.value (Hashtbl.find_opt sh.s_indexed w.w_pack) ~default:0 = off
          then Hashtbl.replace sh.s_indexed w.w_pack (off + len)))

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
  Lock.with_exclusive t.t_shared.s_lock (fun () ->
      (match kind with
      | Some k ->
          (* a pack holding records of the kind is rewritten with the
             others *)
          List.iter
            (fun (name, _, mtime) ->
              match pack_records t.t_root name with
              | Some (records, data)
                when List.exists (fun r -> String.equal r.r_kind k) records ->
                  rewrite t name data
                    (List.filter (fun r -> not (String.equal r.r_kind k)) records)
                    ~mtime
              | _ -> ())
            (list_packs t.t_root)
      | None -> (
          (* everything goes, including earlier layouts' files — but not
             the lock file, whose inode other processes may already hold
             locks on *)
          match Sys.readdir t.t_root with
          | exception Sys_error _ -> ()
          | names ->
              Array.iter
                (fun n ->
                  if not (String.equal n ".lock") then
                    remove_tree (Filename.concat t.t_root n))
                names));
      forget t.t_shared)

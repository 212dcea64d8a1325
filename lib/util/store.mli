(** The content-addressed artifact store: one persistent, concurrent-safe
    home for every durable result the compiler produces.

    The expensive part of GPGPU compilation is the search, and every
    stage of it is a pure function of its inputs: exploration scores,
    verifier verdicts (concrete and parametric), deployment bundles.
    Each used to keep its own hand-rolled single-writer cache; this
    module is the one implementation they all share, safe under many
    concurrent processes — the substrate the compile-service daemon
    serves a fleet from.

    {2 Layout}

    Each process appends every record it stores to one pack file of its
    own, created at its first write:

    {v
    <root>/<pid>-<random>.pack
    <root>/.lock
    v}

    A record is a header line (format version, kind name, codec
    version, key and payload byte lengths), the full key and the
    codec-encoded payload; a pack is its records back to back. The
    lengths make a torn record detectable before any payload is decoded,
    and lead a reader from one record to the next. Each process keeps an
    index from a hash of (kind name, codec version, key) to
    (pack, offset, length), shared by its handles on the root: it covers
    this process's records as soon as {!store} returns, and it lists the
    root again on a miss only when the root directory changed (a pack
    was created or removed). A hit reads the record at its offset and
    checks it whole, full key included.

    The layout this replaced kept one file per entry in 256 digest
    shards, written through a temp file and a rename. On a filesystem
    that has seen stores created and deleted, each new inode cost a
    fraction of a millisecond of system time, hundreds of them per
    compile sweep or search; a flat directory with one file per entry
    saves the shard directories but still creates an inode per
    artifact. A pack creates one file per process.

    {2 Concurrency}

    A record goes into the pack with one unbuffered [write] (a record
    over 64 KiB takes several) while the writer holds a {e shared}
    advisory lock on [<root>/.lock] (via [lockf]); the garbage collector
    and [clear] hold the {e exclusive} lock, so they never see half a
    record of a live writer, and a writer whose pack they unlinked sees
    it ([fstat]) and starts a new pack. A forked child starts its own
    pack too, never writing through the descriptor it inherited.
    Because POSIX record locks are per-process, the same protocol is
    mirrored in-process with a readers-writer monitor shared by every
    handle on the same root. Lock waits are counted in
    {!global_lock_contention}.

    Readers take no lock. A record another live process appends to a
    pack this process already indexed may be missed until the root
    changes, which costs one recompute, like a lost race: artifacts are
    content-addressed, so two processes that compute one key store
    equivalent records, and a reader takes the first that checks out.

    {2 Eviction}

    Recency and eviction work on whole packs. A pack's mtime is its LRU
    clock: a write appends to it, and a hit touches it once per handle.
    [gc] removes the sharded layout's entry files (the store no longer
    reads them) and their temp files older than a threshold, evicts
    packs older than a maximum age and — when the store exceeds a size
    budget — the least-recently-used packs until it fits, and rewrites
    a kept pack that holds a damaged or torn stretch with its complete
    records. Once every process a pack is named after has exited, it
    also keeps one copy of each record: the copy in the most recently
    touched pack. A pack whose mtime is at or after the start of the GC
    pass is never evicted or rewritten by that pass. [clear ~kind]
    rewrites each pack holding records of the kind with its other
    records (a new pack, complete before the old one is unlinked).

    {2 Versioning}

    A record carries the store format version and its kind's codec
    version, and a lookup takes only a record of both current versions,
    so a format or codec change orphans old records rather than
    misreading them; orphans age out with their packs through the
    size/age GC (or fall to [clear]). A record whose header doesn't
    parse, whose lengths run past the end of its pack or into the next
    record, or whose payload the codec rejects is a miss (killed writer,
    full disk), and the artifact is simply recomputed and appended; a
    reader skips such a stretch up to the next header. A well-formed
    record of another kind, version or key under the hash looked up is
    kept and passed over. *)

type t

(** {1 Kinds: typed codecs} *)

(** A kind is a typed namespace of artifacts: a name, a codec version
    and an encode/decode pair. *)
type 'a kind

val make_kind :
  name:string ->
  version:string ->
  encode:('a -> string) ->
  decode:(string -> 'a option) ->
  'a kind
(** [name] names the kind in each record's header (e.g. ["score"]) and
    must be non-empty, made of letters, digits, ['-'] and ['_'].
    [decode] returns [None] on any payload it cannot parse (the record
    is then treated as corrupt: skipped and reported as a miss). *)

val kind_name : _ kind -> string

(** {1 Opening} *)

val resolve_root : ?cwd:string -> unit -> string
(** The directory the default store lives in: [$GPCC_CACHE_DIR] when set
    and non-empty; otherwise [_gpcc_cache] under the nearest enclosing
    directory (starting from [cwd], default [Sys.getcwd ()]) containing
    a [dune-project] or [.git] marker; otherwise [_gpcc_cache] under
    [cwd] itself. Anchoring at the project root keeps every invocation
    of the tools — from whatever subdirectory — on one shared cache
    instead of silently forking it per working directory. *)

val default_root : unit -> string
(** [resolve_root ()]. *)

val open_root : ?root:string -> ?auto_gc:bool -> unit -> t
(** Open (creating if needed) the store rooted at [root] (default
    {!default_root}). When [auto_gc] is [true] (the default) and
    [$GPCC_CACHE_MAX_MB] is set, the store is garbage-collected down to
    that budget if it exceeds it. *)

val root : t -> string

(** {1 Reading and writing} *)

val find : t -> 'a kind -> key:string -> 'a option
(** Look an artifact up by its full key. A hit touches its pack's mtime
    (the LRU clock) once per handle and counts in
    {!hits}/{!global_hits}; a miss or a corrupt record counts as a
    miss. *)

val store : t -> 'a kind -> key:string -> 'a -> unit
(** Persist an artifact: append it to this process's pack under the
    shared lock. A record another process stored under the same key
    stays beside it: artifacts are content-addressed, so the two are
    equivalent. *)

(** {1 Inspection} *)

val entries : ?kind:string -> t -> int
(** Distinct records on disk (one per kind, codec version and key,
    however many packs hold it), optionally restricted to one kind. *)

type kind_stats = {
  ks_kind : string;
  ks_entries : int;
  ks_bytes : int;
}

type disk_stats = {
  ds_entries : int;  (** distinct records, as {!entries} *)
  ds_bytes : int;  (** their bytes, headers and keys included *)
  ds_tmp_files : int;  (** temp files left by the earlier layout *)
  ds_packs : int;
  ds_kinds : kind_stats list;  (** sorted by kind name *)
}

val disk_stats : t -> disk_stats

(** {1 Eviction} *)

type gc_stats = {
  gc_live : int;  (** distinct records kept *)
  gc_live_bytes : int;  (** bytes of the packs kept *)
  gc_evicted : int;  (** records in the packs the age or size policy removed *)
  gc_evicted_bytes : int;
  gc_swept_tmps : int;  (** stale temp files removed *)
}

val gc :
  ?max_bytes:int ->
  ?max_age_s:float ->
  ?tmp_ttl_s:float ->
  ?now:float ->
  t ->
  gc_stats
(** Collect garbage under the exclusive lock. The sharded layout's
    entry files are removed, and its temp files older than [tmp_ttl_s]
    (default one hour). Packs older than [max_age_s] (default: no age
    limit) are evicted; then, if the packs still exceed [max_bytes]
    (default: [$GPCC_CACHE_MAX_MB], else no size limit),
    least-recently-used packs are evicted until they fit. Packs touched
    or written at or after the start of the pass ([now], default the
    current time — explicit only for tests) are left alone. Any other
    kept pack with a damaged or torn stretch is rewritten with its
    complete records; and when no process a pack is named after still
    runs, a record that several of these packs hold (or one pack twice)
    is kept only in the most recently touched of them, the others
    rewritten without it (a pack left empty is removed), so
    [gc_live_bytes] is then the distinct records' bytes. *)

val default_max_bytes : unit -> int option
(** [$GPCC_CACHE_MAX_MB] parsed to bytes, when set and positive. *)

val clear : ?kind:string -> t -> unit
(** Delete every record of one kind, or every file but the lock when
    [kind] is omitted (the earlier layout's too). A pack holding records
    of the kind is replaced by a new pack holding its other records.
    Holds the exclusive lock. *)

(** {1 Counters}

    Per-handle counters on [t], and process-global counters aggregated
    across every handle and domain (what the bench JSON reports). *)

val hits : t -> int
val misses : t -> int
val global_hits : unit -> int
val global_misses : unit -> int

val global_evictions : unit -> int
(** Records in the packs [gc] evicted (age or size policy; tmp sweeps,
    rewrites and [clear] are not counted). *)

val global_lock_contention : unit -> int
(** Times a lock acquisition (in-process or on-disk) had to wait. *)

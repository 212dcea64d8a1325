(** Persistent cache of design-space exploration scores.

    The Section-4 empirical search measures every candidate kernel on
    the simulator; the measurement is deterministic for a fixed
    (machine, workload, problem size, kernel), so repeated bench runs
    can skip already-measured points entirely. Each entry maps a key —
    by convention [gpu/workload/size/...] plus a digest of the compiled
    kernel text, see {!Explore.search} — to the measured score (GFLOPS).

    This is a thin typed view over {!Gpcc_util.Store} (the ["score"]
    kind): sharded layout, atomic writes, multi-process locking,
    corruption/collision recovery and eviction all live there. In front
    of the store each handle keeps an in-memory memo, so repeated
    lookups of a hot key never touch the disk. Entries are invalidated
    implicitly: keys embed the compiled kernel digest, so any compiler
    change that alters generated code changes the key; stale entries
    age out through the store GC (or {!clear}). *)

type t

val open_dir : ?dir:string -> unit -> t
(** Open (creating if needed) the cache rooted at [dir] (default
    {!Gpcc_util.Store.default_root}: [$GPCC_CACHE_DIR] if set, else
    [_gpcc_cache] under the nearest enclosing project root). *)

val dir : t -> string

val find : t -> string -> float option
(** Look the key up, first in the in-memory memo, then in the store.
    Counts a hit or a miss (on this handle; store-tier lookups also
    count in the store's global counters). Corrupt entries are deleted
    and re-measured; digest collisions are kept and reported as a miss
    (both handled by the store). Thread-safe. *)

val store : t -> string -> float -> unit
(** Persist a score for a key (atomic write through the store; also
    memoized in memory). Thread-safe. *)

val hits : t -> int
(** Number of [find]s answered from memo or store since [open_dir]. *)

val misses : t -> int
(** Number of [find]s that found nothing since [open_dir]. *)

val entries : t -> int
(** Number of score entries currently on disk. *)

val gc : t -> Gpcc_util.Store.gc_stats
(** Run the store's garbage collector (budget from
    [$GPCC_CACHE_MAX_MB]). *)

val clear : t -> unit
(** Delete every score entry and reset the in-memory memo (counters
    are kept; other artifact kinds in the same store are untouched). *)

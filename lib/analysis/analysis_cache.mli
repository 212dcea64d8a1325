(** Memoized kernel analyses with bounded LRU eviction.

    Memoizes the five analyses the compiler keeps re-deriving — the
    affine access table, the coalescing verdict, inter-block data
    sharing, register/shared-memory estimation, and the static
    verifier — keyed by a digest of the printed kernel (plus the launch
    configuration for launch-dependent analyses). Changing the kernel
    text changes the key, so results can never go stale; passes that
    declare an analysis {e preserved} carry its result forward to the
    transformed kernel with {!preserve}.

    When a slot reaches capacity the least-recently-used entry is
    evicted, so hot entries survive long design-space explorations. *)

(** The analyses the cache memoizes — the vocabulary passes use to
    declare invalidations. *)
type kind =
  | Affine  (** the affine access table: {!Coalesce_check.analyze_kernel} *)
  | Sharing  (** inter-block data sharing: {!Sharing.analyze} *)
  | Coalesce  (** the all-accesses-coalesced verdict *)
  | Regcount  (** registers/thread and shared bytes/block: {!Regcount} *)
  | Verify  (** static verifier diagnostics: {!Verify.check} *)

val all_kinds : kind list
val kind_name : kind -> string

type t

val default_capacity : int
(** 512 entries per analysis slot. *)

val create : ?capacity:int -> unit -> t
val capacity : t -> int

val length : t -> int
(** Total entries currently cached, across every slot. *)

val hits : t -> int
val misses : t -> int

val global_hits : unit -> int
(** Hits aggregated across every instance of every domain. *)

val global_misses : unit -> int

val global_symbolic_proofs : unit -> int
(** Launches discharged by a symbolic [Proved]/[Proved_when] verdict
    (no concrete verification ran), across every domain. *)

val global_concrete_fallbacks : unit -> int
(** Launches the symbolic tier could not discharge, handed to the
    concrete {!Verify.check} path, across every domain. *)

val global_verify_wall_clock_s : unit -> float
(** Total wall-clock seconds spent inside {!verify} and {!verify_sym},
    across every domain. *)

val key : Gpcc_ast.Ast.kernel -> Gpcc_ast.Ast.launch -> string
(** Digest of the printed kernel at the launch — the cache key of the
    launch-dependent slots. Each state is printed and hashed once: the
    text and digest are memoized per domain for the last few (kernel,
    launch) pairs, keyed by the kernel's physical identity. *)

val kernel_key : Gpcc_ast.Ast.kernel -> string
(** Launch-independent key ({!regcount}), memoized like {!key}. *)

val accesses :
  t -> launch:Gpcc_ast.Ast.launch -> Gpcc_ast.Ast.kernel ->
  Coalesce_check.access list
(** The affine access table ([Affine] slot). *)

val coalesced : t -> launch:Gpcc_ast.Ast.launch -> Gpcc_ast.Ast.kernel -> bool
(** Whether every global access is coalesced ([Coalesce] slot). *)

val sharing :
  t -> launch:Gpcc_ast.Ast.launch -> Gpcc_ast.Ast.kernel ->
  Sharing.array_sharing list
(** The data-sharing summary ([Sharing] slot). *)

val regcount : t -> Gpcc_ast.Ast.kernel -> int * int
(** (registers/thread, shared bytes/block) ([Regcount] slot). *)

val verify :
  t -> launch:Gpcc_ast.Ast.launch -> Gpcc_ast.Ast.kernel ->
  Verify.diagnostic list
(** Verifier diagnostics ([Verify] slot). *)

val symbolic_result : t -> Gpcc_ast.Ast.kernel -> Symverify.result
(** The launch-parametric symbolic verdict for a kernel — one
    digest-keyed entry per kernel text, persisted on disk as a
    [.pverdict] entry next to the concrete [.verdict] files. *)

val verify_sym :
  t -> launch:Gpcc_ast.Ast.launch -> Gpcc_ast.Ast.kernel ->
  Verify.diagnostic list
(** Symbolic-first verification: returns [[]] when the parametric
    verdict proves this launch clean, and otherwise falls back to
    {!verify} (identical diagnostics to a non-symbolic run). The
    symbolic tier is sound but incomplete, so the fallback keeps
    precision intact. *)

val preserve :
  t ->
  kinds:kind list ->
  from_:Gpcc_ast.Ast.kernel * Gpcc_ast.Ast.launch ->
  to_:Gpcc_ast.Ast.kernel * Gpcc_ast.Ast.launch ->
  unit
(** Carry the listed analyses' cached results (when present) from the
    pre-transform kernel to the post-transform kernel. Called by the
    pipeline for the analyses a fired pass does {e not} declare
    invalidated. *)

val domain : unit -> t
(** The current worker domain's instance (one per domain: exploration
    fans compiles out across domains, and a shared table would need a
    lock on the hot path). *)

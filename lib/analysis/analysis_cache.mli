(** Memoized kernel analyses with bounded LRU eviction.

    Memoizes the five analyses the compiler keeps re-deriving — the
    affine access table, the coalescing verdict, inter-block data
    sharing, register/shared-memory estimation, and the static
    verifier — keyed by a digest of the printed kernel (plus the launch
    configuration for launch-dependent analyses). Changing the kernel
    text changes the key, so results can never go stale; passes that
    declare an analysis {e preserved} carry its result forward to the
    transformed kernel with {!preserve}.

    Verification keeps one record per kernel text: the launch-parametric
    proof plus the concrete lints of each launch it proved clean
    ({!verify_sym}); the record, with its first launch's lints, and the
    concrete verdicts persist in the artifact store. In memory, each
    kernel text is walked once ({!Walk.run}) while its plan
    ({!Verify.plan}) is among the 32 most recently used: the plan serves
    the symbolic proof, the lints and the concrete check at any launch,
    and the access table, each launch from contexts derived from that
    walk.

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

type work = {
  walks : int;  (** kernel texts walked: one plan each *)
  derivations : int;
      (** launches whose contexts were derived from a plan: a lint, a
          concrete check or an access table this instance computed *)
}

val work : t -> work
(** What this instance walked and derived since it was created. *)

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

val printed : ?launch:Gpcc_ast.Ast.launch -> Gpcc_ast.Ast.kernel -> string
(** {!Gpcc_ast.Pp.kernel_to_string}, byte for byte. A state is printed
    once: the text of the last few kernels is kept per domain, keyed by
    physical identity, and the launch comment is spliced into it. *)

val key : Gpcc_ast.Ast.kernel -> Gpcc_ast.Ast.launch -> string
(** Digest of the printed kernel at the launch — the cache key of the
    launch-dependent slots. Digests are kept per domain for every live
    kernel, keyed by physical identity, so a state is hashed once and
    not printed again while it lives. *)

val kernel_key : Gpcc_ast.Ast.kernel -> string
(** Launch-independent key ({!regcount}, {!symbolic_result}), memoized
    like {!key}. *)

val typecheck : Gpcc_ast.Ast.kernel -> unit
(** {!Gpcc_ast.Typecheck.check}, once per state: a physical kernel that
    passed it in this domain is not checked again. The flag is kept
    with the state's digests, as long as the kernel lives. *)

val accesses :
  t -> launch:Gpcc_ast.Ast.launch -> Gpcc_ast.Ast.kernel ->
  Coalesce_check.access list
(** The affine access table ([Affine] slot), from the text's plan in
    the launch's contexts. A verification ({!verify}, and a proved
    launch's lints in {!verify_sym}) enters the table it derives, so a
    pass asking for the table of a state just validated is served from
    the slot. *)

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

val symbolic_result :
  ?launch:Gpcc_ast.Ast.launch -> t -> Gpcc_ast.Ast.kernel -> Symverify.result
(** The launch-parametric symbolic verdict for a kernel, from its
    verification record: one digest-keyed entry per kernel text,
    persisted on disk as a [.pverdict] entry next to the concrete
    [.verdict] files. A record computed here is proved from the text's
    plan's walk. When this call computes the record and [launch] is
    proved clean, the record is stored with that launch's lints, as
    {!verify_sym} stores it. *)

val record_lints :
  t ->
  Gpcc_ast.Ast.kernel ->
  (Gpcc_ast.Ast.launch * Verify.diagnostic list) list
(** The lints the kernel's verification record holds, by launch, most
    recent first: the launch its proof was first computed at, when
    proved clean (stored with the proof), and launches linted since in
    this instance (memory only, each from the text's plan without
    another walk). *)

val verify_sym :
  t -> launch:Gpcc_ast.Ast.launch -> Gpcc_ast.Ast.kernel ->
  Verify.diagnostic list
(** Symbolic-first verification, with the same diagnostics as {!verify}.
    When the parametric verdict proves this launch clean, only the
    concrete verifier's warnings are computed ({!Verify.lint}: the
    text's plan evaluated at the launch, without a walk or the race
    search) and kept in the text's verification record; otherwise this
    falls back to {!verify}. The first launch a text's proof is computed
    at is linted before the record's one store write, so a warm process
    reads proof and lints together. The symbolic tier is sound but
    incomplete, so the fallback keeps precision intact. *)

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

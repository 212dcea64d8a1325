(** Memory-transaction formation for half-warp requests. *)

type tx = {
  tx_addr : int;  (** byte address of the transaction start *)
  tx_bytes : int;
}

(** Transactions for one half-warp global request. [addrs] are the byte
    addresses of the active lanes as [(lane, addr)] with lane in 0..15;
    [elt_bytes] is the per-lane access width. The strict G80 rule needs
    thread [k] at word [k] of an aligned segment (else every active lane
    pays a [min_tx]-byte transaction); the relaxed GT200 rule issues one
    transaction per distinct aligned segment, shrunk to the smallest
    covering power of two >= 32 B. *)
val global_request :
  Config.coalesce_rules ->
  min_tx:int ->
  elt_bytes:int ->
  (int * int) list ->
  tx list

(** Serialized cost (in conflict-free request units) of one half-warp
    shared-memory request; same-address lanes broadcast for free. *)
val shared_request : banks:int -> int list -> int

(** Memoized (transactions, bytes) of one half-warp request whose
    active lanes are the contiguous run [lane0 .. lane0+cnt-1] (lane0 in
    0..15) with byte addresses [addrs.(0..cnt-1)]. The result is keyed
    by the access pattern digest — addresses modulo the coarsest
    alignment the rules inspect — so identical patterns across blocks
    cost one table lookup. Transaction {e addresses} are not
    shift-invariant: callers recording the partition stream must use
    {!global_request} directly. *)
val request_cost :
  Config.coalesce_rules ->
  min_tx:int ->
  elt_bytes:int ->
  lane0:int ->
  cnt:int ->
  int array ->
  int * int

(** Cost digest for one full access plane (every half-warp group of a
    block's active lanes at one memory site). Per-group totals live in
    [pd_hw] ((ntx, bytes) pairs, groups ascending); [pd_layout] holds
    (offset-from-first-lane-address, bytes) per transaction in the exact
    order the reference backend emits them, so partition-stream
    recording replays against any live base address. *)
type plane_digest = {
  pd_nhw : int;  (** number of half-warp groups, [(n+15)/16] *)
  pd_hw : int array;  (** [2*pd_nhw]: per-group transactions, bytes *)
  pd_layout : int array;  (** [2*pd_ntx]: per-tx offset from lane 0, bytes *)
  pd_ntx : int;  (** total transactions across the plane *)
  pd_bytes : int;  (** total bytes across the plane *)
}

(** Memoized digest of a segmented-strided access plane of [n] lanes:
    half-warp group [q] covers lanes [16q .. 16q+cnt-1] whose byte
    addresses are [a0 + q*dd + t*d]; [rel0] is [a0] reduced modulo the
    memo granularity (in [0, g)). Both cost totals and the relative
    transaction layout are shift-invariant, so one digest serves every
    base address congruent to [rel0]. *)
val plane_cost :
  Config.coalesce_rules ->
  min_tx:int ->
  elt_bytes:int ->
  n:int ->
  rel0:int ->
  d:int ->
  dd:int ->
  plane_digest

val empty_digest : plane_digest
(** Sentinel for unfilled per-site digest caches (all fields zero). *)

val memo_granularity : min_tx:int -> elt_bytes:int -> int
(** The coarsest alignment the rules inspect: request cost and relative
    layout are invariant under address shifts by multiples of this. *)

val memo_hits : unit -> int
(** Pattern-cache hits across every worker domain, including domains
    that have since exited (bench reporting). *)

val memo_misses : unit -> int

val plane_memo_hits : unit -> int
(** Plane-digest cache hits across every worker domain. *)

val plane_memo_misses : unit -> int

val bump_plane_hits : int -> unit
(** Credit hits taken by a caller-side cache layered over the plane
    memo (per-site digest caches, closed-form loop replays). *)

(** Memory-transaction formation for half-warp requests. *)

type tx = {
  tx_addr : int;  (** byte address of the transaction start *)
  tx_bytes : int;
}

(** Transactions for one half-warp global request, as a list: the
    reference statement of the rules, which the tests compare {!form}
    against. [addrs] are the byte addresses of the active lanes as
    [(lane, addr)] with lane in 0..15; [elt_bytes] is the per-lane
    access width. The strict G80 rule needs thread [k] at word [k] of
    an aligned segment (else every active lane pays a [min_tx]-byte
    transaction); the relaxed GT200 rule issues one transaction per
    distinct aligned segment, in first-touch order, shrunk to the
    smallest covering power of two >= 32 B. *)
val global_request :
  Config.coalesce_rules ->
  min_tx:int ->
  elt_bytes:int ->
  (int * int) list ->
  tx list

(** Serialized cost (in conflict-free request units) of one half-warp
    shared-memory request over the lanes' 4-byte word indices;
    same-address lanes broadcast for free. The reference statement that
    the tests compare {!bank_cost} against. *)
val shared_request : banks:int -> int list -> int

(** Formation scratch: the transactions of the last {!form}. *)
type scratch = private {
  seg_s : int array;  (** 16 slots: segment starts, first-touch order *)
  seg_lo : int array;  (** 16 slots: lowest byte touched per segment *)
  seg_hi : int array;  (** 16 slots: end of the highest access per segment *)
  txs : int array;  (** 32 slots: [addr; bytes] per transaction *)
  mutable ntx : int;  (** transactions formed *)
  mutable bytes : int;  (** their byte total *)
}

val scratch : unit -> scratch

(** {!global_request} without allocating: forms the transactions of one
    half warp into [sc], in the same order. Its active lanes are
    [lanes.(off .. off+cnt-1)] (ascending, one half warp, [cnt] >= 1),
    each at position [lane mod 16] of the half warp, with byte addresses
    [addrs.(off .. off+cnt-1)]. *)
val form :
  Config.coalesce_rules ->
  min_tx:int ->
  elt_bytes:int ->
  scratch ->
  int array ->
  lanes:int array ->
  off:int ->
  cnt:int ->
  unit

(** {!shared_request} without allocating: the cost of the half warp
    whose word indices are [words.(off .. off+cnt-1)] ([cnt] >= 1).
    [counts] is scratch of exactly [banks] slots. *)
val bank_cost :
  banks:int -> int array -> int array -> off:int -> cnt:int -> int

(** [half_warps m f] calls [f off cnt] for each half warp of the
    ascending lane mask [m], in order: [m.(off .. off+cnt-1)] are the
    active lanes of one half warp. *)
val half_warps : int array -> (int -> int -> unit) -> unit

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
    memo granularity (in [0, g)). A block-uniform access is the plane
    with [d = dd = 0]. Both cost totals and the relative transaction
    layout are shift-invariant, so one digest serves every base address
    congruent to [rel0]. The per-domain memo is the simulator's only
    one: its table keeps two generations, so that retiring a full one
    keeps the hot entries. *)
val plane_cost :
  Config.coalesce_rules ->
  min_tx:int ->
  elt_bytes:int ->
  n:int ->
  rel0:int ->
  d:int ->
  dd:int ->
  plane_digest

(** The digest of a full plane: [lanes] are the plane's [n] lanes
    [0 .. n-1], [addrs.(l)] is lane [l]'s byte address, and layout
    offsets are relative to [a0]. Forms each half warp with {!form}. *)
val digest_of_plane :
  Config.coalesce_rules ->
  min_tx:int ->
  elt_bytes:int ->
  scratch ->
  int array ->
  lanes:int array ->
  a0:int ->
  plane_digest

val empty_digest : plane_digest
(** Sentinel for unfilled per-site digest caches (all fields zero). *)

val memo_granularity : min_tx:int -> elt_bytes:int -> int
(** The coarsest alignment the rules inspect: request cost and relative
    layout are invariant under address shifts by multiples of this. *)

val plane_memo_hits : unit -> int
(** Plane-digest cache hits across every worker domain, including
    domains that have since exited (bench reporting). *)

val plane_memo_misses : unit -> int

val bump_plane_hits : int -> unit
(** Credit hits taken by a caller-side cache layered over the plane
    memo (per-site digest caches, closed-form loop replays). *)

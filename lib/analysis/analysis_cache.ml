(** Memoized kernel analyses with bounded, LRU-bias eviction.

    Every layer of the compiler keeps re-deriving the same facts about
    the same intermediate kernels: the affine access table ({!Coalesce_check}),
    the coalescing verdict, the data-sharing summary ({!Sharing}), the
    register/shared-memory estimate ({!Regcount}) and the verifier's
    diagnostics ({!Verify}). The design-space exploration makes this
    quadratic — dozens of configurations whose pipelines revisit
    identical intermediate kernels. This cache memoizes all five,
    keyed by a digest of the printed kernel (plus the launch for
    launch-dependent analyses), so any change to the kernel text
    invalidates implicitly.

    Passes additionally *declare* which analyses a fired transform
    invalidates (see {!Gpcc_passes.Pass}); for the analyses a pass
    preserves, {!preserve} carries the cached result forward from the
    pre-transform kernel to the post-transform kernel without
    recomputation. The soundness of each declaration is property-tested
    (the preserved value must equal a fresh recomputation).

    Eviction is bounded and per-entry: when a slot reaches capacity the
    least-recently-used entry is dropped, so hot entries survive a long
    exploration — unlike a blunt [Hashtbl.reset] that wipes the whole
    table mid-sweep.

    Instances are cheap; [domain ()] returns a per-worker-domain
    instance (no locking needed), while the hit/miss counters aggregate
    globally across domains via atomics. *)

open Gpcc_ast

(** The analyses the cache knows about — the invalidation vocabulary
    passes declare against. *)
type kind =
  | Affine  (** the affine access table: {!Coalesce_check.analyze_kernel} *)
  | Sharing  (** inter-block data sharing: {!Sharing.analyze} *)
  | Coalesce  (** the all-accesses-coalesced verdict *)
  | Regcount  (** registers/thread and shared bytes/block: {!Regcount} *)
  | Verify  (** static verifier diagnostics: {!Verify.check} *)

let all_kinds = [ Affine; Sharing; Coalesce; Regcount; Verify ]

let kind_name = function
  | Affine -> "affine"
  | Sharing -> "sharing"
  | Coalesce -> "coalesce"
  | Regcount -> "regcount"
  | Verify -> "verify"

type 'a cell = { v : 'a; mutable tick : int }

type 'a slot = (string, 'a cell) Hashtbl.t

type t = {
  affine : Coalesce_check.access list slot;
  sharing : Sharing.array_sharing list slot;
  coalesce : bool slot;
  regcount : (int * int) slot;  (** (registers/thread, shared bytes/block) *)
  verify : Verify.diagnostic list slot;
  symbolic : Symverify.result slot;  (** parametric verdicts, kernel-keyed *)
  capacity : int;  (** max entries per slot before LRU eviction *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
}

let default_capacity = 512

let create ?(capacity = default_capacity) () =
  {
    affine = Hashtbl.create 64;
    sharing = Hashtbl.create 64;
    coalesce = Hashtbl.create 64;
    regcount = Hashtbl.create 64;
    verify = Hashtbl.create 64;
    symbolic = Hashtbl.create 64;
    capacity = max 1 capacity;
    tick = 0;
    hits = 0;
    misses = 0;
  }

let capacity t = t.capacity
let hits t = t.hits
let misses t = t.misses

let length t =
  Hashtbl.length t.affine + Hashtbl.length t.sharing
  + Hashtbl.length t.coalesce + Hashtbl.length t.regcount
  + Hashtbl.length t.verify + Hashtbl.length t.symbolic

(* hit/miss totals across every domain's instance, for bench reporting *)
let global_hit_count = Atomic.make 0
let global_miss_count = Atomic.make 0
let global_hits () = Atomic.get global_hit_count
let global_misses () = Atomic.get global_miss_count

(* verification-cost counters for bench reporting: launches discharged
   by a symbolic proof vs. handed to the concrete verifier, and total
   wall-clock microseconds spent inside either verifier entry point *)
let sym_proof_count = Atomic.make 0
let concrete_fallback_count = Atomic.make 0
let verify_wall_us = Atomic.make 0
let global_symbolic_proofs () = Atomic.get sym_proof_count
let global_concrete_fallbacks () = Atomic.get concrete_fallback_count
let global_verify_wall_clock_s () =
  float_of_int (Atomic.get verify_wall_us) /. 1e6

let timed (f : unit -> 'a) : 'a =
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let us =
        int_of_float (Float.round ((Unix.gettimeofday () -. t0) *. 1e6))
      in
      ignore (Atomic.fetch_and_add verify_wall_us (max 0 us)))
    f

(* --- printed states ------------------------------------------------ *)
(* One compile asks for the key of the same state many times: the pass
   applicability tests, the before/after metrics, both verifier tiers and
   [preserve] each start from a kernel the pipeline already holds, and
   merged kernels print to tens of kilobytes. A state's text and digest
   are therefore computed once, in a small per-domain ring keyed by the
   kernel's physical identity and the launch. The AST is immutable, so a
   physically equal kernel always prints the same. *)

type printed = { text : string; digest : string }

type memo_entry = {
  m_kernel : Ast.kernel;
  m_launch : Ast.launch option;
  m_printed : printed;
}

(* a pipeline step touches its input and output state, each with and
   without a launch; eight entries cover a step with room to spare *)
let memo_size = 8

type memo = { entries : memo_entry option array; mutable next : int }

let memo_instance : memo Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { entries = Array.make memo_size None; next = 0 })

let printed ?launch (k : Ast.kernel) : printed =
  let m = Domain.DLS.get memo_instance in
  let rec find i =
    if i = memo_size then None
    else
      match m.entries.(i) with
      | Some e
        when e.m_kernel == k && Option.equal Ast.equal_launch e.m_launch launch
        ->
          Some e.m_printed
      | _ -> find (i + 1)
  in
  match find 0 with
  | Some p -> p
  | None ->
      let text = Pp.kernel_to_string ?launch k in
      let p = { text; digest = Digest.string text } in
      m.entries.(m.next) <-
        Some { m_kernel = k; m_launch = launch; m_printed = p };
      m.next <- (m.next + 1) mod memo_size;
      p

(** Cache key of a kernel at a launch configuration. *)
let key (k : Ast.kernel) (l : Ast.launch) : string =
  (printed ~launch:l k).digest

(** Launch-independent key (register/shared-memory estimation). *)
let kernel_key (k : Ast.kernel) : string = (printed k).digest

(* Drop the least-recently-used entry of a slot (linear scan: slots are
   small and eviction only happens at capacity). *)
let evict_lru (slot : 'a slot) =
  let victim = ref None in
  Hashtbl.iter
    (fun key (cell : _ cell) ->
      match !victim with
      | Some (_, t) when t <= cell.tick -> ()
      | _ -> victim := Some (key, cell.tick))
    slot;
  match !victim with Some (key, _) -> Hashtbl.remove slot key | None -> ()

let find (t : t) (slot : 'a slot) (key : string) (compute : unit -> 'a) : 'a =
  t.tick <- t.tick + 1;
  match Hashtbl.find_opt slot key with
  | Some cell ->
      cell.tick <- t.tick;
      t.hits <- t.hits + 1;
      Atomic.incr global_hit_count;
      cell.v
  | None ->
      t.misses <- t.misses + 1;
      Atomic.incr global_miss_count;
      let v = compute () in
      if Hashtbl.length slot >= t.capacity then evict_lru slot;
      Hashtbl.replace slot key { v; tick = t.tick };
      v

let accesses (t : t) ~(launch : Ast.launch) (k : Ast.kernel) :
    Coalesce_check.access list =
  find t t.affine (key k launch) (fun () ->
      Coalesce_check.analyze_kernel ~launch k)

let coalesced (t : t) ~(launch : Ast.launch) (k : Ast.kernel) : bool =
  find t t.coalesce (key k launch) (fun () ->
      Coalesce_check.all_coalesced (accesses t ~launch k))

let sharing (t : t) ~(launch : Ast.launch) (k : Ast.kernel) :
    Sharing.array_sharing list =
  find t t.sharing (key k launch) (fun () -> Sharing.analyze ~launch k)

let regcount (t : t) (k : Ast.kernel) : int * int =
  find t t.regcount (kernel_key k) (fun () ->
      (Regcount.estimate k, Regcount.shared_bytes k))

(* --- persistent verifier-verdict store ------------------------------ *)
(* Verification dominates warm design-space sweeps: measured scores are
   served from the on-disk exploration cache, but every candidate was
   still re-verified from scratch on every run. A verdict is a pure
   function of the printed kernel (at the launch, for the concrete
   verifier), so it persists across processes exactly like a score —
   through {!Gpcc_util.Store}, as the ["verdict"] and ["pverdict"]
   kinds. The store key is the full kernel text, so the store's key
   guard doubles as the digest-collision guard; corruption recovery,
   atomic writes, locking and eviction all live in the store. The
   per-domain LRU above stays in front as the memory tier. Any store
   failure degrades to recomputation. *)

module Store = Gpcc_util.Store

let marshal_encode (v : 'a) : string = Marshal.to_string v []

(* the store's envelope already rejects truncation by length, but a
   version-skew blob can still fail to unmarshal: treat any exception
   as corrupt (the store then deletes the entry and we recompute) *)
let marshal_decode (payload : string) : 'a option =
  match (Marshal.from_string payload 0 : 'a) with
  | v -> Some v
  | exception _ -> None

(* codec version 5: versions 1–2 were the hand-rolled pre-store
   formats, version 3 verdicts predate binding loop variables at loop
   entry (a loop reusing an earlier loop's variable was misjudged), and
   version 4 verdicts predate forgetting a local reassigned to a
   non-affine value (an older affine binding showed through and could
   hide an out-of-bounds access); bumping orphans them and the GC ages
   them out *)
let verdict_kind : Verify.diagnostic list Store.kind =
  Store.make_kind ~name:"verdict" ~version:"5" ~encode:marshal_encode
    ~decode:marshal_decode

(* one entry per kernel, not per (kernel, launch): the parametric
   result is launch-independent; version 3 for the same loop-variable
   fix as [verdict_kind] (the stale-let fix leaves it alone: the
   symbolic tier does not use {!Affine}) *)
let pverdict_kind : Symverify.result Store.kind =
  Store.make_kind ~name:"pverdict" ~version:"3" ~encode:marshal_encode
    ~decode:marshal_decode

(* one process-wide handle on the default root, shared by every domain
   (the store is domain-safe); opened on first use so tests that set
   GPCC_CACHE_DIR before it are honored *)
let store_handle : Store.t Gpcc_util.Once.t =
  Gpcc_util.Once.make (fun () -> Store.open_root ())

let verify (t : t) ~(launch : Ast.launch) (k : Ast.kernel) :
    Verify.diagnostic list =
  timed @@ fun () ->
  let full = printed ~launch k in
  find t t.verify full.digest (fun () ->
      let store = Gpcc_util.Once.get store_handle in
      match Store.find store verdict_kind ~key:full.text with
      | Some ds -> ds
      | None ->
          let ds = Verify.check ~launch k in
          Store.store store verdict_kind ~key:full.text ds;
          ds)

let symbolic_result (t : t) (k : Ast.kernel) : Symverify.result =
  let full = printed k in
  find t t.symbolic full.digest (fun () ->
      let store = Gpcc_util.Once.get store_handle in
      match Store.find store pverdict_kind ~key:full.text with
      | Some r -> r
      | None ->
          let r = Symverify.check k in
          Store.store store pverdict_kind ~key:full.text r;
          r)

(* escape hatch for A/B measurement and debugging: GPCC_SYMVERIFY=0
   forces every launch down the concrete path *)
let symverify_enabled =
  Gpcc_util.Once.make (fun () -> Sys.getenv_opt "GPCC_SYMVERIFY" <> Some "0")

let verify_sym (t : t) ~(launch : Ast.launch) (k : Ast.kernel) :
    Verify.diagnostic list =
  if not (Gpcc_util.Once.get symverify_enabled) then begin
    Atomic.incr concrete_fallback_count;
    verify t ~launch k
  end
  else
    let r = timed (fun () -> symbolic_result t k) in
  match Symverify.decide r launch with
  | `Clean ->
      Atomic.incr sym_proof_count;
      []
  | `Errors _ | `Unknown _ ->
      (* certain violations fall back too: the concrete verifier
         reproduces them with its own paths/messages, keeping the
         diagnostics byte-identical to a non-symbolic run *)
      Atomic.incr concrete_fallback_count;
      verify t ~launch k

(* Copy one slot's cached value from the old key to the new key (no
   hit/miss accounting: this is bookkeeping, not a lookup). *)
let carry (t : t) (slot : 'a slot) ~(from_key : string) ~(to_key : string) :
    unit =
  if not (String.equal from_key to_key) then
    match Hashtbl.find_opt slot from_key with
    | None -> ()
    | Some cell ->
        t.tick <- t.tick + 1;
        if
          (not (Hashtbl.mem slot to_key))
          && Hashtbl.length slot >= t.capacity
        then evict_lru slot;
        Hashtbl.replace slot to_key { v = cell.v; tick = t.tick }

let preserve (t : t) ~(kinds : kind list)
    ~(from_ : Ast.kernel * Ast.launch) ~(to_ : Ast.kernel * Ast.launch) :
    unit =
  let k0, l0 = from_ and k1, l1 = to_ in
  let from_kl = lazy (key k0 l0) and to_kl = lazy (key k1 l1) in
  List.iter
    (fun kind ->
      match kind with
      | Affine ->
          carry t t.affine ~from_key:(Lazy.force from_kl)
            ~to_key:(Lazy.force to_kl)
      | Sharing ->
          carry t t.sharing ~from_key:(Lazy.force from_kl)
            ~to_key:(Lazy.force to_kl)
      | Coalesce ->
          carry t t.coalesce ~from_key:(Lazy.force from_kl)
            ~to_key:(Lazy.force to_kl)
      | Regcount ->
          carry t t.regcount ~from_key:(kernel_key k0)
            ~to_key:(kernel_key k1)
      | Verify ->
          carry t t.verify ~from_key:(Lazy.force from_kl)
            ~to_key:(Lazy.force to_kl))
    kinds

(* One instance per worker domain: the exploration pool fans compiles
   out across domains, and a shared table would need a lock on the hot
   path. *)
let domain_instance : t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> create ())

let domain () : t = Domain.DLS.get domain_instance

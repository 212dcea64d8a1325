(** Memoized kernel analyses with bounded, LRU-bias eviction.

    Every layer of the compiler keeps re-deriving the same facts about
    the same intermediate kernels: the affine access table ({!Coalesce_check}),
    the data-sharing summary ({!Sharing}), the register/shared-memory
    estimate ({!Regcount}) and the verifier's diagnostics ({!Verify}).
    The design-space exploration multiplies this: a kernel's 30
    configurations revisit identical intermediate kernels. The pipeline
    computes each of its steps once per input state and hands the same
    physical kernel out again, but every configuration still validates,
    measures and decides on the states it reaches. This cache memoizes
    all four, keyed by a digest of the printed kernel (plus the launch
    for launch-dependent analyses): an analysis belongs to a printed
    state, so any change to the kernel text invalidates implicitly and
    nothing has to be carried across a transform.

    Verification is symbolic first: one record per kernel text holds
    the launch-parametric proof ({!Symverify}) and, for each launch it
    proves clean, the concrete verifier's remaining warnings (its
    lints). The record persists in the artifact store with the lints of
    the launch it was first computed at, so a warm process serves a
    proved launch from one store read.

    Each kernel text is walked once per instance while its plan
    ({!Verify.plan}, memory only, kept for the most recently used
    texts) lives: the plan holds the {!Walk} that {!Symverify} proves
    the text from, its distinct accesses and their replica groups. A
    proved launch is linted from the plan in the launch's derived
    contexts, a launch the proof does not cover is checked in full from
    it, and the access table of any launch is read off it, so no launch
    costs a walk. {!work} counts the walks and the derivations.

    Eviction is bounded and per-entry: when a slot reaches capacity the
    least-recently-used entry is dropped, so hot entries survive a long
    exploration — unlike a blunt [Hashtbl.reset] that wipes the whole
    table mid-sweep.

    Instances are cheap; [domain ()] returns a per-worker-domain
    instance (no locking needed), while the hit/miss counters aggregate
    globally across domains via atomics. *)

open Gpcc_ast

(* One verification record per kernel text: the launch-parametric
   proof, and the concrete verifier's lints at each launch it proves
   clean, as {!verify_sym} consults them *)
type proof = {
  result : Symverify.result;
  mutable lints : (Ast.launch * Verify.diagnostic list) list;
}

module Lru = Gpcc_util.Lru

type t = {
  affine : Coalesce_check.access list Lru.t;
  sharing : Sharing.array_sharing list Lru.t;
  regcount : (int * int) Lru.t;  (** (registers/thread, shared bytes/block) *)
  verify : Verify.diagnostic list Lru.t;
  symbolic : proof Lru.t;  (** verification records, kernel-keyed *)
  plans : Verify.plan Lru.t;  (** one walk per kernel text, memory only *)
  mutable walks : int;
  mutable derivations : int;
}

(* entries per analysis slot before LRU eviction *)
let capacity = 512

(* A plan holds its text's walk, the largest (merged fft states)
   megabytes, so keeping every plan alive grows the heap of a long
   search. A text's launches come close together (one compile, or one
   kernel's grid), so the plans of the most recently used texts serve
   them: 32 hold a kernel's whole Section-4 grid (fft's has 17 texts). *)
let plan_capacity = 32

let create () =
  {
    affine = Lru.create capacity;
    sharing = Lru.create capacity;
    regcount = Lru.create capacity;
    verify = Lru.create capacity;
    symbolic = Lru.create capacity;
    plans = Lru.create plan_capacity;
    walks = 0;
    derivations = 0;
  }

type work = { walks : int; derivations : int }

let work (t : t) = { walks = t.walks; derivations = t.derivations }

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
   applicability tests, the before/after metrics and both verifier tiers
   each start from a kernel the pipeline already holds, and
   merged kernels print to tens of kilobytes. A state is therefore printed
   once: a small per-domain ring keyed by the kernel's physical identity
   keeps its text, and the text at a launch is that text with the launch
   comment spliced in ({!Pp.with_launch}), byte for byte what printing
   with the launch gives. Digests outlive the ring: a per-domain weak
   table keeps them, but not the texts, for every state still alive, so a
   state keyed again after the ring moved on (the funnel measures
   candidates long after compiling them) is not printed again. The AST is
   immutable, so a physically equal kernel always prints the same. *)

type digests = {
  mutable bare : string option;
  mutable at : (Ast.launch * string) list;  (** per launch keyed *)
  mutable typed : bool;  (** passed {!Typecheck.check} in this domain *)
}

type ring_entry = {
  r_kernel : Ast.kernel;
  r_text : string;
  r_digests : digests;
}

(* a pipeline step touches its input and output state; eight entries
   cover a step with room to spare *)
let ring_size = 8

(* keyed by physical identity; the structural hash agrees with it *)
module Live = Ephemeron.K1.Make (struct
  type t = Ast.kernel

  let equal = ( == )
  let hash = Hashtbl.hash
end)

type states = {
  ring : ring_entry option array;
  mutable next : int;
  live : digests Live.t;
}

let states_instance : states Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { ring = Array.make ring_size None; next = 0; live = Live.create 64 })

let ring_find (s : states) (k : Ast.kernel) : ring_entry option =
  let rec go i =
    if i = ring_size then None
    else
      match s.ring.(i) with
      | Some e when e.r_kernel == k -> Some e
      | _ -> go (i + 1)
  in
  go 0

(* the weak entry of a live state, made when [k] has none *)
let live_entry (s : states) (k : Ast.kernel) : digests =
  match Live.find_opt s.live k with
  | Some d -> d
  | None ->
      let d = { bare = None; at = []; typed = false } in
      Live.replace s.live k d;
      d

(* the ring entry of [k], printing [k] when no entry holds it *)
let entry (s : states) (k : Ast.kernel) : ring_entry =
  match ring_find s k with
  | Some e -> e
  | None ->
      let e =
        {
          r_kernel = k;
          r_text = Pp.kernel_to_string k;
          r_digests = live_entry s k;
        }
      in
      s.ring.(s.next) <- Some e;
      s.next <- (s.next + 1) mod ring_size;
      e

let printed ?launch (k : Ast.kernel) : string =
  let text = (entry (Domain.DLS.get states_instance) k).r_text in
  match launch with None -> text | Some l -> Pp.with_launch k text l

(* the digests of [k], without printing it *)
let digests (s : states) (k : Ast.kernel) : digests =
  match ring_find s k with Some e -> e.r_digests | None -> live_entry s k

let digest ?launch (k : Ast.kernel) : string =
  let s = Domain.DLS.get states_instance in
  let d = digests s k in
  match launch with
  | None -> (
      match d.bare with
      | Some h -> h
      | None ->
          let h = Digest.string (entry s k).r_text in
          d.bare <- Some h;
          h)
  | Some l -> (
      match List.find_opt (fun (l', _) -> Ast.equal_launch l' l) d.at with
      | Some (_, h) -> h
      | None ->
          let h = Digest.string (Pp.with_launch k (entry s k).r_text l) in
          d.at <- (l, h) :: d.at;
          h)

(** Cache key of a kernel at a launch configuration. *)
let key (k : Ast.kernel) (l : Ast.launch) : string = digest ~launch:l k

(** Launch-independent key (register/shared-memory estimation). *)
let kernel_key (k : Ast.kernel) : string = digest k

(* The pipeline type-checks its input and its result, and across a
   kernel's grid both are mostly states this domain already checked:
   the same parsed kernel, and results the pipeline's step table hands
   out again. The flag lives with the state's digests. *)
let typecheck (k : Ast.kernel) : unit =
  let d = digests (Domain.DLS.get states_instance) k in
  if not d.typed then begin
    Typecheck.check k;
    d.typed <- true
  end

let find (slot : 'a Lru.t) (key : string) (compute : unit -> 'a) : 'a =
  match Lru.find slot key with
  | Some v ->
      Atomic.incr global_hit_count;
      v
  | None ->
      Atomic.incr global_miss_count;
      let v = compute () in
      Lru.add slot key v;
      v

(* The plan of a kernel text: its one walk in this instance. Not a
   lookup the hit/miss counters see: every analysis that walks reads it. *)
let plan (t : t) (k : Ast.kernel) : Verify.plan =
  let key = kernel_key k in
  match Lru.find t.plans key with
  | Some p -> p
  | None ->
      t.walks <- t.walks + 1;
      let p = Verify.plan k in
      Lru.add t.plans key p;
      p

(* the plan, for deriving one launch's contexts from its walk *)
let derived (t : t) (k : Ast.kernel) : Verify.plan =
  t.derivations <- t.derivations + 1;
  plan t k

let accesses (t : t) ~(launch : Ast.launch) (k : Ast.kernel) :
    Coalesce_check.access list =
  find t.affine (key k launch) (fun () -> Verify.table (derived t k) ~launch)

let sharing (t : t) ~(launch : Ast.launch) (k : Ast.kernel) :
    Sharing.array_sharing list =
  find t.sharing (key k launch) (fun () ->
      Sharing.of_accesses k (accesses t ~launch k))

let regcount (t : t) (k : Ast.kernel) : int * int =
  find t.regcount (kernel_key k) (fun () ->
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

(* codec version 7: versions 1–2 were the hand-rolled pre-store
   formats, version 3 verdicts predate binding loop variables at loop
   entry (a loop reusing an earlier loop's variable was misjudged),
   version 4 verdicts predate forgetting a local reassigned to a
   non-affine value (an older affine binding showed through and could
   hide an out-of-bounds access), version 5 verdicts checked bounds
   once per access text, so a second access through a reassigned local
   went unchecked, and version 6 verdicts skipped every instance of a
   loop whose step reads its variable ([i += i]), so its races went
   unreported; bumping orphans them and the GC ages them out *)
let verdict_kind : Verify.diagnostic list Store.kind =
  Store.make_kind ~name:"verdict" ~version:"7" ~encode:marshal_encode
    ~decode:marshal_decode

(* one entry per kernel text, not per (kernel, launch): the parametric
   result is launch-independent; version 3 for the same loop-variable
   fix as [verdict_kind] (the stale-let fix leaves it alone: the
   symbolic tier does not use {!Affine}), version 4 for launch regions
   as conjunctions of disjunctions of polynomial inequalities, version 5
   for the record that carries the first proved launch's lints, and for
   bounds checked once per access and binding, not per access text (a
   blob of an older version would unmarshal into the wrong shape) *)
let pverdict_kind : proof Store.kind =
  Store.make_kind ~name:"pverdict" ~version:"5" ~encode:marshal_encode
    ~decode:marshal_decode

(* one process-wide handle on the default root, shared by every domain
   (the store is domain-safe); opened on first use so tests that set
   GPCC_CACHE_DIR before it are honored *)
let store_handle : Store.t Gpcc_util.Once.t =
  Gpcc_util.Once.make (fun () -> Store.open_root ())

(* A verification reads the text's plan in the launch's contexts, as
   the access table does: the table it derives fills the [affine] slot,
   so a pass that asks for the table of a state just validated finds
   it. *)
let with_table (t : t) ~(launch : Ast.launch) (k : Ast.kernel) check :
    Verify.diagnostic list =
  let ds, table = check (derived t k) ~launch in
  Lru.add t.affine (key k launch) table;
  ds

let checked (t : t) ~(launch : Ast.launch) (k : Ast.kernel) :
    Verify.diagnostic list =
  with_table t ~launch k (Verify.check_plan ?max_lanes:None)

let verify (t : t) ~(launch : Ast.launch) (k : Ast.kernel) :
    Verify.diagnostic list =
  timed @@ fun () ->
  find t.verify (key k launch) (fun () ->
      let store = Gpcc_util.Once.get store_handle
      and text = printed ~launch k in
      match Store.find store verdict_kind ~key:text with
      | Some ds -> ds
      | None ->
          let ds = checked t ~launch k in
          Store.store store verdict_kind ~key:text ds;
          ds)

(* What the concrete verifier adds to a launch the symbolic tier proves
   clean. The proof settles every error rule, so what is left is
   [Verify]'s warnings: coalescing, unproven bounds and bank conflicts.
   None of them depends on how many lanes the race search enumerates,
   so the lint skips that search ({!Verify.lint}): the text's plan,
   evaluated in the launch's contexts, without another walk. A block
   wider than the search's default 512 lanes, where a full check warns
   [verify-incomplete] for real, is checked in full ({!verify}) and kept
   out of the record. *)
let lintable (l : Ast.launch) = l.block_x * l.block_y <= 512

let lint (t : t) ~(launch : Ast.launch) (k : Ast.kernel) :
    Verify.diagnostic list =
  with_table t ~launch k Verify.lint

(* The record of a kernel text, from memory, the store, or computed. A
   record computed for a launch it proves clean carries that launch's
   lints into its one store write, so a warm process is served both by
   one read; lints of later launches stay in memory, where another
   write would cost a cold sweep more than it saves a warm one. *)
let proof ?launch (t : t) (k : Ast.kernel) : proof =
  find t.symbolic (kernel_key k) (fun () ->
      let store = Gpcc_util.Once.get store_handle and text = printed k in
      match Store.find store pverdict_kind ~key:text with
      | Some p -> p
      | None ->
          let result = Symverify.check ~walk:(Verify.plan_walk (plan t k)) k in
          let lints =
            match launch with
            | Some launch when lintable launch -> (
                match Symverify.decide result launch with
                | `Clean -> [ (launch, lint t ~launch k) ]
                | `Errors _ | `Unknown _ -> [])
            | _ -> []
          in
          let p = { result; lints } in
          Store.store store pverdict_kind ~key:text p;
          p)

let symbolic_result ?launch (t : t) (k : Ast.kernel) : Symverify.result =
  (proof ?launch t k).result

let record_lints (t : t) (k : Ast.kernel) :
    (Ast.launch * Verify.diagnostic list) list =
  (proof t k).lints

let lints (t : t) (p : proof) ~(launch : Ast.launch) (k : Ast.kernel) :
    Verify.diagnostic list =
  if not (lintable launch) then verify t ~launch k
  else
    match List.find_opt (fun (l, _) -> Ast.equal_launch l launch) p.lints with
    | Some (_, ds) -> ds
    | None ->
        timed @@ fun () ->
        let ds = lint t ~launch k in
        p.lints <- (launch, ds) :: p.lints;
        ds

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
    let p = timed (fun () -> proof ~launch t k) in
    match Symverify.decide p.result launch with
    | `Clean ->
        Atomic.incr sym_proof_count;
        lints t p ~launch k
    | `Errors _ | `Unknown _ ->
        (* certain violations fall back too: the concrete verifier
           reproduces them with its own paths/messages, keeping the
           diagnostics byte-identical to a non-symbolic run *)
        Atomic.incr concrete_fallback_count;
        verify t ~launch k

(* One instance per worker domain: the exploration pool fans compiles
   out across domains, and a shared table would need a lock on the hot
   path. *)
let domain_instance : t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> create ())

let domain () : t = Domain.DLS.get domain_instance

(** Memory-transaction formation.

    Global accesses are issued per half warp (16 threads). Under the G80
    strict rule a request coalesces into a single 64-byte (or 128-byte for
    8-byte elements) transaction only when thread [k] accesses word [k] of
    an aligned segment; otherwise every active lane pays a separate
    minimum-size transaction. Under the GT200 relaxed rule the hardware
    issues one transaction per distinct aligned segment touched.

    Shared-memory requests are checked against the 16 banks: the cost of a
    request is the maximum number of distinct addresses mapping to one bank
    (same-address lanes broadcast for free). *)

type tx = {
  tx_addr : int;  (** byte address of the transaction start *)
  tx_bytes : int;
}

(** Transactions for one half-warp global request.
    [addrs] are byte addresses of the *active* lanes (lane, addr) with
    lane in 0..15; [elt_bytes] is the access width per lane. *)
let global_request (rules : Config.coalesce_rules) ~(min_tx : int)
    ~(elt_bytes : int) (addrs : (int * int) list) : tx list =
  if addrs = [] then []
  else
    let seg_bytes = 16 * elt_bytes in
    match rules with
    | Config.Strict_g80 ->
        (* need every active lane k at base + k*elt, base aligned; the
           hardware checks the full half-warp pattern, so any deviation
           serializes all lanes *)
        let base = snd (List.hd addrs) - (fst (List.hd addrs) * elt_bytes) in
        let ok =
          base mod seg_bytes = 0
          && List.for_all
               (fun (lane, a) -> a = base + (lane * elt_bytes))
               addrs
        in
        if ok then [ { tx_addr = base; tx_bytes = seg_bytes } ]
        else
          List.map
            (fun (_, a) ->
              { tx_addr = a / min_tx * min_tx; tx_bytes = min_tx })
            addrs
    | Config.Relaxed_gt200 ->
        (* one transaction per distinct aligned segment; segment size is
           the smallest of 32/64/128 bytes covering the lanes in it. A
           half warp touches at most 16 segments (usually 1 or 2), so a
           small association list in first-touch order — the order the
           lanes issue them — beats hashing *)
        let seg = max 32 seg_bytes in
        let segs = ref [] in
        List.iter
          (fun (_, a) ->
            let s = a / seg * seg in
            match List.find_opt (fun (s', _, _) -> s' = s) !segs with
            | Some (_, lo, hi) ->
                lo := min !lo a;
                hi := max !hi (a + elt_bytes)
            | None -> segs := (s, ref a, ref (a + elt_bytes)) :: !segs)
          addrs;
        List.rev_map
          (fun (_s, lo, hi) ->
            (* shrink to the smallest aligned power-of-two region >= 32B *)
            let lo = !lo and hi' = !hi - 1 in
            let rec shrink size =
              let half = size / 2 in
              if half >= 32 && lo / half = hi' / half then shrink half
              else size
            in
            let size = shrink seg in
            { tx_addr = lo / size * size; tx_bytes = size })
          !segs

(** Cost in serialized cycles of one half-warp shared-memory request.
    [word_addrs] are the 4-byte word indices accessed by active lanes. *)
let shared_request ~(banks : int) (word_addrs : int list) : int =
  if word_addrs = [] then 0
  else begin
    (* at most 16 lanes per request: count distinct words per bank with
       a quadratic dedup scan instead of per-request hash tables *)
    let counts = Array.make banks 0 in
    let rec go seen = function
      | [] -> ()
      | w :: tl ->
          if List.mem w seen then go seen tl
          else begin
            let b = ((w mod banks) + banks) mod banks in
            counts.(b) <- counts.(b) + 1;
            go (w :: seen) tl
          end
    in
    go [] word_addrs;
    Array.fold_left max 1 counts
  end

(* --- memoized transaction counts ---

   Timing only needs (transactions, bytes) per half-warp request, and
   those are invariant under shifting every lane address by a multiple
   of the coarsest alignment the rules inspect: the G80 base-alignment
   check works modulo [16*elt_bytes], the GT200 segment split and
   power-of-two shrink work modulo the segment size (whose halves all
   divide it), and the uncoalesced fallback rounds to [min_tx]. So a
   request digest of (rules, widths, lanes, addresses mod granularity)
   keys a cache that turns the per-block recomputation of identical
   access patterns into one table lookup. Absolute transaction
   addresses are NOT shift-invariant, but their offsets relative to the
   first lane's address ARE, so the plane digests below carry a
   relative layout that recording callers replay against the live base
   address. *)

(** Cost digest for one full access plane (every half-warp of a block's
    lanes at one memory site). [pd_hw] holds (ntx, bytes) per half-warp
    group in ascending order; [pd_layout] holds (offset-from-first-lane-
    address, bytes) per transaction, concatenated in the exact order the
    reference backend emits them, so partition-stream recording can be
    replayed against any live base address. *)
type plane_digest = {
  pd_nhw : int;
  pd_hw : int array;  (** 2*nhw: per-group transactions, bytes *)
  pd_layout : int array;  (** 2*ntx: per-tx offset from lane-0 addr, bytes *)
  pd_ntx : int;  (** total transactions across the plane *)
  pd_bytes : int;  (** total bytes across the plane *)
}

(* Per-domain memo state. Both tables use a two-generation scheme: a
   lookup probes the live generation then the previous one (promoting
   survivors), and filling the live generation retires the previous one
   wholesale instead of wiping everything — steady-state workloads keep
   their hot entries across the flip instead of cold-restarting. *)
type mstate = {
  mutable tbl : (int array, int * int) Hashtbl.t;
  mutable tbl_old : (int array, int * int) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable ptbl : (int array, plane_digest) Hashtbl.t;
  mutable ptbl_old : (int array, plane_digest) Hashtbl.t;
  mutable phits : int;
  mutable pmisses : int;
}

let memo_mutex = Mutex.create ()

(* one state per worker domain (no lock on the hot path); the registry
   is only touched on domain-first-use, on domain exit and by the
   counter readers. Counters of exited domains are folded into the
   retired_* aggregates so the live list stays bounded by the number of
   running domains rather than growing across pool recreations. *)
let memo_states : mstate list ref = ref []
let retired_hits = ref 0
let retired_misses = ref 0
let retired_phits = ref 0
let retired_pmisses = ref 0

let memo_state : mstate Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let s =
        {
          tbl = Hashtbl.create 256;
          tbl_old = Hashtbl.create 16;
          hits = 0;
          misses = 0;
          ptbl = Hashtbl.create 64;
          ptbl_old = Hashtbl.create 16;
          phits = 0;
          pmisses = 0;
        }
      in
      Mutex.lock memo_mutex;
      memo_states := s :: !memo_states;
      Mutex.unlock memo_mutex;
      Domain.at_exit (fun () ->
          Mutex.lock memo_mutex;
          retired_hits := !retired_hits + s.hits;
          retired_misses := !retired_misses + s.misses;
          retired_phits := !retired_phits + s.phits;
          retired_pmisses := !retired_pmisses + s.pmisses;
          memo_states := List.filter (fun s' -> s' != s) !memo_states;
          Mutex.unlock memo_mutex);
      s)

let sum_states retired f =
  Mutex.lock memo_mutex;
  let v = List.fold_left (fun acc s -> acc + f s) !retired !memo_states in
  Mutex.unlock memo_mutex;
  v

let memo_hits () = sum_states retired_hits (fun s -> s.hits)
let memo_misses () = sum_states retired_misses (fun s -> s.misses)
let plane_memo_hits () = sum_states retired_phits (fun s -> s.phits)
let plane_memo_misses () = sum_states retired_pmisses (fun s -> s.pmisses)

(** Same, for caller-side caches layered over the plane memo (the
    vector backend's per-site digest cache and closed-form replays). *)
let bump_plane_hits n =
  let st = Domain.DLS.get memo_state in
  st.phits <- st.phits + n

(* patterns per launch are few (tens); the caps only guard degenerate
   address soups from e.g. fuzzed kernels. Each table holds up to
   [gen_max] entries per generation, so the steady-state footprint is
   bounded by 2*gen_max while hot entries survive generation flips. *)
let gen_max = 4096
let plane_gen_max = 4096

(* generic two-generation lookup/insert over the pair of tables held by
   [get]/[set] accessors; [compute] runs only on a double miss *)
let two_gen_find st ~live ~old ~flip ~hit ~miss key compute =
  match Hashtbl.find_opt (live st) key with
  | Some r ->
      hit st;
      r
  | None -> (
      match Hashtbl.find_opt (old st) key with
      | Some r ->
          (* survivor: promote into the live generation *)
          hit st;
          flip st;
          Hashtbl.add (live st) key r;
          r
      | None ->
          miss st;
          let r = compute () in
          flip st;
          Hashtbl.add (live st) key r;
          r)

let memo_granularity ~min_tx ~elt_bytes =
  let s = max 32 (16 * elt_bytes) in
  if s mod min_tx = 0 then s else s * min_tx

let request_cost (rules : Config.coalesce_rules) ~(min_tx : int)
    ~(elt_bytes : int) ~(lane0 : int) ~(cnt : int) (addrs : int array) :
    int * int =
  let st = Domain.DLS.get memo_state in
  let g = memo_granularity ~min_tx ~elt_bytes in
  let amin = ref addrs.(0) in
  for t = 1 to cnt - 1 do
    if addrs.(t) < !amin then amin := addrs.(t)
  done;
  let base = !amin / g * g in
  let key = Array.make (5 + cnt) 0 in
  key.(0) <- (match rules with Config.Strict_g80 -> 0 | Config.Relaxed_gt200 -> 1);
  key.(1) <- min_tx;
  key.(2) <- elt_bytes;
  key.(3) <- lane0;
  key.(4) <- cnt;
  for t = 0 to cnt - 1 do
    key.(5 + t) <- addrs.(t) - base
  done;
  two_gen_find st
    ~live:(fun s -> s.tbl)
    ~old:(fun s -> s.tbl_old)
    ~flip:(fun s ->
      if Hashtbl.length s.tbl >= gen_max then begin
        s.tbl_old <- s.tbl;
        s.tbl <- Hashtbl.create 256
      end)
    ~hit:(fun s -> s.hits <- s.hits + 1)
    ~miss:(fun s -> s.misses <- s.misses + 1)
    key
    (fun () ->
      let pairs = List.init cnt (fun t -> (lane0 + t, addrs.(t) - base)) in
      let txs = global_request rules ~min_tx ~elt_bytes pairs in
      let ntx = List.length txs in
      let bytes = List.fold_left (fun a t -> a + t.tx_bytes) 0 txs in
      (ntx, bytes))

(* --- plane-granularity cost digests ---

   A full-mask access plane whose lane addresses are segmented-strided —
   a uniform byte stride [d] between consecutive lanes of a half-warp
   group and a uniform delta [dd] between consecutive group base
   addresses — is fully characterized, up to a shift by a multiple of
   the memo granularity, by (rules, min_tx, elt_bytes, n, a0 mod g, d,
   dd). That shape subsumes flat strides (dd = 16*d) and the dominant
   2-D patterns (a[idy][k] has d = 0, dd = row pitch; b[k][idx] has
   d = elt, dd = 0). The digest computed once per pattern carries both
   per-group totals and the full transaction layout relative to the
   first lane's address, so even partition-recording runs replay it
   without re-forming transactions. *)

let plane_cost (rules : Config.coalesce_rules) ~(min_tx : int)
    ~(elt_bytes : int) ~(n : int) ~(rel0 : int) ~(d : int) ~(dd : int) :
    plane_digest =
  let st = Domain.DLS.get memo_state in
  let key =
    [|
      (match rules with Config.Strict_g80 -> 0 | Config.Relaxed_gt200 -> 1);
      min_tx;
      elt_bytes;
      n;
      rel0;
      d;
      dd;
    |]
  in
  two_gen_find st
    ~live:(fun s -> s.ptbl)
    ~old:(fun s -> s.ptbl_old)
    ~flip:(fun s ->
      if Hashtbl.length s.ptbl >= plane_gen_max then begin
        s.ptbl_old <- s.ptbl;
        s.ptbl <- Hashtbl.create 64
      end)
    ~hit:(fun s -> s.phits <- s.phits + 1)
    ~miss:(fun s -> s.pmisses <- s.pmisses + 1)
    key
    (fun () ->
      let g = memo_granularity ~min_tx ~elt_bytes in
      let nhw = (n + 15) / 16 in
      (* synthesize lane addresses from the pattern; negative strides can
         drive synthetic addresses below zero where integer division no
         longer floors, so lift everything by a multiple of g first (cost
         and relative layout are invariant under that shift) *)
      let amin = ref rel0 in
      for q = 0 to nhw - 1 do
        let cnt = min 16 (n - (16 * q)) in
        let b = rel0 + (q * dd) in
        let last = b + ((cnt - 1) * d) in
        if b < !amin then amin := b;
        if last < !amin then amin := last
      done;
      let lift = if !amin < 0 then (g - 1 - !amin) / g * g else 0 in
      let a0 = rel0 + lift in
      let hw = Array.make (2 * nhw) 0 in
      let lay = ref [] in
      let tot_tx = ref 0 and tot_bytes = ref 0 in
      for q = 0 to nhw - 1 do
        let cnt = min 16 (n - (16 * q)) in
        let b = a0 + (q * dd) in
        let pairs = List.init cnt (fun t -> (t, b + (t * d))) in
        let txs = global_request rules ~min_tx ~elt_bytes pairs in
        let ntx = List.length txs in
        let bytes = List.fold_left (fun a t -> a + t.tx_bytes) 0 txs in
        hw.(2 * q) <- ntx;
        hw.((2 * q) + 1) <- bytes;
        tot_tx := !tot_tx + ntx;
        tot_bytes := !tot_bytes + bytes;
        List.iter
          (fun t -> lay := t.tx_bytes :: (t.tx_addr - a0) :: !lay)
          txs
      done;
      {
        pd_nhw = nhw;
        pd_hw = hw;
        pd_layout = Array.of_list (List.rev !lay);
        pd_ntx = !tot_tx;
        pd_bytes = !tot_bytes;
      })

(** Sentinel digest for unfilled per-site caches. *)
let empty_digest =
  { pd_nhw = 0; pd_hw = [||]; pd_layout = [||]; pd_ntx = 0; pd_bytes = 0 }

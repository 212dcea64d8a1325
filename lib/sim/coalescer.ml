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

(* --- allocation-free formation ---

   The same two rules on arrays, for the simulator's hot paths: a half
   warp is a slice of parallel lane and address arrays, and its
   transactions land in a reusable scratch record instead of a list.
   Emission order is first touch, as in {!global_request}. *)

type scratch = {
  seg_s : int array;
  seg_lo : int array;
  seg_hi : int array;
  txs : int array;
  mutable ntx : int;
  mutable bytes : int;
}

let scratch () =
  {
    seg_s = Array.make 16 0;
    seg_lo = Array.make 16 0;
    seg_hi = Array.make 16 0;
    txs = Array.make 32 0;
    ntx = 0;
    bytes = 0;
  }

let[@inline] emit sc a b =
  let q = sc.ntx in
  sc.txs.(2 * q) <- a;
  sc.txs.((2 * q) + 1) <- b;
  sc.ntx <- q + 1;
  sc.bytes <- sc.bytes + b

let form (rules : Config.coalesce_rules) ~(min_tx : int) ~(elt_bytes : int)
    (sc : scratch) (addrs : int array) ~(lanes : int array) ~(off : int)
    ~(cnt : int) : unit =
  sc.ntx <- 0;
  sc.bytes <- 0;
  let seg_bytes = 16 * elt_bytes in
  match rules with
  | Config.Strict_g80 ->
      let base = addrs.(off) - (lanes.(off) mod 16 * elt_bytes) in
      let ok = ref (base mod seg_bytes = 0) in
      let t = ref off in
      while !ok && !t < off + cnt do
        if addrs.(!t) <> base + (lanes.(!t) mod 16 * elt_bytes) then
          ok := false;
        incr t
      done;
      if !ok then emit sc base seg_bytes
      else
        for t = off to off + cnt - 1 do
          emit sc (addrs.(t) / min_tx * min_tx) min_tx
        done
  | Config.Relaxed_gt200 ->
      let seg = if seg_bytes > 32 then seg_bytes else 32 in
      let seg_s = sc.seg_s and seg_lo = sc.seg_lo and seg_hi = sc.seg_hi in
      let nsegs = ref 0 in
      for t = off to off + cnt - 1 do
        let a = addrs.(t) in
        let s = a / seg * seg in
        let q = ref 0 in
        while !q < !nsegs && seg_s.(!q) <> s do
          incr q
        done;
        if !q < !nsegs then begin
          if a < seg_lo.(!q) then seg_lo.(!q) <- a;
          if a + elt_bytes > seg_hi.(!q) then seg_hi.(!q) <- a + elt_bytes
        end
        else begin
          seg_s.(!nsegs) <- s;
          seg_lo.(!nsegs) <- a;
          seg_hi.(!nsegs) <- a + elt_bytes;
          incr nsegs
        end
      done;
      for q = 0 to !nsegs - 1 do
        (* shrink to the smallest aligned power-of-two >= 32B *)
        let lo = seg_lo.(q) and hi' = seg_hi.(q) - 1 in
        let size = ref seg in
        let continue = ref true in
        while !continue do
          let half = !size / 2 in
          if half >= 32 && lo / half = hi' / half then size := half
          else continue := false
        done;
        emit sc (lo / !size * !size) !size
      done

let bank_cost ~(banks : int) (counts : int array) (words : int array)
    ~(off : int) ~(cnt : int) : int =
  if cnt = 1 then 1
  else begin
    Array.fill counts 0 banks 0;
    let worst = ref 1 in
    for t = off to off + cnt - 1 do
      let w = words.(t) in
      (* same-address lanes broadcast for free *)
      let dup = ref false in
      for t' = off to t - 1 do
        if words.(t') = w then dup := true
      done;
      if not !dup then begin
        let b = ((w mod banks) + banks) mod banks in
        let k = counts.(b) + 1 in
        counts.(b) <- k;
        if k > !worst then worst := k
      end
    done;
    !worst
  end

let half_warps (m : int array) (f : int -> int -> unit) : unit =
  let n = Array.length m in
  let i = ref 0 in
  while !i < n do
    let hw = m.(!i) / 16 in
    let j = ref (!i + 1) in
    while !j < n && m.(!j) / 16 = hw do
      incr j
    done;
    f !i (!j - !i);
    i := !j
  done

(* --- memoized plane digests ---

   Timing only needs (transactions, bytes) per half-warp request, and
   those are invariant under shifting every lane address by a multiple
   of the coarsest alignment the rules inspect: the G80 base-alignment
   check works modulo [16*elt_bytes], the GT200 segment split and
   power-of-two shrink work modulo the segment size (whose halves all
   divide it), and the uncoalesced fallback rounds to [min_tx].
   Absolute transaction addresses are NOT shift-invariant, but their
   offsets relative to the first lane's address ARE, so the plane
   digests below carry a relative layout that recording callers replay
   against the live base address.

   A full-mask access plane whose lane addresses are segmented-strided —
   a uniform byte stride [d] between consecutive lanes of a half-warp
   group and a uniform delta [dd] between consecutive group base
   addresses — is fully characterized, up to a shift by a multiple of
   the memo granularity, by (rules, min_tx, elt_bytes, n, a0 mod g, d,
   dd). That shape subsumes flat strides (dd = 16*d), the dominant 2-D
   patterns (a[idy][k] has d = 0, dd = row pitch; b[k][idx] has
   d = elt, dd = 0) and block-uniform accesses (d = dd = 0). The digest
   computed once per pattern carries both per-group totals and the full
   transaction layout, so even partition-recording runs replay it
   without re-forming transactions. *)

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

let digest_of_plane (rules : Config.coalesce_rules) ~(min_tx : int)
    ~(elt_bytes : int) (sc : scratch) (addrs : int array)
    ~(lanes : int array) ~(a0 : int) : plane_digest =
  (* a half warp forms at most one transaction per lane *)
  let n = Array.length lanes in
  let hw = Array.make (2 * n) 0 and lay = Array.make (2 * n) 0 in
  let nhw = ref 0 and ntx = ref 0 and bytes = ref 0 in
  half_warps lanes (fun off cnt ->
      form rules ~min_tx ~elt_bytes sc addrs ~lanes ~off ~cnt;
      hw.(2 * !nhw) <- sc.ntx;
      hw.((2 * !nhw) + 1) <- sc.bytes;
      incr nhw;
      for q = 0 to sc.ntx - 1 do
        lay.(2 * !ntx) <- sc.txs.(2 * q) - a0;
        lay.((2 * !ntx) + 1) <- sc.txs.((2 * q) + 1);
        incr ntx
      done;
      bytes := !bytes + sc.bytes);
  {
    pd_nhw = !nhw;
    pd_hw = Array.sub hw 0 (2 * !nhw);
    pd_layout = Array.sub lay 0 (2 * !ntx);
    pd_ntx = !ntx;
    pd_bytes = !bytes;
  }

(* Per-domain memo state. The digest table uses a two-generation scheme:
   a lookup probes the live generation then the previous one (promoting
   survivors), and filling the live generation retires the previous one
   wholesale instead of wiping everything — steady-state workloads keep
   their hot entries across the flip instead of cold-restarting. *)
type mstate = {
  mutable ptbl : (int array, plane_digest) Hashtbl.t;
  mutable ptbl_old : (int array, plane_digest) Hashtbl.t;
  mutable phits : int;
  mutable pmisses : int;
  sc : scratch;  (** formation scratch for memo misses *)
}

let memo_mutex = Mutex.create ()

(* one state per worker domain (no lock on the hot path); the registry
   is only touched on domain-first-use, on domain exit and by the
   counter readers. Counters of exited domains are folded into the
   retired_* aggregates so the live list stays bounded by the number of
   running domains rather than growing across pool recreations. *)
let memo_states : mstate list ref = ref []
let retired_phits = ref 0
let retired_pmisses = ref 0

let memo_state : mstate Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let s =
        {
          ptbl = Hashtbl.create 64;
          ptbl_old = Hashtbl.create 16;
          phits = 0;
          pmisses = 0;
          sc = scratch ();
        }
      in
      Mutex.lock memo_mutex;
      memo_states := s :: !memo_states;
      Mutex.unlock memo_mutex;
      Domain.at_exit (fun () ->
          Mutex.lock memo_mutex;
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

let plane_memo_hits () = sum_states retired_phits (fun s -> s.phits)
let plane_memo_misses () = sum_states retired_pmisses (fun s -> s.pmisses)

(** Same, for caller-side caches layered over the plane memo (the
    vector backend's per-site digest cache and closed-form replays). *)
let bump_plane_hits n =
  let st = Domain.DLS.get memo_state in
  st.phits <- st.phits + n

(* patterns per launch are few (tens); the cap only guards degenerate
   address soups from e.g. fuzzed kernels. The table holds up to
   [plane_gen_max] entries per generation, so the steady-state footprint
   is bounded by 2*plane_gen_max while hot entries survive generation
   flips. *)
let plane_gen_max = 4096

let memo_granularity ~min_tx ~elt_bytes =
  let s = max 32 (16 * elt_bytes) in
  if s mod min_tx = 0 then s else s * min_tx

(* file [dig] in the live generation, retiring the previous one when the
   live one is full *)
let memo_add st key dig =
  if Hashtbl.length st.ptbl >= plane_gen_max then begin
    st.ptbl_old <- st.ptbl;
    st.ptbl <- Hashtbl.create 64
  end;
  Hashtbl.add st.ptbl key dig

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
  match Hashtbl.find_opt st.ptbl key with
  | Some dig ->
      st.phits <- st.phits + 1;
      dig
  | None -> (
      match Hashtbl.find_opt st.ptbl_old key with
      | Some dig ->
          (* survivor: promote into the live generation *)
          st.phits <- st.phits + 1;
          memo_add st key dig;
          dig
      | None ->
          st.pmisses <- st.pmisses + 1;
          let g = memo_granularity ~min_tx ~elt_bytes in
          let nhw = (n + 15) / 16 in
          (* synthesize lane addresses from the pattern; negative strides
             can drive synthetic addresses below zero where integer
             division no longer floors, so lift everything by a multiple
             of g first (cost and relative layout are invariant under
             that shift) *)
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
          let addrs =
            Array.init n (fun l -> a0 + (l / 16 * dd) + (l mod 16 * d))
          in
          let dig =
            digest_of_plane rules ~min_tx ~elt_bytes st.sc addrs
              ~lanes:(Array.init n Fun.id) ~a0
          in
          memo_add st key dig;
          dig)

(** Sentinel digest for unfilled per-site caches. *)
let empty_digest =
  { pd_nhw = 0; pd_hw = [||]; pd_layout = [||]; pd_ntx = 0; pd_bytes = 0 }

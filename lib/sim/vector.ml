(** Warp-vectorized simulator backend on flat Bigarray storage.

    The reference interpreter ({!Interp}) re-dispatches on the AST,
    resolves every variable through a [Hashtbl] per statement per block
    and allocates a fresh per-lane array for every expression node. This
    backend stages that work once per (kernel, launch) pair:

    - every variable resolves to a fixed slot per declaration site — a
      plane, a uniform register, a shared or global array index, or a
      compile-time constant for a [#pragma gpcc dim]-bound parameter —
      which is sound because the type checker enforces strict lexical
      scoping with no shadowing;
    - every statement and expression node becomes an OCaml closure over
      a per-block runtime record;
    - values live in a structure-of-arrays register file: one {e plane}
      (a contiguous [n]-lane row of a flat {!Devmem.fmem} / [int array])
      per live value, assigned at plan time by a free-list allocator, so
      steady-state execution allocates nothing and the hot loops are
      dense [for]-ranges over [Bigarray.Array1] storage.

    Divergence is handled exactly like the reference — masks are arrays
    of active lane ids — but the overwhelmingly common full-block mask
    is detected per node ([Array.length m = n]) and runs the dense
    unmasked loop, and a guard whose lanes all agree hands its incoming
    mask to the taken branch, so only a split guard builds masks.
    Expressions the analysis proves block-uniform evaluate on a scalar
    [U*] channel fused into the lane loops instead of filling planes:
    literals, [#pragma gpcc dim]-bound int parameters, block-level
    builtins, loop variables with uniform bounds, the thread builtins
    along a block dimension of 1, and [int] locals whose uniform
    initializer is their only write. No lane loop over float planes
    calls a function value: float operators are plan-time variants
    matched inside the loop, so on a compiler without flambda the float
    operands stay unboxed (see the float-operator note).

    Memory accounting is the same half-warp math as
    {!Interp.account_global}, but full-mask accesses are digested a
    whole {e plane} at a time: one dense pass classifies the access as
    segmented-strided and resolves it against {!Coalescer.plane_cost} —
    a per-domain plane-granularity memo — fronted by a per-site
    one-entry digest cache. An index that is lane-affine
    ([ax * tidx + ay * tidy + u] with compile-time coefficients and a
    block-uniform [u]) is planned once as a pattern plane that is the
    same in every block plus a scalar (see the index-plan note). Such a
    site is {e stable}: only its base moves, so a later execution
    replays the cached digest at a congruent base — the closed-form
    loop credit — finds it in the site's residue table (indexed by the
    base modulo the memo granularity) otherwise, and walks no lane in
    either case. A block-uniform site keeps its half-warp cost per
    residue the same way.

    An innermost uniform loop whose body only reads memory and updates
    float registers runs {e lane-outer}: a trip pass does every trip's
    accounting and bounds checks without touching a lane, and a values
    pass then runs each lane through all the trips (see the lane-outer
    note).

    Bit-identity with the reference interpreter is preserved by
    identical float operations on identical values in identical order
    (left to right, matching the sequenced reference), identical
    exact-integer statistic sums, and the one inexact accumulator
    ([cost_bytes]) fed per half-warp in ascending order with the same
    per-half-warp byte counts.

    A kernel using an unsupported or ill-typed shape fails planning with
    {!Unsupported}; the caller ({!Launch}) falls back to the reference
    backend, which reproduces the interpreter's runtime errors. *)

open Gpcc_ast
open Gpcc_analysis

exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

(* --- per-block runtime state --- *)

type vrt = {
  c : Interp.bctx;  (** stats, config, launch, tids, partition stream *)
  n : int;  (** threads per block (= [c.n], cached for the loops) *)
  fp : Devmem.fmem;  (** float planes, [nf] rows of [n] lanes *)
  ip : int array;  (** int planes; bool planes hold 0/1 *)
  shareds : Devmem.fmem array;  (** shared arrays, one per name *)
  globals : Devmem.arr array;  (** resolved global parameters *)
  uregs : int array;
      (** uniform int registers (uniform loop variables and locals) *)
  hw_addrs : int array;  (** 16-slot scratch for half-warp addresses *)
  pl_addrs : int array;  (** [n]-slot scratch for whole-plane addresses *)
  site_a0 : int array;
      (** per global site: lane-0 byte address the cached digest was
          built against ([min_int] = no digest yet) *)
  site_rel0 : int array;  (** per site: cached digest key, [a0 mod g] *)
  site_d : int array;
      (** per site: within-group byte stride of the cached digest
          ([min_int] = invalid, [max_int] = irregular stable shape) *)
  site_dd : int array;  (** per site: group-base delta of the digest *)
  site_dig : Coalescer.plane_digest array;
      (** per site: cached plane digest (totals + relative tx layout,
          so partition-recording runs replay it too) *)
  site_tab : Coalescer.plane_digest array array;
      (** per stable global site: its plane digests by base residue
          [a0 mod g] ([[||]] until first used, {!Coalescer.empty_digest}
          = residue not seen yet) *)
  site_ctab : int array array;
      (** per block-uniform global site: full half-warp group
          [(transactions, bytes)] by address residue, [2g] slots
          ([[||]] until first used, [-1] = residue not seen yet) *)
  site_sh_d : int array;
      (** per shared site: word stride of the cached plane totals
          ([min_int] = invalid, [max_int] = irregular stable shape) *)
  site_sh_extra : int array;
      (** per shared site: total bank-conflict extra across the plane *)
  sh_counts : int array;  (** per-bank scratch, [cfg.shared_banks] slots *)
  tx_buf : int array;
      (** [addr; bytes] pairs of the last {!record_group}, 32 slots *)
  seg_s : int array;  (** 16-slot segment-formation scratch *)
  seg_lo : int array;
  seg_hi : int array;
  mutable lo_ibuf : int array;
      (** lane-outer trip buffer: per trip, a row of site offsets and
          statement flags (see the lane-outer note); grown on demand *)
  mutable lo_fbuf : Devmem.fmem;  (** per trip, the uniform leaves' values *)
  mutable lo_bnd : int array;
      (** per lane-affine site of the running lane-outer loop: least and
          greatest pattern value over the active mask *)
  mutable site_hits : int;  (** digest-cache hits, flushed per phase *)
  mutable cf_credits : int;
      (** closed-form loop replays, flushed per phase *)
}

let inst rt = Interp.inst rt.c
let flops rt k = Interp.flops rt.c k

(* the bigarray/array primitives at monomorphic types, so they
   specialize to direct unboxed loads and stores (a bare alias of the
   polymorphic external eta-expands into the generic C call, which would
   dominate the hot loops). The float pair are primitives, not inlined
   wrappers: an inlined wrapper binds its float argument as a generic
   value, which boxes any lane result that can be a boxed variable —
   e.g. [Float.max x u] with a uniform [u] — once per lane. *)
external fget : Devmem.fmem -> int -> float = "%caml_ba_unsafe_ref_1"
external fset : Devmem.fmem -> int -> float -> unit = "%caml_ba_unsafe_set_1"

let[@inline] iget (a : int array) (i : int) : int = Array.unsafe_get a i

let[@inline] iset (a : int array) (i : int) (v : int) : unit =
  Array.unsafe_set a i v

(* --- memory accounting ---

   Same per-half-warp math and emission order as the reference, but
   batched a plane at a time on the full block mask: the half warps are
   exactly the contiguous 16-lane groups with lane0 = 0, and one dense
   pass classifies the plane as segmented-strided — uniform byte stride
   [d] within each group, uniform delta [dd] between group bases, the
   shape of every flat and 2-D affine access. Such a plane resolves
   against {!Coalescer.plane_cost} (a per-domain memo of whole-plane
   digests), fronted by a per-site one-entry cache, and the digest is
   replayed with batched statistic adds instead of per-group work.
   Partition-stream recording ([record_tx]) needs absolute transaction
   addresses, which are not shift-invariant; but the transaction
   *offsets* from the first lane address are, so digests carry the
   layout and recording replays it against the current base.

   Sites marked [stable] by the planner read a pattern plane, whose
   contents are the same in every block, plus a uniform offset (see the
   index-plan note). Once such a site has a digest, an execution whose
   base moved by a multiple of the memo granularity replays it after an
   O(1) congruence check — no lane walk at all. That is the closed-form
   uniform-loop credit: the per-iteration cost is computed once and
   re-applied per trip ([cf_credits] counts the replays). At any other
   base the digest is a function of the base residue alone, so the
   site's residue table serves it; a residue seen for the first time is
   fetched from the plane memo (segmented shapes) or digested group by
   group (irregular ones) and filed there. Partial masks fall back to
   the per-group math. *)

let width_eff (cfg : Config.t) ~(elt_bytes : int) =
  if elt_bytes >= 16 then cfg.Config.bw_efficiency_16b
  else if elt_bytes >= 8 then cfg.Config.bw_efficiency_8b
  else 1.0

let apply_hw (c : Interp.bctx) ~(is_store : bool) ~(weff : float) ntx bytes =
  let s = c.Interp.stats in
  let ntx = float_of_int ntx and bytes = float_of_int bytes in
  s.Stats.cost_bytes <- s.Stats.cost_bytes +. (bytes /. weff);
  if is_store then begin
    s.Stats.gst_tx <- s.Stats.gst_tx +. ntx;
    s.Stats.gst_bytes <- s.Stats.gst_bytes +. bytes;
    s.Stats.gst_requests <- s.Stats.gst_requests +. 1.
  end
  else begin
    s.Stats.gld_tx <- s.Stats.gld_tx +. ntx;
    s.Stats.gld_bytes <- s.Stats.gld_bytes +. bytes;
    s.Stats.gld_requests <- s.Stats.gld_requests +. 1.
  end

(** Granularity below which the coalescing rules inspect addresses; see
    the memo note in {!Coalescer}. *)
let memo_granularity = Coalescer.memo_granularity

(** Closed-form loop replays across every block and domain; per-block
    counts accumulate in [rt.cf_credits] and flush here per phase. *)
let closed_form = Atomic.make 0

let closed_form_credits () = Atomic.get closed_form

(** Apply [reps] identical half-warp requests. The reference adds each
    group's byte cost in sequence; when the width-efficiency divisor is
    1 and the accumulator is still an exact integer, every partial sum
    is an exact integer too, so one batched add per field is bitwise
    identical. Otherwise fall back to the sequential loop. *)
let apply_hw_n (c : Interp.bctx) ~(is_store : bool) ~(weff : float)
    ~(reps : int) ntx bytes =
  if reps > 0 then begin
    let s = c.Interp.stats in
    if weff = 1.0 && Float.is_integer s.Stats.cost_bytes then begin
      let freps = float_of_int reps in
      s.Stats.cost_bytes <- s.Stats.cost_bytes +. float_of_int (reps * bytes);
      if is_store then begin
        s.Stats.gst_tx <- s.Stats.gst_tx +. float_of_int (reps * ntx);
        s.Stats.gst_bytes <- s.Stats.gst_bytes +. float_of_int (reps * bytes);
        s.Stats.gst_requests <- s.Stats.gst_requests +. freps
      end
      else begin
        s.Stats.gld_tx <- s.Stats.gld_tx +. float_of_int (reps * ntx);
        s.Stats.gld_bytes <- s.Stats.gld_bytes +. float_of_int (reps * bytes);
        s.Stats.gld_requests <- s.Stats.gld_requests +. freps
      end
    end
    else
      for _ = 1 to reps do
        apply_hw c ~is_store ~weff ntx bytes
      done
  end

(** Form and record the transactions of one gathered half warp, written
    into [rt.tx_buf] as [addr; bytes] pairs (recording needs the
    absolute addresses, so the shift-invariant
    {!Coalescer.request_cost} memo cannot serve it). Same math and
    first-touch emission order as {!Interp.account_global}'s fast path;
    lane 0 of the group is always thread 0 of its half warp here
    because full-mask groups start at multiples of 16. *)
let record_group (rt : vrt) ~(elt_bytes : int) (addrs : int array) (cnt : int)
    : int * int =
  let c = rt.c in
  let cfg = c.Interp.cfg in
  let buf = rt.tx_buf in
  let ntx = ref 0 and bytes = ref 0 in
  let emit a b =
    buf.(2 * !ntx) <- a;
    buf.((2 * !ntx) + 1) <- b;
    incr ntx;
    bytes := !bytes + b;
    Interp.record_part c a
  in
  let seg_bytes = 16 * elt_bytes in
  (match cfg.Config.coalesce_rules with
  | Config.Strict_g80 ->
      let base = addrs.(0) in
      let ok = ref (base mod seg_bytes = 0) in
      if !ok then
        for t = 0 to cnt - 1 do
          if addrs.(t) <> base + (t * elt_bytes) then ok := false
        done;
      if !ok then emit base seg_bytes
      else begin
        let min_tx = cfg.Config.min_transaction_bytes in
        for t = 0 to cnt - 1 do
          emit (addrs.(t) / min_tx * min_tx) min_tx
        done
      end
  | Config.Relaxed_gt200 ->
      let seg = if seg_bytes > 32 then seg_bytes else 32 in
      let seg_s = rt.seg_s and seg_lo = rt.seg_lo and seg_hi = rt.seg_hi in
      let nsegs = ref 0 in
      for t = 0 to cnt - 1 do
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
        emit (lo / !size * !size) !size
      done);
  (!ntx, !bytes)

(** Account one half-warp group of a partial mask whose lane addresses
    are already gathered in [rt.hw_addrs.(0..cnt-1)]: the same
    per-group math as {!Interp.account_global}'s fast path (vector
    masks are ascending by construction), on block scratch instead of
    per-call arrays. [m.(i..i+cnt-1)] are the group's lane ids. *)
let masked_group (rt : vrt) ~(is_store : bool) ~(elt_bytes : int)
    ~(weff : float) (m : int array) ~(i : int) ~(cnt : int) : unit =
  let c = rt.c in
  let cfg = c.Interp.cfg in
  let addrs = rt.hw_addrs in
  let record = c.Interp.record_tx in
  let ntx = ref 0 and bytes = ref 0 in
  let emit a b =
    incr ntx;
    bytes := !bytes + b;
    if record then Interp.record_part c a
  in
  let seg_bytes = 16 * elt_bytes in
  (match cfg.Config.coalesce_rules with
  | Config.Strict_g80 ->
      let lane0 = m.(i) mod 16 in
      let base = addrs.(0) - (lane0 * elt_bytes) in
      let ok = ref (base mod seg_bytes = 0) in
      if !ok then
        for t = 0 to cnt - 1 do
          if addrs.(t) <> base + (m.(i + t) mod 16 * elt_bytes) then ok := false
        done;
      if !ok then emit base seg_bytes
      else begin
        let min_tx = cfg.Config.min_transaction_bytes in
        for t = 0 to cnt - 1 do
          emit (addrs.(t) / min_tx * min_tx) min_tx
        done
      end
  | Config.Relaxed_gt200 ->
      let seg = if seg_bytes > 32 then seg_bytes else 32 in
      let seg_s = rt.seg_s and seg_lo = rt.seg_lo and seg_hi = rt.seg_hi in
      let nsegs = ref 0 in
      for t = 0 to cnt - 1 do
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
        let lo = seg_lo.(q) and hi' = seg_hi.(q) - 1 in
        let size = ref seg in
        let continue = ref true in
        while !continue do
          let half = !size / 2 in
          if half >= 32 && lo / half = hi' / half then size := half
          else continue := false
        done;
        emit (lo / !size * !size) !size
      done);
  apply_hw c ~is_store ~weff !ntx !bytes

(** Replay a plane digest against the live lane-0 address [a0]: record
    the transaction layout when the partition stream is on, then apply
    the whole plane's statistics. The byte-cost accumulator batches
    into one add exactly when that is bitwise identical to the
    reference's per-group sequence (see {!apply_hw_n}); the integer
    counters always batch. *)
let replay_digest (c : Interp.bctx) ~(is_store : bool) ~(weff : float)
    ~(a0 : int) (dig : Coalescer.plane_digest) : unit =
  if c.Interp.record_tx then begin
    let lay = dig.Coalescer.pd_layout in
    let nn = Array.length lay in
    let q = ref 0 in
    while !q < nn do
      Interp.record_part c (a0 + lay.(!q));
      q := !q + 2
    done
  end;
  let s = c.Interp.stats in
  (if weff = 1.0 && Float.is_integer s.Stats.cost_bytes then
     s.Stats.cost_bytes <-
       s.Stats.cost_bytes +. float_of_int dig.Coalescer.pd_bytes
   else begin
     let hw = dig.Coalescer.pd_hw in
     for q = 0 to dig.Coalescer.pd_nhw - 1 do
       s.Stats.cost_bytes <-
         s.Stats.cost_bytes +. (float_of_int hw.((2 * q) + 1) /. weff)
     done
   end);
  let ntx = float_of_int dig.Coalescer.pd_ntx in
  let bytes = float_of_int dig.Coalescer.pd_bytes in
  let reqs = float_of_int dig.Coalescer.pd_nhw in
  if is_store then begin
    s.Stats.gst_tx <- s.Stats.gst_tx +. ntx;
    s.Stats.gst_bytes <- s.Stats.gst_bytes +. bytes;
    s.Stats.gst_requests <- s.Stats.gst_requests +. reqs
  end
  else begin
    s.Stats.gld_tx <- s.Stats.gld_tx +. ntx;
    s.Stats.gld_bytes <- s.Stats.gld_bytes +. bytes;
    s.Stats.gld_requests <- s.Stats.gld_requests +. reqs
  end

(** Digest the gathered addresses in [rt.pl_addrs] group by group, for
    planes that are not segmented-strided but belong to a stable site:
    the list-based formation cost is paid once per congruence class and
    then replayed. Layout offsets are relative to [a0]. *)
let digest_of_groups (rt : vrt) ~(elt_bytes : int) ~(a0 : int) :
    Coalescer.plane_digest =
  let cfg = rt.c.Interp.cfg in
  let rules = cfg.Config.coalesce_rules in
  let min_tx = cfg.Config.min_transaction_bytes in
  let pl = rt.pl_addrs in
  let n = rt.n in
  let nhw = (n + 15) / 16 in
  let hw = Array.make (2 * nhw) 0 in
  let lay = ref [] in
  let tot_tx = ref 0 and tot_bytes = ref 0 in
  for q = 0 to nhw - 1 do
    let cnt = min 16 (n - (16 * q)) in
    let pairs = List.init cnt (fun t -> (t, pl.((16 * q) + t))) in
    let txs = Coalescer.global_request rules ~min_tx ~elt_bytes pairs in
    let ntx = List.length txs in
    let bytes =
      List.fold_left (fun a t -> a + t.Coalescer.tx_bytes) 0 txs
    in
    hw.(2 * q) <- ntx;
    hw.((2 * q) + 1) <- bytes;
    tot_tx := !tot_tx + ntx;
    tot_bytes := !tot_bytes + bytes;
    List.iter
      (fun t ->
        lay := t.Coalescer.tx_bytes :: (t.Coalescer.tx_addr - a0) :: !lay)
      txs
  done;
  {
    Coalescer.pd_nhw = nhw;
    pd_hw = hw;
    pd_layout = Array.of_list (List.rev !lay);
    pd_ntx = !tot_tx;
    pd_bytes = !tot_bytes;
  }

(** [a mod g] in [0, g). *)
let[@inline] residue (a : int) (g : int) : int =
  let r = a mod g in
  if r < 0 then r + g else r

(** A site's residue table, [tabs.(site)], allocated on first use. *)
let site_table (tabs : 'a array array) (site : int) (len : int) (empty : 'a) :
    'a array =
  let tab = tabs.(site) in
  if Array.length tab > 0 then tab
  else begin
    let tab = Array.make len empty in
    tabs.(site) <- tab;
    tab
  end

(** Account one global access whose lane byte address is
    [base + ip.(po + l) * scale]. [stable] marks sites whose plane is a
    pattern plane (see the accounting note above). *)
let account_plane (rt : vrt) ~(is_store : bool) ~(elt_bytes : int)
    ~(stable : bool) (m : int array) ~(po : int) ~(base : int)
    ~(scale : int) ~(site : int) : unit =
  let c = rt.c in
  let ip = rt.ip in
  if Array.length m <> rt.n then begin
    let nm = Array.length m in
    let cfg = c.Interp.cfg in
    let weff = width_eff cfg ~elt_bytes in
    let addrs = rt.hw_addrs in
    let i = ref 0 in
    while !i < nm do
      let hw = m.(!i) / 16 in
      let j = ref (!i + 1) in
      while !j < nm && m.(!j) / 16 = hw do
        incr j
      done;
      let cnt = !j - !i in
      for t = 0 to cnt - 1 do
        addrs.(t) <- base + (iget ip (po + m.(!i + t)) * scale)
      done;
      masked_group rt ~is_store ~elt_bytes ~weff m ~i:!i ~cnt;
      i := !j
    done
  end
  else begin
    let cfg = c.Interp.cfg in
    let rules = cfg.Config.coalesce_rules in
    let min_tx = cfg.Config.min_transaction_bytes in
    let weff = width_eff cfg ~elt_bytes in
    let g = memo_granularity ~min_tx ~elt_bytes in
    let n = rt.n in
    let fast =
      stable
      && begin
           let a0 = base + (iget ip po * scale) in
           if
             rt.site_a0.(site) <> min_int
             && (a0 - rt.site_a0.(site)) mod g = 0
           then begin
             (* closed-form credit: same digest at a congruent base *)
             rt.site_a0.(site) <- a0;
             replay_digest c ~is_store ~weff ~a0 rt.site_dig.(site);
             rt.cf_credits <- rt.cf_credits + 1;
             true
           end
           else begin
             (* the plane only ever shifts uniformly, so its digest is a
                function of the base residue: look it up in the site's
                residue table, or fetch a segmented shape's digest from
                the plane memo, without walking any lane *)
             let rel0 = residue a0 g in
             let tab = rt.site_tab.(site) in
             let dig =
               if Array.length tab > 0 && tab.(rel0) != Coalescer.empty_digest
               then begin
                 rt.site_hits <- rt.site_hits + 1;
                 tab.(rel0)
               end
               else if
                 rt.site_d.(site) <> min_int && rt.site_d.(site) <> max_int
               then begin
                 let dig =
                   Coalescer.plane_cost rules ~min_tx ~elt_bytes ~n ~rel0
                     ~d:rt.site_d.(site) ~dd:rt.site_dd.(site)
                 in
                 (site_table rt.site_tab site g Coalescer.empty_digest).(rel0) <- dig;
                 dig
               end
               else Coalescer.empty_digest
             in
             dig != Coalescer.empty_digest
             && begin
                  rt.site_rel0.(site) <- rel0;
                  rt.site_a0.(site) <- a0;
                  rt.site_dig.(site) <- dig;
                  replay_digest c ~is_store ~weff ~a0 dig;
                  true
                end
           end
         end
    in
    if not fast then begin
      (* one dense pass gathers the plane's addresses and checks the
         segmented-strided shape: stride [d] within half-warp groups,
         delta [dd] between consecutive group bases *)
      let pl = rt.pl_addrs in
      let a0 = base + (iget ip po * scale) in
      iset pl 0 a0;
      let d = ref 0 and dd = ref 0 in
      let seg_ok = ref true in
      for l = 1 to n - 1 do
        let a = base + (iget ip (po + l) * scale) in
        iset pl l a;
        if l land 15 <> 0 then begin
          let dl = a - iget pl (l - 1) in
          if l = 1 then d := dl else if dl <> !d then seg_ok := false
        end
        else begin
          let db = a - iget pl (l - 16) in
          if l = 16 then dd := db else if db <> !dd then seg_ok := false
        end
      done;
      if !seg_ok then begin
        let rel0 = residue a0 g in
        let dig =
          if
            rt.site_d.(site) = !d
            && rt.site_dd.(site) = !dd
            && rt.site_rel0.(site) = rel0
          then begin
            rt.site_hits <- rt.site_hits + 1;
            rt.site_dig.(site)
          end
          else begin
            let dig =
              Coalescer.plane_cost rules ~min_tx ~elt_bytes ~n ~rel0 ~d:!d
                ~dd:!dd
            in
            rt.site_rel0.(site) <- rel0;
            rt.site_d.(site) <- !d;
            rt.site_dd.(site) <- !dd;
            rt.site_dig.(site) <- dig;
            dig
          end
        in
        if stable then (site_table rt.site_tab site g Coalescer.empty_digest).(rel0) <- dig;
        rt.site_a0.(site) <- a0;
        replay_digest c ~is_store ~weff ~a0 dig
      end
      else if stable then begin
        (* irregular but block-stable shape (e.g. a pattern plane whose
           rows wrap inside a half warp): digest the actual groups
           once per residue *)
        let dig = digest_of_groups rt ~elt_bytes ~a0 in
        let rel0 = residue a0 g in
        (site_table rt.site_tab site g Coalescer.empty_digest).(rel0) <- dig;
        rt.site_rel0.(site) <- rel0;
        rt.site_d.(site) <- max_int;
        rt.site_dd.(site) <- 0;
        rt.site_dig.(site) <- dig;
        rt.site_a0.(site) <- a0;
        replay_digest c ~is_store ~weff ~a0 dig
      end
      else begin
        (* irregular, unstable plane: per-group accounting *)
        let addrs = rt.hw_addrs in
        let record = c.Interp.record_tx in
        let i = ref 0 in
        while !i < n do
          let cnt = if n - !i < 16 then n - !i else 16 in
          Array.blit pl !i addrs 0 cnt;
          let ntx, bytes =
            if record then record_group rt ~elt_bytes addrs cnt
            else
              Coalescer.request_cost rules ~min_tx ~elt_bytes ~lane0:0 ~cnt
                addrs
          in
          apply_hw c ~is_store ~weff ntx bytes;
          i := !i + 16
        done
      end
    end
  end

(** Account one global access where every active lane touches [addr]
    (block-uniform index). *)
let account_const (rt : vrt) ~(is_store : bool) ~(elt_bytes : int)
    (m : int array) ~(addr : int) ~(site : int) : unit =
  let c = rt.c in
  if Array.length m <> rt.n then begin
    let nm = Array.length m in
    let cfg = c.Interp.cfg in
    let weff = width_eff cfg ~elt_bytes in
    let i = ref 0 in
    while !i < nm do
      let hw = m.(!i) / 16 in
      let j = ref (!i + 1) in
      while !j < nm && m.(!j) / 16 = hw do
        incr j
      done;
      let cnt = !j - !i in
      Array.fill rt.hw_addrs 0 cnt addr;
      masked_group rt ~is_store ~elt_bytes ~weff m ~i:!i ~cnt;
      i := !j
    done
  end
  else begin
    let cfg = c.Interp.cfg in
    let rules = cfg.Config.coalesce_rules in
    let min_tx = cfg.Config.min_transaction_bytes in
    let weff = width_eff cfg ~elt_bytes in
    let record = c.Interp.record_tx in
    let n = rt.n in
    Array.fill rt.hw_addrs 0 16 addr;
    let nfull = n / 16 and tail = n mod 16 in
    (* every full group forms the same transactions: compute once *)
    if nfull > 0 then
      if record then begin
        let ntx, bytes = record_group rt ~elt_bytes rt.hw_addrs 16 in
        apply_hw c ~is_store ~weff ntx bytes;
        for _ = 2 to nfull do
          for q = 0 to ntx - 1 do
            Interp.record_part c rt.tx_buf.(2 * q)
          done;
          apply_hw c ~is_store ~weff ntx bytes
        done
      end
      else begin
        (* a full group's cost depends only on the address residue *)
        let g = memo_granularity ~min_tx ~elt_bytes in
        let r = residue addr g in
        let tab = site_table rt.site_ctab site (2 * g) (-1) in
        if tab.(2 * r) < 0 then begin
          let ntx, bytes =
            Coalescer.request_cost rules ~min_tx ~elt_bytes ~lane0:0 ~cnt:16
              rt.hw_addrs
          in
          tab.(2 * r) <- ntx;
          tab.((2 * r) + 1) <- bytes
        end
        else rt.site_hits <- rt.site_hits + 1;
        apply_hw_n c ~is_store ~weff ~reps:nfull tab.(2 * r) tab.((2 * r) + 1)
      end;
    if tail > 0 then
      if record then begin
        let ntx, bytes = record_group rt ~elt_bytes rt.hw_addrs tail in
        apply_hw c ~is_store ~weff ntx bytes
      end
      else begin
        let ntx, bytes =
          Coalescer.request_cost rules ~min_tx ~elt_bytes ~lane0:0 ~cnt:tail
            rt.hw_addrs
        in
        apply_hw c ~is_store ~weff ntx bytes
      end
  end

(* Shared-memory serialization cost of a strided half warp is invariant
   under any uniform word shift: banks rotate together and the
   same-address broadcast test depends only on word differences. So
   when every group of a plane steps by the same word stride, every
   full group costs the same and the whole plane's totals are keyed by
   that stride alone — and a stable site's cached totals hold on every
   call, since its plane only ever shifts uniformly. *)

let[@inline] shared_group_cost (rt : vrt) (cnt : int) : int =
  let banks = rt.c.Interp.cfg.Config.shared_banks in
  let words = rt.hw_addrs in
  let counts = rt.sh_counts in
  Array.fill counts 0 banks 0;
  for t = 0 to cnt - 1 do
    let w = iget words t in
    (* same-address lanes broadcast for free *)
    let dup = ref false in
    for t' = 0 to t - 1 do
      if iget words t' = w then dup := true
    done;
    if not !dup then begin
      let b = ((w mod banks) + banks) mod banks in
      counts.(b) <- counts.(b) + 1
    end
  done;
  Array.fold_left max 1 counts

let[@inline] apply_shared (c : Interp.bctx) (cost : int) : unit =
  let s = c.Interp.stats in
  s.Stats.shared_ops <- s.Stats.shared_ops +. 1.;
  if cost > 1 then
    s.Stats.bank_extra <- s.Stats.bank_extra +. float_of_int (cost - 1)

(** Batched stats for [groups] half-warp shared requests totalling
    [extra] serialization conflicts. Both counters only ever receive
    integer increments, so the batched adds are bitwise identical to
    the reference's per-group sequence. *)
let apply_shared_n (c : Interp.bctx) ~(groups : int) ~(extra : int) : unit =
  let s = c.Interp.stats in
  s.Stats.shared_ops <- s.Stats.shared_ops +. float_of_int groups;
  if extra > 0 then
    s.Stats.bank_extra <- s.Stats.bank_extra +. float_of_int extra

(** Account one shared access whose lane word address is
    [ip.(po + l) * scale + u]. [stable] marks sites whose plane is a
    pattern plane: bank costs are invariant under any uniform word
    shift, so their cached plane totals hold on every call. *)
let account_shared_plane (rt : vrt) ~(stable : bool) (m : int array)
    ~(po : int) ~(scale : int) ~(u : int) ~(site : int) : unit =
  let c = rt.c in
  let ip = rt.ip in
  if Array.length m <> rt.n then begin
    let nm = Array.length m in
    let words = rt.hw_addrs in
    let i = ref 0 in
    while !i < nm do
      let hw = m.(!i) / 16 in
      let j = ref (!i + 1) in
      while !j < nm && m.(!j) / 16 = hw do
        incr j
      done;
      let cnt = !j - !i in
      for t = 0 to cnt - 1 do
        iset words t ((iget ip (po + m.(!i + t)) * scale) + u)
      done;
      apply_shared c (shared_group_cost rt cnt);
      i := !j
    done
  end
  else begin
    let n = rt.n in
    let nhw = (n + 15) / 16 in
    if stable && rt.site_sh_d.(site) <> min_int then begin
      apply_shared_n c ~groups:nhw ~extra:rt.site_sh_extra.(site);
      rt.cf_credits <- rt.cf_credits + 1
    end
    else begin
      let pl = rt.pl_addrs in
      let w0 = (iget ip po * scale) + u in
      iset pl 0 w0;
      let d = ref 0 in
      let strided = ref true in
      for l = 1 to n - 1 do
        let w = (iget ip (po + l) * scale) + u in
        iset pl l w;
        if l land 15 <> 0 then begin
          let dl = w - iget pl (l - 1) in
          if l = 1 then d := dl else if dl <> !d then strided := false
        end
      done;
      let extra =
        if !strided then
          if rt.site_sh_d.(site) = !d then rt.site_sh_extra.(site)
          else begin
            let nfull = n / 16 and tail = n land 15 in
            let words = rt.hw_addrs in
            let full_extra =
              if nfull > 0 then begin
                Array.blit pl 0 words 0 16;
                nfull * (shared_group_cost rt 16 - 1)
              end
              else 0
            in
            let tail_extra =
              if tail > 0 then begin
                Array.blit pl (16 * nfull) words 0 tail;
                shared_group_cost rt tail - 1
              end
              else 0
            in
            let extra = full_extra + tail_extra in
            rt.site_sh_d.(site) <- !d;
            rt.site_sh_extra.(site) <- extra;
            extra
          end
        else begin
          (* irregular word plane: per-group costs from the gather *)
          let words = rt.hw_addrs in
          let extra = ref 0 in
          let i = ref 0 in
          while !i < n do
            let cnt = if n - !i < 16 then n - !i else 16 in
            Array.blit pl !i words 0 cnt;
            extra := !extra + (shared_group_cost rt cnt - 1);
            i := !i + 16
          done;
          if stable then begin
            rt.site_sh_d.(site) <- max_int;
            rt.site_sh_extra.(site) <- !extra
          end;
          !extra
        end
      in
      apply_shared_n c ~groups:nhw ~extra
    end
  end

(** Account one shared access where every active lane reads one word
    (block-uniform index): each half warp is a free broadcast. *)
let account_shared_const (rt : vrt) (m : int array) ~(addr : int) : unit =
  ignore addr;
  let c = rt.c in
  if Array.length m <> rt.n then begin
    (* every group is a one-word broadcast: cost 1, like the full-mask
       case, but grouped by the mask's half-warp ids *)
    let nm = Array.length m in
    let i = ref 0 in
    while !i < nm do
      let hw = m.(!i) / 16 in
      let j = ref (!i + 1) in
      while !j < nm && m.(!j) / 16 = hw do
        incr j
      done;
      apply_shared c 1;
      i := !j
    done
  end
  else apply_shared_n c ~groups:((rt.n + 15) / 16) ~extra:0

(* --- compiled expressions ---

   [U*] closures are the uniform scalar channel: one scalar shared by
   every active lane. They receive the active mask because statistics
   (flop counts, memory accounting) are per active lane. [X*] values
   name a destination plane plus a [fill] that
   computes it over the active mask; a node's fill runs its operand
   fills first (evaluation order is source order, as in the reference)
   and then one dense or masked loop into its own plane. *)

type fill = vrt -> int array -> unit

type vexpr =
  | UI of (vrt -> int array -> int)
  | UF of (vrt -> int array -> float)
  | UB of (vrt -> int array -> bool)
  | XI of int * fill  (** int plane *)
  | XF of int * fill  (** float plane *)
  | XB of int * fill  (** int plane constrained to 0/1 *)
  | XF2 of (int * int) * fill
  | XF4 of (int * int * int * int) * fill

type vstmt = vrt -> int array -> unit

let is_uniform = function
  | UI _ | UF _ | UB _ -> true
  | XI _ | XF _ | XB _ | XF2 _ | XF4 _ -> false

let nofill : fill = fun _ _ -> ()

(* --- plan-time plane allocator ---

   Planes are assigned like registers: a node's operands are compiled
   first (holding their result planes), the operand planes are released,
   and the destination is allocated — it may alias an operand plane,
   which is safe because every loop reads its operands at lane [l]
   before writing lane [l]. Compilation order equals evaluation order,
   so a released plane is only ever reused by code that runs after its
   last read. Declared variables and loop counters get permanent planes
   (never released); scoping is strict (no shadowing), as the type
   checker enforces. *)

type plane = PF of int | PI of int

type ve = vexpr * plane list
(** A compiled expression and the planes holding its result (empty when
    the result lives in a variable's permanent plane or a scalar). *)

module Smap = Map.Make (String)
module Sset = Set.Make (String)

type binding =
  | Bint of int
  | Bfloat of int
  | Bbool of int
  | Bf2 of int * int
  | Bf4 of int * int * int * int
  | Bureg of int
      (** uniform int register: a uniform loop variable, or an [int]
          local whose uniform initializer is its only write *)
  | Bloop_v of int  (** varying loop variable: int plane *)
  | Bshared of int * int array * int  (** slot, strides, padded length *)
  | Bglobal of int * int array * string  (** slot, expected strides, name *)
  | Bconst of int  (** [k_sizes]-bound int parameter *)

type cstate = {
  mutable nf : int;  (** float-plane high-water mark *)
  mutable ni : int;
  mutable free_f : int list;
  mutable free_i : int list;
  mutable nuregs : int;
  mutable nsites : int;  (** global-access sites (stride-cache entries) *)
  mutable shared_specs : (string * Layout.t * int * int) list;
      (** name, layout, padded length, slot *)
  mutable global_params : (string * int array) list;  (** slot order *)
  mutable id_planes : (Ast.builtin * int) list;
      (** permanent planes for idx/idy, filled per block *)
  mutable patterns : ((int * int) * int) list;
      (** permanent pattern planes by [(ax, ay)]; [tidx] and [tidy] are
          [(1, 0)] and [(0, 1)] *)
  mutable varying_guards : int;  (** [if]s whose condition is a plane *)
  mutable lane_outer : int;  (** loops planned to run lane-outer *)
  cn : int;  (** threads per block *)
  claunch : Ast.launch;
  assigned : Sset.t;
      (** names some [Assign] in the kernel writes: a loop variable or
          [int] local outside this set keeps the value it was bound to *)
}

let alloc_f st =
  match st.free_f with
  | p :: tl ->
      st.free_f <- tl;
      p
  | [] ->
      let p = st.nf in
      st.nf <- p + 1;
      p

let alloc_i st =
  match st.free_i with
  | p :: tl ->
      st.free_i <- tl;
      p
  | [] ->
      let p = st.ni in
      st.ni <- p + 1;
      p

let release st (own : plane list) =
  List.iter
    (function
      | PF p -> st.free_f <- p :: st.free_f
      | PI p -> st.free_i <- p :: st.free_i)
    own

let fresh_ureg st =
  let r = st.nuregs in
  st.nuregs <- r + 1;
  r

let fresh_site st =
  let s = st.nsites in
  st.nsites <- s + 1;
  s

(* --- operand views ---

   Plan-time normalization of a compiled operand to the element type a
   consumer needs: either a uniform scalar closure or a plane (with the
   fill that produces it). Int-to-float conversion materializes through
   a temporary plane — same values as the reference's fused
   [float_of_int], no stats either way. *)

type fopnd = FU of (vrt -> int array -> float) | FP of int * fill
type iopnd = IU of (vrt -> int array -> int) | IP of int * fill
type bopnd = BU of (vrt -> int array -> bool) | BP of int * fill

let fopnd st ((ce, own) : ve) : fopnd * plane list =
  match ce with
  | UI f -> (FU (fun rt m -> float_of_int (f rt m)), own)
  | UF f -> (FU f, own)
  | XF (p, fill) -> (FP (p, fill), own)
  | XI (p, fill) ->
      let t = alloc_f st in
      let po = p * st.cn and toff = t * st.cn in
      let fill' rt m =
        fill rt m;
        let n = rt.n in
        let ip = rt.ip and fp = rt.fp in
        if Array.length m = n then
          for l = 0 to n - 1 do
            fset fp (toff + l) (float_of_int (iget ip (po + l)))
          done
        else
          Array.iter
            (fun l -> fset fp (toff + l) (float_of_int (iget ip (po + l))))
            m
      in
      (FP (t, fill'), PF t :: own)
  | UB _ | XB _ | XF2 _ | XF4 _ -> unsupported "expected a float value"

let iopnd ((ce, own) : ve) : iopnd * plane list =
  match ce with
  | UI f -> (IU f, own)
  | UB f -> (IU (fun rt m -> if f rt m then 1 else 0), own)
  | XI (p, fill) -> (IP (p, fill), own)
  | XB (p, fill) -> (IP (p, fill), own)  (* bool planes hold 0/1 *)
  | UF _ | XF _ | XF2 _ | XF4 _ -> unsupported "expected an int value"

let bopnd ((ce, own) : ve) : bopnd * plane list =
  match ce with
  | UB f -> (BU f, own)
  | UI f -> (BU (fun rt m -> f rt m <> 0), own)
  | XB (p, fill) -> (BP (p, fill), own)
  | XI (p, fill) -> (BP (p, fill), own)  (* read as [<> 0] *)
  | UF _ | XF _ | XF2 _ | XF4 _ -> unsupported "expected a boolean value"

(** Evaluate an operand at its source position: run the fill (plane
    case) or the scalar closure. Returns the scalar, or 0 for planes. *)
let feval (o : fopnd) rt m : float =
  match o with
  | FU f -> f rt m
  | FP (_, fill) ->
      fill rt m;
      0.0

let ieval (o : iopnd) rt m : int =
  match o with
  | IU f -> f rt m
  | IP (_, fill) ->
      fill rt m;
      0

let beval (o : bopnd) rt m : bool =
  match o with
  | BU f -> f rt m
  | BP (_, fill) ->
      fill rt m;
      false

(* --- float operators ---

   Chosen at plan time and matched inside the lane loops. Without
   flambda, a function value called per lane boxes its float arguments
   and its float result — a few words of minor heap per lane per trip —
   while a match on a constant constructor keeps every operand
   unboxed. So no lane loop over float planes calls a function value:
   operators are these variants, and a plane-or-uniform operand is read
   through a [let]-bound [if] (an unbound float [if] in argument
   position boxes its plane arm). *)

type fop = Fadd | Fsub | Fmul | Fdiv | Fmax | Fmin

let fop_of_arith : Ast.binop -> fop = function
  | Add -> Fadd
  | Sub -> Fsub
  | Mul -> Fmul
  | _ -> Fdiv

let[@inline] fapply (op : fop) (x : float) (y : float) : float =
  match op with
  | Fadd -> x +. y
  | Fsub -> x -. y
  | Fmul -> x *. y
  | Fdiv -> x /. y
  | Fmax -> Float.max x y
  | Fmin -> Float.min x y

type fcmp = Clt | Cle | Cgt | Cge | Ceq | Cne

let[@inline] fcompare (op : fcmp) (x : float) (y : float) : bool =
  match op with
  | Clt -> x < y
  | Cle -> x <= y
  | Cgt -> x > y
  | Cge -> x >= y
  | Ceq -> x = y
  | Cne -> x <> y

type funop = Fsqrt | Fabs | Fexp | Flog | Fsin | Fcos

let[@inline] funapply (op : funop) (x : float) : float =
  match op with
  | Fsqrt -> sqrt x
  | Fabs -> Float.abs x
  | Fexp -> exp x
  | Flog -> log x
  | Fsin -> sin x
  | Fcos -> cos x

(** Plane offset of a float operand, or [-1] for a uniform one. *)
let fplane st = function FP (p, _) -> p * st.cn | FU _ -> -1

(* --- loop builders ---

   Each builder mirrors the reference interpreter's evaluation of one
   node shape, including the exact order of [inst]/[flops]/operand
   evaluation around the loop — that
   order is observable through the statistics. Dest planes may alias
   operand planes: every loop reads lane [l] before writing lane [l]. *)

let mk_fbin st ~(flops_first : bool) (op : fop) (ca : ve) (cb : ve) : ve =
  let fa, owna = fopnd st ca in
  let fb, ownb = fopnd st cb in
  release st owna;
  release st ownb;
  let d = alloc_f st in
  let doff = d * st.cn in
  let aoff = fplane st fa and boff = fplane st fb in
  let fill rt m =
    inst rt;
    if flops_first then flops rt (Array.length m);
    let av = feval fa rt m in
    let bv = feval fb rt m in
    if not flops_first then flops rt (Array.length m);
    let n = rt.n in
    let fp = rt.fp in
    match (fa, fb) with
    | FP _, FP _ ->
        if Array.length m = n then
          for l = 0 to n - 1 do
            fset fp (doff + l)
              (fapply op (fget fp (aoff + l)) (fget fp (boff + l)))
          done
        else
          Array.iter
            (fun l ->
              fset fp (doff + l)
                (fapply op (fget fp (aoff + l)) (fget fp (boff + l))))
            m
    | FP _, FU _ ->
        if Array.length m = n then
          for l = 0 to n - 1 do
            fset fp (doff + l) (fapply op (fget fp (aoff + l)) bv)
          done
        else
          Array.iter
            (fun l -> fset fp (doff + l) (fapply op (fget fp (aoff + l)) bv))
            m
    | FU _, FP _ ->
        if Array.length m = n then
          for l = 0 to n - 1 do
            fset fp (doff + l) (fapply op av (fget fp (boff + l)))
          done
        else
          Array.iter
            (fun l -> fset fp (doff + l) (fapply op av (fget fp (boff + l))))
            m
    | FU _, FU _ ->
        let v = fapply op av bv in
        if Array.length m = n then
          for l = 0 to n - 1 do
            fset fp (doff + l) v
          done
        else Array.iter (fun l -> fset fp (doff + l) v) m
  in
  (XF (d, fill), [ PF d ])

let mk_ibin st (iop : int -> int -> int) (ca : ve) (cb : ve) : ve =
  let fa, owna = iopnd ca in
  let fb, ownb = iopnd cb in
  release st owna;
  release st ownb;
  let d = alloc_i st in
  let doff = d * st.cn in
  let aoff = match fa with IP (p, _) -> p * st.cn | IU _ -> 0 in
  let boff = match fb with IP (p, _) -> p * st.cn | IU _ -> 0 in
  let fill rt m =
    inst rt;
    let av = ieval fa rt m in
    let bv = ieval fb rt m in
    let n = rt.n in
    let ip = rt.ip in
    match (fa, fb) with
    | IP _, IP _ ->
        if Array.length m = n then
          for l = 0 to n - 1 do
            iset ip (doff + l) (iop (iget ip (aoff + l)) (iget ip (boff + l)))
          done
        else
          Array.iter
            (fun l ->
              iset ip (doff + l) (iop (iget ip (aoff + l)) (iget ip (boff + l))))
            m
    | IP _, IU _ ->
        if Array.length m = n then
          for l = 0 to n - 1 do
            iset ip (doff + l) (iop (iget ip (aoff + l)) bv)
          done
        else
          Array.iter (fun l -> iset ip (doff + l) (iop (iget ip (aoff + l)) bv)) m
    | IU _, IP _ ->
        if Array.length m = n then
          for l = 0 to n - 1 do
            iset ip (doff + l) (iop av (iget ip (boff + l)))
          done
        else
          Array.iter (fun l -> iset ip (doff + l) (iop av (iget ip (boff + l)))) m
    | IU _, IU _ ->
        let v = iop av bv in
        if Array.length m = n then
          for l = 0 to n - 1 do
            iset ip (doff + l) v
          done
        else Array.iter (fun l -> iset ip (doff + l) v) m
  in
  (XI (d, fill), [ PI d ])

(* int and bool readers for the rare-node generic loops; one closure
   call per lane, like the reference's [iread] (immediate values, so
   nothing boxes) *)

let ird st (o : iopnd) : (vrt -> int -> int -> int) * int =
  match o with
  | IU _ -> ((fun _ v _ -> v), 0)
  | IP (p, _) ->
      let po = p * st.cn in
      ((fun rt _ l -> iget rt.ip (po + l)), po)

let brd st (o : bopnd) : vrt -> bool -> int -> bool =
  match o with
  | BU _ -> fun _ v _ -> v
  | BP (p, _) ->
      let po = p * st.cn in
      fun rt _ l -> iget rt.ip (po + l) <> 0

let mk_icmp st (iop : int -> int -> bool) (ca : ve) (cb : ve) : ve =
  let fa, owna = iopnd ca in
  let fb, ownb = iopnd cb in
  release st owna;
  release st ownb;
  let d = alloc_i st in
  let doff = d * st.cn in
  let ra, _ = ird st fa and rb, _ = ird st fb in
  let fill rt m =
    inst rt;
    let av = ieval fa rt m in
    let bv = ieval fb rt m in
    let n = rt.n in
    let ip = rt.ip in
    if Array.length m = n then
      for l = 0 to n - 1 do
        iset ip (doff + l) (if iop (ra rt av l) (rb rt bv l) then 1 else 0)
      done
    else
      Array.iter
        (fun l ->
          iset ip (doff + l) (if iop (ra rt av l) (rb rt bv l) then 1 else 0))
        m
  in
  (XB (d, fill), [ PI d ])

let mk_fcmp st (op : fcmp) (ca : ve) (cb : ve) : ve =
  let fa, owna = fopnd st ca in
  let fb, ownb = fopnd st cb in
  release st owna;
  release st ownb;
  let d = alloc_i st in
  let doff = d * st.cn in
  let aoff = fplane st fa and boff = fplane st fb in
  let fill rt m =
    inst rt;
    let av = feval fa rt m in
    let bv = feval fb rt m in
    let ip = rt.ip and fp = rt.fp in
    let[@inline] lane l =
      let x = if aoff >= 0 then fget fp (aoff + l) else av in
      let y = if boff >= 0 then fget fp (boff + l) else bv in
      iset ip (doff + l) (if fcompare op x y then 1 else 0)
    in
    if Array.length m = rt.n then
      for l = 0 to rt.n - 1 do
        lane l
      done
    else Array.iter lane m
  in
  (XB (d, fill), [ PI d ])

let mk_bbin st ~(disj : bool) (ca : ve) (cb : ve) : ve =
  let fa, owna = bopnd ca in
  let fb, ownb = bopnd cb in
  release st owna;
  release st ownb;
  let d = alloc_i st in
  let doff = d * st.cn in
  let ra = brd st fa and rb = brd st fb in
  let fill rt m =
    inst rt;
    let av = beval fa rt m in
    let bv = beval fb rt m in
    let n = rt.n in
    let ip = rt.ip in
    if disj then
      if Array.length m = n then
        for l = 0 to n - 1 do
          iset ip (doff + l) (if ra rt av l || rb rt bv l then 1 else 0)
        done
      else
        Array.iter
          (fun l ->
            iset ip (doff + l) (if ra rt av l || rb rt bv l then 1 else 0))
          m
    else if Array.length m = n then
      for l = 0 to n - 1 do
        iset ip (doff + l) (if ra rt av l && rb rt bv l then 1 else 0)
      done
    else
      Array.iter
        (fun l -> iset ip (doff + l) (if ra rt av l && rb rt bv l then 1 else 0))
        m
  in
  (XB (d, fill), [ PI d ])

(* uniform-channel extraction (operands already known uniform) *)

let iu = function IU f -> f | IP _ -> assert false
let fu = function FU f -> f | FP _ -> assert false
let bu = function BU f -> f | BP _ -> assert false

(* --- index plans for array accesses ---

   An index dimension built only from the thread builtins, integer
   literals, [#pragma gpcc dim] constants, uniform registers (uniform
   loop variables and once-assigned [int] locals) and block-uniform
   builtins with [+], [-], unary [-] and multiplication by
   a compile-time constant is {e lane-affine}: at plan time it lowers to
   [ax * tidx + ay * tidy + u] with compile-time coefficients and a
   block-uniform remainder [u] — the index shape the paper's Section 3.2
   coalescing analysis classifies. Flattened over the dimensions with
   their strides, such a site reads one {e pattern plane}
   [ax * tidx + ay * tidy] plus a scalar: one gather pass, no scratch
   plane, no combine pass. A pattern plane is the same in every block,
   so it is filled once per block state and shared by every site with
   the same coefficients.

   The remainder is kept as a linear form, not as a closure per node:
   its leaves read uniform registers and block ids and have no effect, and
   integer arithmetic is exact modulo the word size in any association.
   What the reference can observe is one warp instruction per operator
   node, and the form counts them. Any other dimension is compiled as an
   expression: a uniform one joins the scalar part in index order (it
   may account a nested load, and byte-cost accumulation is
   order-sensitive), and a varying one is an opaque plane step whose
   site combines its planes in a scratch plane. *)

type lin = {
  ax : int;  (** coefficient of [tidx] *)
  ay : int;  (** coefficient of [tidy] *)
  k : int;  (** compile-time constant *)
  kbx : int;  (** coefficient of [bidx] *)
  kby : int;  (** coefficient of [bidy] *)
  regs : (int * int) list;  (** uniform loop registers, coefficients *)
  ops : int;  (** operator nodes: one warp instruction each *)
  thr : bool;
      (** mentions a thread builtin, so the value is per lane even when
          the coefficients cancel *)
}

let lin0 =
  { ax = 0; ay = 0; k = 0; kbx = 0; kby = 0; regs = []; ops = 0; thr = false }

(** [a + s * b] over [ops] more operator nodes. *)
let lin_axpy ~(ops : int) (a : lin) (s : int) (b : lin) : lin =
  {
    ax = a.ax + (s * b.ax);
    ay = a.ay + (s * b.ay);
    k = a.k + (s * b.k);
    kbx = a.kbx + (s * b.kbx);
    kby = a.kby + (s * b.kby);
    regs = a.regs @ List.map (fun (r, c) -> (r, s * c)) b.regs;
    ops = a.ops + b.ops + ops;
    thr = a.thr || b.thr;
  }

let lin_const (a : lin) =
  a.ax = 0 && a.ay = 0 && a.kbx = 0 && a.kby = 0 && a.regs = []

(** The lane-affine form of [e], or [None] when [e] leaves the fragment
    (a varying loop variable, a declared [int] held in a plane, a
    runtime-uniform multiplier, [/], [%], a load, ...). *)
let rec lin_of st env (e : Ast.expr) : lin option =
  let l = st.claunch in
  match e with
  | Int_lit k -> Some { lin0 with k }
  (* along a block dimension of 1 the thread index is 0 and the global
     index is the block index: both are uniform *)
  | Builtin Tidx when l.block_x = 1 -> Some lin0
  | Builtin Tidy when l.block_y = 1 -> Some lin0
  | Builtin Idx when l.block_x = 1 -> Some { lin0 with kbx = 1 }
  | Builtin Idy when l.block_y = 1 -> Some { lin0 with kby = 1 }
  | Builtin Tidx -> Some { lin0 with ax = 1; thr = true }
  | Builtin Tidy -> Some { lin0 with ay = 1; thr = true }
  | Builtin Idx -> Some { lin0 with ax = 1; kbx = l.block_x; thr = true }
  | Builtin Idy -> Some { lin0 with ay = 1; kby = l.block_y; thr = true }
  | Builtin Bidx -> Some { lin0 with kbx = 1 }
  | Builtin Bidy -> Some { lin0 with kby = 1 }
  | Builtin Bdimx -> Some { lin0 with k = l.block_x }
  | Builtin Bdimy -> Some { lin0 with k = l.block_y }
  | Builtin Gdimx -> Some { lin0 with k = l.grid_x }
  | Builtin Gdimy -> Some { lin0 with k = l.grid_y }
  | Var v -> (
      match Smap.find_opt v env with
      | Some (Bconst k) -> Some { lin0 with k }
      | Some (Bureg r) -> Some { lin0 with regs = [ (r, 1) ] }
      | _ -> None)
  | Unop (Neg, a) -> Option.map (lin_axpy ~ops:1 lin0 (-1)) (lin_of st env a)
  | Binop (((Add | Sub) as op), a, b) -> (
      match (lin_of st env a, lin_of st env b) with
      | Some a, Some b ->
          Some (lin_axpy ~ops:1 a (if op = Sub then -1 else 1) b)
      | _ -> None)
  | Binop (Mul, a, b) -> (
      match (lin_of st env a, lin_of st env b) with
      | Some a, Some b when lin_const a ->
          let r = lin_axpy ~ops:(a.ops + 1) lin0 a.k b in
          Some { r with thr = r.thr || a.thr }
      | Some a, Some b when lin_const b ->
          let r = lin_axpy ~ops:(b.ops + 1) lin0 b.k a in
          Some { r with thr = r.thr || b.thr }
      | _ -> None)
  | _ -> None

(** The scalar part of a lane-affine index: its warp instructions, then
    its value in the current block and loop iteration. *)
let lin_run (a : lin) : vrt -> int array -> int =
  let ops = a.ops and k = a.k and kbx = a.kbx and kby = a.kby in
  let rr = Array.of_list (List.map fst a.regs) in
  let rc = Array.of_list (List.map snd a.regs) in
  fun rt _ ->
    for _ = 1 to ops do
      inst rt
    done;
    let u = ref (k + (kbx * rt.c.Interp.bidx) + (kby * rt.c.Interp.bidy)) in
    for i = 0 to Array.length rr - 1 do
      u := !u + (iget rc i * iget rt.uregs (iget rr i))
    done;
    !u

(** The permanent int plane holding [ax * tidx + ay * tidy], shared by
    every site with these coefficients; filled when a block state is
    created (see {!fill_patterns}). *)
let pattern_plane st ~(ax : int) ~(ay : int) : int =
  match List.assoc_opt (ax, ay) st.patterns with
  | Some p -> p
  | None ->
      (* never drawn from the free list, like the id planes *)
      let p = st.ni in
      st.ni <- p + 1;
      st.patterns <- ((ax, ay), p) :: st.patterns;
      p

type ostep =
  | OU of (vrt -> int array -> int) * int  (** uniform dimension, stride *)
  | OV of int * fill * int  (** opaque plane offset, fill, stride *)

(** A varying index: the element offset of lane [l] is
    [ip.(xp_po + l) * xp_scale + u], where [u] is returned by [xp_run],
    which also brings the plane up to date. *)
type xplan = {
  xp_po : int;
  xp_scale : int;
  xp_run : vrt -> int array -> int;
  xp_stable : bool;
      (** no opaque step: the plane never changes inside a block and is
          the same in every block, so the site's lane-relative address
          layout is fixed and only [u] moves (see {!account_plane}) *)
}

type index =
  | Iuniform of (vrt -> int array -> int)  (** the one element offset *)
  | Ilanes of xplan

(** Plan an index from its lane-affine part [a] (the flattened sum of
    the lane-affine dimensions) and the other dimensions' [steps], in
    index order. With no opaque step the site is one uniform offset, or
    reads its pattern plane when it mentions a thread builtin; one
    opaque step and no thread term reads that plane through its stride;
    anything else combines into a scratch plane. Returns the scratch
    planes the plan owns: the caller must allocate destination planes
    before releasing them, so gathers never read a reused plane. *)
let mk_index st (a : lin) (steps : ostep list) : index * plane list =
  let lr = lin_run a in
  let steps = Array.of_list steps in
  let run =
    if Array.length steps = 0 then lr
    else fun rt m ->
      let u = ref (lr rt m) in
      Array.iter
        (function
          | OU (f, stride) -> u := !u + (f rt m * stride)
          | OV (_, fl, _) -> fl rt m)
        steps;
      !u
  in
  let planes =
    List.filter_map
      (function OV (po, _, stride) -> Some (po, stride) | OU _ -> None)
      (Array.to_list steps)
  in
  match planes with
  | [] when not a.thr -> (Iuniform run, [])
  | [] ->
      let p = pattern_plane st ~ax:a.ax ~ay:a.ay in
      ( Ilanes
          { xp_po = p * st.cn; xp_scale = 1; xp_run = run; xp_stable = true },
        [] )
  | [ (po, sc) ] when not a.thr ->
      ( Ilanes { xp_po = po; xp_scale = sc; xp_run = run; xp_stable = false },
        [] )
  | _ ->
      let offs = alloc_i st in
      let ooff = offs * st.cn in
      let terms =
        Array.of_list
          (if a.thr then
             planes @ [ (pattern_plane st ~ax:a.ax ~ay:a.ay * st.cn, 1) ]
           else planes)
      in
      let combined rt m =
        let u = run rt m in
        (* combine only once every fill has run: the scratch plane was
           allocated after the dimensions were compiled, so it may be a
           temporary that a later dimension's fill still writes *)
        let n = rt.n in
        let ip = rt.ip in
        let po, stride = terms.(0) in
        if Array.length m = n then begin
          for l = 0 to n - 1 do
            iset ip (ooff + l) (iget ip (po + l) * stride)
          done;
          for t = 1 to Array.length terms - 1 do
            let po, stride = terms.(t) in
            for l = 0 to n - 1 do
              iset ip (ooff + l)
                (iget ip (ooff + l) + (iget ip (po + l) * stride))
            done
          done
        end
        else
          Array.iter
            (fun l ->
              let o = ref 0 in
              for t = 0 to Array.length terms - 1 do
                let po, stride = terms.(t) in
                o := !o + (iget ip (po + l) * stride)
              done;
              iset ip (ooff + l) !o)
            m;
        u
      in
      ( Ilanes
          { xp_po = ooff; xp_scale = 1; xp_run = combined; xp_stable = false },
        [ PI offs ] )

(** A block-uniform global load: one element, read by every active
    lane. Allocates the access's site for the residue table. *)
let uniform_gload st (gslot : int) (name : string)
    (off : vrt -> int array -> int) : vrt -> int array -> float =
  let site = fresh_site st in
  fun rt m ->
    inst rt;
    let g = rt.globals.(gslot) in
    let data = g.Devmem.data in
    let len = Bigarray.Array1.dim data in
    let o = off rt m in
    if o < 0 || o >= len then
      Interp.err "out-of-bounds load %s[%d] (size %d)" name o len;
    let v = fget data o in
    let addr = g.Devmem.base + (o * 4) in
    account_const rt ~is_store:false ~elt_bytes:4 m ~addr ~site;
    v

(** A block-uniform shared load: a free broadcast per half warp. *)
let uniform_sload (sslot : int) (name : string) (len : int)
    (off : vrt -> int array -> int) : vrt -> int array -> float =
 fun rt m ->
  inst rt;
  let data = rt.shareds.(sslot) in
  let o = off rt m in
  if o < 0 || o >= len then
    Interp.err "out-of-bounds shared load %s[%d] (size %d)" name o len;
  let v = fget data o in
  account_shared_const rt m ~addr:o;
  v

(* --- expression compilation --- *)

let rec comp_e (st : cstate) (env : binding Smap.t) (e : Ast.expr) : ve =
  match e with
  | Int_lit k -> (UI (fun _ _ -> k), [])
  | Float_lit f -> (UF (fun _ _ -> f), [])
  | Builtin b -> comp_builtin st b
  | Var v -> (
      match Smap.find_opt v env with
      | None -> unsupported "unbound variable %s" v
      | Some (Bconst k) -> (UI (fun _ _ -> k), [])
      | Some (Bureg r) -> (UI (fun rt _ -> rt.uregs.(r)), [])
      | Some (Bloop_v p) -> (XI (p, nofill), [])
      | Some (Bint p) -> (XI (p, nofill), [])
      | Some (Bfloat p) -> (XF (p, nofill), [])
      | Some (Bbool p) -> (XB (p, nofill), [])
      | Some (Bf2 (x, y)) -> (XF2 ((x, y), nofill), [])
      | Some (Bf4 (x, y, z, w)) -> (XF4 ((x, y, z, w), nofill), [])
      | Some (Bshared _ | Bglobal _) -> unsupported "array %s used as scalar" v)
  | Unop (Neg, a) -> comp_neg st env a
  | Unop (Not, a) -> (
      let fc, own = bopnd (comp_e st env a) in
      match fc with
      | BU f ->
          release st own;
          ( UB
              (fun rt m ->
                inst rt;
                not (f rt m)),
            [] )
      | BP (p, fl) ->
          release st own;
          let d = alloc_i st in
          let doff = d * st.cn and poff = p * st.cn in
          let fill rt m =
            inst rt;
            fl rt m;
            let n = rt.n in
            let ip = rt.ip in
            if Array.length m = n then
              for l = 0 to n - 1 do
                iset ip (doff + l) (if iget ip (poff + l) <> 0 then 0 else 1)
              done
            else
              Array.iter
                (fun l ->
                  iset ip (doff + l) (if iget ip (poff + l) <> 0 then 0 else 1))
                m
          in
          (XB (d, fill), [ PI d ]))
  | Binop (op, a, b) -> comp_binop st env op a b
  | Index (arr, idxs) -> comp_load st env arr idxs
  | Vload { v_arr; v_width; v_index } -> comp_vload st env v_arr v_width v_index
  | Field (a, f) -> comp_field st env a f
  | Call (f, args) -> comp_call st env f args
  | Select (cond, a, b) -> comp_select st env cond a b

and comp_builtin st (b : Ast.builtin) : ve =
  let l = st.claunch in
  match b with
  (* a block dimension of 1: see {!lin_of} *)
  | Tidx when l.block_x = 1 -> (UI (fun _ _ -> 0), [])
  | Tidy when l.block_y = 1 -> (UI (fun _ _ -> 0), [])
  | Idx when l.block_x = 1 -> (UI (fun rt _ -> rt.c.Interp.bidx), [])
  | Idy when l.block_y = 1 -> (UI (fun rt _ -> rt.c.Interp.bidy), [])
  | Tidx -> (XI (pattern_plane st ~ax:1 ~ay:0, nofill), [])
  | Tidy -> (XI (pattern_plane st ~ax:0 ~ay:1, nofill), [])
  | Idx | Idy ->
      let p =
        match List.assoc_opt b st.id_planes with
        | Some p -> p
        | None ->
            (* permanent plane, filled at block setup — never drawn from
               the free list (a recycled temp would be scribbled before
               the first read) *)
            let p = st.ni in
            st.ni <- p + 1;
            st.id_planes <- st.id_planes @ [ (b, p) ];
            p
      in
      (XI (p, nofill), [])
  | Bidx -> (UI (fun rt _ -> rt.c.Interp.bidx), [])
  | Bidy -> (UI (fun rt _ -> rt.c.Interp.bidy), [])
  | Bdimx ->
      let v = l.block_x in
      (UI (fun _ _ -> v), [])
  | Bdimy ->
      let v = l.block_y in
      (UI (fun _ _ -> v), [])
  | Gdimx ->
      let v = l.grid_x in
      (UI (fun _ _ -> v), [])
  | Gdimy ->
      let v = l.grid_y in
      (UI (fun _ _ -> v), [])

and comp_neg st env a : ve =
  match comp_e st env a with
  | UI f, own ->
      release st own;
      ( UI
          (fun rt m ->
            inst rt;
            -f rt m),
        [] )
  | UF f, own ->
      release st own;
      ( UF
          (fun rt m ->
            inst rt;
            let v = f rt m in
            flops rt (Array.length m);
            -.v),
        [] )
  | XI (p, fl), own ->
      release st own;
      let d = alloc_i st in
      let doff = d * st.cn and poff = p * st.cn in
      let fill rt m =
        inst rt;
        fl rt m;
        let n = rt.n in
        let ip = rt.ip in
        if Array.length m = n then
          for l = 0 to n - 1 do
            iset ip (doff + l) (-iget ip (poff + l))
          done
        else Array.iter (fun l -> iset ip (doff + l) (-iget ip (poff + l))) m
      in
      (XI (d, fill), [ PI d ])
  | XF (p, fl), own ->
      release st own;
      let d = alloc_f st in
      let doff = d * st.cn and poff = p * st.cn in
      let fill rt m =
        inst rt;
        fl rt m;
        flops rt (Array.length m);
        let n = rt.n in
        let fp = rt.fp in
        if Array.length m = n then
          for l = 0 to n - 1 do
            fset fp (doff + l) (-.fget fp (poff + l))
          done
        else Array.iter (fun l -> fset fp (doff + l) (-.fget fp (poff + l))) m
      in
      (XF (d, fill), [ PF d ])
  | XF2 ((px, py), fl), own ->
      (* destinations before releasing the source: a destination must
         not alias a component that a later write still has to read *)
      let dx = alloc_f st and dy = alloc_f st in
      release st own;
      let cn = st.cn in
      let fill rt m =
        inst rt;
        fl rt m;
        let n = rt.n in
        let fp = rt.fp in
        let neg poff doff =
          if Array.length m = n then
            for l = 0 to n - 1 do
              fset fp (doff + l) (-.fget fp (poff + l))
            done
          else Array.iter (fun l -> fset fp (doff + l) (-.fget fp (poff + l))) m
        in
        neg (px * cn) (dx * cn);
        neg (py * cn) (dy * cn)
      in
      (XF2 ((dx, dy), fill), [ PF dx; PF dy ])
  | XF4 ((px, py, pz, pw), fl), own ->
      let dx = alloc_f st
      and dy = alloc_f st
      and dz = alloc_f st
      and dw = alloc_f st in
      release st own;
      let cn = st.cn in
      let fill rt m =
        inst rt;
        fl rt m;
        let n = rt.n in
        let fp = rt.fp in
        let neg poff doff =
          if Array.length m = n then
            for l = 0 to n - 1 do
              fset fp (doff + l) (-.fget fp (poff + l))
            done
          else Array.iter (fun l -> fset fp (doff + l) (-.fget fp (poff + l))) m
        in
        neg (px * cn) (dx * cn);
        neg (py * cn) (dy * cn);
        neg (pz * cn) (dz * cn);
        neg (pw * cn) (dw * cn)
      in
      (XF4 ((dx, dy, dz, dw), fill), [ PF dx; PF dy; PF dz; PF dw ])
  | (UB _ | XB _), _ -> unsupported "negation of a boolean"

and comp_binop st env op a b : ve =
  comp_binop_c st op (comp_e st env a) (comp_e st env b)

and comp_binop_c st op (ca : ve) (cb : ve) : ve =
  let bothu = is_uniform (fst ca) && is_uniform (fst cb) in
  match op with
  | Add | Sub | Mul | Div -> (
      match (fst ca, fst cb) with
      | (UI _ | XI _), (UI _ | XI _) ->
          let iop =
            match op with
            | Add -> ( + )
            | Sub -> ( - )
            | Mul -> ( * )
            | _ -> fun a b -> if b = 0 then Interp.err "division by zero" else a / b
          in
          if bothu then begin
            let fa, owna = iopnd ca and fb, ownb = iopnd cb in
            release st owna;
            release st ownb;
            let fa = iu fa and fb = iu fb in
            ( UI
                (fun rt m ->
                  inst rt;
                  let x = fa rt m in
                  let y = fb rt m in
                  iop x y),
              [] )
          end
          else mk_ibin st iop ca cb
      | (XF2 _ | XF4 _), _ | _, (XF2 _ | XF4 _) -> comp_vec_arith st op ca cb
      | _ ->
          let fop = fop_of_arith op in
          if bothu then begin
            let fa, owna = fopnd st ca in
            let fb, ownb = fopnd st cb in
            release st owna;
            release st ownb;
            let fa = fu fa and fb = fu fb in
            ( UF
                (fun rt m ->
                  inst rt;
                  let x = fa rt m in
                  let y = fb rt m in
                  flops rt (Array.length m);
                  fapply fop x y),
              [] )
          end
          else mk_fbin st ~flops_first:false fop ca cb)
  | Mod -> (
      match (fst ca, fst cb) with
      | (UI _ | XI _), (UI _ | XI _) ->
          let emod x y =
            if y = 0 then Interp.err "mod by zero";
            ((x mod y) + y) mod y
          in
          if bothu then begin
            let fa, owna = iopnd ca and fb, ownb = iopnd cb in
            release st owna;
            release st ownb;
            let fa = iu fa and fb = iu fb in
            ( UI
                (fun rt m ->
                  inst rt;
                  let x = fa rt m in
                  let y = fb rt m in
                  emod x y),
              [] )
          end
          else mk_ibin st emod ca cb
      | _ -> unsupported "%% on non-int values")
  | Lt -> comp_cmp st ca cb ~iop:(fun x y -> x < y) ~cop:Clt
  | Le -> comp_cmp st ca cb ~iop:(fun x y -> x <= y) ~cop:Cle
  | Gt -> comp_cmp st ca cb ~iop:(fun x y -> x > y) ~cop:Cgt
  | Ge -> comp_cmp st ca cb ~iop:(fun x y -> x >= y) ~cop:Cge
  | Eq -> comp_cmp st ca cb ~iop:(fun x y -> x = y) ~cop:Ceq
  | Ne -> comp_cmp st ca cb ~iop:(fun x y -> x <> y) ~cop:Cne
  | And | Or ->
      let disj = op = Or in
      if bothu then begin
        let fa, owna = bopnd ca and fb, ownb = bopnd cb in
        release st owna;
        release st ownb;
        let fa = bu fa and fb = bu fb in
        ( UB
            (fun rt m ->
              inst rt;
              let x = fa rt m in
              let y = fb rt m in
              if disj then x || y else x && y),
          [] )
      end
      else mk_bbin st ~disj ca cb

and comp_vec_arith st op ca cb : ve =
  let fop = fop_of_arith op in
  let comb2 rt m poff qoff doff =
    let n = rt.n in
    let fp = rt.fp in
    if Array.length m = n then
      for l = 0 to n - 1 do
        fset fp (doff + l)
          (fapply fop (fget fp (poff + l)) (fget fp (qoff + l)))
      done
    else
      Array.iter
        (fun l ->
          fset fp (doff + l)
            (fapply fop (fget fp (poff + l)) (fget fp (qoff + l))))
        m
  in
  match (ca, cb) with
  | (XF2 ((ax, ay), fla), owna), (XF2 ((bx, by), flb), ownb) ->
      (* destinations before releasing the sources: with several result
         planes written one after another, a destination aliasing a
         not-yet-read source component would corrupt it *)
      let dx = alloc_f st and dy = alloc_f st in
      release st owna;
      release st ownb;
      let cn = st.cn in
      let fill rt m =
        inst rt;
        fla rt m;
        flb rt m;
        flops rt (2 * Array.length m);
        comb2 rt m (ax * cn) (bx * cn) (dx * cn);
        comb2 rt m (ay * cn) (by * cn) (dy * cn)
      in
      (XF2 ((dx, dy), fill), [ PF dx; PF dy ])
  | (XF4 ((ax, ay, az, aw), fla), owna), (XF4 ((bx, by, bz, bw), flb), ownb) ->
      let dx = alloc_f st
      and dy = alloc_f st
      and dz = alloc_f st
      and dw = alloc_f st in
      release st owna;
      release st ownb;
      let cn = st.cn in
      let fill rt m =
        inst rt;
        fla rt m;
        flb rt m;
        flops rt (4 * Array.length m);
        comb2 rt m (ax * cn) (bx * cn) (dx * cn);
        comb2 rt m (ay * cn) (by * cn) (dy * cn);
        comb2 rt m (az * cn) (bz * cn) (dz * cn);
        comb2 rt m (aw * cn) (bw * cn) (dw * cn)
      in
      (XF4 ((dx, dy, dz, dw), fill), [ PF dx; PF dy; PF dz; PF dw ])
  | _ -> unsupported "mixed vector/scalar arithmetic"

and comp_cmp st ca cb ~(iop : int -> int -> bool) ~(cop : fcmp) : ve =
  match (fst ca, fst cb) with
  | UI fa, UI fb ->
      release st (snd ca);
      release st (snd cb);
      ( UB
          (fun rt m ->
            inst rt;
            let x = fa rt m in
            let y = fb rt m in
            iop x y),
        [] )
  | (UI _ | XI _), (UI _ | XI _) -> mk_icmp st iop ca cb
  | _ ->
      if is_uniform (fst ca) && is_uniform (fst cb) then begin
        let fa, owna = fopnd st ca in
        let fb, ownb = fopnd st cb in
        release st owna;
        release st ownb;
        let fa = fu fa and fb = fu fb in
        ( UB
            (fun rt m ->
              inst rt;
              let x = fa rt m in
              let y = fb rt m in
              fcompare cop x y),
          [] )
      end
      else mk_fcmp st cop ca cb

(** Plan an array index: the lane-affine dimensions fold into one
    linear form, the others compile as expressions in index order (see
    the index-plan note). Also returns the planes the plan holds: the
    caller allocates its destination before releasing them. *)
and comp_index st env (strides : int array) (idxs : Ast.expr list) :
    index * plane list =
  let owns = ref [] in
  let lin = ref lin0 in
  let steps =
    List.filter_map Fun.id
      (List.mapi
         (fun d idx ->
           let stride = strides.(d) in
           match lin_of st env idx with
           | Some a ->
               lin := lin_axpy ~ops:0 !lin stride a;
               None
           | None -> (
               match comp_e st env idx with
               | UI f, own ->
                   owns := own @ !owns;
                   Some (OU (f, stride))
               | UB f, own ->
                   owns := own @ !owns;
                   Some (OU ((fun rt m -> if f rt m then 1 else 0), stride))
               | ((XI _ | XB _), _) as v -> (
                   let o, own = iopnd v in
                   owns := own @ !owns;
                   match o with
                   | IP (p, fl) -> Some (OV (p * st.cn, fl, stride))
                   | IU _ -> assert false)
               | (UF _ | XF _ | XF2 _ | XF4 _), _ ->
                   unsupported "expected an int value"))
         idxs)
  in
  let ix, tmp = mk_index st !lin steps in
  (ix, tmp @ !owns)

and comp_load st env arr idxs : ve =
  match Smap.find_opt arr env with
  | Some (Bglobal (gslot, strides, name)) -> (
      if List.length idxs <> Array.length strides then
        unsupported "rank mismatch accessing %s" arr;
      match comp_index st env strides idxs with
      | Iuniform off, owns ->
          release st owns;
          (UF (uniform_gload st gslot name off), [])
      | Ilanes xp, owns ->
          (* dest allocated while the index planes are held: the gather
             and accounting read them through the plan *)
          let d = alloc_f st in
          release st owns;
          let doff = d * st.cn in
          let po = xp.xp_po and sc = xp.xp_scale and stable = xp.xp_stable in
          let run = xp.xp_run in
          let site = fresh_site st in
          let fill rt m =
            inst rt;
            let g = rt.globals.(gslot) in
            let data = g.Devmem.data in
            let len = Bigarray.Array1.dim data in
            let u = run rt m in
            let n = rt.n in
            let ip = rt.ip and fp = rt.fp in
            if Array.length m = n then
              if sc = 1 then
                for l = 0 to n - 1 do
                  let o = iget ip (po + l) + u in
                  if o < 0 || o >= len then
                    Interp.err "out-of-bounds load %s[%d] (size %d)" name o len;
                  fset fp (doff + l) (fget data o)
                done
              else
                for l = 0 to n - 1 do
                  let o = (iget ip (po + l) * sc) + u in
                  if o < 0 || o >= len then
                    Interp.err "out-of-bounds load %s[%d] (size %d)" name o len;
                  fset fp (doff + l) (fget data o)
                done
            else
              Array.iter
                (fun l ->
                  let o = (iget ip (po + l) * sc) + u in
                  if o < 0 || o >= len then
                    Interp.err "out-of-bounds load %s[%d] (size %d)" name o len;
                  fset fp (doff + l) (fget data o))
                m;
            account_plane rt ~is_store:false ~elt_bytes:4 ~stable m ~po
              ~base:(g.Devmem.base + (4 * u))
              ~scale:(4 * sc) ~site
          in
          (XF (d, fill), [ PF d ]))
  | Some (Bshared (sslot, strides, len)) -> (
      if List.length idxs <> Array.length strides then
        unsupported "rank mismatch accessing shared %s" arr;
      let name = arr in
      match comp_index st env strides idxs with
      | Iuniform off, owns ->
          release st owns;
          (UF (uniform_sload sslot name len off), [])
      | Ilanes xp, owns ->
          let d = alloc_f st in
          release st owns;
          let doff = d * st.cn in
          let po = xp.xp_po and sc = xp.xp_scale and stable = xp.xp_stable in
          let run = xp.xp_run in
          let site = fresh_site st in
          let fill rt m =
            inst rt;
            let data = rt.shareds.(sslot) in
            let u = run rt m in
            let n = rt.n in
            let ip = rt.ip and fp = rt.fp in
            if Array.length m = n then
              if sc = 1 then
                for l = 0 to n - 1 do
                  let o = iget ip (po + l) + u in
                  if o < 0 || o >= len then
                    Interp.err "out-of-bounds shared load %s[%d] (size %d)"
                      name o len;
                  fset fp (doff + l) (fget data o)
                done
              else
                for l = 0 to n - 1 do
                  let o = (iget ip (po + l) * sc) + u in
                  if o < 0 || o >= len then
                    Interp.err "out-of-bounds shared load %s[%d] (size %d)"
                      name o len;
                  fset fp (doff + l) (fget data o)
                done
            else
              Array.iter
                (fun l ->
                  let o = (iget ip (po + l) * sc) + u in
                  if o < 0 || o >= len then
                    Interp.err "out-of-bounds shared load %s[%d] (size %d)"
                      name o len;
                  fset fp (doff + l) (fget data o))
                m;
            account_shared_plane rt ~stable m ~po ~scale:sc ~u ~site
          in
          (XF (d, fill), [ PF d ]))
  | Some _ -> unsupported "%s is not an array" arr
  | None -> unsupported "unbound variable %s" arr

and comp_vload st env arr width idx : ve =
  match Smap.find_opt arr env with
  | Some (Bglobal (gslot, _, name)) ->
      if width <> 2 && width <> 4 then unsupported "vector width %d" width;
      let ix, owni = comp_index st env [| 1 |] [ idx ] in
      (* dest planes allocated while the index planes are held: accounting
         reads the index after the component loops write the planes *)
      let ds = Array.init width (fun _ -> alloc_f st) in
      release st owni;
      let cn = st.cn in
      let doffs = Array.map (fun d -> d * cn) ds in
      let fill =
        match ix with
        | Iuniform off ->
            let site = fresh_site st in
            fun rt m ->
              inst rt;
              let g = rt.globals.(gslot) in
              let data = g.Devmem.data in
              let len = Bigarray.Array1.dim data in
              let fp = rt.fp in
              let i0 = off rt m * width in
              for k = 0 to width - 1 do
                let o = i0 + k in
                if o < 0 || o >= len then
                  Interp.err "out-of-bounds vector load %s[%d] (size %d)" name
                    o len;
                let v = fget data o in
                let doff = doffs.(k) in
                if Array.length m = rt.n then
                  for l = 0 to rt.n - 1 do
                    fset fp (doff + l) v
                  done
                else Array.iter (fun l -> fset fp (doff + l) v) m
              done;
              account_const rt ~is_store:false ~elt_bytes:(4 * width) m
                ~addr:(g.Devmem.base + (i0 * 4))
                ~site
        | Ilanes xp ->
            let po = xp.xp_po and sc = xp.xp_scale and stable = xp.xp_stable in
            let run = xp.xp_run in
            let site = fresh_site st in
            fun rt m ->
              inst rt;
              let g = rt.globals.(gslot) in
              let data = g.Devmem.data in
              let len = Bigarray.Array1.dim data in
              let u = run rt m in
              let ip = rt.ip and fp = rt.fp in
              for k = 0 to width - 1 do
                let doff = doffs.(k) in
                let[@inline] lane l =
                  let o = (((iget ip (po + l) * sc) + u) * width) + k in
                  if o < 0 || o >= len then
                    Interp.err "out-of-bounds vector load %s[%d] (size %d)"
                      name o len;
                  fset fp (doff + l) (fget data o)
                in
                if Array.length m = rt.n then
                  for l = 0 to rt.n - 1 do
                    lane l
                  done
                else Array.iter lane m
              done;
              account_plane rt ~is_store:false ~elt_bytes:(4 * width) ~stable
                m ~po
                ~base:(g.Devmem.base + (4 * width * u))
                ~scale:(4 * width * sc) ~site
      in
      if width = 2 then
        (XF2 ((ds.(0), ds.(1)), fill), [ PF ds.(0); PF ds.(1) ])
      else
        ( XF4 ((ds.(0), ds.(1), ds.(2), ds.(3)), fill),
          [ PF ds.(0); PF ds.(1); PF ds.(2); PF ds.(3) ] )
  | _ -> unsupported "vector load from non-global array %s" arr

and comp_field st env a f : ve =
  let keep_component own p fl =
    let keep, drop = List.partition (fun pl -> pl = PF p) own in
    release st drop;
    (XF (p, fl), keep)
  in
  match (comp_e st env a, f) with
  | (XF2 ((x, _), fl), own), Ast.FX -> keep_component own x fl
  | (XF2 ((_, y), fl), own), Ast.FY -> keep_component own y fl
  | (XF4 ((x, _, _, _), fl), own), Ast.FX -> keep_component own x fl
  | (XF4 ((_, y, _, _), fl), own), Ast.FY -> keep_component own y fl
  | (XF4 ((_, _, z, _), fl), own), Ast.FZ -> keep_component own z fl
  | (XF4 ((_, _, _, w), fl), own), Ast.FW -> keep_component own w fl
  | _ -> unsupported "bad vector field access"

and comp_call st env f args : ve =
  let unary g =
    match args with
    | [ a ] -> (
        match comp_e st env a with
        | ((UI _ | UF _), _) as v ->
            let fa, own = fopnd st v in
            release st own;
            let fa = fu fa in
            ( UF
                (fun rt m ->
                  inst rt;
                  flops rt (Array.length m);
                  funapply g (fa rt m)),
              [] )
        | ((XI _ | XF _), _) as v ->
            let fa, own = fopnd st v in
            release st own;
            let d = alloc_f st in
            let doff = d * st.cn in
            let poff = fplane st fa in
            let fill rt m =
              inst rt;
              flops rt (Array.length m);
              (match fa with FP (_, fl) -> fl rt m | FU _ -> ());
              let n = rt.n in
              let fp = rt.fp in
              if Array.length m = n then
                for l = 0 to n - 1 do
                  fset fp (doff + l) (funapply g (fget fp (poff + l)))
                done
              else
                Array.iter
                  (fun l ->
                    fset fp (doff + l) (funapply g (fget fp (poff + l))))
                  m
            in
            (XF (d, fill), [ PF d ])
        | _ -> unsupported "expected a float value")
    | _ -> unsupported "%s expects one argument" f
  in
  let binary_f g =
    match args with
    | [ a; b ] ->
        let ca = comp_e st env a in
        let cb = comp_e st env b in
        if is_uniform (fst ca) && is_uniform (fst cb) then begin
          let fa, owna = fopnd st ca in
          let fb, ownb = fopnd st cb in
          release st owna;
          release st ownb;
          let fa = fu fa and fb = fu fb in
          ( UF
              (fun rt m ->
                inst rt;
                flops rt (Array.length m);
                let x = fa rt m in
                let y = fb rt m in
                fapply g x y),
            [] )
        end
        else mk_fbin st ~flops_first:true g ca cb
    | _ -> unsupported "%s expects two arguments" f
  in
  match f with
  | "sqrtf" -> unary Fsqrt
  | "fabsf" -> unary Fabs
  | "expf" -> unary Fexp
  | "logf" -> unary Flog
  | "sinf" -> unary Fsin
  | "cosf" -> unary Fcos
  | "fmaxf" -> binary_f Fmax
  | "fminf" -> binary_f Fmin
  | "min" | "max" -> (
      match args with
      | [ a; b ] ->
          let ca = comp_e st env a in
          let cb = comp_e st env b in
          let g = if f = "min" then min else max in
          if is_uniform (fst ca) && is_uniform (fst cb) then begin
            let fa, owna = iopnd ca and fb, ownb = iopnd cb in
            release st owna;
            release st ownb;
            let fa = iu fa and fb = iu fb in
            ( UI
                (fun rt m ->
                  inst rt;
                  let x = fa rt m in
                  let y = fb rt m in
                  g x y),
              [] )
          end
          else mk_ibin st g ca cb
      | _ -> unsupported "%s expects two arguments" f)
  | "make_float2" -> (
      match args with
      | [ a; b ] ->
          let (px, evx), owna = vec_component st env a in
          let (py, evy), ownb = vec_component st env b in
          let fill rt m =
            inst rt;
            evx rt m;
            evy rt m
          in
          (XF2 ((px, py), fill), owna @ ownb)
      | _ -> unsupported "make_float2 expects two arguments")
  | "make_float4" -> (
      match args with
      | [ a; b; d; e ] ->
          let (px, evx), owna = vec_component st env a in
          let (py, evy), ownb = vec_component st env b in
          let (pz, evz), ownc = vec_component st env d in
          let (pw, evw), ownd = vec_component st env e in
          let fill rt m =
            inst rt;
            evx rt m;
            evy rt m;
            evz rt m;
            evw rt m
          in
          (XF4 ((px, py, pz, pw), fill), owna @ ownb @ ownc @ ownd)
      | _ -> unsupported "make_float4 expects four arguments")
  | _ -> unsupported "unknown intrinsic %s" f

(** One component of a [make_floatN] intrinsic: a float plane plus the
    evaluation action that produces it (the plane's own fill, or a
    masked broadcast of a uniform). *)
and vec_component st env (a : Ast.expr) : (int * fill) * plane list =
  match fopnd st (comp_e st env a) with
  | FP (p, fl), own -> ((p, fl), own)
  | FU f, own ->
      let t = alloc_f st in
      let toff = t * st.cn in
      let ev rt m =
        let v = f rt m in
        let n = rt.n in
        let fp = rt.fp in
        if Array.length m = n then
          for l = 0 to n - 1 do
            fset fp (toff + l) v
          done
        else Array.iter (fun l -> fset fp (toff + l) v) m
      in
      ((t, ev), PF t :: own)

and comp_select st env cond a b : ve =
  let cc = comp_e st env cond in
  let ca = comp_e st env a in
  let cb = comp_e st env b in
  let allu =
    is_uniform (fst cc) && is_uniform (fst ca) && is_uniform (fst cb)
  in
  let fc, ownc = bopnd cc in
  match (fst ca, fst cb) with
  | (UI _ | XI _), (UI _ | XI _) ->
      let fa, owna = iopnd ca and fb, ownb = iopnd cb in
      if allu then begin
        release st ownc;
        release st owna;
        release st ownb;
        let fc = bu fc and fa = iu fa and fb = iu fb in
        ( UI
            (fun rt m ->
              inst rt;
              let bv = fc rt m in
              let x = fa rt m in
              let y = fb rt m in
              if bv then x else y),
          [] )
      end
      else begin
        release st ownc;
        release st owna;
        release st ownb;
        let d = alloc_i st in
        let doff = d * st.cn in
        let rc = brd st fc in
        let ra, _ = ird st fa and rb, _ = ird st fb in
        let fill rt m =
          inst rt;
          let cv = beval fc rt m in
          let av = ieval fa rt m in
          let bv = ieval fb rt m in
          let n = rt.n in
          let ip = rt.ip in
          if Array.length m = n then
            for l = 0 to n - 1 do
              iset ip (doff + l)
                (if rc rt cv l then ra rt av l else rb rt bv l)
            done
          else
            Array.iter
              (fun l ->
                iset ip (doff + l)
                  (if rc rt cv l then ra rt av l else rb rt bv l))
              m
        in
        (XI (d, fill), [ PI d ])
      end
  | (UB _ | XB _), (UB _ | XB _) ->
      let fa, owna = bopnd ca and fb, ownb = bopnd cb in
      if allu then begin
        release st ownc;
        release st owna;
        release st ownb;
        let fc = bu fc and fa = bu fa and fb = bu fb in
        ( UB
            (fun rt m ->
              inst rt;
              let bv = fc rt m in
              let x = fa rt m in
              let y = fb rt m in
              if bv then x else y),
          [] )
      end
      else begin
        release st ownc;
        release st owna;
        release st ownb;
        let d = alloc_i st in
        let doff = d * st.cn in
        let rc = brd st fc in
        let ra = brd st fa and rb = brd st fb in
        let fill rt m =
          inst rt;
          let cv = beval fc rt m in
          let av = beval fa rt m in
          let bv = beval fb rt m in
          let n = rt.n in
          let ip = rt.ip in
          if Array.length m = n then
            for l = 0 to n - 1 do
              iset ip (doff + l)
                (if
                   if rc rt cv l then ra rt av l else rb rt bv l
                 then 1
                 else 0)
            done
          else
            Array.iter
              (fun l ->
                iset ip (doff + l)
                  (if
                     if rc rt cv l then ra rt av l else rb rt bv l
                   then 1
                   else 0))
              m
        in
        (XB (d, fill), [ PI d ])
      end
  | _ ->
      let fa, owna = fopnd st ca in
      let fb, ownb = fopnd st cb in
      if allu then begin
        release st ownc;
        release st owna;
        release st ownb;
        let fc = bu fc and fa = fu fa and fb = fu fb in
        ( UF
            (fun rt m ->
              inst rt;
              let bv = fc rt m in
              let x = fa rt m in
              let y = fb rt m in
              if bv then x else y),
          [] )
      end
      else begin
        release st ownc;
        release st owna;
        release st ownb;
        let d = alloc_f st in
        let doff = d * st.cn in
        let coff = match fc with BP (p, _) -> p * st.cn | BU _ -> -1 in
        let aoff = fplane st fa and boff = fplane st fb in
        let fill rt m =
          inst rt;
          let cv = beval fc rt m in
          let av = feval fa rt m in
          let bv = feval fb rt m in
          let ip = rt.ip and fp = rt.fp in
          let[@inline] lane l =
            let c = if coff >= 0 then iget ip (coff + l) <> 0 else cv in
            let v =
              if c then if aoff >= 0 then fget fp (aoff + l) else av
              else if boff >= 0 then fget fp (boff + l)
              else bv
            in
            fset fp (doff + l) v
          in
          if Array.length m = rt.n then
            for l = 0 to rt.n - 1 do
              lane l
            done
          else Array.iter lane m
        in
        (XF (d, fill), [ PF d ])
      end

(* --- statements --- *)


(** Masked store into a declared variable's permanent plane(s), with the
    reference interpreter's promotion rules (int->float, bool->int,
    int->bool). *)
(** Masked copy of a float operand into a plane — a broadcast of a
    uniform or a plane-to-plane copy — after evaluating the operand. *)
let store_float st (fo : fopnd) (dplane : int) : vstmt =
  let doff = dplane * st.cn in
  match fo with
  | FU f ->
      fun rt m ->
        let v = f rt m in
        let fp = rt.fp in
        if Array.length m = rt.n then
          for l = 0 to rt.n - 1 do
            fset fp (doff + l) v
          done
        else Array.iter (fun l -> fset fp (doff + l) v) m
  | FP (p, fl) ->
      let soff = p * st.cn in
      fun rt m ->
        fl rt m;
        let fp = rt.fp in
        if Array.length m = rt.n then
          for l = 0 to rt.n - 1 do
            fset fp (doff + l) (fget fp (soff + l))
          done
        else Array.iter (fun l -> fset fp (doff + l) (fget fp (soff + l))) m

let store_plane st (b : binding) (ve : ve) : vstmt =
  let cn = st.cn in
  match (b, fst ve) with
  | Bint d, (UI _ | XI _ | UB _ | XB _) ->
      let io, own = iopnd ve in
      release st own;
      let r, _ = ird st io in
      let doff = d * cn in
      fun rt m ->
        let v = ieval io rt m in
        let n = rt.n in
        let ip = rt.ip in
        if Array.length m = n then
          for l = 0 to n - 1 do
            iset ip (doff + l) (r rt v l)
          done
        else Array.iter (fun l -> iset ip (doff + l) (r rt v l)) m
  | Bfloat d, (UI _ | UF _ | XI _ | XF _) ->
      let fo, own = fopnd st ve in
      release st own;
      store_float st fo d
  | Bbool d, (UB _ | XB _ | UI _ | XI _) ->
      let bo, own = bopnd ve in
      release st own;
      let r = brd st bo in
      let doff = d * cn in
      fun rt m ->
        let v = beval bo rt m in
        let n = rt.n in
        let ip = rt.ip in
        if Array.length m = n then
          for l = 0 to n - 1 do
            iset ip (doff + l) (if r rt v l then 1 else 0)
          done
        else
          Array.iter (fun l -> iset ip (doff + l) (if r rt v l then 1 else 0)) m
  | Bf2 (dx, dy), XF2 ((sx, sy), fl) ->
      release st (snd ve);
      let copies = [| (sx * cn, dx * cn); (sy * cn, dy * cn) |] in
      fun rt m ->
        fl rt m;
        let n = rt.n in
        let fp = rt.fp in
        Array.iter
          (fun (so, dd) ->
            if Array.length m = n then
              for l = 0 to n - 1 do
                fset fp (dd + l) (fget fp (so + l))
              done
            else Array.iter (fun l -> fset fp (dd + l) (fget fp (so + l))) m)
          copies
  | Bf4 (dx, dy, dz, dw), XF4 ((sx, sy, sz, sw), fl) ->
      release st (snd ve);
      let copies =
        [|
          (sx * cn, dx * cn);
          (sy * cn, dy * cn);
          (sz * cn, dz * cn);
          (sw * cn, dw * cn);
        |]
      in
      fun rt m ->
        fl rt m;
        let n = rt.n in
        let fp = rt.fp in
        Array.iter
          (fun (so, dd) ->
            if Array.length m = n then
              for l = 0 to n - 1 do
                fset fp (dd + l) (fget fp (so + l))
              done
            else Array.iter (fun l -> fset fp (dd + l) (fget fp (so + l))) m)
          copies
  | _ -> unsupported "incompatible assignment"

let shared_slot st name (a : Ast.array_ty) : int * Layout.t * int =
  let lay = Layout.make ~pad:false name a in
  match List.find_opt (fun (n, _, _, _) -> n = name) st.shared_specs with
  | Some (_, lay0, len, slot) ->
      if lay0 <> lay then unsupported "conflicting shared layouts for %s" name;
      (slot, lay, len)
  | None ->
      let slot = List.length st.shared_specs in
      let len = max 1 (Layout.size_elems lay) in
      st.shared_specs <- st.shared_specs @ [ (name, lay, len, slot) ];
      (slot, lay, len)

(** The names the [Assign]s in [b] write. *)
let assigned_names (b : Ast.block) : Sset.t =
  let rec stmt acc = function
    | Ast.Assign (Lvar v, _) -> Sset.add v acc
    | Ast.If (_, t, f) -> block (block acc t) f
    | Ast.For l -> block acc l.l_body
    | Ast.Assign _ | Ast.Decl _ | Ast.Sync | Ast.Global_sync | Ast.Comment _ ->
        acc
  and block acc b = List.fold_left stmt acc b in
  block Sset.empty b

(** Zero every lane of the planes backing one declared scalar — the
    analogue of the reference's fresh per-execution value arrays. *)
let fresh_planes st (b : binding) : vrt -> unit =
  let cn = st.cn in
  let fplanes =
    match b with
    | Bfloat p -> [| p * cn |]
    | Bf2 (x, y) -> [| x * cn; y * cn |]
    | Bf4 (x, y, z, w) -> [| x * cn; y * cn; z * cn; w * cn |]
    | _ -> [||]
  in
  let iplanes =
    match b with Bint p | Bbool p -> [| p * cn |] | _ -> [||]
  in
  fun rt ->
    let n = rt.n in
    Array.iter
      (fun o ->
        let fp = rt.fp in
        for l = 0 to n - 1 do
          fset fp (o + l) 0.0
        done)
      fplanes;
    Array.iter (fun o -> Array.fill rt.ip o n 0) iplanes

(* --- lane-outer register-only loops ---

   An innermost uniform loop whose body only reads memory and updates
   float registers runs in two passes instead of trip by trip. The trip
   pass runs the loop control and, for each trip in source order, every
   statistic, transaction record, bounds check and uniform closure of
   the body without touching a lane; it saves the trip's lane-affine
   site offsets, uniform values and statement outcomes in a row of the
   block state's trip buffer. The values pass then replays the rows for
   each active lane in one tight loop per statement.

   Bit-identity: memory is read-only inside such a loop (no store, no
   barrier), so a lane's leaf at trip [t] reads the value the gather
   would have read, and each accumulator gets the same float operation
   on the same operands in the same order. Statements whose
   accumulators are distinct and read by no statement are independent
   and replay one at a time; otherwise every lane replays trip by trip,
   statement by statement. Runtime errors keep their order because the
   trip pass raises exactly where the trip-by-trip plan would: uniform
   closures run in place, and a site's exact bounds test (its pattern
   plane's least and greatest value over the mask) falls back to the
   gather's own lane scan and message. *)

exception Not_lane_outer

(** Where a leaf's value lives: lane [l] at trip [t] reads
    [arr.{base + lo_ibuf.(t * ki + lf_col)}], where [arr] is selected by
    [lf_src] and [base] is [ip.(lf_po + l)] (when [lf_po >= 0]) plus
    [lf_k] plus [l] (when [lf_lane]). *)
type lsrc = Lglobal of int | Lshared of int | Lbuf | Lplane

type lleaf = {
  lf_src : lsrc;
  lf_po : int;  (** pattern plane offset, or [-1] *)
  lf_k : int;
  lf_lane : bool;
  lf_col : int;
}

(* fixed trip-buffer columns: a zero, the trip's float-row offset, and a
   one (the flag of an unguarded statement) *)
let lo_zero_col = 0
let lo_frow_col = 1
let lo_one_col = 2

(** [acc + p], [acc - p] and [p + acc]: the three accumulation shapes
    {!comp_acc} fuses, with the operand order of each. *)
type lop = Ladd_left | Lsub_left | Ladd_right

type lstmt = {
  ls_acc : int;  (** accumulator plane offset *)
  ls_op : lop;
  ls_x : lleaf;
  ls_y : lleaf option;  (** the second factor of a product *)
  ls_flag : int;  (** int column holding 1 on trips that ran it *)
}

(** Trip-pass work of one body piece, given the trip's int and float
    row offsets. *)
type titem = vrt -> int array -> int -> int -> unit

type lplan = {
  lp_ki : int;  (** int columns per trip *)
  lp_kf : int;  (** float columns per trip *)
  lp_site_po : int array;  (** per lane-affine site: pattern plane offset *)
  lp_site_min : int array;  (** full-mask least pattern value *)
  lp_site_max : int array;
  lp_flags : int array;  (** guarded statements' flag columns *)
  lp_items : titem array;
  lp_stmts : lstmt array;
  lp_indep : bool;  (** no two statements share an accumulator or read one *)
}

let lo_arr (rt : vrt) (src : lsrc) : Devmem.fmem =
  match src with
  | Lglobal g -> rt.globals.(g).Devmem.data
  | Lshared s -> rt.shareds.(s)
  | Lbuf -> rt.lo_fbuf
  | Lplane -> rt.fp

let[@inline] lo_base (ip : int array) (x : lleaf) (l : int) : int =
  (if x.lf_po >= 0 then iget ip (x.lf_po + l) else 0)
  + x.lf_k
  + if x.lf_lane then l else 0

(** Make room for trip [t]'s rows. *)
let lo_reserve (rt : vrt) ~(ki : int) ~(kf : int) (t : int) : unit =
  let ni = (t + 1) * ki in
  let ib = rt.lo_ibuf in
  if Array.length ib < ni then begin
    let a = Array.make (max ni (2 * Array.length ib)) 0 in
    Array.blit ib 0 a 0 (Array.length ib);
    rt.lo_ibuf <- a
  end;
  let nf = (t + 1) * kf in
  let fb = rt.lo_fbuf in
  let df = Bigarray.Array1.dim fb in
  if df < nf then begin
    let b = Devmem.falloc (max nf (2 * df)) in
    Bigarray.Array1.blit fb (Bigarray.Array1.sub b 0 df);
    rt.lo_fbuf <- b
  end

(** Each site's least and greatest pattern value over the mask: plan
    constants on the full mask. *)
let lo_bounds (p : lplan) (rt : vrt) (m : int array) : unit =
  let ns = Array.length p.lp_site_po in
  if Array.length rt.lo_bnd < 2 * ns then rt.lo_bnd <- Array.make (2 * ns) 0;
  let bnd = rt.lo_bnd in
  for j = 0 to ns - 1 do
    if Array.length m = rt.n then begin
      bnd.(2 * j) <- p.lp_site_min.(j);
      bnd.((2 * j) + 1) <- p.lp_site_max.(j)
    end
    else begin
      let po = p.lp_site_po.(j) in
      let lo = ref 0 and hi = ref 0 in
      Array.iteri
        (fun i l ->
          let v = iget rt.ip (po + l) in
          if i = 0 || v < !lo then lo := v;
          if i = 0 || v > !hi then hi := v)
        m;
      bnd.(2 * j) <- !lo;
      bnd.((2 * j) + 1) <- !hi
    end
  done

(* The values pass's inner loops: one lane and one statement over every
   trip, the accumulator held in a local. Trip [t]'s row starts at
   [t * ki]; a trip whose flag column reads 0 did not run the
   statement. *)

let lo_prod (op : lop) (fp : Devmem.fmem) (a : int) (ib : int array)
    (ki : int) (nt : int) (flag : int) (xa : Devmem.fmem) (xb : int)
    (xc : int) (ya : Devmem.fmem) (yb : int) (yc : int) : unit =
  let acc = ref (fget fp a) in
  (match op with
  | Ladd_left ->
      for t = 0 to nt - 1 do
        let row = t * ki in
        if iget ib (row + flag) <> 0 then
          acc :=
            !acc
            +. fget xa (xb + iget ib (row + xc))
               *. fget ya (yb + iget ib (row + yc))
      done
  | Lsub_left ->
      for t = 0 to nt - 1 do
        let row = t * ki in
        if iget ib (row + flag) <> 0 then
          acc :=
            !acc
            -. fget xa (xb + iget ib (row + xc))
               *. fget ya (yb + iget ib (row + yc))
      done
  | Ladd_right ->
      for t = 0 to nt - 1 do
        let row = t * ki in
        if iget ib (row + flag) <> 0 then
          acc :=
            fget xa (xb + iget ib (row + xc))
            *. fget ya (yb + iget ib (row + yc))
            +. !acc
      done);
  fset fp a !acc

(** {!lo_prod} for four consecutive lanes, whose bases are
    [x0..x3] and [y0..y3]: four independent accumulator chains share
    each trip's row reads, so an add's latency no longer bounds the
    loop. *)
let lo_prod4 (op : lop) (fp : Devmem.fmem) (a : int) (ib : int array)
    (ki : int) (nt : int) (flag : int) (xa : Devmem.fmem) (xc : int)
    (x0 : int) (x1 : int) (x2 : int) (x3 : int) (ya : Devmem.fmem) (yc : int)
    (y0 : int) (y1 : int) (y2 : int) (y3 : int) : unit =
  let a0 = ref (fget fp a) and a1 = ref (fget fp (a + 1)) in
  let a2 = ref (fget fp (a + 2)) and a3 = ref (fget fp (a + 3)) in
  (match op with
  | Ladd_left ->
      for t = 0 to nt - 1 do
        let row = t * ki in
        if iget ib (row + flag) <> 0 then begin
          let xo = iget ib (row + xc) and yo = iget ib (row + yc) in
          a0 := !a0 +. fget xa (x0 + xo) *. fget ya (y0 + yo);
          a1 := !a1 +. fget xa (x1 + xo) *. fget ya (y1 + yo);
          a2 := !a2 +. fget xa (x2 + xo) *. fget ya (y2 + yo);
          a3 := !a3 +. fget xa (x3 + xo) *. fget ya (y3 + yo)
        end
      done
  | Lsub_left ->
      for t = 0 to nt - 1 do
        let row = t * ki in
        if iget ib (row + flag) <> 0 then begin
          let xo = iget ib (row + xc) and yo = iget ib (row + yc) in
          a0 := !a0 -. fget xa (x0 + xo) *. fget ya (y0 + yo);
          a1 := !a1 -. fget xa (x1 + xo) *. fget ya (y1 + yo);
          a2 := !a2 -. fget xa (x2 + xo) *. fget ya (y2 + yo);
          a3 := !a3 -. fget xa (x3 + xo) *. fget ya (y3 + yo)
        end
      done
  | Ladd_right ->
      for t = 0 to nt - 1 do
        let row = t * ki in
        if iget ib (row + flag) <> 0 then begin
          let xo = iget ib (row + xc) and yo = iget ib (row + yc) in
          a0 := fget xa (x0 + xo) *. fget ya (y0 + yo) +. !a0;
          a1 := fget xa (x1 + xo) *. fget ya (y1 + yo) +. !a1;
          a2 := fget xa (x2 + xo) *. fget ya (y2 + yo) +. !a2;
          a3 := fget xa (x3 + xo) *. fget ya (y3 + yo) +. !a3
        end
      done);
  fset fp a !a0;
  fset fp (a + 1) !a1;
  fset fp (a + 2) !a2;
  fset fp (a + 3) !a3

let lo_leaf (op : lop) (fp : Devmem.fmem) (a : int) (ib : int array)
    (ki : int) (nt : int) (flag : int) (xa : Devmem.fmem) (xb : int)
    (xc : int) : unit =
  let acc = ref (fget fp a) in
  (match op with
  | Ladd_left ->
      for t = 0 to nt - 1 do
        let row = t * ki in
        if iget ib (row + flag) <> 0 then
          acc := !acc +. fget xa (xb + iget ib (row + xc))
      done
  | Lsub_left ->
      for t = 0 to nt - 1 do
        let row = t * ki in
        if iget ib (row + flag) <> 0 then
          acc := !acc -. fget xa (xb + iget ib (row + xc))
      done
  | Ladd_right ->
      for t = 0 to nt - 1 do
        let row = t * ki in
        if iget ib (row + flag) <> 0 then begin
          (* bound first: a load in first position would be folded into
             the add as its memory operand, with the accumulator as the
             destination, and x86 keeps the destination's nan payload
             where the reference keeps the first operand's *)
          let x = fget xa (xb + iget ib (row + xc)) in
          acc := x +. !acc
        end
      done);
  fset fp a !acc

(** Replay [nt] trips for every active lane. Independent statements run
    one at a time, each lane in one tight loop; dependent ones run trip
    by trip so that a statement sees the accumulators as trip-by-trip
    execution left them. *)
let lo_values (p : lplan) (rt : vrt) (m : int array) (nt : int) : unit =
  let ib = rt.lo_ibuf and ki = p.lp_ki and fp = rt.fp and ip = rt.ip in
  let full = Array.length m = rt.n in
  let stmts = p.lp_stmts in
  if p.lp_indep then
    Array.iter
      (fun s ->
        let x = s.ls_x in
        let xa = lo_arr rt x.lf_src in
        match s.ls_y with
        | None ->
            let lane l =
              lo_leaf s.ls_op fp (s.ls_acc + l) ib ki nt s.ls_flag xa
                (lo_base ip x l) x.lf_col
            in
            if full then
              for l = 0 to rt.n - 1 do
                lane l
              done
            else Array.iter lane m
        | Some y ->
            let ya = lo_arr rt y.lf_src in
            let lane l =
              lo_prod s.ls_op fp (s.ls_acc + l) ib ki nt s.ls_flag xa
                (lo_base ip x l) x.lf_col ya (lo_base ip y l) y.lf_col
            in
            if full then begin
              let quads = rt.n / 4 in
              for q = 0 to quads - 1 do
                let l = 4 * q in
                lo_prod4 s.ls_op fp (s.ls_acc + l) ib ki nt s.ls_flag xa
                  x.lf_col (lo_base ip x l)
                  (lo_base ip x (l + 1))
                  (lo_base ip x (l + 2))
                  (lo_base ip x (l + 3))
                  ya y.lf_col (lo_base ip y l)
                  (lo_base ip y (l + 1))
                  (lo_base ip y (l + 2))
                  (lo_base ip y (l + 3))
              done;
              for l = 4 * quads to rt.n - 1 do
                lane l
              done
            end
            else Array.iter lane m)
      stmts
  else
    Array.iter
      (fun l ->
        for t = 0 to nt - 1 do
          let row = t * ki in
          for q = 0 to Array.length stmts - 1 do
            let s = stmts.(q) in
            if iget ib (row + s.ls_flag) <> 0 then begin
              let x = s.ls_x in
              let xv =
                fget (lo_arr rt x.lf_src) (lo_base ip x l + iget ib (row + x.lf_col))
              in
              let v =
                match s.ls_y with
                | None -> xv
                | Some y ->
                    xv
                    *. fget (lo_arr rt y.lf_src)
                         (lo_base ip y l + iget ib (row + y.lf_col))
              in
              let a = s.ls_acc + l in
              let acc = fget fp a in
              fset fp a
                (match s.ls_op with
                | Ladd_left -> acc +. v
                | Lsub_left -> acc -. v
                | Ladd_right -> v +. acc)
            end
          done
        done)
      m

(** Run a planned loop: the uniform loop control of {!comp_stmt}, the
    trip pass, then the values pass. *)
let lo_run (p : lplan) ~(r : int) ~(finit : vrt -> int array -> int)
    ~(flim : vrt -> int array -> int) ~(fstep : vrt -> int array -> int) :
    vstmt =
  let ki = p.lp_ki and kf = p.lp_kf in
  let items = p.lp_items and flags = p.lp_flags in
  fun rt m ->
    inst rt;
    rt.uregs.(r) <- finit rt m;
    lo_bounds p rt m;
    let nt = ref 0 in
    let go = ref true in
    while !go do
      let lim = flim rt m in
      go := rt.uregs.(r) < lim;
      inst rt;
      if !go then begin
        let t = !nt in
        lo_reserve rt ~ki ~kf t;
        let irow = t * ki and frow = t * kf in
        let ib = rt.lo_ibuf in
        iset ib (irow + lo_zero_col) 0;
        iset ib (irow + lo_frow_col) frow;
        iset ib (irow + lo_one_col) 1;
        for q = 0 to Array.length flags - 1 do
          iset ib (irow + flags.(q)) 0
        done;
        for q = 0 to Array.length items - 1 do
          items.(q) rt m irow frow
        done;
        nt := t + 1;
        rt.uregs.(r) <- rt.uregs.(r) + fstep rt m;
        inst rt
      end
    done;
    lo_values p rt m !nt

(* --- lane-outer planning --- *)

(** Plan-time state of one candidate loop. *)
type lpst = {
  mutable p_ki : int;
  mutable p_kf : int;
  mutable p_sites : (int * int * int) list;  (** po, min, max; newest first *)
  mutable p_flags : int list;
  mutable p_stmts : lstmt list;  (** newest first *)
  mutable p_reads_acc : bool;
  p_accs : Sset.t;  (** names the body assigns *)
}

(** A leaf as classified at plan time: a uniform value still on the
    scalar channel (float or int, as {!comp_e} typed it), or a value
    source with its trip work. *)
type lclass =
  | Cuf of (vrt -> int array -> float)
  | Cui of (vrt -> int array -> int)
  | Cleaf of lleaf * titem option

let lo_col (ps : lpst) : int =
  let c = ps.p_ki in
  ps.p_ki <- c + 1;
  c

(** Register a lane-affine site: its offset column and bounds slot. *)
let lo_site st (ps : lpst) (po : int) : int * int =
  let ax, ay =
    fst (List.find (fun (_, p) -> p * st.cn = po) st.patterns)
  in
  let l = st.claunch in
  let lo a d = if a < 0 then a * (d - 1) else 0 in
  let hi a d = if a > 0 then a * (d - 1) else 0 in
  let j = List.length ps.p_sites in
  ps.p_sites <-
    ( po,
      lo ax l.block_x + lo ay l.block_y,
      hi ax l.block_x + hi ay l.block_y )
    :: ps.p_sites;
  (j, lo_col ps)

(** The exact bounds test of site [j] at offset [u]; on failure, the
    gather's own lane scan and message for the first bad lane. *)
let lo_check (rt : vrt) (m : int array) ~(j : int) ~(po : int) ~(u : int)
    ~(len : int) ~(shared : bool) (name : string) : unit =
  let bnd = rt.lo_bnd in
  if u + bnd.(2 * j) < 0 || u + bnd.((2 * j) + 1) >= len then
    Array.iter
      (fun l ->
        let o = iget rt.ip (po + l) + u in
        if o < 0 || o >= len then
          if shared then
            Interp.err "out-of-bounds shared load %s[%d] (size %d)" name o len
          else Interp.err "out-of-bounds load %s[%d] (size %d)" name o len)
      m

let lo_uniform st env (e : Ast.expr) : lclass =
  match comp_e st env e with
  | UF f, own ->
      release st own;
      Cuf f
  | UI f, own ->
      release st own;
      Cui f
  | _ -> raise Not_lane_outer

(** Classify a leaf: a stable lane-affine load, a float local (a
    temporary resolves to its own leaf), or a block-uniform value. *)
let lo_class st env (ps : lpst) (temps : lleaf Smap.t) (e : Ast.expr) :
    lclass =
  match e with
  | Var v when Smap.mem v temps -> Cleaf (Smap.find v temps, None)
  | Var v -> (
      match Smap.find_opt v env with
      | Some (Bfloat p) ->
          if Sset.mem v ps.p_accs then ps.p_reads_acc <- true;
          Cleaf
            ( {
                lf_src = Lplane;
                lf_po = -1;
                lf_k = p * st.cn;
                lf_lane = true;
                lf_col = lo_zero_col;
              },
              None )
      | _ -> lo_uniform st env e)
  | Index (arr, idxs) -> (
      let site src po col work =
        Cleaf
          ( { lf_src = src; lf_po = po; lf_k = 0; lf_lane = false; lf_col = col },
            Some work )
      in
      match Smap.find_opt arr env with
      | Some (Bglobal (gslot, strides, name))
        when List.length idxs = Array.length strides -> (
          match comp_index st env strides idxs with
          | Iuniform off, owns ->
              release st owns;
              Cuf (uniform_gload st gslot name off)
          | Ilanes { xp_po = po; xp_run = run; xp_stable = true; _ }, owns ->
              release st owns;
              let sid = fresh_site st in
              let j, col = lo_site st ps po in
              site (Lglobal gslot) po col (fun rt m irow _ ->
                  inst rt;
                  let g = rt.globals.(gslot) in
                  let len = Bigarray.Array1.dim g.Devmem.data in
                  let u = run rt m in
                  lo_check rt m ~j ~po ~u ~len ~shared:false name;
                  account_plane rt ~is_store:false ~elt_bytes:4 ~stable:true m
                    ~po ~base:(g.Devmem.base + (4 * u)) ~scale:4 ~site:sid;
                  iset rt.lo_ibuf (irow + col) u)
          | Ilanes _, _ -> raise Not_lane_outer)
      | Some (Bshared (sslot, strides, len))
        when List.length idxs = Array.length strides -> (
          match comp_index st env strides idxs with
          | Iuniform off, owns ->
              release st owns;
              Cuf (uniform_sload sslot arr len off)
          | Ilanes { xp_po = po; xp_run = run; xp_stable = true; _ }, owns ->
              release st owns;
              let sid = fresh_site st in
              let j, col = lo_site st ps po in
              site (Lshared sslot) po col (fun rt m irow _ ->
                  inst rt;
                  let u = run rt m in
                  lo_check rt m ~j ~po ~u ~len ~shared:true arr;
                  account_shared_plane rt ~stable:true m ~po ~scale:1 ~u
                    ~site:sid;
                  iset rt.lo_ibuf (irow + col) u)
          | Ilanes _, _ -> raise Not_lane_outer)
      | _ -> raise Not_lane_outer)
  | _ -> lo_uniform st env e

let lo_nowork : titem = fun _ _ _ _ -> ()

(** A classified leaf as a float value source; a uniform one gets a
    float column that its closure fills each trip. *)
let lo_float_leaf (ps : lpst) (c : lclass) : lleaf * titem =
  let buffered (f : vrt -> int array -> float) =
    let slot = ps.p_kf in
    ps.p_kf <- slot + 1;
    ( {
        lf_src = Lbuf;
        lf_po = -1;
        lf_k = slot;
        lf_lane = false;
        lf_col = lo_frow_col;
      },
      fun rt m _ frow -> fset rt.lo_fbuf (frow + slot) (f rt m) )
  in
  match c with
  | Cleaf (lf, w) -> (lf, Option.value w ~default:lo_nowork)
  | Cuf f -> buffered f
  | Cui f -> buffered (fun rt m -> float_of_int (f rt m))

(** Plan one accumulation [v = v +/- rest] or [v = rest + v] under the
    statistics of {!comp_acc}: a product of two leaves that are not
    both uniform is fused (three instructions, both leaves, two flop
    counts); anything else is one leaf (two instructions, the leaf, one
    flop count), a uniform product being that leaf. *)
let lo_acc st env (ps : lpst) temps ~(guarded : bool) (pv : int) (op : lop)
    (rest : Ast.expr) : titem =
  let flag =
    if guarded then begin
      let c = lo_col ps in
      ps.p_flags <- c :: ps.p_flags;
      c
    end
    else lo_one_col
  in
  let add x y =
    ps.p_stmts <-
      { ls_acc = pv * st.cn; ls_op = op; ls_x = x; ls_y = y; ls_flag = flag }
      :: ps.p_stmts
  in
  let mark rt irow = if guarded then iset rt.lo_ibuf (irow + flag) 1 in
  let single c =
    let x, wx = lo_float_leaf ps c in
    add x None;
    fun rt m irow frow ->
      inst rt;
      inst rt;
      wx rt m irow frow;
      flops rt (Array.length m);
      mark rt irow
  in
  let fl = function
    | Cui f -> fun rt m -> float_of_int (f rt m)
    | Cuf f -> f
    | Cleaf _ -> assert false
  in
  match rest with
  | Ast.Binop (Ast.Mul, e1, e2) -> (
      let c1 = lo_class st env ps temps e1 in
      let c2 = lo_class st env ps temps e2 in
      match (c1, c2) with
      | Cui a, Cui b ->
          single
            (Cui
               (fun rt m ->
                 inst rt;
                 let x = a rt m in
                 let y = b rt m in
                 x * y))
      | (Cuf _ | Cui _), (Cuf _ | Cui _) ->
          let a = fl c1 and b = fl c2 in
          single
            (Cuf
               (fun rt m ->
                 inst rt;
                 let x = a rt m in
                 let y = b rt m in
                 flops rt (Array.length m);
                 x *. y))
      | _ ->
          let x, wx = lo_float_leaf ps c1 in
          let y, wy = lo_float_leaf ps c2 in
          add x (Some y);
          fun rt m irow frow ->
            inst rt;
            inst rt;
            inst rt;
            wx rt m irow frow;
            wy rt m irow frow;
            let k = Array.length m in
            flops rt k;
            flops rt k;
            mark rt irow)
  | _ -> single (lo_class st env ps temps rest)

(** Plan a loop body's statements in order; [temps] maps the float
    temporaries in scope to their leaves. *)
let rec lo_block st env (ps : lpst) temps ~(guarded : bool) (b : Ast.block) :
    titem list =
  let _, rev =
    List.fold_left
      (fun (temps, acc) (s : Ast.stmt) ->
        match s with
        | Comment _ -> (temps, acc)
        | Decl { d_name; d_ty = Scalar Float; d_init = Some e }
          when not (Sset.mem d_name st.assigned) ->
            (match e with
            | Var v when Sset.mem v ps.p_accs -> raise Not_lane_outer
            | _ -> ());
            let lf, w = lo_float_leaf ps (lo_class st env ps temps e) in
            let item rt m irow frow =
              inst rt;
              w rt m irow frow
            in
            (Smap.add d_name lf temps, item :: acc)
        | Assign (Lvar v, e) -> (
            let shape =
              match e with
              | Binop (((Add | Sub) as op), Var v', rest) when v' = v ->
                  Some ((if op = Add then Ladd_left else Lsub_left), rest)
              | Binop (Add, rest, Var v') when v' = v -> Some (Ladd_right, rest)
              | _ -> None
            in
            match (Smap.find_opt v env, shape) with
            | Some (Bfloat pv), Some (op, rest) when not (Smap.mem v temps) ->
                (temps, lo_acc st env ps temps ~guarded pv op rest :: acc)
            | _ -> raise Not_lane_outer)
        | If (cond, t, f) -> (
            let cc = comp_e st env cond in
            match fst cc with
            | UB _ | UI _ ->
                let fc, ownc = bopnd cc in
                release st ownc;
                let fc = bu fc in
                let ti = Array.of_list (lo_block st env ps temps ~guarded:true t) in
                let fi = Array.of_list (lo_block st env ps temps ~guarded:true f) in
                let item rt m irow frow =
                  inst rt;
                  let br = if fc rt m then ti else fi in
                  for q = 0 to Array.length br - 1 do
                    br.(q) rt m irow frow
                  done
                in
                (temps, item :: acc)
            | _ -> raise Not_lane_outer)
        | _ -> raise Not_lane_outer)
      (temps, []) b
  in
  List.rev rev

let rec has_loop (b : Ast.block) : bool =
  List.exists
    (function
      | Ast.For _ -> true
      | Ast.If (_, t, f) -> has_loop t || has_loop f
      | _ -> false)
    b

(** Plan [body] of a uniform loop to run lane-outer, or [None] (with
    the plan state untouched) when it does not qualify. *)
let lo_plan st env (body : Ast.block) : lplan option =
  if has_loop body then None
  else begin
    let saved = { st with nf = st.nf } in
    let restore () =
      st.nf <- saved.nf;
      st.ni <- saved.ni;
      st.free_f <- saved.free_f;
      st.free_i <- saved.free_i;
      st.nuregs <- saved.nuregs;
      st.nsites <- saved.nsites;
      st.shared_specs <- saved.shared_specs;
      st.global_params <- saved.global_params;
      st.id_planes <- saved.id_planes;
      st.patterns <- saved.patterns;
      st.varying_guards <- saved.varying_guards;
      st.lane_outer <- saved.lane_outer
    in
    let ps =
      {
        p_ki = lo_one_col + 1;
        p_kf = 0;
        p_sites = [];
        p_flags = [];
        p_stmts = [];
        p_reads_acc = false;
        p_accs = assigned_names body;
      }
    in
    match lo_block st env ps Smap.empty ~guarded:false body with
    | items when ps.p_stmts <> [] ->
        let stmts = Array.of_list (List.rev ps.p_stmts) in
        let accs = List.map (fun s -> s.ls_acc) ps.p_stmts in
        let shared_acc =
          List.length (List.sort_uniq compare accs) <> List.length accs
        in
        let sites = Array.of_list (List.rev ps.p_sites) in
        st.lane_outer <- st.lane_outer + 1;
        Some
          {
            lp_ki = ps.p_ki;
            lp_kf = ps.p_kf;
            lp_site_po = Array.map (fun (po, _, _) -> po) sites;
            lp_site_min = Array.map (fun (_, lo, _) -> lo) sites;
            lp_site_max = Array.map (fun (_, _, hi) -> hi) sites;
            lp_flags = Array.of_list ps.p_flags;
            lp_items = Array.of_list items;
            lp_stmts = stmts;
            lp_indep = not (ps.p_reads_acc || shared_acc);
          }
    | _ ->
        restore ();
        None
    | exception (Not_lane_outer | Unsupported _) ->
        restore ();
        None
  end

let rec comp_stmt st env (s : Ast.stmt) : binding Smap.t * vstmt option =
  match s with
  | Comment _ -> (env, None)
  | Global_sync ->
      (* top-level barriers are phase splits; a nested one is a no-op,
         exactly like the reference *)
      (env, None)
  | Sync ->
      ( env,
        Some
          (fun rt _ ->
            let s = rt.c.Interp.stats in
            s.Stats.syncs <- s.Stats.syncs +. 1.;
            rt.c.Interp.epoch <- rt.c.Interp.epoch + 1;
            inst rt) )
  | Decl { d_name; d_ty = Scalar sc; d_init } ->
      let b =
        match sc with
        | Ast.Int -> Bint (alloc_i st)
        | Ast.Bool -> Bbool (alloc_i st)
        | Ast.Float -> Bfloat (alloc_f st)
        | Ast.Float2 -> Bf2 (alloc_f st, alloc_f st)
        | Ast.Float4 -> Bf4 (alloc_f st, alloc_f st, alloc_f st, alloc_f st)
      in
      let zero = fresh_planes st b in
      let ce = Option.map (comp_e st env) d_init in
      (match (b, ce) with
      | Bint p, Some (((UI _ | UB _), _) as ce)
        when not (Sset.mem d_name st.assigned) ->
          (* every lane that can read it holds the initializer's value:
             a uniform register, like a uniform loop variable *)
          release st [ PI p ];
          let f, own = iopnd ce in
          release st own;
          let f = iu f and r = fresh_ureg st in
          ( Smap.add d_name (Bureg r) env,
            Some
              (fun rt m ->
                inst rt;
                rt.uregs.(r) <- f rt m) )
      | _, None -> (Smap.add d_name b env, Some (fun rt _ -> zero rt))
      | _, Some ce ->
          let store = store_plane st b ce in
          ( Smap.add d_name b env,
            Some
              (fun rt m ->
                zero rt;
                inst rt;
                store rt m) ))
  | Decl { d_name; d_ty = Array ({ space = Shared; _ } as a); _ } ->
      let slot, lay, len = shared_slot st d_name a in
      let strides = Array.of_list (Layout.strides lay) in
      (Smap.add d_name (Bshared (slot, strides, len)) env, None)
  | Decl { d_name; d_ty = Array _; _ } ->
      unsupported "declaration of non-shared array %s in kernel body" d_name
  | Assign (lv, e) -> (env, Some (comp_assign st env lv e))
  | If (cond, t, f) -> (
      let cc = comp_e st env cond in
      match fst cc with
      | UB _ | UI _ ->
          let fc, ownc = bopnd cc in
          release st ownc;
          let fc = bu fc in
          let tstm = comp_block st env t in
          let fstm = comp_block st env f in
          ( env,
            Some
              (fun rt m ->
                inst rt;
                if fc rt m then tstm rt m else fstm rt m) )
      | XB _ | XI _ ->
          st.varying_guards <- st.varying_guards + 1;
          let fc, ownc = bopnd cc in
          release st ownc;
          let co, fl =
            match fc with BP (p, fl) -> (p * st.cn, fl) | BU _ -> assert false
          in
          let tstm = comp_block st env t in
          let fstm = comp_block st env f in
          ( env,
            Some
              (fun rt m ->
                inst rt;
                fl rt m;
                let ip = rt.ip in
                let nm = Array.length m in
                let nt = ref 0 in
                if nm = rt.n then
                  for l = 0 to nm - 1 do
                    if iget ip (co + l) <> 0 then incr nt
                  done
                else
                  Array.iter (fun l -> if iget ip (co + l) <> 0 then incr nt) m;
                let nt = !nt in
                (* a unanimous outcome hands the incoming mask on *)
                if nt = nm then tstm rt m
                else if nt = 0 then fstm rt m
                else begin
                  let tm = Array.make nt 0 and fm = Array.make (nm - nt) 0 in
                  let ti = ref 0 and fi = ref 0 in
                  Array.iter
                    (fun l ->
                      if iget ip (co + l) <> 0 then begin
                        tm.(!ti) <- l;
                        incr ti
                      end
                      else begin
                        fm.(!fi) <- l;
                        incr fi
                      end)
                    m;
                  let s = rt.c.Interp.stats in
                  s.Stats.divergent_branches <-
                    s.Stats.divergent_branches +. 1.;
                  tstm rt tm;
                  fstm rt fm
                end) )
      | UF _ | XF _ | XF2 _ | XF4 _ -> unsupported "expected a boolean value")
  | For { l_var; l_init; l_limit; l_step; l_body } -> (
      let init_ce = comp_e st env l_init in
      let init_uniform =
        match fst init_ce with UI _ | UB _ -> true | _ -> false
      in
      let uniform_candidate =
        init_uniform && not (Sset.mem l_var st.assigned)
      in
      let uniform_compiled =
        if not uniform_candidate then None
        else begin
          let r = fresh_ureg st in
          let env_u = Smap.add l_var (Bureg r) env in
          match (comp_e st env_u l_limit, comp_e st env_u l_step) with
          | (((UI _ | UB _), _) as lim_ce), (((UI _ | UB _), _) as step_ce) ->
              let finit, owni = iopnd init_ce in
              let flim, ownl = iopnd lim_ce in
              let fstep, owns = iopnd step_ce in
              release st owni;
              release st ownl;
              release st owns;
              let finit = iu finit and flim = iu flim and fstep = iu fstep in
              (match lo_plan st env_u l_body with
              | Some p -> Some (lo_run p ~r ~finit ~flim ~fstep)
              | None ->
                  let body = comp_block st env_u l_body in
                  Some
                    (fun rt m ->
                      inst rt;
                      rt.uregs.(r) <- finit rt m;
                      let rec loop () =
                        let lim = flim rt m in
                        let go = rt.uregs.(r) < lim in
                        inst rt;
                        if go then begin
                          body rt m;
                          rt.uregs.(r) <- rt.uregs.(r) + fstep rt m;
                          inst rt;
                          loop ()
                        end
                      in
                      loop ()))
          | _ -> None
        end
      in
      match uniform_compiled with
      | Some stm -> (env, Some stm)
      | None ->
          let finit, owni = iopnd init_ce in
          let piv =
            (* permanent counter plane, allocated while the init's
               planes are held so they cannot alias *)
            let p = st.ni in
            st.ni <- p + 1;
            p
          in
          release st owni;
          let env_v = Smap.add l_var (Bloop_v piv) env in
          let flim, ownl = iopnd (comp_e st env_v l_limit) in
          let fstep, owns = iopnd (comp_e st env_v l_step) in
          release st ownl;
          release st owns;
          let rinit, _ = ird st finit in
          let rlim, _ = ird st flim in
          let rstep, _ = ird st fstep in
          let body = comp_block st env_v l_body in
          let ioff = piv * st.cn in
          ( env,
            Some
              (fun rt m ->
                let n = rt.n in
                let ip = rt.ip in
                Array.fill ip ioff n 0;
                inst rt;
                let iv = ieval finit rt m in
                Array.iter (fun l -> iset ip (ioff + l) (rinit rt iv l)) m;
                let rec loop active =
                  let lv = ieval flim rt active in
                  let ns = ref 0 in
                  Array.iter
                    (fun l ->
                      if iget ip (ioff + l) < rlim rt lv l then incr ns)
                    active;
                  let still = Array.make !ns 0 in
                  let si = ref 0 in
                  Array.iter
                    (fun l ->
                      if iget ip (ioff + l) < rlim rt lv l then begin
                        still.(!si) <- l;
                        incr si
                      end)
                    active;
                  inst rt;
                  if !ns > 0 then begin
                    body rt still;
                    let sv = ieval fstep rt still in
                    Array.iter
                      (fun l ->
                        iset ip (ioff + l) (iget ip (ioff + l) + rstep rt sv l))
                      still;
                    inst rt;
                    loop still
                  end
                in
                loop m) ))

(* In-place accumulation [v = v +/- rest] (and the mirrored
   [v = rest + v]) into the variable's own plane, skipping the
   temporary-plane + copy-back of the generic assign. When [rest] is an
   elementwise float product the multiply folds into the same pass — the
   [sum += a * b] inner-loop shape. Statistics stay identical to the
   generic path: [inst]/[flops] are exact order-free counters so only
   their totals must match, and the operand fills (which may contain
   accounted loads feeding the order-sensitive [cost_bytes]) run in the
   same relative order as {!mk_fbin} would run them. *)
and comp_acc st env (v : string) (pv : int) (e : Ast.expr) : vstmt =
  let cn = st.cn in
  let doff = pv * cn in
  let op, rest, sum_left =
    match e with
    | Ast.Binop (((Ast.Add | Ast.Sub) as op), Ast.Var v', rest) when v' = v ->
        (op, rest, true)
    | Ast.Binop (Ast.Add, rest, Ast.Var v') when v' = v -> (Ast.Add, rest, false)
    | _ -> unsupported "not an accumulation"
  in
  let fop = fop_of_arith op in
  (* [Ok (a, aoff, b, boff)]: fused multiply-accumulate operands.
     [Error ve]: plain accumulate of an already-compiled [rest]. *)
  let fused =
    match rest with
    | Ast.Binop (Ast.Mul, e1, e2) -> (
        let ca = comp_e st env e1 in
        let cb = comp_e st env e2 in
        match (fst ca, fst cb) with
        | (UI _ | XI _), (UI _ | XI _) | (XF2 _ | XF4 _), _ | _, (XF2 _ | XF4 _)
          ->
            (* integer or vector multiply: not the float-plane shape *)
            Error (comp_binop_c st Ast.Mul ca cb)
        | ka, kb when is_uniform ka && is_uniform kb ->
            Error (comp_binop_c st Ast.Mul ca cb)
        | _ ->
            let fa, owna = fopnd st ca in
            let fb, ownb = fopnd st cb in
            release st owna;
            release st ownb;
            let aoff = match fa with FP (p, _) -> p * cn | FU _ -> 0 in
            let boff = match fb with FP (p, _) -> p * cn | FU _ -> 0 in
            Ok (fa, aoff, fb, boff))
    | _ -> Error (comp_e st env rest)
  in
  match fused with
  | Ok (fa, aoff, fb, boff) -> (
      let pre rt m =
        inst rt;
        (* assign *)
        inst rt;
        (* add/sub *)
        inst rt;
        (* mul *)
        let av = feval fa rt m in
        let bv = feval fb rt m in
        let k = Array.length m in
        flops rt k;
        flops rt k;
        (av, bv)
      in
      match (fa, fb) with
      | FP _, FP _ ->
          fun rt m ->
            ignore (pre rt m);
            let n = rt.n in
            let fp = rt.fp in
            if sum_left then
              if Array.length m = n then
                for l = 0 to n - 1 do
                  fset fp (doff + l)
                    (fapply fop
                       (fget fp (doff + l))
                       (fget fp (aoff + l) *. fget fp (boff + l)))
                done
              else
                Array.iter
                  (fun l ->
                    fset fp (doff + l)
                      (fapply fop
                         (fget fp (doff + l))
                         (fget fp (aoff + l) *. fget fp (boff + l))))
                  m
            else if Array.length m = n then
              for l = 0 to n - 1 do
                fset fp (doff + l)
                  (fapply fop
                     (fget fp (aoff + l) *. fget fp (boff + l))
                     (fget fp (doff + l)))
              done
            else
              Array.iter
                (fun l ->
                  fset fp (doff + l)
                    (fapply fop
                       (fget fp (aoff + l) *. fget fp (boff + l))
                       (fget fp (doff + l))))
                m
      | FP _, FU _ ->
          fun rt m ->
            let _, bv = pre rt m in
            let n = rt.n in
            let fp = rt.fp in
            if sum_left then
              if Array.length m = n then
                for l = 0 to n - 1 do
                  fset fp (doff + l)
                    (fapply fop (fget fp (doff + l)) (fget fp (aoff + l) *. bv))
                done
              else
                Array.iter
                  (fun l ->
                    fset fp (doff + l)
                      (fapply fop
                         (fget fp (doff + l))
                         (fget fp (aoff + l) *. bv)))
                  m
            else if Array.length m = n then
              for l = 0 to n - 1 do
                fset fp (doff + l)
                  (fapply fop (fget fp (aoff + l) *. bv) (fget fp (doff + l)))
              done
            else
              Array.iter
                (fun l ->
                  fset fp (doff + l)
                    (fapply fop
                       (fget fp (aoff + l) *. bv)
                       (fget fp (doff + l))))
                m
      | FU _, FP _ ->
          fun rt m ->
            let av, _ = pre rt m in
            let n = rt.n in
            let fp = rt.fp in
            if sum_left then
              if Array.length m = n then
                for l = 0 to n - 1 do
                  fset fp (doff + l)
                    (fapply fop (fget fp (doff + l)) (av *. fget fp (boff + l)))
                done
              else
                Array.iter
                  (fun l ->
                    fset fp (doff + l)
                      (fapply fop
                         (fget fp (doff + l))
                         (av *. fget fp (boff + l))))
                  m
            else if Array.length m = n then
              for l = 0 to n - 1 do
                fset fp (doff + l)
                  (fapply fop (av *. fget fp (boff + l)) (fget fp (doff + l)))
              done
            else
              Array.iter
                (fun l ->
                  fset fp (doff + l)
                    (fapply fop
                       (av *. fget fp (boff + l))
                       (fget fp (doff + l))))
                m
      | FU _, FU _ ->
          (* excluded above: both-uniform products stay on the scalar
             channel *)
          assert false)
  | Error ((ce, _) as ve) -> (
      match ce with
      | XF2 _ | XF4 _ ->
          (* vector-valued rhs: keep the generic assign *)
          let cvar : ve = (XF (pv, nofill), []) in
          let sum_ve =
            if sum_left then comp_binop_c st op cvar ve
            else comp_binop_c st op ve cvar
          in
          let store = store_plane st (Bfloat pv) sum_ve in
          fun rt m ->
            inst rt;
            store rt m
      | _ -> (
          let fo, own = fopnd st ve in
          release st own;
          let aoff = match fo with FP (p, _) -> p * cn | FU _ -> 0 in
          match fo with
          | FP _ ->
              fun rt m ->
                inst rt;
                inst rt;
                ignore (feval fo rt m);
                let k = Array.length m in
                flops rt k;
                let n = rt.n in
                let fp = rt.fp in
                if sum_left then
                  if k = n then
                    for l = 0 to n - 1 do
                      fset fp (doff + l)
                        (fapply fop (fget fp (doff + l)) (fget fp (aoff + l)))
                    done
                  else
                    Array.iter
                      (fun l ->
                        fset fp (doff + l)
                          (fapply fop
                             (fget fp (doff + l))
                             (fget fp (aoff + l))))
                      m
                else if k = n then
                  for l = 0 to n - 1 do
                    fset fp (doff + l)
                      (fapply fop (fget fp (aoff + l)) (fget fp (doff + l)))
                  done
                else
                  Array.iter
                    (fun l ->
                      fset fp (doff + l)
                        (fapply fop (fget fp (aoff + l)) (fget fp (doff + l))))
                    m
          | FU _ ->
              fun rt m ->
                inst rt;
                inst rt;
                let av = feval fo rt m in
                let k = Array.length m in
                flops rt k;
                let n = rt.n in
                let fp = rt.fp in
                if sum_left then
                  if k = n then
                    for l = 0 to n - 1 do
                      fset fp (doff + l) (fapply fop (fget fp (doff + l)) av)
                    done
                  else
                    Array.iter
                      (fun l ->
                        fset fp (doff + l) (fapply fop (fget fp (doff + l)) av))
                      m
                else if k = n then
                  for l = 0 to n - 1 do
                    fset fp (doff + l) (fapply fop av (fget fp (doff + l)))
                  done
                else
                  Array.iter
                    (fun l ->
                      fset fp (doff + l) (fapply fop av (fget fp (doff + l))))
                    m))

and comp_assign st env (lv : Ast.lvalue) (e : Ast.expr) : vstmt =
  match lv with
  | Lvar v -> (
      match Smap.find_opt v env with
      | Some (Bfloat pv)
        when (match e with
             | Ast.Binop ((Ast.Add | Ast.Sub), Ast.Var v', _) when v' = v ->
                 true
             | Ast.Binop (Ast.Add, _, Ast.Var v') when v' = v -> true
             | _ -> false) ->
          comp_acc st env v pv e
      | Some ((Bint _ | Bfloat _ | Bbool _ | Bf2 _ | Bf4 _) as b) ->
          let store = store_plane st b (comp_e st env e) in
          fun rt m ->
            inst rt;
            store rt m
      | Some (Bloop_v p) ->
          let store = store_plane st (Bint p) (comp_e st env e) in
          fun rt m ->
            inst rt;
            store rt m
      | Some (Bureg _) -> unsupported "assignment to uniform register %s" v
      | Some _ | None -> unsupported "assignment to non-scalar %s" v)
  | Lfield (Lvar v, fcomp) -> (
      match (comp_e st env e, Smap.find_opt v env, fcomp) with
      | src, Some (Bf2 (x, _)), Ast.FX -> store_component st src x
      | src, Some (Bf2 (_, y)), Ast.FY -> store_component st src y
      | src, Some (Bf4 (x, _, _, _)), Ast.FX -> store_component st src x
      | src, Some (Bf4 (_, y, _, _)), Ast.FY -> store_component st src y
      | src, Some (Bf4 (_, _, z, _)), Ast.FZ -> store_component st src z
      | src, Some (Bf4 (_, _, _, w)), Ast.FW -> store_component st src w
      | _ -> unsupported "bad vector component assignment to %s" v)
  | Lfield _ -> unsupported "unsupported field assignment"
  | Lvec { v_arr; v_width; v_index } -> (
      match Smap.find_opt v_arr env with
      | Some (Bglobal (gslot, _, name)) -> (
          let ix, owni = comp_index st env [| 1 |] [ v_index ] in
          let src = comp_e st env e in
          let coffs, cfl =
            match (fst src, v_width) with
            | XF2 ((x, y), fl), 2 -> ([| x * st.cn; y * st.cn |], fl)
            | XF4 ((x, y, z, w), fl), 4 ->
                ([| x * st.cn; y * st.cn; z * st.cn; w * st.cn |], fl)
            | _ -> unsupported "vector store width mismatch on %s" v_arr
          in
          release st (snd src);
          release st owni;
          let store_lane data len fp l i0 =
            for q = 0 to v_width - 1 do
              let o = i0 + q in
              if o < 0 || o >= len then
                Interp.err "out-of-bounds vector store %s[%d] (size %d)" name
                  o len;
              fset data o (fget fp (coffs.(q) + l))
            done
          in
          match ix with
          | Iuniform off ->
              let site = fresh_site st in
              fun rt m ->
                inst rt;
                let i0 = off rt m in
                cfl rt m;
                let g = rt.globals.(gslot) in
                let data = g.Devmem.data in
                let len = Bigarray.Array1.dim data in
                let fp = rt.fp in
                Array.iter (fun l -> store_lane data len fp l (i0 * v_width)) m;
                account_const rt ~is_store:true ~elt_bytes:(4 * v_width) m
                  ~addr:(g.Devmem.base + (i0 * v_width * 4))
                  ~site
          | Ilanes xp ->
              let po = xp.xp_po and sc = xp.xp_scale in
              let stable = xp.xp_stable in
              let run = xp.xp_run in
              let site = fresh_site st in
              fun rt m ->
                inst rt;
                let u = run rt m in
                cfl rt m;
                let g = rt.globals.(gslot) in
                let data = g.Devmem.data in
                let len = Bigarray.Array1.dim data in
                let fp = rt.fp and ip = rt.ip in
                Array.iter
                  (fun l ->
                    store_lane data len fp l
                      (((iget ip (po + l) * sc) + u) * v_width))
                  m;
                account_plane rt ~is_store:true ~elt_bytes:(4 * v_width)
                  ~stable m ~po
                  ~base:(g.Devmem.base + (4 * v_width * u))
                  ~scale:(4 * v_width * sc) ~site)
      | _ -> unsupported "vector store to non-global array %s" v_arr)
  | Lindex (arr, idxs) -> (
      let src, owns_src = fopnd st (comp_e st env e) in
      let soff = fplane st src in
      match Smap.find_opt arr env with
      | Some (Bglobal (gslot, strides, name)) -> (
          if List.length idxs <> Array.length strides then
            unsupported "rank mismatch accessing %s" arr;
          let ix, owns_i = comp_index st env strides idxs in
          release st owns_i;
          release st owns_src;
          match ix with
          | Iuniform off ->
              let site = fresh_site st in
              fun rt m ->
                inst rt;
                let sv = feval src rt m in
                let g = rt.globals.(gslot) in
                let data = g.Devmem.data in
                let len = Bigarray.Array1.dim data in
                let o = off rt m in
                if o < 0 || o >= len then
                  Interp.err "out-of-bounds store %s[%d] (size %d)" name o len;
                let fp = rt.fp in
                Array.iter
                  (fun l ->
                    let v = if soff >= 0 then fget fp (soff + l) else sv in
                    fset data o v)
                  m;
                let addr = g.Devmem.base + (o * 4) in
                account_const rt ~is_store:true ~elt_bytes:4 m ~addr ~site
          | Ilanes xp ->
              let po = xp.xp_po and sc = xp.xp_scale in
              let stable = xp.xp_stable in
              let run = xp.xp_run in
              let site = fresh_site st in
              fun rt m ->
                inst rt;
                let sv = feval src rt m in
                let g = rt.globals.(gslot) in
                let data = g.Devmem.data in
                let len = Bigarray.Array1.dim data in
                let u = run rt m in
                let ip = rt.ip and fp = rt.fp in
                let[@inline] lane l =
                  let o = (iget ip (po + l) * sc) + u in
                  if o < 0 || o >= len then
                    Interp.err "out-of-bounds store %s[%d] (size %d)" name o
                      len;
                  let v = if soff >= 0 then fget fp (soff + l) else sv in
                  fset data o v
                in
                if Array.length m = rt.n then
                  for l = 0 to rt.n - 1 do
                    lane l
                  done
                else Array.iter lane m;
                account_plane rt ~is_store:true ~elt_bytes:4 ~stable m ~po
                  ~base:(g.Devmem.base + (4 * u))
                  ~scale:(4 * sc) ~site)
      | Some (Bshared (sslot, strides, len)) -> (
          if List.length idxs <> Array.length strides then
            unsupported "rank mismatch accessing shared %s" arr;
          let name = arr in
          let ix, owns_i = comp_index st env strides idxs in
          release st owns_i;
          release st owns_src;
          match ix with
          | Iuniform off ->
              fun rt m ->
                inst rt;
                let sv = feval src rt m in
                let data = rt.shareds.(sslot) in
                let o = off rt m in
                if o < 0 || o >= len then
                  Interp.err "out-of-bounds shared store %s[%d] (size %d)" name
                    o len;
                let fp = rt.fp in
                Array.iter
                  (fun l ->
                    let v = if soff >= 0 then fget fp (soff + l) else sv in
                    fset data o v)
                  m;
                account_shared_const rt m ~addr:o
          | Ilanes xp ->
              let po = xp.xp_po and sc = xp.xp_scale in
              let stable = xp.xp_stable in
              let run = xp.xp_run in
              let site = fresh_site st in
              fun rt m ->
                inst rt;
                let sv = feval src rt m in
                let data = rt.shareds.(sslot) in
                let u = run rt m in
                let ip = rt.ip and fp = rt.fp in
                let[@inline] lane l =
                  let o = (iget ip (po + l) * sc) + u in
                  if o < 0 || o >= len then
                    Interp.err "out-of-bounds shared store %s[%d] (size %d)"
                      name o len;
                  let v = if soff >= 0 then fget fp (soff + l) else sv in
                  fset data o v
                in
                if Array.length m = rt.n then
                  for l = 0 to rt.n - 1 do
                    lane l
                  done
                else Array.iter lane m;
                account_shared_plane rt ~stable m ~po ~scale:sc ~u ~site)
      | Some _ | None -> unsupported "%s is not an array" arr)

and store_component st (src : ve) (dplane : int) : vstmt =
  let fo, own = fopnd st src in
  release st own;
  let store = store_float st fo dplane in
  fun rt m ->
    inst rt;
    store rt m

and comp_block st env (b : Ast.block) : vstmt =
  snd (comp_block_env st env b)

and comp_block_env st env (b : Ast.block) : binding Smap.t * vstmt =
  let env', rev_stms =
    List.fold_left
      (fun (env, acc) s ->
        let env', stm = comp_stmt st env s in
        (env', match stm with None -> acc | Some f -> f :: acc))
      (env, []) b
  in
  match List.rev rev_stms with
  | [] -> (env', fun _ _ -> ())
  | [ f ] -> (env', f)
  | fs ->
      let a = Array.of_list fs in
      (env', fun rt m -> Array.iter (fun f -> f rt m) a)

(* --- top-level compilation --- *)

type code = {
  co_nf : int;  (** float planes *)
  co_ni : int;  (** int planes *)
  co_nuregs : int;
  co_nsites : int;
  co_shared_lens : int array;  (** padded length per shared slot *)
  co_globals : (string * int array) array;
      (** per global slot: parameter name and expected padded strides *)
  co_phases : vstmt array;
  co_id_planes : (Ast.builtin * int) list;
  co_patterns : ((int * int) * int) list;
  co_tidx : int array;
  co_tidy : int array;
  co_full_mask : int array;
  co_n : int;
  co_warps : float;
  co_launch : Ast.launch;
  co_varying_guards : int;
      (** [if]s whose condition is a plane: the only guards that
          evaluate lane by lane *)
  co_lane_outer : int;
      (** register-only inner loops that run in a trip pass and a
          values pass (see the lane-outer note) *)
  co_pool : vrt list ref;
      (** retired block states, reused across runs to skip plane
          allocation (see {!retire}); guarded by [co_pool_mu] *)
  co_pool_mu : Mutex.t;
}

let compile_uncached (k : Ast.kernel) (launch : Ast.launch) : code =
  let n = launch.block_x * launch.block_y in
  let st =
    {
      nf = 0;
      ni = 0;
      free_f = [];
      free_i = [];
      nuregs = 0;
      nsites = 0;
      shared_specs = [];
      global_params = [];
      id_planes = [];
      patterns = [];
      cn = n;
      claunch = launch;
      varying_guards = 0;
      lane_outer = 0;
      assigned = assigned_names k.k_body;
    }
  in
  let layouts = Layout.of_kernel k in
  let env =
    List.fold_left
      (fun env (p : Ast.param) ->
        match p.p_ty with
        | Array { space = Global; _ } ->
            let lay =
              match List.assoc_opt p.p_name layouts with
              | Some l -> l
              | None -> unsupported "no layout for %s" p.p_name
            in
            let strides = Array.of_list (Layout.strides lay) in
            let slot = List.length st.global_params in
            st.global_params <- st.global_params @ [ (p.p_name, strides) ];
            Smap.add p.p_name (Bglobal (slot, strides, p.p_name)) env
        | Scalar Int -> (
            match List.assoc_opt p.p_name k.k_sizes with
            | Some v -> Smap.add p.p_name (Bconst v) env
            | None ->
                unsupported "int parameter %s has no #pragma gpcc dim binding"
                  p.p_name)
        | Scalar _ ->
            unsupported "unsupported scalar parameter type for %s" p.p_name
        | Array _ -> unsupported "non-global array parameter %s" p.p_name)
      Smap.empty k.k_params
  in
  let phases =
    let rec go env acc = function
      | [] -> List.rev acc
      | phase :: rest ->
          let env', stm = comp_block_env st env phase in
          go env' (stm :: acc) rest
    in
    Array.of_list (go env [] (Interp.phases_of_body k.k_body))
  in
  let shared_lens =
    let a = Array.make (List.length st.shared_specs) 0 in
    List.iter (fun (_, _, len, slot) -> a.(slot) <- len) st.shared_specs;
    a
  in
  {
    co_nf = st.nf;
    co_ni = st.ni;
    co_nuregs = st.nuregs;
    co_nsites = st.nsites;
    co_shared_lens = shared_lens;
    co_globals = Array.of_list st.global_params;
    co_phases = phases;
    co_id_planes = st.id_planes;
    co_patterns = st.patterns;
    co_tidx = Array.init n (fun l -> l mod launch.block_x);
    co_tidy = Array.init n (fun l -> l / launch.block_x);
    co_full_mask = Array.init n Fun.id;
    co_n = n;
    co_warps = float_of_int ((n + 31) / 32);
    co_launch = launch;
    co_varying_guards = st.varying_guards;
    co_lane_outer = st.lane_outer;
    co_pool = ref [];
    co_pool_mu = Mutex.create ();
  }

(* --- memoization: one plan per (kernel, launch) pair --- *)

(* the 128 most recently used plans, shared by every domain *)
let memo : (code, string) result Gpcc_util.Lru.t = Gpcc_util.Lru.create 128
let memo_mutex = Mutex.create ()

(** Compile a kernel for a launch, memoized by the analysis-cache digest
    of both. Returns [Error reason] when the kernel uses a shape this
    backend does not support (the caller falls back). *)
let compile (k : Ast.kernel) (launch : Ast.launch) : (code, string) result =
  Mutex.lock memo_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock memo_mutex)
    (fun () ->
      let key = Analysis_cache.key k launch in
      match Gpcc_util.Lru.find memo key with
      | Some r -> r
      | None ->
          let r =
            try Ok (compile_uncached k launch) with
            | Unsupported msg -> Error msg
            | e -> Error (Printexc.to_string e)
          in
          Gpcc_util.Lru.add memo key r;
          r)

(* --- per-run preparation and per-block state --- *)

type prepared = { p_code : code; p_globals : Devmem.arr array }

let prepare (code : code) (mem : Devmem.t) : prepared =
  let globals =
    Array.map
      (fun (name, strides) ->
        match Devmem.find mem name with
        | None -> unsupported "array %s not allocated" name
        | Some arr ->
            if arr.Devmem.strides <> strides then
              unsupported "layout mismatch for %s" name;
            arr)
      code.co_globals
  in
  { p_code = code; p_globals = globals }

(* shared, never-mutated placeholders: vector code neither reads nor
   writes the reference environment or the race-check shadow state *)
let dummy_env : (string, Interp.entry) Hashtbl.t = Hashtbl.create 1
let dummy_shadow : (string, Interp.shadow) Hashtbl.t = Hashtbl.create 1

(** Fill the pattern planes, which are the same in every block and are
    never written by kernel code, so a pooled block state keeps them. *)
let fill_patterns (code : code) (rt : vrt) : unit =
  let n = code.co_n and bx = code.co_launch.block_x in
  List.iter
    (fun ((ax, ay), pl) ->
      let o = pl * n in
      for l = 0 to n - 1 do
        rt.ip.(o + l) <- (ax * (l mod bx)) + (ay * (l / bx))
      done)
    code.co_patterns

let init_id_planes (code : code) (rt : vrt) ~(bidx : int) ~(bidy : int) :
    unit =
  let n = code.co_n in
  List.iter
    (fun (b, pl) ->
      let o = pl * n in
      let bx = code.co_launch.block_x in
      match b with
      | Ast.Idx ->
          for l = 0 to n - 1 do
            rt.ip.(o + l) <- (bidx * bx) + (l mod bx)
          done
      | Ast.Idy ->
          for l = 0 to n - 1 do
            rt.ip.(o + l) <- (bidy * code.co_launch.block_y) + (l / bx)
          done
      | _ -> assert false)
    code.co_id_planes

let fresh_block (p : prepared) (cfg : Config.t) (stats : Stats.t)
    ~(record_tx : bool) ~(bidx : int) ~(bidy : int) : vrt =
  let code = p.p_code in
  let n = code.co_n in
  let c : Interp.bctx =
    {
      cfg;
      stats;
      launch = code.co_launch;
      n;
      warps = code.co_warps;
      tidx = code.co_tidx;
      tidy = code.co_tidy;
      bidx;
      bidy;
      env = dummy_env;
      record_tx;
      txparts = [||];
      txn = 0;
      check = false;
      epoch = 1;
      shadow = dummy_shadow;
    }
  in
  let rt =
    {
      c;
      n;
      fp = Devmem.falloc (max 1 (code.co_nf * n));
      ip = Array.make (max 1 (code.co_ni * n)) 0;
      shareds = Array.map Devmem.falloc code.co_shared_lens;
      globals = p.p_globals;
      uregs = Array.make (max 1 code.co_nuregs) 0;
      hw_addrs = Array.make 16 0;
      pl_addrs = Array.make n 0;
      site_a0 = Array.make (max 1 code.co_nsites) min_int;
      site_rel0 = Array.make (max 1 code.co_nsites) 0;
      site_d = Array.make (max 1 code.co_nsites) min_int;
      site_dd = Array.make (max 1 code.co_nsites) 0;
      site_dig = Array.make (max 1 code.co_nsites) Coalescer.empty_digest;
      site_tab = Array.make (max 1 code.co_nsites) [||];
      site_ctab = Array.make (max 1 code.co_nsites) [||];
      site_sh_d = Array.make (max 1 code.co_nsites) min_int;
      site_sh_extra = Array.make (max 1 code.co_nsites) 0;
      sh_counts = Array.make (max 1 cfg.Config.shared_banks) 0;
      tx_buf = Array.make 32 0;
      lo_ibuf = [||];
      lo_fbuf = Devmem.falloc 1;
      lo_bnd = [||];
      seg_s = Array.make 16 0;
      seg_lo = Array.make 16 0;
      seg_hi = Array.make 16 0;
      site_hits = 0;
      cf_credits = 0;
    }
  in
  fill_patterns code rt;
  init_id_planes code rt ~bidx ~bidy;
  rt

(** Re-initialize an existing block state for a new block of the {e same}
    prepared code, reusing every plane and scratch array. Shared arrays
    are re-zeroed (fresh per block in the reference) and the idx/idy
    planes are refilled; pattern planes keep their contents, and other
    float/int planes carry stale lanes, which is sound because
    every declared scalar re-zeroes its planes at its [Decl] and every
    temporary is written before it is read. The per-site stride caches
    carry over — they are keyed by access pattern, not block id. *)
let remake_block (p : prepared) (cfg : Config.t) (stats : Stats.t)
    ~(record_tx : bool) ~(bidx : int) ~(bidy : int) (old : vrt) : vrt =
  let code = p.p_code in
  let n = code.co_n in
  let c : Interp.bctx =
    {
      cfg;
      stats;
      launch = code.co_launch;
      n;
      warps = code.co_warps;
      tidx = code.co_tidx;
      tidy = code.co_tidy;
      bidx;
      bidy;
      env = dummy_env;
      record_tx;
      txparts = old.c.Interp.txparts;
      txn = 0;
      check = false;
      epoch = 1;
      shadow = dummy_shadow;
    }
  in
  Array.iter (fun sh -> Bigarray.Array1.fill sh 0.0) old.shareds;
  Array.fill old.uregs 0 (Array.length old.uregs) 0;
  let rt = { old with c; globals = p.p_globals; site_hits = 0; cf_credits = 0 } in
  init_id_planes code rt ~bidx ~bidy;
  rt

let pool_cap = 128

(** Return a finished block's state to its code's reuse pool so the next
    {!make_block} for the same code skips the plane allocations. Callers
    must be done with the block: its transaction stream has been read and
    device memory will not be checked against it again. *)
let retire (p : prepared) (rt : vrt) : unit =
  let code = p.p_code in
  Mutex.lock code.co_pool_mu;
  if List.length !(code.co_pool) < pool_cap then
    code.co_pool := rt :: !(code.co_pool);
  Mutex.unlock code.co_pool_mu

let make_block (p : prepared) (cfg : Config.t) (stats : Stats.t)
    ~(record_tx : bool) ~(bidx : int) ~(bidy : int) : vrt =
  let code = p.p_code in
  let reused =
    Mutex.lock code.co_pool_mu;
    let r =
      match !(code.co_pool) with
      | rt :: rest
        when Array.length rt.sh_counts = max 1 cfg.Config.shared_banks ->
          code.co_pool := rest;
          Some rt
      | _ -> None
    in
    Mutex.unlock code.co_pool_mu;
    r
  in
  match reused with
  | Some old ->
      (* the per-site digest caches are only valid under the coalescing
         rules and bank count they were filled with *)
      if old.c.Interp.cfg != cfg && old.c.Interp.cfg <> cfg then begin
        Array.fill old.site_a0 0 (Array.length old.site_a0) min_int;
        Array.fill old.site_d 0 (Array.length old.site_d) min_int;
        Array.fill old.site_tab 0 (Array.length old.site_tab) [||];
        Array.fill old.site_ctab 0 (Array.length old.site_ctab) [||];
        Array.fill old.site_sh_d 0 (Array.length old.site_sh_d) min_int
      end;
      remake_block p cfg stats ~record_tx ~bidx ~bidy old
  | None -> fresh_block p cfg stats ~record_tx ~bidx ~bidy

let nphases (code : code) = Array.length code.co_phases

(** Execute one phase of the kernel over one block, like
    {!Interp.run_block} on the corresponding phase body. *)
let run_phase (p : prepared) (rt : vrt) (i : int) : unit =
  rt.c.Interp.epoch <- rt.c.Interp.epoch + 1;
  p.p_code.co_phases.(i) rt p.p_code.co_full_mask;
  if rt.site_hits > 0 then begin
    Coalescer.bump_plane_hits rt.site_hits;
    rt.site_hits <- 0
  end;
  if rt.cf_credits > 0 then begin
    ignore (Atomic.fetch_and_add closed_form rt.cf_credits);
    rt.cf_credits <- 0
  end

(* --- fallback accounting (for tests and the bench harness) --- *)

(* why a run fell back to the reference interpreter, and how often,
   across every domain *)
let fallbacks : (string, int) Hashtbl.t = Hashtbl.create 8
let fallbacks_mutex = Mutex.create ()

let note_fallback (reason : string) =
  Mutex.protect fallbacks_mutex (fun () ->
      Hashtbl.replace fallbacks reason
        (1 + Option.value ~default:0 (Hashtbl.find_opt fallbacks reason)))

(** How many runs fell back to the reference interpreter for each
    reason (the message this backend refused the kernel with), sorted
    by reason. *)
let fallback_reasons () : (string * int) list =
  Mutex.protect fallbacks_mutex (fun () ->
      List.sort compare (List.of_seq (Hashtbl.to_seq fallbacks)))

let fallback_count () =
  List.fold_left (fun n (_, c) -> n + c) 0 (fallback_reasons ())

(** Launch-parametric symbolic verifier.

    Where {!Verify} concretely enumerates a block's lanes per (kernel,
    launch) pair, this module analyzes {e two symbolic threads} s ≠ t of
    one block, with the block dimensions [(bx, by)] and grid dimensions
    [(gx, gy)] kept as symbolic parameters. Race, bounds and
    barrier-uniformity obligations are discharged by affine disequality
    reasoning (equal-stride cancellation, gcd/residue arguments on loop
    strides, modular lane arithmetic, guard-implied pinning) and by
    interval reasoning over {e launch polynomials} — polynomials in the
    four launch dimensions that bound every index expression.

    The verdict is parametric:
    - [Proved]: no error diagnostic at {e any} launch configuration;
    - [Proved_when c]: no error at launches satisfying the constraint
      [c] (a conjunction of monomial bounds such as [bx <= 64] or
      [gx*bx <= 4096]);
    - [Unknown]: the kernel uses a construct outside the symbolic
      fragment — callers fall back to the concrete {!Verify.check}, so
      soundness never regresses.

    Separately, [violations] lists configurations that {e certainly}
    fail (e.g. a modular lane store [s\[lane %% 64\]] races whenever
    [bx*by >= 65]); the design-space exploration prunes those without
    compiling them.

    The soundness contract is directional: whenever {!decide} returns
    [`Clean] for a launch, {!Verify.check} reports no error-severity
    diagnostic at that launch. The reverse direction goes through the
    concrete fallback, so the two tiers always agree. The proof
    over-approximates the concrete verifier's model: guards the
    concrete evaluator cannot decide are ignored rather than assumed,
    loop windows are widened to full iteration spaces, and accesses
    whose indices the concrete evaluator can never compute (opaque
    loads) are skipped exactly as the concrete race check skips them. *)

open Gpcc_ast

(* ------------------------------------------------------------------ *)
(* Constraint language: conjunctions of monomial bounds                 *)
(* ------------------------------------------------------------------ *)

module Constraint = struct
  type dim =
    | Bx
    | By
    | Gx
    | Gy

  let dim_name = function Bx -> "bx" | By -> "by" | Gx -> "gx" | Gy -> "gy"
  let dim_rank = function Bx -> 0 | By -> 1 | Gx -> 2 | Gy -> 3
  let compare_dim a b = compare (dim_rank a) (dim_rank b)

  (* lexicographic over the sorted dimensions, shorter prefix first *)
  let rec compare_mono (a : dim list) (b : dim list) =
    match (a, b) with
    | [], [] -> 0
    | [], _ -> -1
    | _, [] -> 1
    | x :: a', y :: b' ->
        let c = compare_dim x y in
        if c <> 0 then c else compare_mono a' b'

  (** A monomial is a sorted product of launch dimensions; [[]] is 1. *)
  type mono = dim list

  type atom = {
    a_mono : mono;
    a_cmp : [ `Le | `Ge ];
    a_k : int;
  }

  (** A conjunction of atoms. [[]] is the trivial constraint (true at
      every launch). *)
  type t = atom list

  let tt : t = []

  let mono_value (l : Ast.launch) (m : mono) : int =
    List.fold_left
      (fun acc d ->
        acc
        *
        match d with
        | Bx -> l.block_x
        | By -> l.block_y
        | Gx -> l.grid_x
        | Gy -> l.grid_y)
      1 m

  let atom_holds (l : Ast.launch) (a : atom) : bool =
    let v = mono_value l a.a_mono in
    match a.a_cmp with `Le -> v <= a.a_k | `Ge -> v >= a.a_k

  let holds (l : Ast.launch) (c : t) : bool = List.for_all (atom_holds l) c

  (* [a] added to a normalized conjunction: kept sorted by (monomial,
     direction), which is [compare] order once each key is unique, and
     merged with the atom of its key if there is one *)
  let rec insert (a : atom) (c : t) : t =
    match c with
    | [] -> [ a ]
    | b :: rest ->
        let o =
          match compare_mono a.a_mono b.a_mono with
          | 0 -> compare a.a_cmp b.a_cmp
          | o -> o
        in
        if o < 0 then a :: c
        else if o > 0 then b :: insert a rest
        else
          let a_k =
            match a.a_cmp with `Le -> min a.a_k b.a_k | `Ge -> max a.a_k b.a_k
          in
          { b with a_k } :: rest

  (** Keep the strongest atom per (monomial, direction). *)
  let normalize (c : t) : t = List.fold_left (fun n a -> insert a n) [] c

  let conj (a : t) (b : t) : t = normalize (a @ b)

  let atom_to_string (a : atom) =
    let m =
      match a.a_mono with
      | [] -> "1"
      | m -> String.concat "*" (List.map dim_name m)
    in
    Printf.sprintf "%s %s %d" m
      (match a.a_cmp with `Le -> "<=" | `Ge -> ">=")
      a.a_k

  let to_string = function
    | [] -> "true"
    | c -> String.concat " && " (List.map atom_to_string c)

  (** An atom over the block-thread product [bx*by] alone, decidable
      from the thread count without knowing the block shape. *)
  let threads_atom (a : atom) : bool = a.a_mono = [ Bx; By ]

  let holds_at_threads ~(threads : int) (c : t) : bool =
    List.for_all
      (fun a ->
        threads_atom a
        && match a.a_cmp with `Le -> threads <= a.a_k | `Ge -> threads >= a.a_k)
      c
end

(* ------------------------------------------------------------------ *)
(* Launch polynomials: integer polynomials over bx, by, gx, gy          *)
(* ------------------------------------------------------------------ *)

(** Association list from monomial to nonzero coefficient, sorted by
    [Constraint.compare_mono] with each monomial once; the [[]]
    monomial carries the constant term. Every constructor below keeps
    that canonical form, so equal polynomials are equal lists and a sum
    is one merge. Launch dimensions are always >= 1, which is what
    makes one-sided comparisons decidable: a polynomial with
    nonnegative monomial coefficients is minimized at the all-ones
    launch. *)
type lpoly = (Constraint.mono * int) list

let lp_const (n : int) : lpoly = if n = 0 then [] else [ ([], n) ]
let lp_zero : lpoly = []
let lp_dim (d : Constraint.dim) : lpoly = [ ([ d ], 1) ]

let rec lp_add (a : lpoly) (b : lpoly) : lpoly =
  match (a, b) with
  | [], p | p, [] -> p
  | ((ma, ca) as ta) :: a', ((mb, cb) as tb) :: b' ->
      let c = Constraint.compare_mono ma mb in
      if c < 0 then ta :: lp_add a' b
      else if c > 0 then tb :: lp_add a b'
      else if ca + cb = 0 then lp_add a' b'
      else (ma, ca + cb) :: lp_add a' b'

let lp_scale (k : int) (a : lpoly) : lpoly =
  if k = 0 then [] else List.map (fun (m, c) -> (m, k * c)) a

let lp_sub a b = lp_add a (lp_scale (-1) b)

let lp_mul (a : lpoly) (b : lpoly) : lpoly =
  List.concat_map
    (fun (ma, ca) ->
      List.map
        (fun (mb, cb) ->
          (List.sort Constraint.compare_dim (ma @ mb), ca * cb))
        b)
    a
  |> List.fold_left (fun acc t -> lp_add acc [ t ]) []

let lp_is_const (p : lpoly) : int option =
  match p with
  | [] -> Some 0
  | [ ([], c) ] -> Some c
  | _ -> None

(** Exact division of every coefficient by a positive constant. *)
let lp_div_exact (p : lpoly) (c : int) : lpoly option =
  if c <= 0 then None
  else if List.for_all (fun (_, k) -> k mod c = 0) p then
    Some (List.map (fun (m, k) -> (m, k / c)) p)
  else None

(** Is [p >= 0] at every launch? Sufficient condition: every monomial
    coefficient nonnegative and the value at the all-ones launch
    nonnegative (the polynomial is then monotone in every dimension). *)
let lp_nonneg (p : lpoly) : bool =
  List.for_all (fun (m, c) -> m = [] || c >= 0) p
  && List.fold_left (fun acc (_, c) -> acc + c) 0 p >= 0

(** Alternative conditions under which [p <= q] holds at every launch
    satisfying them. Each element of the returned list is an
    independently sufficient conjunction: [[]] inside the list means
    provable outright. Beyond the single-monomial fragment, positive
    monomials are credited with their minimum value (a monomial is
    [>= 1] at every launch), and each launch dimension is tried pinned
    to 1 (an atom [dim <= 1]) since a degenerate grid or block
    dimension linearizes products. *)
let lp_le_alts (p : lpoly) (q : lpoly) : Constraint.t list =
  let solve d =
    if lp_nonneg d then Some []
    else
      match List.filter (fun (m, _) -> m <> []) d with
      | [ (m, c) ] ->
          let k =
            List.fold_left
              (fun acc (m', c') -> if m' = [] then acc + c' else acc)
              0 d
          in
          (* need k + c*v >= 0 for the monomial value v >= 1 *)
          if c > 0 then
            (* v >= ceil(-k/c) *)
            let bound = (-k + c - 1) / c in
            if bound <= 1 then Some []
            else Some [ { Constraint.a_mono = m; a_cmp = `Ge; a_k = bound } ]
          else
            (* v <= floor(k/(-c)) *)
            let bound = if k < 0 then -1 else k / -c in
            if bound < 1 then None
            else Some [ { Constraint.a_mono = m; a_cmp = `Le; a_k = bound } ]
      | ms -> (
          (* several monomials: credit each positive one with its
             minimum value, leaving a single negative monomial to
             bound *)
          match List.partition (fun (_, c) -> c > 0) ms with
          | pos, [ (m, c) ] ->
              let k =
                List.fold_left
                  (fun acc (m', c') -> if m' = [] then acc + c' else acc)
                  0 d
                + List.fold_left (fun acc (_, c') -> acc + c') 0 pos
              in
              let bound = if k < 0 then -1 else k / -c in
              if bound < 1 then None
              else Some [ { Constraint.a_mono = m; a_cmp = `Le; a_k = bound } ]
          | _ -> None)
  in
  let d = lp_sub q p in
  let base = match solve d with Some c -> [ c ] | None -> [] in
  let pinned =
    List.filter_map
      (fun dim ->
        if not (List.exists (fun (m, _) -> List.mem dim m) d) then None
        else
          let d' =
            List.fold_left
              (fun acc (m, c) ->
                lp_add acc [ (List.filter (fun x -> x <> dim) m, c) ])
              [] d
          in
          match solve d' with
          | Some c ->
              Some ({ Constraint.a_mono = [ dim ]; a_cmp = `Le; a_k = 1 } :: c)
          | None -> None)
      [ Constraint.Gx; Constraint.Gy; Constraint.Bx; Constraint.By ]
  in
  base @ pinned

let lp_le_when (p : lpoly) (q : lpoly) : Constraint.t option =
  match lp_le_alts p q with [] -> None | c :: _ -> Some c

(** How many launches over a reference grid of power-of-two
    configurations ([block_x*block_y <= 512], grid dims up to 64)
    satisfy [c] — used to pick, among independently sufficient
    alternatives, the one that stays provable at the most launches.
    Memoized per domain: {!check} runs on {!Explore}'s worker domains. *)
let coverage_tbl : (Constraint.t, int) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let coverage_count (c : Constraint.t) : int =
  let bpows = [ 1; 2; 4; 8; 16; 32; 64; 128; 256; 512 ] in
  let gpows = [ 1; 2; 4; 8; 16; 32; 64 ] in
  List.fold_left
    (fun n block_x ->
      List.fold_left
        (fun n block_y ->
          if block_x * block_y > 512 then n
          else
            List.fold_left
              (fun n grid_x ->
                List.fold_left
                  (fun n grid_y ->
                    if
                      Constraint.holds
                        { Ast.grid_x; grid_y; block_x; block_y }
                        c
                    then n + 1
                    else n)
                  n gpows)
              n gpows)
        n bpows)
    0 bpows

let coverage (c : Constraint.t) : int =
  let tbl = Domain.DLS.get coverage_tbl in
  match Hashtbl.find_opt tbl c with
  | Some n -> n
  | None ->
      let n = coverage_count c in
      if Hashtbl.length tbl < 4096 then Hashtbl.add tbl c n;
      n

(* ------------------------------------------------------------------ *)
(* Symbolic ranges: [lo, hi] launch polynomials plus a stride           *)
(* ------------------------------------------------------------------ *)

(** Values lie in [[lo, hi]] (polynomial bounds, valid at every launch)
    and are congruent modulo [st] to some value (the congruence anchor
    is only tracked when the low bound is constant, mirroring
    {!Verify.si}'s use of [lo] as the anchor). [st = 0] marks a
    singleton-or-unknown stride; treat as 1 for arithmetic. *)
type lrange = {
  rlo : lpoly;
  rhi : lpoly;
  rst : int;
}

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

let lr_const n = { rlo = lp_const n; rhi = lp_const n; rst = 0 }

let lr_add a b =
  { rlo = lp_add a.rlo b.rlo; rhi = lp_add a.rhi b.rhi; rst = gcd a.rst b.rst }

let lr_neg a = { rlo = lp_scale (-1) a.rhi; rhi = lp_scale (-1) a.rlo; rst = a.rst }
let lr_sub a b = lr_add a (lr_neg b)

let lr_scale k a =
  if k = 0 then lr_const 0
  else if k > 0 then
    { rlo = lp_scale k a.rlo; rhi = lp_scale k a.rhi; rst = k * a.rst }
  else
    { rlo = lp_scale k a.rhi; rhi = lp_scale k a.rlo; rst = -k * a.rst }

let lr_hull a b =
  (* sound hull needs provable ordering of the bounds; fall back to
     whichever side can be proven to dominate *)
  let lo =
    if lp_nonneg (lp_sub b.rlo a.rlo) then Some a.rlo
    else if lp_nonneg (lp_sub a.rlo b.rlo) then Some b.rlo
    else None
  and hi =
    if lp_nonneg (lp_sub a.rhi b.rhi) then Some a.rhi
    else if lp_nonneg (lp_sub b.rhi a.rhi) then Some b.rhi
    else None
  in
  match (lo, hi) with
  | Some rlo, Some rhi -> Some { rlo; rhi; rst = 1 }
  | _ -> None

(** Range of [v mod c] (mathematical mod) for a constant [c > 0]. *)
let lr_mod (a : lrange) (c : int) : lrange =
  if
    lp_nonneg a.rlo
    && lp_nonneg (lp_sub (lp_const (c - 1)) a.rhi)
  then a
  else
    match (lp_is_const a.rlo, lp_is_const a.rhi) with
    | Some lo, Some hi ->
        (* constant bounds: mirror Verify.si_mod exactly *)
        if lo >= 0 && hi <= c - 1 then a
        else
          let g = max 1 (gcd a.rst c) in
          let lo' = ((lo mod g) + g) mod g in
          {
            rlo = lp_const lo';
            rhi = lp_const (lo' + ((c - 1 - lo') / g * g));
            rst = g;
          }
    | _ -> { rlo = lp_zero; rhi = lp_const (c - 1); rst = 1 }

(** Range of [v / c] (truncating) for a constant [c > 0]; bounds are
    over-approximated when polynomial division is inexact. *)
let lr_div (a : lrange) (c : int) : lrange option =
  if c <= 0 then None
  else
    let lo =
      (* truncating division is monotone, mirroring {!Verify.si_div} *)
      match lp_is_const a.rlo with
      | Some lo -> Some (lp_const (lo / c))
      | None -> if lp_nonneg a.rlo then Some lp_zero else None
    and hi =
      match lp_is_const a.rhi with
      | Some hi -> Some (lp_const (hi / c))
      | None -> (
          match lp_div_exact (lp_add a.rhi (lp_const 1)) c with
          | Some q -> Some (lp_sub q (lp_const 1))
          | None -> if lp_nonneg a.rhi then Some a.rhi else None)
    in
    match (lo, hi) with
    | Some rlo, Some rhi -> Some { rlo; rhi; rst = 1 }
    | _ -> None

(* ------------------------------------------------------------------ *)
(* Symbolic affine forms over one thread's coordinates                  *)
(* ------------------------------------------------------------------ *)

(** Symbolic variables of one thread's view. [Stidx]/[Stidy] are
    thread-private; [Sbidx]/[Sbidy] and frozen loop counters are shared
    by every thread of the block (they cancel in two-thread
    differences); free loop counters and opaque values are
    thread-private and occurrence-private. *)
type svar =
  | Stidx
  | Stidy
  | Sbidx
  | Sbidy
  | Sfree of int  (** free-loop iteration (value delta in ℤ for races) *)
  | Sfrozen of int  (** frozen-loop iteration counter, block-shared *)

let svar_shared = function
  | Sbidx | Sbidy | Sfrozen _ -> true
  | Stidx | Stidy | Sfree _ -> false

(* thread coordinates, block coordinates, then loop counters by id *)
let svar_rank = function
  | Stidx -> 0
  | Stidy -> 1
  | Sbidx -> 2
  | Sbidy -> 3
  | Sfree _ -> 4
  | Sfrozen _ -> 5

let compare_svar a b =
  match (a, b) with
  | Sfree x, Sfree y | Sfrozen x, Sfrozen y -> Int.compare x y
  | _ -> Int.compare (svar_rank a) (svar_rank b)

(** Affine form [sc + sum coeff_i * var_i] with launch-polynomial
    coefficients. *)
type sform = {
  sc : lpoly;
  sterms : (svar * lpoly) list;
      (** sorted by {!compare_svar}, each variable once, coeffs <> [] *)
}

let sf_const (p : lpoly) : sform = { sc = p; sterms = [] }
let sf_int n = sf_const (lp_const n)

let sf_var ?(coeff = lp_const 1) v : sform =
  { sc = lp_zero; sterms = [ (v, coeff) ] }

let sf_add (a : sform) (b : sform) : sform =
  let rec merge xs ys =
    match (xs, ys) with
    | [], l | l, [] -> l
    | ((vx, cx) as tx) :: xs', ((vy, cy) as ty) :: ys' -> (
        let c = compare_svar vx vy in
        if c < 0 then tx :: merge xs' ys
        else if c > 0 then ty :: merge xs ys'
        else
          match lp_add cx cy with
          | [] -> merge xs' ys'
          | cs -> (vx, cs) :: merge xs' ys')
  in
  { sc = lp_add a.sc b.sc; sterms = merge a.sterms b.sterms }

let sf_scale (k : int) (a : sform) : sform =
  if k = 0 then sf_int 0
  else
    {
      sc = lp_scale k a.sc;
      sterms = List.map (fun (v, c) -> (v, lp_scale k c)) a.sterms;
    }

let sf_scale_poly (p : lpoly) (a : sform) : sform =
  if p = [] then sf_int 0
  else
    {
      sc = lp_mul p a.sc;
      sterms = List.map (fun (v, c) -> (v, lp_mul p c)) a.sterms;
    }

let sf_sub a b = sf_add a (sf_scale (-1) b)

let sf_is_const (a : sform) : lpoly option =
  if a.sterms = [] then Some a.sc else None

(* ------------------------------------------------------------------ *)
(* Walk state and environments                                          *)
(* ------------------------------------------------------------------ *)

(** Lowered value of an integer expression.
    - [Aff f]: exactly the affine form [f];
    - [Modv (f, c)]: exactly [f mod c] (mathematical mod, [c > 0]) —
      kept unreduced for the modular-lane race rule;
    - [Rng r]: unknown value within range [r] ([None] = unbounded),
      but one the concrete evaluator may still compute;
    - [Opq]: a value {!Verify}'s concrete evaluator can never compute
      either (array loads, floats, unbound parameters) — accesses
      through it are invisible to the concrete race and witness checks
      and can be skipped outright. *)
type sval =
  | Aff of sform
  | Modv of sform * int
  | Rng of lrange option
  | Opq

(** A scalar binding recorded by the walk, mirroring {!Verify.binding}:
    the defining expression lowers in the binding-list suffix that was
    live at the definition; [SBloop d] is the variable of the enclosing
    loop at depth [d] (outermost 0), bound at loop entry so lexical
    order decides between it and any other binding of the name. *)
type sbind =
  | SBexpr of Ast.expr
  | SBloop of int
  | SBopaque

(** One enclosing loop frame. [fr_value] is the loop variable's value
    for this pass (init + step * counter, plus one step on the
    wrap-around pass); the counter variable's recorded range bounds the
    variable across all iterations (mirroring {!Verify.renv_of_acc}:
    values stay within [init.lo .. limit.hi - 1]). *)
type sframe = {
  fr_frozen : bool;
  fr_tdep : bool;  (** any loop bound is thread-dependent *)
  fr_value : sval;
}

type sguard = {
  sg_cond : Ast.expr;
  sg_binds : (string * sbind) list;
  sg_frames : sframe list;
}

type sacc = {
  x_arr : string;
  x_space : [ `Shared | `Global ];
  x_kind : [ `Sc of Ast.expr list | `Vec of int * Ast.expr ];
  x_store : bool;
  x_interval : int;
  x_frames : sframe list;  (** innermost first *)
  x_guards : sguard list;
  x_binds : (string * sbind) list;
  x_path : string;
}

type senv = {
  s_binds : (string * sbind) list;
  s_frames : sframe list;  (** innermost first *)
  s_guards : sguard list;
  s_div_hard : bool;
      (** under control flow thread-dependent with certainty at every
          launch (no empirical uniform-trip escape applies) *)
  s_div_soft : bool;
      (** under a frozen thread-dependent loop whose divergence verdict
          is launch-dependent ({!Verify.uniform_trip_count}) *)
  s_path : string list;  (** reversed segments *)
  s_frozen_depth : int;
}

(** A violation that certainly reproduces under its constraint: the
    concrete verifier reports [v_rule] at every launch satisfying
    [v_when]. *)
type violation = {
  v_when : Constraint.t;
  v_rule : string;
  v_path : string;
  v_message : string;
}

type sstate = {
  st_kernel : string;
  st_sizes : (string * int) list;
  mutable st_interval : int;
  mutable st_accs : sacc list;
  mutable st_violations : violation list;
  mutable st_unknown : string option;  (** first reason the proof gave up *)
  mutable st_next_id : int;
  mutable st_ranges : (int * lrange) list;  (** Sfree/Sfrozen/Sopaque ids *)
}

let give_up st reason =
  if st.st_unknown = None then st.st_unknown <- Some reason

let fresh_var st (range : lrange option) : int =
  let id = st.st_next_id in
  st.st_next_id <- id + 1;
  (match range with
  | Some r -> st.st_ranges <- (id, r) :: st.st_ranges
  | None -> ());
  id

let rec assoc_split name = function
  | [] -> None
  | (n, b) :: rest ->
      if String.equal n name then Some (b, rest) else assoc_split name rest

(* the loop frame at depth [d] (outermost 0) of an innermost-first list *)
let frame_at frames d = List.nth frames (List.length frames - 1 - d)

(* ------------------------------------------------------------------ *)
(* Lowering expressions to symbolic values                              *)
(* ------------------------------------------------------------------ *)

let bit_range = Some { rlo = lp_zero; rhi = lp_const 1; rst = 1 }

let svar_range (st : sstate) (v : svar) : lrange option =
  let dim d =
    Some { rlo = lp_zero; rhi = lp_sub (lp_dim d) (lp_const 1); rst = 1 }
  in
  match v with
  | Stidx -> dim Constraint.Bx
  | Stidy -> dim Constraint.By
  | Sbidx -> dim Constraint.Gx
  | Sbidy -> dim Constraint.Gy
  | Sfree id | Sfrozen id -> List.assoc_opt id st.st_ranges

(** Over-approximating value range of a lowered value; [None] when no
    bound is derivable. *)
let range_of ?(refine = []) (st : sstate) (v : sval) : lrange option =
  let var_range var =
    match List.assoc_opt var refine with
    | Some r -> Some r
    | None -> svar_range st var
  in
  match v with
  | Opq -> None
  | Rng r -> r
  | Modv (_, c) -> Some { rlo = lp_zero; rhi = lp_const (c - 1); rst = 1 }
  | Aff f ->
      List.fold_left
        (fun acc (var, coeff) ->
          match (acc, lp_is_const coeff, var_range var) with
          | Some r, Some c, Some vr -> Some (lr_add r (lr_scale c vr))
          | Some r, None, Some vr ->
              (* polynomial coefficient: sound only when both the
                 coefficient and the variable are provably nonnegative *)
              if lp_nonneg vr.rlo && lp_nonneg coeff then
                Some
                  (lr_add r
                     {
                       rlo = lp_mul coeff vr.rlo;
                       rhi = lp_mul coeff vr.rhi;
                       rst = 1;
                     })
              else None
          | _ -> None)
        (Some { rlo = f.sc; rhi = f.sc; rst = 0 })
        f.sterms

let const_of (v : sval) : int option =
  match v with
  | Aff f -> ( match sf_is_const f with Some p -> lp_is_const p | None -> None)
  | _ -> None

(** Lower an integer expression under a binding list and loop frames.
    Mirrors the operator semantics of {!Verify.stage} (mathematical
    mod, truncating div, min/max calls, short-circuit booleans) so
    every value the concrete evaluator can compute is covered. *)
let rec lower st ~(binds : (string * sbind) list) ~(frames : sframe list)
    (e : Ast.expr) : sval =
  match e with
  | Int_lit n -> Aff (sf_int n)
  | Float_lit _ -> Opq
  | Builtin b -> (
      match b with
      | Tidx -> Aff (sf_var Stidx)
      | Tidy -> Aff (sf_var Stidy)
      | Bidx -> Aff (sf_var Sbidx)
      | Bidy -> Aff (sf_var Sbidy)
      | Bdimx -> Aff (sf_const (lp_dim Constraint.Bx))
      | Bdimy -> Aff (sf_const (lp_dim Constraint.By))
      | Gdimx -> Aff (sf_const (lp_dim Constraint.Gx))
      | Gdimy -> Aff (sf_const (lp_dim Constraint.Gy))
      | Idx ->
          Aff (sf_add (sf_var ~coeff:(lp_dim Constraint.Bx) Sbidx) (sf_var Stidx))
      | Idy ->
          Aff (sf_add (sf_var ~coeff:(lp_dim Constraint.By) Sbidy) (sf_var Stidy)))
  | Var v -> (
      match assoc_split v binds with
      | Some (SBexpr e', rest) -> lower st ~binds:rest ~frames e'
      | Some (SBloop d, _) -> (frame_at frames d).fr_value
      | Some (SBopaque, _) -> Opq
      | None -> (
          match List.assoc_opt v st.st_sizes with
          | Some n -> Aff (sf_int n)
          | None -> Opq))
  | Unop (Neg, a) -> (
      match lower st ~binds ~frames a with
      | Aff f -> Aff (sf_scale (-1) f)
      | Opq -> Opq
      | v -> (
          match range_of st v with
          | Some r -> Rng (Some (lr_neg r))
          | None -> Rng None))
  | Unop (Not, a) -> (
      match lower st ~binds ~frames a with Opq -> Opq | _ -> Rng bit_range)
  | Binop (Add, a, b) -> (
      match (lower st ~binds ~frames a, lower st ~binds ~frames b) with
      | Opq, _ | _, Opq -> Opq
      | Aff fa, Aff fb -> Aff (sf_add fa fb)
      | va, vb -> (
          match (range_of st va, range_of st vb) with
          | Some ra, Some rb -> Rng (Some (lr_add ra rb))
          | _ -> Rng None))
  | Binop (Sub, a, b) -> (
      match (lower st ~binds ~frames a, lower st ~binds ~frames b) with
      | Opq, _ | _, Opq -> Opq
      | Aff fa, Aff fb -> Aff (sf_sub fa fb)
      | va, vb -> (
          match (range_of st va, range_of st vb) with
          | Some ra, Some rb -> Rng (Some (lr_sub ra rb))
          | _ -> Rng None))
  | Binop (Mul, a, b) -> (
      let va = lower st ~binds ~frames a and vb = lower st ~binds ~frames b in
      match (va, vb) with
      | Opq, _ | _, Opq -> Opq
      | _ -> (
          let const_poly v =
            match v with Aff f -> sf_is_const f | _ -> None
          in
          match (const_poly va, const_poly vb, va, vb) with
          | Some p, _, _, Aff fb -> Aff (sf_scale_poly p fb)
          | _, Some p, Aff fa, _ -> Aff (sf_scale_poly p fa)
          | _ -> (
              match (range_of st va, range_of st vb) with
              | Some ra, Some rb -> (
                  let const_r r =
                    match (lp_is_const r.rlo, lp_is_const r.rhi) with
                    | Some lo, Some hi when lo = hi -> Some lo
                    | _ -> None
                  in
                  match (const_r ra, const_r rb) with
                  | Some k, _ -> Rng (Some (lr_scale k rb))
                  | _, Some k -> Rng (Some (lr_scale k ra))
                  | None, None -> Rng None)
              | _ -> Rng None)))
  | Binop (Div, a, b) -> (
      match (lower st ~binds ~frames a, lower st ~binds ~frames b) with
      | Opq, _ | _, Opq -> Opq
      | va, vb -> (
          match const_of vb with
          | Some c when c > 0 -> (
              match range_of st va with
              | Some r -> Rng (lr_div r c)
              | None -> Rng None)
          | _ -> Rng None))
  | Binop (Mod, a, b) -> (
      match (lower st ~binds ~frames a, lower st ~binds ~frames b) with
      | Opq, _ | _, Opq -> Opq
      | va, vb -> (
          match const_of vb with
          | Some c when c > 0 -> (
              match va with
              | Aff f -> Modv (f, c)
              | _ -> (
                  match range_of st va with
                  | Some r -> Rng (Some (lr_mod r c))
                  | None ->
                      Rng
                        (Some
                           { rlo = lp_zero; rhi = lp_const (c - 1); rst = 1 })))
          | _ -> Rng None))
  | Binop ((Lt | Le | Gt | Ge | Eq | Ne), a, b) -> (
      match (lower st ~binds ~frames a, lower st ~binds ~frames b) with
      | Opq, _ | _, Opq -> Opq
      | _ -> Rng bit_range)
  | Binop ((And | Or), _, _) ->
      (* short-circuit: the concrete evaluator may succeed even when
         one side is opaque, so never propagate Opq *)
      Rng bit_range
  | Call ("min", [ a; b ]) -> (
      match (lower st ~binds ~frames a, lower st ~binds ~frames b) with
      | Opq, _ | _, Opq -> Opq
      | _ -> min_range st ~binds ~frames a b)
  | Call ("max", [ a; b ]) -> (
      match (lower st ~binds ~frames a, lower st ~binds ~frames b) with
      | Opq, _ | _, Opq -> Opq
      | _ -> max_range st ~binds ~frames a b)
  | Select (_, a, b) -> (
      (* condition first, then exactly one branch: an opaque branch may
         never be reached, so stay merely unknown rather than Opq *)
      match
        ( range_of st (lower st ~binds ~frames a),
          range_of st (lower st ~binds ~frames b) )
      with
      | Some ra, Some rb -> Rng (lr_hull ra rb)
      | _ -> Rng None)
  | Index _ | Vload _ | Field _ | Call _ -> Opq

and min_range st ~binds ~frames a b =
  match
    ( range_of st (lower st ~binds ~frames a),
      range_of st (lower st ~binds ~frames b) )
  with
  | Some ra, Some rb ->
      (* min's upper bound: either side's hi that provably dominates *)
      let hi =
        if lp_nonneg (lp_sub rb.rhi ra.rhi) then Some ra.rhi
        else if lp_nonneg (lp_sub ra.rhi rb.rhi) then Some rb.rhi
        else None
      and lo =
        if lp_nonneg (lp_sub rb.rlo ra.rlo) then Some ra.rlo
        else if lp_nonneg (lp_sub ra.rlo rb.rlo) then Some rb.rlo
        else None
      in
      (match (lo, hi) with
      | Some rlo, Some rhi -> Rng (Some { rlo; rhi; rst = 1 })
      | _ -> Rng None)
  | _ -> Rng None

and max_range st ~binds ~frames a b =
  match
    ( range_of st (lower st ~binds ~frames a),
      range_of st (lower st ~binds ~frames b) )
  with
  | Some ra, Some rb ->
      let hi =
        if lp_nonneg (lp_sub ra.rhi rb.rhi) then Some ra.rhi
        else if lp_nonneg (lp_sub rb.rhi ra.rhi) then Some rb.rhi
        else None
      and lo =
        if lp_nonneg (lp_sub ra.rlo rb.rlo) then Some ra.rlo
        else if lp_nonneg (lp_sub rb.rlo ra.rlo) then Some rb.rlo
        else None
      in
      (match (lo, hi) with
      | Some rlo, Some rhi -> Rng (Some { rlo; rhi; rst = 1 })
      | _ -> Rng None)
  | _ -> Rng None

(* ------------------------------------------------------------------ *)
(* The symbolic walk (mirrors the structure of {!Verify}'s walk)        *)
(* ------------------------------------------------------------------ *)

let truncate_str n s = if String.length s <= n then s else String.sub s 0 n ^ "…"
let path_of env = String.concat "/" (List.rev env.s_path)

(** Syntactic thread dependence, mirroring {!Verify.thread_dep}:
    opaque bindings count, loop variables count when the loop's bounds
    do (recorded per frame at loop entry). *)
let rec sthread_dep (binds : (string * sbind) list) (frames : sframe list)
    (e : Ast.expr) : bool =
  match e with
  | Builtin (Idx | Idy | Tidx | Tidy) -> true
  | Builtin _ | Int_lit _ | Float_lit _ -> false
  | Var v -> (
      match assoc_split v binds with
      | Some (SBexpr e', rest) -> sthread_dep rest frames e'
      | Some (SBloop d, _) -> (frame_at frames d).fr_tdep
      | Some (SBopaque, _) -> true
      | None -> false)
  | Index _ | Vload _ -> true
  | Unop (_, a) | Field (a, _) -> sthread_dep binds frames a
  | Binop (_, a, b) -> sthread_dep binds frames a || sthread_dep binds frames b
  | Call (_, args) -> List.exists (sthread_dep binds frames) args
  | Select (a, b, c) ->
      sthread_dep binds frames a || sthread_dep binds frames b
      || sthread_dep binds frames c

let rec block_has_sync b = List.exists stmt_has_sync b

and stmt_has_sync = function
  | Ast.Sync | Global_sync -> true
  | If (_, t, f) -> block_has_sync t || block_has_sync f
  | For l -> block_has_sync l.l_body
  | Decl _ | Assign _ | Comment _ -> false

let rec assigned_vars b = List.concat_map assigned_vars_stmt b

and assigned_vars_stmt = function
  | Ast.Decl d -> [ d.d_name ]
  | Assign (Lvar v, _) | Assign (Lfield (Lvar v, _), _) -> [ v ]
  | Assign ((Lindex _ | Lvec _ | Lfield _), _) -> []
  | If (_, t, f) -> assigned_vars t @ assigned_vars f
  | For l -> l.l_var :: assigned_vars l.l_body
  | Sync | Global_sync | Comment _ -> []

let forget_svars env vars =
  { env with s_binds = List.map (fun v -> (v, SBopaque)) vars @ env.s_binds }

let violate st ~v_when ~rule ~path message =
  st.st_violations <-
    { v_when; v_rule = rule; v_path = path; v_message = message }
    :: st.st_violations

let srecord_access st env spaces arr kind ~store =
  match List.assoc_opt arr spaces with
  | None -> ()
  | Some space ->
      st.st_accs <-
        {
          x_arr = arr;
          x_space = space;
          x_kind = kind;
          x_store = store;
          x_interval = st.st_interval;
          x_frames = env.s_frames;
          x_guards = env.s_guards;
          x_binds = env.s_binds;
          x_path = path_of env;
        }
        :: st.st_accs

let rec scollect_expr st env spaces (e : Ast.expr) : unit =
  match e with
  | Index (arr, idxs) ->
      srecord_access st env spaces arr (`Sc idxs) ~store:false;
      List.iter (scollect_expr st env spaces) idxs
  | Vload { v_arr; v_width; v_index } ->
      srecord_access st env spaces v_arr (`Vec (v_width, v_index)) ~store:false;
      scollect_expr st env spaces v_index
  | Unop (_, a) | Field (a, _) -> scollect_expr st env spaces a
  | Binop (_, a, b) ->
      scollect_expr st env spaces a;
      scollect_expr st env spaces b
  | Call (_, args) -> List.iter (scollect_expr st env spaces) args
  | Select (a, b, c) ->
      scollect_expr st env spaces a;
      scollect_expr st env spaces b;
      scollect_expr st env spaces c
  | Int_lit _ | Float_lit _ | Var _ | Builtin _ -> ()

(** Build the loop frame for one symbolic pass. The loop variable is
    [init + step * counter] when init lowers to an affine form and the
    step to a positive constant; the counter variable is block-shared
    for frozen loops and iteration-private otherwise. Its recorded
    range over-approximates the trip count (sound for proving: the
    concrete walk never runs an iteration outside it). *)
let make_frame st env (lp : Ast.loop) ~frozen ~tdep ~counter_id ~offset : sframe
    =
  let binds = env.s_binds and frames = env.s_frames in
  let vi = lower st ~binds ~frames lp.l_init in
  let vs = lower st ~binds ~frames lp.l_step in
  let vl = lower st ~binds ~frames lp.l_limit in
  let svar = if frozen then Sfrozen counter_id else Sfree counter_id in
  match (vi, const_of vs) with
  | Aff fi, Some c when c > 0 ->
      (match (range_of st vi, range_of st vl) with
      | Some ri, Some rl ->
          (* counter <= (lim_hi - 1 - init_lo) / c <= lim_hi - 1 - init_lo *)
          let hi = lp_sub (lp_sub rl.rhi ri.rlo) (lp_const 1) in
          let hi =
            match lp_div_exact hi c with
            | Some q -> q
            | None -> (
                (* truncating division of a constant span still bounds
                   the trip count from above (c > 0) *)
                match lp_is_const hi with
                | Some h -> lp_const (h / c)
                | None -> hi)
          in
          st.st_ranges <-
            (counter_id, { rlo = lp_zero; rhi = hi; rst = 1 }) :: st.st_ranges
      | _ -> ());
      let value =
        Aff
          (sf_add fi
             (sf_add
                (sf_var ~coeff:(lp_const c) svar)
                (sf_int (offset * c))))
      in
      { fr_frozen = frozen; fr_tdep = tdep; fr_value = value }
  | _ ->
      let range =
        match (range_of st vi, range_of st vl) with
        | Some ri, Some rl ->
            Some { rlo = ri.rlo; rhi = lp_sub rl.rhi (lp_const 1); rst = 1 }
        | _ -> None
      in
      (match range with
      | Some r -> st.st_ranges <- (counter_id, r) :: st.st_ranges
      | None -> ());
      { fr_frozen = frozen; fr_tdep = tdep; fr_value = Aff (sf_var svar) }

let rec swalk_block st spaces env (b : Ast.block) : senv =
  List.fold_left (fun e s -> swalk_stmt st spaces e s) env b

and swalk_stmt st spaces env (s : Ast.stmt) : senv =
  match s with
  | Comment _ -> env
  | Decl { d_name; d_ty = Scalar _; d_init } -> (
      match d_init with
      | Some e ->
          scollect_expr st env spaces e;
          { env with s_binds = (d_name, SBexpr e) :: env.s_binds }
      | None -> { env with s_binds = (d_name, SBopaque) :: env.s_binds })
  | Decl _ -> env
  | Assign (lv, e) -> (
      scollect_expr st env spaces e;
      match lv with
      | Lvar v -> { env with s_binds = (v, SBexpr e) :: env.s_binds }
      | Lfield (Lvar v, _) -> forget_svars env [ v ]
      | Lindex (arr, idxs) ->
          srecord_access st env spaces arr (`Sc idxs) ~store:true;
          List.iter (scollect_expr st env spaces) idxs;
          env
      | Lvec { v_arr; v_width; v_index } ->
          srecord_access st env spaces v_arr
            (`Vec (v_width, v_index))
            ~store:true;
          scollect_expr st env spaces v_index;
          env
      | Lfield (Lindex (arr, idxs), _) ->
          srecord_access st env spaces arr (`Sc idxs) ~store:true;
          List.iter (scollect_expr st env spaces) idxs;
          env
      | Lfield _ -> env)
  | Sync ->
      if env.s_div_hard then
        violate st ~v_when:Constraint.tt ~rule:Verify.rule_barrier_divergence
          ~path:(path_of { env with s_path = "__syncthreads()" :: env.s_path })
          "__syncthreads() under thread-dependent control flow: threads \
           that skip the barrier deadlock or desynchronize the block"
      else if env.s_div_soft then
        give_up st
          "barrier under a lane-dependent loop whose uniform-trip escape \
           is launch-dependent";
      if env.s_guards = [] then st.st_interval <- st.st_interval + 1;
      env
  | Global_sync ->
      if env.s_frames <> [] || env.s_guards <> [] then
        violate st ~v_when:Constraint.tt ~rule:Verify.rule_barrier_divergence
          ~path:(path_of { env with s_path = "__global_sync()" :: env.s_path })
          "__global_sync() must appear at kernel top level";
      if env.s_guards = [] then st.st_interval <- st.st_interval + 1;
      env
  | If (cond, t, f) ->
      scollect_expr st env spaces cond;
      let d = sthread_dep env.s_binds env.s_frames cond in
      let seg =
        Printf.sprintf "if(%s)" (truncate_str 28 (Pp.expr_to_string cond))
      in
      let branch cond' =
        {
          env with
          s_guards =
            { sg_cond = cond'; sg_binds = env.s_binds; sg_frames = env.s_frames }
            :: env.s_guards;
          s_div_hard = env.s_div_hard || d;
          s_path = seg :: env.s_path;
        }
      in
      ignore (swalk_block st spaces (branch cond) t);
      ignore (swalk_block st spaces (branch (Unop (Not, cond))) f);
      forget_svars env (assigned_vars t @ assigned_vars f)
  | For ({ l_var; l_init; l_limit; l_step; l_body } as lp) ->
      scollect_expr st env spaces l_init;
      scollect_expr st env spaces l_limit;
      scollect_expr st env spaces l_step;
      let frozen = block_has_sync l_body in
      let tdep =
        sthread_dep env.s_binds env.s_frames l_init
        || sthread_dep env.s_binds env.s_frames l_limit
        || sthread_dep env.s_binds env.s_frames l_step
      in
      let counter_id = fresh_var st None in
      let depth = List.length env.s_frames in
      let benv offset =
        let fr = make_frame st env lp ~frozen ~tdep ~counter_id ~offset in
        {
          env with
          s_binds = (l_var, SBloop depth) :: env.s_binds;
          s_frames = fr :: env.s_frames;
          s_div_hard = env.s_div_hard || (tdep && not frozen);
          s_div_soft = env.s_div_soft || (tdep && frozen);
          s_path = Printf.sprintf "for(%s)" l_var :: env.s_path;
          s_frozen_depth = (env.s_frozen_depth + if frozen then 1 else 0);
        }
      in
      if frozen && env.s_frozen_depth < 2 then begin
        ignore (swalk_block st spaces (benv 0) l_body);
        ignore (swalk_block st spaces (benv 1) l_body)
      end
      else ignore (swalk_block st spaces (benv 0) l_body);
      forget_svars env (l_var :: assigned_vars l_body)

(* ------------------------------------------------------------------ *)
(* Race proving: two-symbolic-thread disequality                        *)
(* ------------------------------------------------------------------ *)

let atom m cmp k = { Constraint.a_mono = m; a_cmp = cmp; a_k = k }
let mono_bx = [ Constraint.Bx ]
let mono_by = [ Constraint.By ]
let mono_threads = [ Constraint.Bx; Constraint.By ]

let lp_provably_nonzero (p : lpoly) : bool =
  lp_nonneg (lp_sub p (lp_const 1)) || lp_nonneg (lp_sub (lp_const (-1)) p)

(** Flattened element offset of one access as a symbolic form. [Oskip]
    marks offsets the concrete evaluator can never compute (the
    concrete race and witness checks skip those instances, so nothing
    needs proving). *)
type off =
  | Oaff of sform
  | Omod of sform * int
  | Ovec of int * sform
  | Oskip
  | Ofail of string

let offset_form st (lay : Layout.t) (acc : sacc) : off =
  match acc.x_kind with
  | `Sc idxs ->
      let strides = Layout.strides lay in
      if List.length idxs <> List.length strides then Oskip
      else
        let vs =
          List.map (lower st ~binds:acc.x_binds ~frames:acc.x_frames) idxs
        in
        if List.exists (fun v -> v = Opq) vs then Oskip
        else (
          match (vs, strides) with
          | [ Modv (f, c) ], [ 1 ] -> Omod (f, c)
          | _ -> (
              let rec go f vs ss =
                match (vs, ss) with
                | [], [] -> Some f
                | Aff g :: vs', s :: ss' -> go (sf_add f (sf_scale s g)) vs' ss'
                | _ -> None
              in
              match go (sf_int 0) vs strides with
              | Some f -> Oaff f
              | None -> Ofail "non-affine index"))
  | `Vec (w, ie) -> (
      match lower st ~binds:acc.x_binds ~frames:acc.x_frames ie with
      | Opq -> Oskip
      | Aff f -> Ovec (w, f)
      | Modv _ | Rng _ -> Ofail "non-affine vector index")

(** Two-thread difference of a pair of affine offsets. Block-shared
    variables cancel when their coefficients agree; mismatched shared
    coefficients and iteration-private variables widen to integer
    deltas (sound: any value the concrete windows enumerate is
    covered). *)
type delta = {
  d_lane : lpoly option;
      (** [Some cl]: the thread part is [cl * (lane_s - lane_t)] *)
  d_dx : int;
  d_dy : int;
  d_zs : int list;  (** coefficients of unconstrained integer deltas *)
  d_dk : lpoly;
}

exception Bad of string

let pair_delta (fa : sform) (fb : sform) : (delta, string) Stdlib.result =
  let coeff v f = Option.value ~default:[] (List.assoc_opt v f.sterms) in
  let vars =
    List.sort_uniq compare (List.map fst fa.sterms @ List.map fst fb.sterms)
  in
  let cx_a = coeff Stidx fa and cx_b = coeff Stidx fb in
  let cy_a = coeff Stidy fa and cy_b = coeff Stidy fb in
  try
    let zs =
      List.fold_left
        (fun zs v ->
          match v with
          | Stidx | Stidy -> zs
          | Sbidx | Sbidy | Sfrozen _ -> (
              let d = lp_sub (coeff v fa) (coeff v fb) in
              if d = [] then zs
              else
                match lp_is_const d with
                | Some c -> c :: zs
                | None -> raise (Bad "block-shared coefficient mismatch"))
          | Sfree _ ->
              List.fold_left
                (fun zs c ->
                  if c = [] then zs
                  else
                    match lp_is_const c with
                    | Some k -> k :: zs
                    | None -> raise (Bad "non-constant loop stride"))
                zs
                [ coeff v fa; coeff v fb ])
        [] vars
    in
    let dk = lp_sub fa.sc fb.sc in
    if
      cx_a = cx_b && cy_a = cy_b && cx_a <> []
      && cy_a = lp_mul cx_a [ ([ Constraint.Bx ], 1) ]
    then Ok { d_lane = Some cx_a; d_dx = 0; d_dy = 0; d_zs = zs; d_dk = dk }
    else if cx_a <> cx_b then Error "thread-x stride mismatch"
    else if cy_a <> cy_b then Error "thread-y stride mismatch"
    else
      match (lp_is_const cx_a, lp_is_const cy_a) with
      | Some dx, Some dy ->
          Ok { d_lane = None; d_dx = dx; d_dy = dy; d_zs = zs; d_dk = dk }
      | _ -> Error "non-constant thread stride"
  with Bad m -> Error m

type clamp = { cl_form : sform; cl_kind : [ `Hi | `Lo ]; cl_poly : lpoly }

(** Range clamps implied by the access's guards. Sound regardless of
    concrete evaluability: the out-of-bounds {e error} requires a
    witness state in which every guard evaluates true, and these are
    consequences of the guards' truth. *)
let guard_clamps st (acc : sacc) : clamp list =
  List.concat_map
    (fun g ->
      let lower_g = lower st ~binds:g.sg_binds ~frames:g.sg_frames in
      let mk a b strict kind =
        match (lower_g a, lower_g b) with
        | Aff fa, Aff fb when fb.sterms = [] -> (
            match kind with
            | `Hi ->
                [ { cl_form = fa; cl_kind = `Hi; cl_poly = lp_sub fb.sc (lp_const strict) } ]
            | `Lo ->
                [ { cl_form = fa; cl_kind = `Lo; cl_poly = lp_add fb.sc (lp_const strict) } ])
        | _ -> []
      in
      let rec of_cond pos c =
        match c with
        | Ast.Unop (Not, c') -> of_cond (not pos) c'
        | Binop (Lt, a, b) -> if pos then mk a b 1 `Hi else mk a b 0 `Lo
        | Binop (Le, a, b) -> if pos then mk a b 0 `Hi else mk a b 1 `Lo
        | Binop (Gt, a, b) -> if pos then mk a b 1 `Lo else mk a b 0 `Hi
        | Binop (Ge, a, b) -> if pos then mk a b 0 `Lo else mk a b 1 `Hi
        | Binop (And, a, b) -> if pos then of_cond pos a @ of_cond pos b else []
        | _ -> []
      in
      of_cond true g.sg_cond)
    acc.x_guards

(* Guard caps for race proving: an inequality guard affine in a single
   thread coordinate with a constant bound caps that coordinate for
   every thread executing the access, so the coordinate delta between
   two executing threads is capped without a launch atom.  Such guards
   are pure affine forms over concretely-computable leaves, so the
   concrete race check evaluates (and enforces) them too -- its lenient
   treatment of unevaluable guards never applies here. *)
let cap_of (clamps : clamp list) (v : svar) : int option =
  List.fold_left
    (fun best cl ->
      if cl.cl_kind <> `Hi then best
      else
        match cl.cl_form.sterms with
        | [ (v', cp) ] when v' = v -> (
            match
              ( lp_is_const cp,
                lp_is_const (lp_sub cl.cl_poly cl.cl_form.sc) )
            with
            | Some c, Some d when c > 0 ->
                let q = max 0 (d / c) in
                Some (match best with Some b -> min b q | None -> q)
            | _ -> best)
        | _ -> best)
    None clamps

(** Emit [dim <= k] unless a guard cap already bounds the coordinate
    delta below [k] at every launch. *)
let dim_atom ~(caps : int option * int option) (dim : Constraint.mono)
    (k : int) : Constraint.t =
  let cx, cy = caps in
  let capped u = match u with Some u -> u < k | None -> false in
  if (dim = mono_bx && capped cx) || (dim = mono_by && capped cy) then []
  else [ atom dim `Le k ]

(** Prove [c*u + dk <> 0] for [u] in [[-(dim-1), dim-1]], [u <> 0]. *)
let one_d ~caps ~(dim : Constraint.mono) (c : int) (dk : lpoly) :
    [ `Ok of Constraint.t | `Fail of string ] =
  if c = 0 then
    match lp_is_const dk with
    | Some 0 -> `Ok (dim_atom ~caps dim 1)
    | Some _ -> `Ok []
    | None ->
        if lp_provably_nonzero dk then `Ok []
        else `Fail "sign of thread offset unknown"
  else
    match lp_is_const dk with
    | Some k ->
        if k mod c <> 0 then `Ok []
        else
          let t0 = abs (k / c) in
          if t0 = 0 then `Ok [] else `Ok (dim_atom ~caps dim t0)
    | None -> (
        (* |dk| must dominate |c|*(dim-1) *)
        let bound =
          lp_add (lp_scale (abs c) (lp_sub [ (dim, 1) ] (lp_const 1))) (lp_const 1)
        in
        match lp_le_when bound dk with
        | Some cs -> `Ok cs
        | None -> (
            match lp_le_when bound (lp_scale (-1) dk) with
            | Some cs -> `Ok cs
            | None -> `Fail "non-constant offset across thread stride"))

let rec prove_delta ~caps ~pinned_tx ~pinned_ty (d : delta) :
    [ `Ok of Constraint.t | `Collide | `Fail of string ] =
  let combine r1 r2 =
    match (r1, r2) with
    | `Ok c1, `Ok c2 -> `Ok (c1 @ c2)
    | (`Fail _ as f), _ | _, (`Fail _ as f) -> f
  in
  let g = List.fold_left gcd 0 d.d_zs in
  if g = 1 then `Fail "unit loop stride swallows every offset"
  else if g > 1 then begin
    (* R1: every loop contribution is a multiple of [g], so the delta is
       zero only if the thread part is too, modulo [g].  Fast path: the
       thread strides vanish mod [g] and the constant offset does not.
       General path: reduce the constant to a centered residue [rk],
       emit window atoms keeping the thread part inside [(-g, g)], and
       delegate exact-zero exclusion of [thread part + rk] to the
       stride reasoning below (an empty [d_zs] recursion). *)
    let reduce k =
      let r = ((k mod g) + g) mod g in
      if 2 * r > g then r - g else r
    in
    let fast_ok =
      (match d.d_lane with
      | Some cl -> (
          match lp_is_const cl with Some c -> c mod g = 0 | None -> false)
      | None ->
          (pinned_tx || d.d_dx mod g = 0) && (pinned_ty || d.d_dy mod g = 0))
      && match lp_is_const d.d_dk with Some k -> k mod g <> 0 | None -> false
    in
    if fast_ok then `Ok []
    else
      match lp_is_const d.d_dk with
      | None -> `Fail "non-constant offset across loop strides"
      | Some k -> (
          let rk = reduce k in
          let budget = g - 1 - abs rk in
          if budget < 0 then `Fail "offset residue swallows the window"
          else
            let window_atom dim c =
              dim_atom ~caps dim ((budget / abs c) + 1)
            in
            let window =
              match d.d_lane with
              | Some cl -> (
                  match lp_is_const cl with
                  | Some c when c <> 0 ->
                      `Ok [ atom mono_threads `Le ((budget / abs c) + 1) ]
                  | Some _ -> `Ok []
                  | None -> `Fail "non-constant lane stride in loop residue")
              | None -> (
                  let ax =
                    if pinned_tx || d.d_dx = 0 then None
                    else Some (mono_bx, d.d_dx)
                  and ay =
                    if pinned_ty || d.d_dy = 0 then None
                    else Some (mono_by, d.d_dy)
                  in
                  match (ax, ay) with
                  | None, None -> `Ok []
                  | Some (dim, c), None | None, Some (dim, c) ->
                      `Ok (window_atom dim c)
                  | Some (dimx, cx), Some (dimy, cy) ->
                      (* split the window between the axes *)
                      let budget = budget / 2 in
                      if budget < abs cx || budget < abs cy then
                        `Fail "thread strides overflow the loop residue"
                      else
                        `Ok
                          (dim_atom ~caps dimx ((budget / abs cx) + 1)
                          @ dim_atom ~caps dimy ((budget / abs cy) + 1)))
            in
            match window with
            | `Fail m -> `Fail m
            | `Ok cw -> (
                match
                  prove_delta ~caps ~pinned_tx ~pinned_ty
                    { d with d_zs = []; d_dk = lp_const rk }
                with
                | `Collide -> `Fail "thread residues coincide"
                | `Fail m -> `Fail m
                | `Ok cs -> `Ok (cw @ cs)))
  end
  else
    match d.d_lane with
    | Some cl ->
        if pinned_tx && pinned_ty then `Ok []
        else if d.d_dk = [] then
          if
            match lp_is_const cl with
            | Some c -> c <> 0
            | None -> lp_provably_nonzero cl
          then `Ok []
          else `Fail "lane stride sign unknown"
        else (
          match (lp_is_const cl, lp_is_const d.d_dk) with
          | Some c, Some k when c <> 0 ->
              if k mod c <> 0 then `Ok []
              else
                let t0 = abs (k / c) in
                if t0 = 0 then `Ok [] else `Ok [ atom mono_threads `Le t0 ]
          | _ -> `Fail "non-constant lane offset")
    | None -> (
        let dx = d.d_dx and dy = d.d_dy and dk = d.d_dk in
        match (pinned_tx, pinned_ty) with
        | true, true -> `Ok []
        | true, false -> (one_d ~caps ~dim:mono_by dy dk :> [ `Ok of Constraint.t | `Collide | `Fail of string ])
        | false, true -> (one_d ~caps ~dim:mono_bx dx dk :> [ `Ok of Constraint.t | `Collide | `Fail of string ])
        | false, false ->
            if dx = 0 && dy = 0 then (
              match lp_is_const dk with
              | Some 0 -> `Collide
              | Some _ -> `Ok []
              | None ->
                  if lp_provably_nonzero dk then `Ok []
                  else `Fail "sign of thread offset unknown")
            else if dy = 0 then
              (* u = 0, v <> 0 leaves delta = dk; u <> 0 is 1-d in bx *)
              let zero_branch =
                match lp_is_const dk with
                | Some 0 -> `Ok (dim_atom ~caps mono_by 1)
                | Some _ -> `Ok []
                | None ->
                    if lp_provably_nonzero dk then `Ok []
                    else `Fail "sign of thread offset unknown"
              in
              combine zero_branch (one_d ~caps ~dim:mono_bx dx dk)
            else if dx = 0 then
              let zero_branch =
                match lp_is_const dk with
                | Some 0 -> `Ok (dim_atom ~caps mono_bx 1)
                | Some _ -> `Ok []
                | None ->
                    if lp_provably_nonzero dk then `Ok []
                    else `Fail "sign of thread offset unknown"
              in
              combine zero_branch (one_d ~caps ~dim:mono_by dy dk)
            else (
              match lp_is_const dk with
              | None -> `Fail "non-constant offset across 2-d thread strides"
              | Some k ->
                  if k mod gcd dx dy <> 0 then `Ok []
                  else
                    (* dominance: one stride swamps the other axis *)
                    let dom ~dim_small small big =
                      let num = abs big - abs k - 1 in
                      if num < 0 then None
                      else Some (atom dim_small `Le ((num / abs small) + 1))
                    in
                    let attempt ~dim_small small big =
                      match dom ~dim_small small big with
                      | Some a -> (
                          match one_d ~caps ~dim:dim_small small dk with
                          | `Ok c -> Some (a, c)
                          | `Fail _ -> None)
                      | None -> None
                    in
                    (* both directions can work; keep the weaker (larger
                       bound) constraint so more launches are covered *)
                    (match
                       ( attempt ~dim_small:mono_bx dx dy,
                         attempt ~dim_small:mono_by dy dx )
                     with
                    | Some (a1, c1), Some (a2, c2) ->
                        if a2.Constraint.a_k > a1.Constraint.a_k then
                          `Ok (dim_atom ~caps a2.a_mono a2.a_k @ c2)
                        else `Ok (dim_atom ~caps a1.a_mono a1.a_k @ c1)
                    | Some (a, c), None | None, Some (a, c) ->
                        `Ok (dim_atom ~caps a.Constraint.a_mono a.a_k @ c)
                    | None, None -> `Fail "no dominant stride")))

(* ------------------------------------------------------------------ *)
(* Guard pinning                                                       *)
(* ------------------------------------------------------------------ *)

(** Equality guards whose lowered form fixes one thread coordinate as a
    function of block-shared values alone. Only forms the concrete
    evaluator can always compute qualify (pure affine lowerings), since
    the concrete race check passes unevaluable guards leniently. *)
let pinning_conds st (acc : sacc) : (Ast.expr * [ `Tx | `Ty ]) list =
  List.filter_map
    (fun g ->
      match g.sg_cond with
      | Ast.Binop (Eq, l, r) -> (
          match
            ( lower st ~binds:g.sg_binds ~frames:g.sg_frames l,
              lower st ~binds:g.sg_binds ~frames:g.sg_frames r )
          with
          | Aff fl, Aff fr -> (
              let f = sf_sub fl fr in
              let nz c =
                match lp_is_const c with
                | Some k -> k <> 0
                | None -> lp_provably_nonzero c
              in
              match List.filter (fun (v, _) -> not (svar_shared v)) f.sterms with
              | [ (Stidx, c) ] when nz c -> Some (g.sg_cond, `Tx)
              | [ (Stidy, c) ] when nz c -> Some (g.sg_cond, `Ty)
              | _ -> None)
          | _ -> None)
      | _ -> None)
    acc.x_guards

(** One access staged for the pairwise race phase of its (barrier
    interval, array): what a pair proof needs of each side depends on
    that side alone, so it is computed on first use and shared by every
    pair the access is in, rather than re-lowered per pair. *)
type staged = {
  sx : sacc;
  sx_off : off Lazy.t;
  sx_pins : (Ast.expr * [ `Tx | `Ty ]) list Lazy.t;
  sx_cap_x : int option Lazy.t;  (** {!cap_of} [Stidx] *)
  sx_cap_y : int option Lazy.t;  (** {!cap_of} [Stidy] *)
}

let stage st lay (acc : sacc) : staged =
  let clamps = lazy (guard_clamps st acc) in
  {
    sx = acc;
    sx_off = lazy (offset_form st lay acc);
    sx_pins = lazy (pinning_conds st acc);
    sx_cap_x = lazy (cap_of (Lazy.force clamps) Stidx);
    sx_cap_y = lazy (cap_of (Lazy.force clamps) Stidy);
  }

let race_rule space =
  if space = `Shared then Verify.rule_race_shared else Verify.rule_race_global

let prove_aff st (sa : staged) (sb : staged) (fa : sform) (fb : sform) :
    [ `Ok of Constraint.t | `Fail of string ] =
  match pair_delta fa fb with
  | Error m -> `Fail m
  | Ok d -> (
      let a = sa.sx and b = sb.sx in
      let pins_a = Lazy.force sa.sx_pins and pins_b = Lazy.force sb.sx_pins in
      let pinned w =
        List.exists
          (fun (c, w') -> w' = w && List.exists (fun (c', w'') -> w'' = w && c' = c) pins_b)
          pins_a
      in
      (* a coordinate delta is capped when both sides cap it *)
      let cap ca cb =
        match (Lazy.force ca, Lazy.force cb) with
        | Some ua, Some ub -> Some (max ua ub)
        | _ -> None
      in
      let caps = (cap sa.sx_cap_x sb.sx_cap_x, cap sa.sx_cap_y sb.sx_cap_y) in
      match
        prove_delta ~caps ~pinned_tx:(pinned `Tx) ~pinned_ty:(pinned `Ty) d
      with
      | `Ok c -> `Ok c
      | `Fail m -> `Fail m
      | `Collide ->
          (* every pair of distinct threads lands on one element *)
          if
            (a.x_store || b.x_store)
            && a.x_guards = [] && b.x_guards = []
            && a.x_frames = [] && b.x_frames = []
          then
            violate st
              ~v_when:[ atom mono_threads `Ge 2 ]
              ~rule:(race_rule a.x_space) ~path:a.x_path
              (Printf.sprintf
                 "every pair of distinct threads touches the same element of \
                  %s in one barrier interval"
                 a.x_arr);
          `Ok [ atom mono_threads `Le 1 ])

let prove_pair st (sa : staged) (sb : staged) :
    [ `Ok of Constraint.t | `Fail of string ] =
  let a = sa.sx and b = sb.sx in
  match (Lazy.force sa.sx_off, Lazy.force sb.sx_off) with
  | Oskip, _ | _, Oskip -> `Ok []
  | Ofail m, _ | _, Ofail m -> `Fail m
  | Omod (fa, ca), Omod (fb, cb) ->
      if ca = cb && fa = fb then
        if
          List.filter (fun (v, _) -> not (svar_shared v)) fa.sterms
          = [ (Stidx, lp_const 1); (Stidy, [ ([ Constraint.Bx ], 1) ]) ]
        then begin
          (* [lane mod ca]: injective over the block iff bx*by <= ca *)
          if
            (a.x_store || b.x_store)
            && ca + 1 <= 512
            && a.x_guards = [] && b.x_guards = []
            && a.x_frames = [] && b.x_frames = []
          then
            violate st
              ~v_when:[ atom mono_threads `Ge (ca + 1) ]
              ~rule:(race_rule a.x_space) ~path:a.x_path
              (Printf.sprintf
                 "lanes %d apart collide on %s through the mod-%d store \
                  whenever bx*by >= %d"
                 ca a.x_arr ca (ca + 1));
          `Ok [ atom mono_threads `Le ca ]
        end
        else `Fail "modular index is not a lane bijection"
      else `Fail "mismatched modular indices"
  | Omod _, _ | _, Omod _ -> `Fail "modular index paired with affine index"
  | Ovec (wa, fa), Ovec (wb, fb) ->
      if wa = wb then prove_aff st sa sb fa fb
      else `Fail "mixed vector widths"
  | Ovec _, Oaff _ | Oaff _, Ovec _ -> `Fail "vector paired with scalar access"
  | Oaff fa, Oaff fb -> prove_aff st sa sb fa fb

(* ------------------------------------------------------------------ *)
(* Bounds proving                                                      *)
(* ------------------------------------------------------------------ *)

(** Prove one access in bounds for every launch (up to emitted atoms).
    Opaque index dimensions are skipped: the concrete witness hunt
    cannot evaluate them, so no error can arise from them. *)
let prove_bounds st layouts (acc : sacc) : (Constraint.t, string) Stdlib.result
    =
  match Layout.find layouts acc.x_arr with
  | None -> Ok []
  | Some lay -> (
      let dims =
        match acc.x_kind with
        | `Sc idxs ->
            if List.length idxs <> List.length lay.Layout.pitches then []
            else List.map2 (fun e p -> (e, p, 1, 0)) idxs lay.Layout.pitches
        | `Vec (w, ie) -> [ (ie, Layout.size_elems lay, w, w - 1) ]
      in
      let clamps = lazy (guard_clamps st acc) in
      (* a guard whose lowered form is affine in a single symbolic
         variable with constant coefficient refines that variable's
         range for this access: e.g. a tile-prefetch guard
         [i + 16 < n] caps the loop counter of [i], which then bounds
         every index built from it.  Truncating division widens the
         refined interval, which only weakens the refinement. *)
      let refinements =
        lazy
          (List.fold_left
             (fun refs cl ->
               match cl.cl_form.sterms with
               | [ (v, cp) ] -> (
                   match
                     ( lp_is_const cp,
                       lp_is_const (lp_sub cl.cl_poly cl.cl_form.sc) )
                   with
                   | Some c, Some d when c > 0 -> (
                       match svar_range st v with
                       | None -> refs
                       | Some base ->
                           let q = d / c in
                           let cur =
                             Option.value (List.assoc_opt v refs)
                               ~default:{ base with rst = 1 }
                           in
                           let cur =
                             match cl.cl_kind with
                             | `Hi ->
                                 let hi =
                                   match lp_is_const cur.rhi with
                                   | Some b -> min b q
                                   | None -> q
                                 in
                                 { cur with rhi = lp_const hi }
                             | `Lo ->
                                 let lo =
                                   match lp_is_const cur.rlo with
                                   | Some b -> max b q
                                   | None -> q
                                 in
                                 { cur with rlo = lp_const lo }
                           in
                           (v, cur) :: List.remove_assoc v refs)
                   | _ -> refs)
               | _ -> refs)
             []
             (Lazy.force clamps))
      in
      let candidates v kind =
        let pick r = match kind with `Hi -> r.rhi | `Lo -> r.rlo in
        let base =
          match range_of st v with Some r -> [ pick r ] | None -> []
        in
        let base =
          base
          @
          match Lazy.force refinements with
          | [] -> []
          | refine -> (
              match range_of ~refine st v with
              | Some r -> [ pick r ]
              | None -> [])
        in
        match v with
        | Aff f ->
            base
            @ List.filter_map
                (fun cl ->
                  if cl.cl_kind <> kind then None
                  else
                    let d = sf_sub f cl.cl_form in
                    if d.sterms = [] then Some (lp_add cl.cl_poly d.sc)
                    else None)
                (Lazy.force clamps)
        | _ -> base
      in
      let check_dim (e, bound, scale, offs) =
        match lower st ~binds:acc.x_binds ~frames:acc.x_frames e with
        | Opq -> Ok []
        | v ->
            let lo_ok = List.exists lp_nonneg (candidates v `Lo) in
            if not lo_ok then
              Error
                (Printf.sprintf "cannot prove %s >= 0 in %s"
                   (Pp.expr_to_string e) acc.x_arr)
            else
              (* among independently sufficient alternatives prefer the
                 one provable at the most launches: a guard-refined
                 constant bound (empty conjunction) beats any launch
                 atom, and [gx <= 1 && bx <= 16] beats [bx*gx <= 4] *)
              let hi =
                List.concat_map
                  (fun h ->
                    lp_le_alts
                      (lp_add (lp_scale scale h) (lp_const offs))
                      (lp_const (bound - 1)))
                  (candidates v `Hi)
                |> List.sort_uniq compare
                |> function
                | [] -> None
                | [ c ] -> Some c
                | alts ->
                    Some
                      (List.map (fun c -> (coverage c, c)) alts
                      |> List.sort (fun (na, _) (nb, _) -> compare nb na)
                      |> List.hd |> snd)
              in
              (match hi with
              | Some cs -> Ok cs
              | None ->
                  Error
                    (Printf.sprintf "cannot prove %s < %d in %s"
                       (Pp.expr_to_string e) bound acc.x_arr))
      in
      List.fold_left
        (fun acc_r d ->
          match (acc_r, check_dim d) with
          | Ok c1, Ok c2 -> Ok (c1 @ c2)
          | (Error _ as e), _ | _, (Error _ as e) -> e)
        (Ok []) dims)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

type verdict =
  | Proved
  | Proved_when of Constraint.t
  | Unknown of string

type result = {
  res_kernel : string;
  verdict : verdict;
  violations : violation list;
}

let spaces_of (k : Ast.kernel) : (string * [ `Shared | `Global ]) list =
  let from_params =
    List.filter_map
      (fun (p : Ast.param) ->
        match p.p_ty with
        | Ast.Array { space = Global; _ } -> Some (p.p_name, `Global)
        | Array { space = Shared; _ } -> Some (p.p_name, `Shared)
        | _ -> None)
      k.k_params
  in
  let from_decls =
    Rewrite.declared_vars k.k_body
    |> List.filter_map (fun (name, ty) ->
           match ty with
           | Ast.Array { space = Shared; _ } -> Some (name, `Shared)
           | _ -> None)
  in
  from_params @ from_decls

let acc_key (a : sacc) =
  match a.x_kind with
  | `Sc idxs -> Pp.expr_to_string (Ast.Index (a.x_arr, idxs))
  | `Vec (w, ie) ->
      Pp.expr_to_string (Vload { v_arr = a.x_arr; v_width = w; v_index = ie })

let check_exn (k : Ast.kernel) : result =
  let st =
    {
      st_kernel = k.k_name;
      st_sizes = k.k_sizes;
      st_interval = 0;
      st_accs = [];
      st_violations = [];
      st_unknown = None;
      st_next_id = 0;
      st_ranges = [];
    }
  in
  let layouts = Layout.of_kernel k in
  let spaces = spaces_of k in
  let env0 =
    {
      s_binds = [];
      s_frames = [];
      s_guards = [];
      s_div_hard = false;
      s_div_soft = false;
      s_path = [];
      s_frozen_depth = 0;
    }
  in
  ignore (swalk_block st spaces env0 k.k_body);
  let accs = List.rev st.st_accs in
  let atoms = ref Constraint.tt in
  let require c = atoms := Constraint.conj !atoms c in
  let unknown () = st.st_unknown <> None in
  (* bounds first, once per distinct syntactic access: the phase is
     linear and its failures are common on transformed kernels, so
     bailing here skips the quadratic race phase when the verdict is
     already doomed to Unknown (the concrete fallback re-checks
     everything anyway) *)
  let seen = Hashtbl.create 64 in
  List.iter
    (fun a ->
      if not (unknown ()) then
        let key = (a.x_path, a.x_arr, a.x_store, acc_key a) in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.replace seen key ();
          match prove_bounds st layouts a with
          | Ok c -> require c
          | Error m -> give_up st m
        end)
    accs;
  (* races, interval by interval, array by array *)
  if not (unknown ()) then begin
    let intervals = Hashtbl.create 8 in
    List.iter
      (fun a ->
        Hashtbl.replace intervals a.x_interval
          (a :: (try Hashtbl.find intervals a.x_interval with Not_found -> [])))
      accs;
    Hashtbl.iter
      (fun _ group ->
        let by_arr = Hashtbl.create 8 in
        List.iter
          (fun a ->
            Hashtbl.replace by_arr a.x_arr
              (a :: (try Hashtbl.find by_arr a.x_arr with Not_found -> [])))
          (List.rev group);
        Hashtbl.iter
          (fun arr accs_arr ->
            let accs_arr = List.rev accs_arr in
            if
              (not (unknown ()))
              && List.exists (fun a -> a.x_store) accs_arr
            then
              match Layout.find layouts arr with
              | None -> ()
              | Some lay ->
                  let arr_accs =
                    Array.of_list (List.map (stage st lay) accs_arr)
                  in
                  let n = Array.length arr_accs in
                  let i = ref 0 in
                  while !i < n && not (unknown ()) do
                    let j = ref !i in
                    while !j < n && not (unknown ()) do
                      let sa = arr_accs.(!i) and sb = arr_accs.(!j) in
                      let a = sa.sx and b = sb.sx in
                      (if a.x_store || b.x_store then
                         match prove_pair st sa sb with
                         | `Ok c -> require c
                         | `Fail m ->
                             give_up st
                               (Printf.sprintf "%s: %s (%s)" arr m
                                  (if a.x_path = "" then "top level"
                                   else a.x_path)));
                      incr j
                    done;
                    incr i
                  done)
          by_arr)
      intervals
  end;
  let verdict =
    match st.st_unknown with
    | Some r -> Unknown r
    | None -> (
        match Constraint.normalize !atoms with
        | [] -> Proved
        | c -> Proved_when c)
  in
  { res_kernel = k.k_name; verdict; violations = List.rev st.st_violations }

let check (k : Ast.kernel) : result =
  try check_exn k
  with e ->
    {
      res_kernel = k.k_name;
      verdict = Unknown ("internal: " ^ Printexc.to_string e);
      violations = [];
    }

(* ------------------------------------------------------------------ *)
(* Deciding a concrete launch against a parametric result               *)
(* ------------------------------------------------------------------ *)

let decide (r : result) (launch : Ast.launch) :
    [ `Clean | `Errors of Verify.diagnostic list | `Unknown of string ] =
  let fired =
    List.filter (fun v -> Constraint.holds launch v.v_when) r.violations
  in
  if fired <> [] then
    `Errors
      (List.map
         (fun v ->
           {
             Verify.severity = Verify.Error;
             rule = v.v_rule;
             kernel = r.res_kernel;
             path = v.v_path;
             message = v.v_message;
           })
         fired)
  else
    match r.verdict with
    | Proved -> `Clean
    | Proved_when c when Constraint.holds launch c -> `Clean
    | Proved_when c ->
        `Unknown
          (Printf.sprintf "launch outside the proved region (%s)"
             (Constraint.to_string c))
    | Unknown m -> `Unknown m

(** A violation decidable from the block-thread product alone, e.g. for
    pruning explore candidates before any compilation. *)
let excludes_threads (r : result) ~(threads : int) : string option =
  List.find_map
    (fun v ->
      if Constraint.holds_at_threads ~threads v.v_when then Some v.v_rule
      else None)
    r.violations

let verdict_to_string = function
  | Proved -> "proved"
  | Proved_when c -> Printf.sprintf "proved-when(%s)" (Constraint.to_string c)
  | Unknown m -> Printf.sprintf "unknown(%s)" m

(** Launch-parametric symbolic verifier.

    Where {!Verify} concretely enumerates a block's lanes per (kernel,
    launch) pair, this module analyzes {e two symbolic threads} s ≠ t of
    one block, with the block dimensions [(bx, by)] and grid dimensions
    [(gx, gy)] kept as symbolic parameters. Race, bounds and
    barrier-uniformity obligations are discharged by affine disequality
    reasoning (equal-stride cancellation, gcd/residue arguments on loop
    strides, modular lane arithmetic, guard-implied pinning, digit
    reasoning for [/] and [%] by a constant) and by interval reasoning
    over {e launch polynomials} — polynomials in the four launch
    dimensions, and in floors of such polynomials by constants, that
    bound every index expression.

    The verdict is parametric:
    - [Proved]: no error diagnostic at {e any} launch configuration;
    - [Proved_when c]: no error at launches satisfying the region [c], a
      conjunction of obligations, each a disjunction of inequalities
      [p <= k] over launch polynomials that {!decide} evaluates exactly
      at the launch (e.g. [bx <= 64] or [16*bx*gx - 15*bx <= 2176]);
    - [Unknown]: the kernel uses a construct outside the symbolic
      fragment — callers fall back to the concrete {!Verify.check}, so
      soundness never regresses.

    Separately, [violations] lists configurations that {e certainly}
    fail (e.g. a modular lane store [s\[lane %% 64\]] races whenever
    [bx*by >= 65]); the design-space exploration prunes those without
    compiling them.

    The analysis lowers the {!Walk} record of the kernel, the same one
    {!Verify} stages per launch: its loop frames in creation order, so
    fresh variables number in walk order, then each access's indices and
    guards on first use.

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
(* Launch polynomials: integer polynomials over bx, by, gx, gy          *)
(* ------------------------------------------------------------------ *)

type dim =
  | Bx
  | By
  | Gx
  | Gy

let dim_name = function Bx -> "bx" | By -> "by" | Gx -> "gx" | Gy -> "gy"

(** A factor of a launch term: a launch dimension, or [Floor (p, c)],
    the value [max(p, 0) / c] of a launch polynomial [p] by a constant
    [c >= 2] — the range end of a quotient digit. A dimension is [>= 1]
    at every launch, a floor [>= 0].

    A launch polynomial is an association list from monomial (a sorted
    factor list; [[]] is 1 and carries the constant term) to nonzero
    coefficient, sorted by [compare] with each monomial once. Every
    constructor below keeps that canonical form, so equal polynomials
    are equal lists and a sum is one merge. *)
type factor =
  | Dim of dim
  | Floor of lpoly * int

and mono = factor list
and lpoly = (mono * int) list

let lp_const (n : int) : lpoly = if n = 0 then [] else [ ([], n) ]
let lp_zero : lpoly = []
let lp_dim (d : dim) : lpoly = [ ([ Dim d ], 1) ]

let rec lp_add (a : lpoly) (b : lpoly) : lpoly =
  match (a, b) with
  | [], p | p, [] -> p
  | ((ma, ca) as ta) :: a', ((mb, cb) as tb) :: b' ->
      let c = compare ma mb in
      if c < 0 then ta :: lp_add a' b
      else if c > 0 then tb :: lp_add a b'
      else if ca + cb = 0 then lp_add a' b'
      else (ma, ca + cb) :: lp_add a' b'

let lp_scale (k : int) (a : lpoly) : lpoly =
  if k = 0 then []
  else if k = 1 then a
  else List.map (fun (m, c) -> (m, k * c)) a

let lp_sub a b = lp_add a (lp_scale (-1) b)

let lp_mul (a : lpoly) (b : lpoly) : lpoly =
  match (a, b) with
  | [], _ | _, [] -> []
  | [ ([], k) ], p | p, [ ([], k) ] -> lp_scale k p
  | _ ->
      List.concat_map
        (fun (ma, ca) ->
          List.map (fun (mb, cb) -> (List.sort compare (ma @ mb), ca * cb)) b)
        a
      |> List.fold_left (fun acc t -> lp_add acc [ t ]) []

let lp_is_const (p : lpoly) : int option =
  match p with
  | [] -> Some 0
  | [ ([], c) ] -> Some c
  | _ -> None

(** The constant term of a polynomial. *)
let lp_const_part (p : lpoly) : int =
  match p with ([], c) :: _ -> c | _ -> 0

(** Exact division of every coefficient by a positive constant. *)
let lp_div_exact (p : lpoly) (c : int) : lpoly option =
  if c <= 0 then None
  else if List.for_all (fun (_, k) -> k mod c = 0) p then
    Some (List.map (fun (m, k) -> (m, k / c)) p)
  else None

(* least value of a monomial over all launches *)
let mono_min (m : mono) : int =
  if List.for_all (function Dim _ -> true | Floor _ -> false) m then 1 else 0

(** Is [p >= 0] at every launch? Sufficient condition: every monomial
    coefficient nonnegative and the sum of each term at its least value
    nonnegative. *)
let lp_nonneg (p : lpoly) : bool =
  List.for_all (fun (m, c) -> m = [] || c >= 0) p
  && List.fold_left (fun acc (m, c) -> acc + (c * mono_min m)) 0 p >= 0

(** [⌊p / c⌋] for [c > 0], exact wherever [p >= 0]: a constant folds,
    an exact division or a [c*q - 1] shape divides through, anything
    else becomes a [Floor] term. *)
let lp_floor (p : lpoly) (c : int) : lpoly =
  match lp_is_const p with
  | Some v -> lp_const (if v <= 0 then 0 else v / c)
  | None -> (
      if c = 1 then p
      else
        match lp_div_exact p c with
        | Some q -> q
        | None -> (
            match lp_div_exact (lp_add p (lp_const 1)) c with
            | Some q -> lp_sub q (lp_const 1)
            | None -> [ ([ Floor (p, c) ], 1) ]))

let rec lp_eval (l : Ast.launch) (p : lpoly) : int =
  List.fold_left (fun acc (m, c) -> acc + (c * mono_eval l m)) 0 p

and mono_eval (l : Ast.launch) (m : mono) : int =
  List.fold_left
    (fun acc f ->
      acc
      *
      match f with
      | Dim Bx -> l.block_x
      | Dim By -> l.block_y
      | Dim Gx -> l.grid_x
      | Dim Gy -> l.grid_y
      | Floor (p, c) ->
          let v = lp_eval l p in
          if v <= 0 then 0 else v / c)
    1 m

let rec lp_to_string (p : lpoly) : string =
  match p with
  | [] -> "0"
  | _ ->
      List.mapi
        (fun i (m, c) ->
          let body =
            match (m, abs c) with
            | [], a -> string_of_int a
            | m, 1 -> mono_to_string m
            | m, a -> Printf.sprintf "%d*%s" a (mono_to_string m)
          in
          if i = 0 then (if c < 0 then "-" else "") ^ body
          else (if c < 0 then " - " else " + ") ^ body)
        p
      |> String.concat ""

and mono_to_string (m : mono) : string =
  String.concat "*"
    (List.map
       (function
         | Dim d -> dim_name d
         | Floor (p, c) -> Printf.sprintf "floor((%s)/%d)" (lp_to_string p) c)
       m)

(* ------------------------------------------------------------------ *)
(* Regions: conjunctions of disjunctions of polynomial inequalities     *)
(* ------------------------------------------------------------------ *)

module Constraint = struct
  (** [i_value <= i_limit] as derived, and canonically as
      [i_poly <= i_bound]: the constant term moved to the bound and the
      coefficients divided by their gcd. Regions compare and print the
      canonical form; reasons quote the derived one. *)
  type ineq = {
    i_poly : lpoly;
    i_bound : int;
    i_value : lpoly;
    i_limit : int;
  }

  (** A disjunction of inequalities, labelled with what it protects
      (an access, or a race between accesses) for reasons. *)
  type obligation = {
    o_label : string;
    o_disj : ineq list;
  }

  (** A conjunction of obligations. [[]] is the trivial constraint (true
      at every launch). *)
  type t = obligation list

  let tt : t = []

  let ineq_holds (l : Ast.launch) (i : ineq) = lp_eval l i.i_poly <= i.i_bound
  let ob_holds l (o : obligation) = List.exists (ineq_holds l) o.o_disj
  let holds (l : Ast.launch) (c : t) : bool = List.for_all (ob_holds l) c

  let floor_div a b = if a >= 0 then a / b else -((-a + b - 1) / b)

  (** [p <= k]. *)
  let ineq (p : lpoly) (k : int) : ineq =
    let c0 = lp_const_part p in
    let lhs = lp_sub p (lp_const c0) in
    let g = List.fold_left (fun g (_, c) -> Affine.gcd g c) 0 lhs in
    let g = if g = 0 then 1 else g in
    {
      i_poly = List.map (fun (m, c) -> (m, c / g)) lhs;
      i_bound = floor_div (k - c0) g;
      i_value = p;
      i_limit = k;
    }

  let key (o : obligation) = List.map (fun i -> (i.i_poly, i.i_bound)) o.o_disj

  (** Some inequality of [disj] holds: [[]] when one holds at every
      launch; inequalities that hold at none are dropped (unless all
      do), and of several with one left-hand side the weakest is
      kept. *)
  let any ~label (disj : ineq list) : t =
    let always i = lp_nonneg (lp_sub (lp_const i.i_bound) i.i_poly)
    and never i = lp_nonneg (lp_sub i.i_poly (lp_const (i.i_bound + 1))) in
    if List.exists always disj then []
    else
      let live =
        match List.filter (fun i -> not (never i)) disj with
        | [] -> disj
        | l -> l
      in
      let weakest =
        List.fold_left
          (fun acc i ->
            match List.partition (fun j -> j.i_poly = i.i_poly) acc with
            | [ j ], rest -> (if j.i_bound >= i.i_bound then j else i) :: rest
            | _ -> i :: acc)
          [] live
      in
      let order a b = compare (a.i_poly, a.i_bound) (b.i_poly, b.i_bound) in
      [ { o_label = label; o_disj = List.sort order weakest } ]

  (** [p <= k] as a one-inequality obligation. *)
  let le ?(label = "") (p : lpoly) (k : int) : t = any ~label [ ineq p k ]

  (** [m <= k] and [m >= k] over one launch monomial. *)
  let mono_le (m : mono) k : t = le [ (m, 1) ] k

  let mono_ge (m : mono) k : t = le [ (m, -1) ] (-k)

  let relabel label (c : t) : t =
    List.map
      (fun o -> if o.o_label = "" then { o with o_label = label } else o)
      c

  (* a one-inequality obligation [lhs <= k] implies [lhs <= k'] for
     every [k' >= k]: keep the strongest per left-hand side, and drop
     disjunctions one of whose inequalities such a bound implies *)
  let normalize (c : t) : t =
    let singles = Hashtbl.create 16 in
    List.iter
      (fun o ->
        match o.o_disj with
        | [ i ] -> (
            match Hashtbl.find_opt singles i.i_poly with
            | Some o' when (List.hd o'.o_disj).i_bound <= i.i_bound -> ()
            | _ -> Hashtbl.replace singles i.i_poly o)
        | _ -> ())
      c;
    let implied (i : ineq) =
      match Hashtbl.find_opt singles i.i_poly with
      | Some o -> (List.hd o.o_disj).i_bound <= i.i_bound
      | None -> false
    in
    let multi =
      List.filter
        (fun o ->
          List.compare_length_with o.o_disj 1 > 0
          && not (List.exists implied o.o_disj))
        c
    in
    Hashtbl.fold (fun _ o acc -> o :: acc) singles multi
    |> List.sort_uniq (fun a b -> compare (key a) (key b))

  let ineq_to_string (i : ineq) =
    if List.for_all (fun (_, c) -> c < 0) i.i_poly then
      Printf.sprintf "%s >= %d"
        (lp_to_string (lp_scale (-1) i.i_poly))
        (-i.i_bound)
    else Printf.sprintf "%s <= %d" (lp_to_string i.i_poly) i.i_bound

  let ob_to_string (o : obligation) =
    match o.o_disj with
    | [ i ] -> ineq_to_string i
    | is -> "(" ^ String.concat " || " (List.map ineq_to_string is) ^ ")"

  let to_string = function
    | [] -> "true"
    | c -> String.concat " && " (List.map ob_to_string c)

  (** Why [l] misses [c]: the first failing obligation, with the value
      its closest inequality takes at [l] against its bound. *)
  let miss (l : Ast.launch) (c : t) : string option =
    List.find_map
      (fun o ->
        if ob_holds l o then None
        else
          let excess i = lp_eval l i.i_poly - i.i_bound in
          let i =
            List.fold_left
              (fun b i -> if excess i < excess b then i else b)
              (List.hd o.o_disj) o.o_disj
          in
          let v = lp_eval l i.i_value in
          Some
            (match i.i_value with
            | [ (m, 1) ] ->
                Printf.sprintf "%s: %s = %d > %d" o.o_label (mono_to_string m)
                  v i.i_limit
            | [ (m, -1) ] ->
                Printf.sprintf "%s: %s = %d < %d" o.o_label (mono_to_string m)
                  (-v) (-i.i_limit)
            | _ -> Printf.sprintf "%s: %d > %d" o.o_label v i.i_limit))
      c

  (** Decide [c] from the block-thread product alone: every obligation
      must be one inequality over the [bx*by] monomial. *)
  let holds_at_threads ~(threads : int) (c : t) : bool =
    List.for_all
      (fun o ->
        match o.o_disj with
        | [ { i_poly = [ ([ Dim Bx; Dim By ], k) ]; i_bound; _ } ] ->
            k * threads <= i_bound
        | _ -> false)
      c
end

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

let lr_const n = { rlo = lp_const n; rhi = lp_const n; rst = 0 }

let lr_add a b =
  {
    rlo = lp_add a.rlo b.rlo;
    rhi = lp_add a.rhi b.rhi;
    rst = Affine.gcd a.rst b.rst;
  }

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
          let g = max 1 (Affine.gcd a.rst c) in
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
    thread-private and occurrence-private. [Squot (id, shared)] is the
    quotient digit [e / c] of an affine [e >= 0] by a constant [c > 0]:
    one variable per distinct [(e, c)], block-shared when [e] is. *)
type svar =
  | Stidx
  | Stidy
  | Sbidx
  | Sbidy
  | Sfree of int  (** free-loop iteration (value delta in ℤ for races) *)
  | Sfrozen of int  (** frozen-loop iteration counter, block-shared *)
  | Squot of int * bool

let svar_shared = function
  | Sbidx | Sbidy | Sfrozen _ -> true
  | Squot (_, shared) -> shared
  | Stidx | Stidy | Sfree _ -> false

(* thread coordinates, block coordinates, loop counters, then quotient
   digits, each kind by id *)
let svar_rank = function
  | Stidx -> 0
  | Stidy -> 1
  | Sbidx -> 2
  | Sbidy -> 3
  | Sfree _ -> 4
  | Sfrozen _ -> 5
  | Squot _ -> 6

let compare_svar a b =
  match (a, b) with
  | Sfree x, Sfree y | Sfrozen x, Sfrozen y | Squot (x, _), Squot (y, _) ->
      Int.compare x y
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
  else if k = 1 then a
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
      kept unreduced for the modular-lane race rule, and read as the
      digit form [f - c*(f / c)] wherever it meets arithmetic;
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

(** A loop frame of the walk, lowered: [fr_value] is the loop variable's
    value for this pass (init + step * counter, plus one step on the
    wrap-around pass); the counter variable's recorded range bounds the
    variable across all iterations (mirroring {!Verify.renv_of_acc}:
    values stay within [init.lo .. limit.hi - 1]). *)
type sframe = {
  fr_value : sval;
  fr_clamp : clamp option;
      (** [value <= hi(limit) - 1], when the body assigns neither the
          loop variable nor any variable of the limit *)
}

(** [cl_form <= cl_poly] ([`Hi]) or [cl_form >= cl_poly] ([`Lo]) for
    every access it is collected for. *)
and clamp = { cl_form : sform; cl_kind : [ `Hi | `Lo ]; cl_poly : lpoly }

type sacc = {
  x : Walk.access;
  x_vals : sval list Lazy.t;  (** the index expressions, lowered once *)
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
  st_sizes : (string * int) list;
  mutable st_violations : violation list;
  mutable st_unknown : string option;  (** first reason the proof gave up *)
  mutable st_next_id : int;
  st_ranges : (int, lrange) Hashtbl.t;  (** loop counter and digit ids *)
  st_quots : (sform * int, svar) Hashtbl.t;  (** [(e, c)] to its digit *)
  st_quot_defs : (int, sform * int) Hashtbl.t;  (** digit id to [(e, c)] *)
  st_frames : sframe array;  (** by {!Walk.frame.fr_id} *)
  st_lets : (int, sval) Hashtbl.t;  (** each let's value, by [l_id] *)
}

let give_up st reason =
  if st.st_unknown = None then st.st_unknown <- Some reason

let fresh_var st : int =
  let id = st.st_next_id in
  st.st_next_id <- id + 1;
  id

(* ------------------------------------------------------------------ *)
(* Lowering expressions to symbolic values                              *)
(* ------------------------------------------------------------------ *)

let bit_range = Some { rlo = lp_zero; rhi = lp_const 1; rst = 1 }

let svar_range (st : sstate) (v : svar) : lrange option =
  let dim d =
    Some { rlo = lp_zero; rhi = lp_sub (lp_dim d) (lp_const 1); rst = 1 }
  in
  match v with
  | Stidx -> dim Bx
  | Stidy -> dim By
  | Sbidx -> dim Gx
  | Sbidy -> dim Gy
  | Sfree id | Sfrozen id | Squot (id, _) -> Hashtbl.find_opt st.st_ranges id

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

(** The quotient [e / c] of an affine [e] that is provably [>= 0], for
    a constant [c > 0], as an affine form: a constant folds, a launch
    polynomial floors, anything else is the digit variable of [(e, c)]
    (allocated on first sight, with range [[lo(e)/c, hi(e)/c]]). For
    [e >= 0] truncating and floor division agree, and so do
    mathematical and truncating remainder. *)
let digit_quot st (e : sform) (c : int) : sform option =
  match Hashtbl.find_opt st.st_quots (e, c) with
  | Some q -> Some (sf_var q)
  | None -> (
      match range_of st (Aff e) with
      | Some r when lp_nonneg r.rlo -> (
          match sf_is_const e with
          | Some p -> Some (sf_const (lp_floor p c))
          | None ->
              let id = fresh_var st in
              let q =
                Squot (id, List.for_all (fun (v, _) -> svar_shared v) e.sterms)
              in
              Hashtbl.replace st.st_ranges id
                { rlo = lp_floor r.rlo c; rhi = lp_floor r.rhi c; rst = 1 };
              Hashtbl.replace st.st_quots (e, c) q;
              Hashtbl.replace st.st_quot_defs id (e, c);
              Some (sf_var q))
      | _ -> None)

(** A lowered value as an exact affine form: [Modv (f, c)] reads as
    [f - c*(f / c)] when [f >= 0] provably. *)
let as_aff st (v : sval) : sform option =
  match v with
  | Aff f -> Some f
  | Modv (f, c) -> (
      match Option.bind (sf_is_const f) lp_is_const with
      | Some n -> Some (sf_int (((n mod c) + c) mod c))
      | None ->
          Option.map (fun q -> sf_sub f (sf_scale c q)) (digit_quot st f c))
  | Rng _ | Opq -> None

(** Lower an integer expression under the walk's bindings and loop
    frames at one program point.
    Mirrors the operator semantics of {!Verify.stage} (mathematical
    mod, truncating div, min/max calls, short-circuit booleans) so
    every value the concrete evaluator can compute is covered. *)
let rec lower st (env : Walk.env) (e : Ast.expr) : sval =
  match e with
  | Int_lit n -> Aff (sf_int n)
  | Float_lit _ -> Opq
  | Builtin b -> (
      match b with
      | Tidx -> Aff (sf_var Stidx)
      | Tidy -> Aff (sf_var Stidy)
      | Bidx -> Aff (sf_var Sbidx)
      | Bidy -> Aff (sf_var Sbidy)
      | Bdimx -> Aff (sf_const (lp_dim Bx))
      | Bdimy -> Aff (sf_const (lp_dim By))
      | Gdimx -> Aff (sf_const (lp_dim Gx))
      | Gdimy -> Aff (sf_const (lp_dim Gy))
      | Idx -> Aff (sf_add (sf_var ~coeff:(lp_dim Bx) Sbidx) (sf_var Stidx))
      | Idy -> Aff (sf_add (sf_var ~coeff:(lp_dim By) Sbidy) (sf_var Stidy)))
  | Var v -> (
      match Walk.find env v with
      | Some (Let l) -> (
          (* each let once, on first use *)
          match Hashtbl.find_opt st.st_lets l.l_id with
          | Some v -> v
          | None ->
              let v = lower st l.l_env l.l_expr in
              Hashtbl.replace st.st_lets l.l_id v;
              v)
      | Some (Loop d) ->
          st.st_frames.((Walk.frame_at env.frames d).fr_id).fr_value
      | Some Unknown -> Opq
      | Some Carried ->
          (* a value the program computed on an earlier trip but the walk
             does not know: unbounded, not [Opq], so an access through it
             makes the verdict unknown instead of being skipped as one the
             concrete checks cannot see *)
          Rng None
      | None -> (
          match List.assoc_opt v st.st_sizes with
          | Some n -> Aff (sf_int n)
          | None -> Opq))
  | Unop (Neg, a) -> (
      match lower st env a with
      | Opq -> Opq
      | v -> (
          match as_aff st v with
          | Some f -> Aff (sf_scale (-1) f)
          | None -> (
              match range_of st v with
              | Some r -> Rng (Some (lr_neg r))
              | None -> Rng None)))
  | Unop (Not, a) -> (
      match lower st env a with Opq -> Opq | _ -> Rng bit_range)
  | Binop (((Add | Sub) as op), a, b) -> (
      match (lower st env a, lower st env b) with
      | Opq, _ | _, Opq -> Opq
      | va, vb -> (
          let sum, rsum =
            if op = Add then (sf_add, lr_add) else (sf_sub, lr_sub)
          in
          match (as_aff st va, as_aff st vb) with
          | Some fa, Some fb -> Aff (sum fa fb)
          | _ -> (
              match (range_of st va, range_of st vb) with
              | Some ra, Some rb -> Rng (Some (rsum ra rb))
              | _ -> Rng None)))
  | Binop (Mul, a, b) -> (
      let va = lower st env a and vb = lower st env b in
      match (va, vb) with
      | Opq, _ | _, Opq -> Opq
      | _ -> (
          let fa = as_aff st va and fb = as_aff st vb in
          let const_poly f = Option.bind f sf_is_const in
          match (const_poly fa, const_poly fb, fa, fb) with
          | Some p, _, _, Some g -> Aff (sf_scale_poly p g)
          | _, Some p, Some g, _ -> Aff (sf_scale_poly p g)
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
      match (lower st env a, lower st env b) with
      | Opq, _ | _, Opq -> Opq
      | va, vb -> (
          match const_of vb with
          | Some c when c > 0 -> (
              match Option.bind (as_aff st va) (fun f -> digit_quot st f c) with
              | Some q -> Aff q
              | None -> (
                  match range_of st va with
                  | Some r -> Rng (lr_div r c)
                  | None -> Rng None))
          | _ -> Rng None))
  | Binop (Mod, a, b) -> (
      match (lower st env a, lower st env b) with
      | Opq, _ | _, Opq -> Opq
      | va, vb -> (
          match const_of vb with
          | Some c when c > 0 -> (
              match as_aff st va with
              | Some f -> Modv (f, c)
              | None -> (
                  match range_of st va with
                  | Some r -> Rng (Some (lr_mod r c))
                  | None ->
                      Rng
                        (Some
                           { rlo = lp_zero; rhi = lp_const (c - 1); rst = 1 })))
          | _ -> Rng None))
  | Binop ((Lt | Le | Gt | Ge | Eq | Ne), a, b) -> (
      match (lower st env a, lower st env b) with
      | Opq, _ | _, Opq -> Opq
      | _ -> Rng bit_range)
  | Binop ((And | Or), _, _) ->
      (* short-circuit: the concrete evaluator may succeed even when
         one side is opaque, so never propagate Opq *)
      Rng bit_range
  | Call ("min", [ a; b ]) -> (
      match (lower st env a, lower st env b) with
      | Opq, _ | _, Opq -> Opq
      | va, vb -> min_range st va vb)
  | Call ("max", [ a; b ]) -> (
      match (lower st env a, lower st env b) with
      | Opq, _ | _, Opq -> Opq
      | va, vb -> max_range st va vb)
  | Select (_, a, b) -> (
      (* condition first, then exactly one branch: an opaque branch may
         never be reached, so stay merely unknown rather than Opq *)
      match
        ( range_of st (lower st env a),
          range_of st (lower st env b) )
      with
      | Some ra, Some rb -> Rng (lr_hull ra rb)
      | _ -> Rng None)
  | Index _ | Vload _ | Field _ | Call _ -> Opq

and min_range st va vb =
  match (range_of st va, range_of st vb) with
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

and max_range st va vb =
  match (range_of st va, range_of st vb) with
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
(* Loop frames of the walk, lowered in creation order                  *)
(* ------------------------------------------------------------------ *)

(** Lower one loop frame of the walk. The loop variable is
    [init + step * counter] when init lowers to an affine form and the
    step to a positive constant; the counter variable is block-shared
    for frozen loops and iteration-private otherwise. Its recorded
    range over-approximates the trip count (sound for proving: the
    concrete walk never runs an iteration outside it). When the body
    assigns neither the loop variable nor a variable of the limit, the
    frame also records the loop condition as a clamp: every iteration
    starts with [value <= hi(limit) - 1]. Frames are lowered in the
    walk's creation order, so fresh ids number in walk order: a loop's
    counter is allocated at its first pass and reused by its wrap
    pass. *)
let lower_frame st counters (fr : Walk.frame) : sframe =
  let counter_id =
    if fr.fr_offset = 0 then begin
      let id = fresh_var st in
      Hashtbl.replace counters fr.fr_loop id;
      id
    end
    else Hashtbl.find counters fr.fr_loop
  in
  let vi = lower st fr.fr_entry fr.fr_init in
  let vs = lower st fr.fr_trip fr.fr_step in
  let vl = lower st fr.fr_trip fr.fr_limit in
  let svar = if fr.fr_frozen then Sfrozen counter_id else Sfree counter_id in
  match (vi, const_of vs) with
  | Aff fi, Some c when c > 0 ->
      (match (range_of st vi, range_of st vl) with
      | Some ri, Some rl ->
          (* counter <= (lim_hi - 1 - init_lo) / c <= lim_hi - 1 - init_lo *)
          let hi = lp_floor (lp_sub (lp_sub rl.rhi ri.rlo) (lp_const 1)) c in
          Hashtbl.replace st.st_ranges counter_id
            { rlo = lp_zero; rhi = hi; rst = 1 }
      | _ -> ());
      let value =
        sf_add fi
          (sf_add (sf_var ~coeff:(lp_const c) svar) (sf_int (fr.fr_offset * c)))
      in
      let clamp =
        not
          (List.exists
             (fun v -> v = fr.fr_var || Rewrite.expr_uses_var v fr.fr_limit)
             fr.fr_assigned)
      in
      let fr_clamp =
        match range_of st vl with
        | Some rl when clamp ->
            Some
              {
                cl_form = value;
                cl_kind = `Hi;
                cl_poly = lp_sub rl.rhi (lp_const 1);
              }
        | _ -> None
      in
      { fr_value = Aff value; fr_clamp }
  | _ ->
      let range =
        match (range_of st vi, range_of st vl) with
        | Some ri, Some rl ->
            Some { rlo = ri.rlo; rhi = lp_sub rl.rhi (lp_const 1); rst = 1 }
        | _ -> None
      in
      Option.iter (Hashtbl.replace st.st_ranges counter_id) range;
      { fr_value = Aff (sf_var svar); fr_clamp = None }

let violate st ~v_when ~rule ~path message =
  st.st_violations <-
    { v_when; v_rule = rule; v_path = path; v_message = message }
    :: st.st_violations

(* ------------------------------------------------------------------ *)
(* Race proving: two-symbolic-thread disequality                        *)
(* ------------------------------------------------------------------ *)

let mono_bx = [ Dim Bx ]
let mono_by = [ Dim By ]
let mono_threads = [ Dim Bx; Dim By ]

let lp_provably_nonzero (p : lpoly) : bool =
  lp_nonneg (lp_sub p (lp_const 1)) || lp_nonneg (lp_sub (lp_const (-1)) p)

(** Flattened element offset of one access as a symbolic form. [Oskip]
    marks offsets the concrete evaluator can never compute (the
    concrete race and witness checks skip those instances, so nothing
    needs proving). *)
type off =
  | Oaff of sform
  | Omod of sform * int * sform option
      (** [f mod c], and its digit form when [f >= 0] provably *)
  | Ovec of int * sform
  | Oskip
  | Ofail of string

let offset_form st (lay : Layout.t) (acc : sacc) : off =
  match acc.x.a_kind with
  | `Sc idxs ->
      let strides = Layout.strides lay in
      if List.length idxs <> List.length strides then Oskip
      else
        let vs = Lazy.force acc.x_vals in
        if List.exists (fun v -> v = Opq) vs then Oskip
        else (
          match (vs, strides) with
          | [ (Modv (f, c) as v) ], [ 1 ] -> Omod (f, c, as_aff st v)
          | _ -> (
              let rec go f vs ss =
                match (vs, ss) with
                | [], [] -> Some f
                | v :: vs', s :: ss' -> (
                    match as_aff st v with
                    | Some g -> go (sf_add f (sf_scale s g)) vs' ss'
                    | None -> None)
                | _ -> None
              in
              match
                match (vs, strides) with
                | [ v ], [ 1 ] -> as_aff st v
                | _ -> go (sf_int 0) vs strides
              with
              | Some f -> Oaff f
              | None -> Ofail "non-affine index"))
  | `Vec (w, _) -> (
      match Lazy.force acc.x_vals with
      | [] | _ :: _ :: _ | [ Opq ] -> Oskip
      | [ v ] -> (
          match as_aff st v with
          | Some f -> Ovec (w, f)
          | None -> Ofail "non-affine vector index"))

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
          | Sbidx | Sbidy | Sfrozen _ | Squot (_, true) -> (
              let d = lp_sub (coeff v fa) (coeff v fb) in
              if d = [] then zs
              else
                match lp_is_const d with
                | Some c -> c :: zs
                | None -> raise (Bad "block-shared coefficient mismatch"))
          | Squot (_, false) -> raise (Bad "thread-private digit")
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
      && cy_a = lp_mul cx_a (lp_dim Bx)
    then Ok { d_lane = Some cx_a; d_dx = 0; d_dy = 0; d_zs = zs; d_dk = dk }
    else if cx_a <> cx_b then Error "thread-x stride mismatch"
    else if cy_a <> cy_b then Error "thread-y stride mismatch"
    else
      match (lp_is_const cx_a, lp_is_const cy_a) with
      | Some dx, Some dy ->
          Ok { d_lane = None; d_dx = dx; d_dy = dy; d_zs = zs; d_dk = dk }
      | _ -> Error "non-constant thread stride"
  with Bad m -> Error m

(** Range clamps implied by the access's guards. Sound regardless of
    concrete evaluability: the out-of-bounds {e error} requires a
    witness state in which every guard evaluates true, and these are
    consequences of the guards' truth. *)
let guard_clamps st (acc : sacc) : clamp list =
  List.concat_map
    (fun (g : Walk.guard) ->
      let lower_g = lower st g.g_env in
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
      of_cond true g.g_cond)
    acc.x.a_guards

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
let dim_atom ~(caps : int option * int option) (dim : mono)
    (k : int) : Constraint.t =
  let cx, cy = caps in
  let capped u = match u with Some u -> u < k | None -> false in
  if (dim = mono_bx && capped cx) || (dim = mono_by && capped cy) then []
  else Constraint.mono_le dim k

(** Prove [c*u + dk <> 0] for [u] in [[-(dim-1), dim-1]], [u <> 0]. *)
let one_d ~caps ~(dim : mono) (c : int) (dk : lpoly) :
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
    | None ->
        (* |dk| must dominate |c|*(dim-1): [bound - dk <= 0] or
           [bound + dk <= 0], decided exactly at the launch *)
        let bound =
          lp_add (lp_scale (abs c) (lp_sub [ (dim, 1) ] (lp_const 1))) (lp_const 1)
        in
        let above = lp_sub dk bound and below = lp_add dk bound in
        if lp_nonneg above || lp_nonneg (lp_scale (-1) below) then `Ok []
        else
          `Ok
            (Constraint.any ~label:""
               [
                 Constraint.ineq (lp_scale (-1) above) 0;
                 Constraint.ineq below 0;
               ])

let rec prove_delta ~caps ~pinned_tx ~pinned_ty (d : delta) :
    [ `Ok of Constraint.t | `Collide | `Fail of string ] =
  let combine r1 r2 =
    match (r1, r2) with
    | `Ok c1, `Ok c2 -> `Ok (c1 @ c2)
    | (`Fail _ as f), _ | _, (`Fail _ as f) -> f
  in
  let g = List.fold_left Affine.gcd 0 d.d_zs in
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
                      `Ok
                        (Constraint.mono_le mono_threads ((budget / abs c) + 1))
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
                if t0 = 0 then `Ok []
                else `Ok (Constraint.mono_le mono_threads t0)
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
                  if k mod Affine.gcd dx dy <> 0 then `Ok []
                  else
                    (* dominance: one stride swamps the other axis *)
                    let dom ~dim_small small big =
                      let num = abs big - abs k - 1 in
                      if num < 0 then None
                      else Some (dim_small, (num / abs small) + 1)
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
                    | Some ((m1, k1), c1), Some ((m2, k2), c2) ->
                        if k2 > k1 then `Ok (dim_atom ~caps m2 k2 @ c2)
                        else `Ok (dim_atom ~caps m1 k1 @ c1)
                    | Some ((m, k), c), None | None, Some ((m, k), c) ->
                        `Ok (dim_atom ~caps m k @ c)
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
    (fun (g : Walk.guard) ->
      match g.g_cond with
      | Ast.Binop (Eq, l, r) -> (
          match
            ( lower st g.g_env l,
              lower st g.g_env r )
          with
          | Aff fl, Aff fr -> (
              let f = sf_sub fl fr in
              let nz c =
                match lp_is_const c with
                | Some k -> k <> 0
                | None -> lp_provably_nonzero c
              in
              match List.filter (fun (v, _) -> not (svar_shared v)) f.sterms with
              | [ (Stidx, c) ] when nz c -> Some (g.g_cond, `Tx)
              | [ (Stidy, c) ] when nz c -> Some (g.g_cond, `Ty)
              | _ -> None)
          | _ -> None)
      | _ -> None)
    acc.x.a_guards

let thread_coord = function Stidx | Stidy -> true | _ -> false
let private_quot = function Squot (_, false) -> true | _ -> false

(** An offset around its one thread-private digit [q = e / c]:
    [f = alpha*e + beta*q + rest], where [rest] holds no thread
    coordinate and no other private digit. Writing [e = c*q + r] with
    [0 <= r < c], [f = (alpha*c + beta)*q + alpha*r + rest]. *)
type digit = {
  dg_e : sform;
  dg_c : int;
  dg_alpha : int;
  dg_beta : int;
  dg_rest : sform;
}

let digit_of st (f : sform) : (digit option, string) Stdlib.result =
  match List.filter (fun (v, _) -> private_quot v) f.sterms with
  | [] -> Ok None
  | [ ((Squot (id, _) as q), cq) ] -> (
      let e, c = Hashtbl.find st.st_quot_defs id in
      let coeff v = Option.value ~default:[] (List.assoc_opt v f.sterms) in
      (* alpha scales e's thread coordinates onto f's *)
      let alpha =
        List.find_map
          (fun (v, ce) ->
            if not (thread_coord v) then None
            else
              match (lp_is_const ce, lp_is_const (coeff v)) with
              | Some k, Some kf when k <> 0 && kf mod k = 0 -> Some (kf / k)
              | _ -> None)
          e.sterms
      in
      match (alpha, lp_is_const cq) with
      | Some alpha, Some beta ->
          let rest =
            sf_sub (sf_sub f (sf_scale alpha e)) (sf_scale beta (sf_var q))
          in
          if
            List.exists
              (fun (v, _) -> thread_coord v || private_quot v)
              rest.sterms
          then Error "digit index with extra thread terms"
          else
            Ok
              (Some
                 {
                   dg_e = e;
                   dg_c = c;
                   dg_alpha = alpha;
                   dg_beta = beta;
                   dg_rest = rest;
                 })
      | _ -> Error "digit of a non-thread value")
  | _ -> Error "several thread-private digits"

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
  sx_digit : (digit option, string) Stdlib.result Lazy.t;
      (** {!digit_of} the offset's affine form *)
}

let stage st lay (acc : sacc) : staged =
  let clamps = lazy (guard_clamps st acc) in
  let off = lazy (offset_form st lay acc) in
  {
    sx = acc;
    sx_off = off;
    sx_digit =
      lazy
        (match Lazy.force off with
        | Oaff f | Ovec (_, f) | Omod (_, _, Some f) -> digit_of st f
        | Omod (_, _, None) | Oskip | Ofail _ -> Ok None);
    sx_pins = lazy (pinning_conds st acc);
    sx_cap_x = lazy (cap_of (Lazy.force clamps) Stidx);
    sx_cap_y = lazy (cap_of (Lazy.force clamps) Stidy);
  }

let race_rule space =
  if space = `Shared then Verify.rule_race_shared else Verify.rule_race_global

(** [rest_a - rest_b] as loop and shared terms plus a constant: the gcd
    [g] of their coefficients, a bound on their magnitude ([None]:
    unbounded) and the constant. Block-shared terms cancel on equal
    coefficients; free-loop counters with constant ranges are bounded. *)
let rest_delta st (ra : sform) (rb : sform) :
    (int * int option * int, string) Stdlib.result =
  let coeff v g = Option.value ~default:[] (List.assoc_opt v g.sterms) in
  let vars =
    List.sort_uniq compare_svar
      (List.map fst ra.sterms @ List.map fst rb.sterms)
  in
  let const p =
    match lp_is_const p with
    | Some k -> k
    | None -> raise (Bad "non-constant loop stride")
  in
  try
    let g, mag =
      List.fold_left
        (fun (g, mag) v ->
          let ca = coeff v ra and cb = coeff v rb in
          match v with
          | Sfree _ ->
              let ka = const ca and kb = const cb in
              let span =
                match svar_range st v with
                | Some r -> (
                    match (lp_is_const r.rlo, lp_is_const r.rhi) with
                    | Some lo, Some hi -> Some (lo, hi)
                    | _ -> None)
                | None -> None
              in
              let mag =
                match (span, mag) with
                | Some (lo, hi), Some m ->
                    if ka = kb then Some (m + (abs ka * (hi - lo)))
                    else Some (m + ((abs ka + abs kb) * max (abs lo) (abs hi)))
                | _ -> None
              in
              (Affine.gcd (Affine.gcd g ka) kb, mag)
          | _ ->
              let d = lp_sub ca cb in
              if d = [] then (g, mag) else (Affine.gcd g (const d), None))
        (0, Some 0) vars
    in
    match lp_is_const (lp_sub ra.sc rb.sc) with
    | Some k -> Ok (g, mag, k)
    | None -> Error "non-constant digit offset"
  with Bad m -> Error m

(* at most this many dividend differences are proved per pair, and at
   most this many (quotient, remainder) cells are scanned for them *)
let max_digit_cands = 64
let max_digit_scan = 100_000

(** The dividend differences [c*dq + dr] at which two offsets over
    digits of one shape can collide: the solutions of
    [aq*dq + alpha*dr + loops + dk = 0] with [|dr| <= c - 1], where the
    loop terms are multiples of [g] (none when [g = 0]) of magnitude at
    most [mag] ([None]: unbounded). *)
let digit_collisions ~c ~alpha ~aq ~g ~mag ~dk :
    (int list, string) Stdlib.result =
  let w = c - 1 in
  (* can loop terms make up [x]? *)
  let absorbs x =
    if g = 0 then x = 0
    else x mod g = 0 && match mag with Some m -> abs x <= m | None -> true
  in
  let rec exists_dr p dr = dr <= w && (p dr || exists_dr p (dr + 1)) in
  if aq = 0 then
    (* the quotient difference is free *)
    if exists_dr (fun dr -> absorbs ((alpha * dr) + dk)) (-w) then
      Error "quotient digit unconstrained"
    else Ok []
  else
    match mag with
    | None ->
        (* unbounded loop terms: only the congruence modulo gcd(aq, g)
           can refute a remainder difference *)
        let h = Affine.gcd aq g in
        if exists_dr (fun dr -> ((alpha * dr) + dk) mod h = 0) (-w) then
          Error "unbounded loop delta across digits"
        else Ok []
    | Some m ->
        let qmax = ((abs alpha * w) + m + abs dk) / abs aq in
        (* remainders scanned per quotient: one when [alpha*dr] alone
           must cancel, the whole window otherwise *)
        let per_dq = if alpha <> 0 && g = 0 then 1 else (2 * w) + 1 in
        if ((2 * qmax) + 1) * per_dq > max_digit_scan then
          Error "digit window too wide"
        else
          let cands = ref [] in
          let add dq dr =
            let d = (c * dq) + dr in
            if not (List.mem d !cands) then cands := d :: !cands
          in
          for dq = -qmax to qmax do
            let base = (aq * dq) + dk in
            if alpha = 0 then begin
              if absorbs base then
                for dr = -w to w do
                  add dq dr
                done
            end
            else if g = 0 then begin
              if base mod alpha = 0 && abs (base / alpha) <= w then
                add dq (-(base / alpha))
            end
            else
              (* [|base + alpha*dr| <= m] bounds the scan *)
              let lo = ((-m - base) / abs alpha) - 1
              and hi = ((m - base) / abs alpha) + 1 in
              let lo, hi = if alpha > 0 then (lo, hi) else (-hi, -lo) in
              for dr = max (-w) lo to min w hi do
                if absorbs (base + (alpha * dr)) then add dq dr
              done
          done;
          if List.compare_length_with !cands max_digit_cands > 0 then
            Error "too many digit collisions"
          else Ok (List.sort compare !cands)

(** Two offsets over digits of the same shape collide only at the
    dividend differences {!digit_collisions} finds; the pair is
    race-free where the two threads' dividends never differ by any of
    those, which is the ordinary thread-delta proof on [e]'s form.
    Mostly the only difference is 0: distinct threads must have
    distinct dividends. The result is a function of the members'
    constant shifts (see {!pair_prover}). *)
let prove_digits st ~caps ~pinned_tx ~pinned_ty (da : digit) (db : digit) :
    int * int -> [ `Ok of Constraint.t | `Fail of string ] =
  if
    da.dg_c <> db.dg_c || da.dg_alpha <> db.dg_alpha
    || da.dg_beta <> db.dg_beta
  then fun _ -> `Fail "mismatched digit maps"
  else
    match (rest_delta st da.dg_rest db.dg_rest, pair_delta da.dg_e db.dg_e) with
    | Error m, _ | _, Error m -> fun _ -> `Fail m
    | Ok (g, mag, dk0), Ok ed -> (
        let c = da.dg_c and alpha = da.dg_alpha in
        let aq = (alpha * c) + da.dg_beta in
        fun (sf, se) ->
          let dk = dk0 + sf - (alpha * se) in
          match digit_collisions ~c ~alpha ~aq ~g ~mag ~dk with
          | Error m -> `Fail m
          | Ok ds ->
              List.fold_left
                (fun acc d ->
                  match acc with
                  | `Fail _ -> acc
                  | `Ok cs -> (
                      match
                        prove_delta ~caps ~pinned_tx ~pinned_ty
                          { ed with d_dk = lp_add ed.d_dk (lp_const (se - d)) }
                      with
                      | `Ok c -> `Ok (c @ cs)
                      | `Collide -> `Fail "digits collide"
                      | `Fail m -> `Fail m))
                (`Ok []) ds)

let aff_prover st (sa : staged) (sb : staged) (fa : sform) (fb : sform) :
    int * int -> [ `Ok of Constraint.t | `Fail of string ] =
  let a = sa.sx and b = sb.sx in
  let pins_a = Lazy.force sa.sx_pins and pins_b = Lazy.force sb.sx_pins in
  let pinned w =
    List.exists
      (fun (c, w') ->
        w' = w && List.exists (fun (c', w'') -> w'' = w && c' = c) pins_b)
      pins_a
  in
  (* a coordinate delta is capped when both sides cap it *)
  let cap ca cb =
    match (Lazy.force ca, Lazy.force cb) with
    | Some ua, Some ub -> Some (max ua ub)
    | _ -> None
  in
  let caps = (cap sa.sx_cap_x sb.sx_cap_x, cap sa.sx_cap_y sb.sx_cap_y) in
  let pinned_tx = pinned `Tx and pinned_ty = pinned `Ty in
  match (Lazy.force sa.sx_digit, Lazy.force sb.sx_digit) with
  | Error m, _ | _, Error m -> fun _ -> `Fail m
  | Ok (Some da), Ok (Some db) ->
      prove_digits st ~caps ~pinned_tx ~pinned_ty da db
  | Ok (Some _), Ok None | Ok None, Ok (Some _) ->
      fun _ -> `Fail "digit index paired with affine index"
  | Ok None, Ok None -> (
      match pair_delta fa fb with
      | Error m -> fun _ -> `Fail m
      | Ok d0 -> fun (sf, _) -> (
          let d =
            if sf = 0 then d0
            else { d0 with d_dk = lp_add d0.d_dk (lp_const sf) }
          in
          match prove_delta ~caps ~pinned_tx ~pinned_ty d with
          | `Ok c -> `Ok c
          | `Fail m -> `Fail m
          | `Collide ->
              (* every pair of distinct threads lands on one element *)
              if
                (a.x.a_store || b.x.a_store)
                && a.x.a_guards = [] && b.x.a_guards = []
                && a.x.a_env.frames = [] && b.x.a_env.frames = []
              then
                violate st
                  ~v_when:(Constraint.mono_ge mono_threads 2)
                  ~rule:(race_rule a.x.a_space) ~path:a.x.a_path
                  (Printf.sprintf
                     "every pair of distinct threads touches the same element \
                      of %s in one barrier interval"
                     a.x.a_arr);
              `Ok (Constraint.mono_le mono_threads 1)))

(** The race proof of two staged accesses, as a function of the
    difference [(sf, se)] between the constant shifts of two members of
    their groups (see {!template}): [sf] moves the first offset's
    constant, [se] its digit's dividend. Everything else about the pair
    is computed once. *)
let pair_prover st (sa : staged) (sb : staged) :
    int * int -> [ `Ok of Constraint.t | `Fail of string ] =
  let a = sa.sx and b = sb.sx in
  let digits fa fb =
    match (fa, fb) with
    | Some fa, Some fb -> aff_prover st sa sb fa fb
    | _ -> fun _ -> `Fail "modular index paired with affine index"
  in
  match (Lazy.force sa.sx_off, Lazy.force sb.sx_off) with
  | Oskip, _ | _, Oskip -> fun _ -> `Ok []
  | Ofail m, _ | _, Ofail m -> fun _ -> `Fail m
  | Omod (fa, ca, da), Omod (fb, cb, db) ->
      if
        ca = cb && fa = fb
        && List.filter (fun (v, _) -> not (svar_shared v)) fa.sterms
           = [ (Stidx, lp_const 1); (Stidy, lp_dim Bx) ]
      then fun _ -> begin
        (* [lane mod ca]: injective over the block iff bx*by <= ca *)
        if
          (a.x.a_store || b.x.a_store)
          && ca + 1 <= 512
          && a.x.a_guards = [] && b.x.a_guards = []
          && a.x.a_env.frames = [] && b.x.a_env.frames = []
        then
          violate st
            ~v_when:(Constraint.mono_ge mono_threads (ca + 1))
            ~rule:(race_rule a.x.a_space) ~path:a.x.a_path
            (Printf.sprintf
               "lanes %d apart collide on %s through the mod-%d store \
                whenever bx*by >= %d"
               ca a.x.a_arr ca (ca + 1));
        `Ok (Constraint.mono_le mono_threads ca)
      end
      else digits da db
  | Omod (_, _, da), Oaff fb -> digits da (Some fb)
  | Oaff fa, Omod (_, _, db) -> digits (Some fa) db
  | Omod _, Ovec _ | Ovec _, Omod _ ->
      fun _ -> `Fail "vector paired with scalar access"
  | Ovec (wa, fa), Ovec (wb, fb) ->
      if wa = wb then aff_prover st sa sb fa fb
      else fun _ -> `Fail "mixed vector widths"
  | Ovec _, Oaff _ | Oaff _, Ovec _ ->
      fun _ -> `Fail "vector paired with scalar access"
  | Oaff fa, Oaff fb -> aff_prover st sa sb fa fb

(** An affine form up to constants: [f] with its constant term taken
    out, and, for its one thread-private digit [q = e / c], [q] renamed
    and [e]'s constant taken out; the constants come apart, with [q]'s
    coefficient. [None] with several private digits. *)
let form_template st (f : sform) =
  let strip (g : sform) =
    { g with sc = lp_sub g.sc (lp_const (lp_const_part g.sc)) }
  in
  match List.filter (fun (v, _) -> private_quot v) f.sterms with
  | [] -> Some ((strip f, None), (lp_const_part f.sc, 0), lp_zero)
  | [ ((Squot (id, _) as q), cq) ] ->
      let e, c = Hashtbl.find st.st_quot_defs id in
      let f' =
        {
          (strip f) with
          sterms =
            List.map
              (fun (v, x) -> if v = q then (Squot (-1, false), x) else (v, x))
              f.sterms;
        }
      in
      Some
        ( (f', Some (strip e, c)),
          (lp_const_part f.sc, lp_const_part e.sc),
          cq )
  | _ -> None

(** The grouping key and constants of a staged access: thread merge
    writes one statement out once per replica, and replicas differ only
    in the constant of their offset and of its digit's dividend. A pair
    proof depends on the two accesses' templates and the differences of
    their constants alone, so the race phase proves each difference
    once per pair of templates. *)
let template st (sa : staged) =
  let of_form kind f =
    Option.map (fun (t, consts, _) -> ((kind, t), consts)) (form_template st f)
  in
  match Lazy.force sa.sx_off with
  | Oaff f -> of_form 0 f
  | Ovec (w, f) -> of_form w f
  | Omod _ | Oskip | Ofail _ -> None

(* ------------------------------------------------------------------ *)
(* Bounds proving                                                      *)
(* ------------------------------------------------------------------ *)

(* each index dimension of an access: its expression and lowered
   value, the extent it must stay below, and the scale and offset of the
   elements touched *)
let bound_dims (lay : Layout.t) (acc : sacc) =
  let vs = Lazy.force acc.x_vals in
  match acc.x.a_kind with
  | `Sc idxs ->
      if List.length idxs <> List.length lay.Layout.pitches then []
      else
        List.map2
          (fun (e, v) p -> (e, v, p, 1, 0))
          (List.combine idxs vs) lay.Layout.pitches
  | `Vec (w, ie) -> [ (ie, List.hd vs, Layout.size_elems lay, w, w - 1) ]

(** The range of [e mod c] for [e >= 0]: the residues [0 .. c - 1]
    congruent to [lo(e)] modulo the stride [e] keeps (e.g.
    [(i + 64*bidx) %% 128] with [i] stepping by 16 takes only multiples
    of 16). *)
let rem_range st (e : sform) (c : int) : lrange =
  match range_of st (Aff e) with
  | Some { rlo; rst; _ } when lp_is_const rlo <> None ->
      let lo = Option.get (lp_is_const rlo) and g = Affine.gcd rst c in
      let lo = ((lo mod g) + g) mod g in
      {
        rlo = lp_const lo;
        rhi = lp_const (lo + ((c - 1 - lo) / g * g));
        rst = g;
      }
  | _ -> { rlo = lp_zero; rhi = lp_const (c - 1); rst = 1 }

(** Ranges of [f] with its digits read as remainders: a digit [q] of
    [e / c] whose coefficient is [-alpha*c] contributes
    [alpha*(e - c*q)], which lies in {!rem_range}. One range per such
    digit, and one with all of them when there are several. *)
let remainder_ranges ?refine st (f : sform) : lrange list =
  let rems =
    List.filter_map
      (fun (v, cq) ->
        match (v, lp_is_const cq) with
        | Squot (id, _), Some beta ->
            let e, c = Hashtbl.find st.st_quot_defs id in
            if beta mod c <> 0 then None
            else
              let alpha = -beta / c in
              Some
                ( sf_scale alpha (sf_sub e (sf_scale c (sf_var v))),
                  lr_scale alpha (rem_range st e c) )
        | _ -> None)
      f.sterms
  in
  let read_as subs =
    let rest = List.fold_left (fun g (r, _) -> sf_sub g r) f subs in
    Option.map
      (fun r -> List.fold_left (fun acc (_, rr) -> lr_add acc rr) r subs)
      (range_of ?refine st (Aff rest))
  in
  List.filter_map (fun sub -> read_as [ sub ]) rems
  @
  if List.compare_length_with rems 1 > 0 then Option.to_list (read_as rems)
  else []

(** Prove one access in bounds for every launch, up to one obligation
    per index dimension: the disjunction, over every upper-bound
    candidate, of [candidate <= extent - 1], which {!decide} evaluates
    at the launch. Opaque index dimensions are skipped: the concrete
    witness hunt cannot evaluate them, so no error can arise from
    them. *)
let prove_bounds st layouts (acc : sacc) : (Constraint.t, string) Stdlib.result
    =
  match Layout.find layouts acc.x.a_arr with
  | None -> Ok []
  | Some lay -> (
      let dims = bound_dims lay acc in
      let clamps =
        lazy
          (guard_clamps st acc
          @ List.filter_map
              (fun (fr : Walk.frame) -> st.st_frames.(fr.fr_id).fr_clamp)
              acc.x.a_env.frames)
      in
      (* a clamp whose lowered form is affine in a single symbolic
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
      (* every bound we can derive, as (lower, upper) candidates: the
         value's range, the clamp-refined range, each clamp plus the
         range of what the index adds to the clamped form, and each
         digit read as remainder: with [beta = -alpha*c],
         [f = alpha*(e - c*q) + rest] and [e - c*q] lies in
         [[0, c - 1]] *)
      let candidates v =
        let ranges =
          Option.to_list (range_of st v)
          @
          match Lazy.force refinements with
          | [] -> []
          | refine -> Option.to_list (range_of ~refine st v)
        in
        let ranges, clamped =
          match as_aff st v with
          | None -> (ranges, [])
          | Some f ->
              ( ranges
                @ remainder_ranges ~refine:(Lazy.force refinements) st f,
                List.filter_map
                  (fun cl ->
                    let d = sf_sub f cl.cl_form in
                    let bound =
                      if d.sterms = [] then Some (lp_add cl.cl_poly d.sc)
                      else
                        Option.map
                          (fun r ->
                            lp_add cl.cl_poly
                              (match cl.cl_kind with
                              | `Hi -> r.rhi
                              | `Lo -> r.rlo))
                          (range_of st (Aff d))
                    in
                    Option.map (fun b -> (cl.cl_kind, b)) bound)
                  (Lazy.force clamps) )
        in
        let side kind pick =
          List.map pick ranges
          @ List.filter_map
              (fun (k, b) -> if k = kind then Some b else None)
              clamped
        in
        (side `Lo (fun r -> r.rlo), side `Hi (fun r -> r.rhi))
      in
      let check_dim (e, v, bound, scale, offs) =
        match v with
        | Opq -> Ok []
        | v ->
            let los, his = candidates v in
            if not (List.exists lp_nonneg los) then
              Error
                (Printf.sprintf "cannot prove %s >= 0 in %s"
                   (Pp.expr_to_string e) acc.x.a_arr)
            else
              let his =
                List.map
                  (fun h -> lp_add (lp_scale scale h) (lp_const offs))
                  his
              in
              if his = [] then
                Error
                  (Printf.sprintf "cannot prove %s < %d in %s"
                     (Pp.expr_to_string e) bound acc.x.a_arr)
              else if
                List.exists
                  (fun h -> lp_nonneg (lp_sub (lp_const (bound - 1)) h))
                  his
              then Ok []
              else
                Ok
                  (Constraint.any ~label:(Walk.show acc.x)
                     (List.map (fun h -> Constraint.ineq h (bound - 1)) his))
      in
      List.fold_left
        (fun acc_r d ->
          match (acc_r, check_dim d) with
          | Ok c1, Ok c2 -> Ok (c1 @ c2)
          | (Error _ as e), _ | _, (Error _ as e) -> e)
        (Ok []) dims)

(** The group under [key] of the accesses written at [a]'s place (the
    same guards and loop frames, physically), made by [fresh] on first
    sight. *)
let group_at buckets key (a : sacc) ~(fresh : unit -> 'g) : 'g =
  let groups = Option.value ~default:[] (Hashtbl.find_opt buckets key) in
  match
    List.find_opt
      (fun ((b : sacc), _) ->
        b.x.a_guards == a.x.a_guards && b.x.a_env.frames == a.x.a_env.frames)
      groups
  with
  | Some (_, g) -> g
  | None ->
      let g = fresh () in
      Hashtbl.replace buckets key ((a, g) :: groups);
      g

(** Accesses whose index dimensions are equal up to constants, under
    the same guards and loop frames, have every bound candidate
    monotone in those constants when no private digit has a negative
    coefficient: the least member's lower bounds and the greatest
    member's upper bounds imply everyone's. [None]: the access is
    checked on its own. *)
let bounds_template st layouts (acc : sacc) =
  match Layout.find layouts acc.x.a_arr with
  | None -> None
  | Some lay ->
      let rec go = function
        | [] -> Some ([], [])
        | (_, v, _, _, _) :: rest -> (
            match Option.bind (as_aff st v) (form_template st) with
            | Some (t, (kf, ke), cq) when lp_nonneg cq -> (
                match go rest with
                | Some (ts, ks) -> Some (t :: ts, kf :: ke :: ks)
                | None -> None)
            | _ -> None)
      in
      let kind = match acc.x.a_kind with `Sc _ -> 0 | `Vec (w, _) -> w in
      Option.map
        (fun (ts, ks) -> ((acc.x.a_arr, kind, ts), ks))
        (go (bound_dims lay acc))

(** Which of [accs] the bounds phase must check: per group of
    {!bounds_template}, the member least in every constant and the one
    greatest in every constant when both exist, else every member. *)
let bounds_to_check st layouts (accs : sacc array) : bool array =
  let check = Array.make (Array.length accs) true in
  let buckets = Hashtbl.create 16 in
  Array.iteri
    (fun i a ->
      match bounds_template st layouts a with
      | None -> ()
      | Some (key, ks) ->
          let members = group_at buckets key a ~fresh:(fun () -> ref []) in
          members := (i, ks) :: !members)
    accs;
  Hashtbl.iter
    (fun _ groups ->
      List.iter
        (fun (_, members) ->
          match !members with
          | [] | [ _ ] -> ()
          | (_, k0) :: _ as ms ->
              let fold f =
                List.fold_left (fun acc (_, ks) -> List.map2 f acc ks) k0 ms
              in
              let lo = fold min and hi = fold max in
              let find v = List.find_opt (fun (_, ks) -> ks = v) ms in
              (match (find lo, find hi) with
              | Some (ilo, _), Some (ihi, _) ->
                  List.iter (fun (i, _) -> check.(i) <- i = ilo || i = ihi) ms
              | _ -> ()))
        groups)
    buckets;
  check

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

module Int_tbl = Hashtbl.Make (Int)

(** Call [f k1 k2] once per distinct difference [k1 - k2] of the
    constants of two groups' members ([(constants, index)] arrays);
    within one group ([~same]) once per unordered pair, since a race
    between two accesses is one between them in either order. *)
let each_difference ~same (c1 : ((int * int) * int) array)
    (c2 : ((int * int) * int) array) (f : int * int -> int * int -> unit) =
  let range get c =
    Array.fold_left
      (fun (lo, hi) (k, _) -> (min lo (get k), max hi (get k)))
      (0, 0) c
  in
  let lo1a, hi1a = range fst c1 and lo2a, hi2a = range fst c2 in
  let lo1b, hi1b = range snd c1 and lo2b, hi2b = range snd c2 in
  let fits lo hi = lo > -(1 lsl 28) && hi < 1 lsl 28 in
  let mark =
    if fits lo1a hi1a && fits lo2a hi2a && fits lo1b hi1b && fits lo2b hi2b
    then begin
      (* the differences lie in a box whose sides are below 2^30: each
         one's offset in it is its key *)
      let a0 = lo1a - hi2a and b0 = lo1b - hi2b in
      let wb = hi1b - lo2b - b0 + 1 in
      let seen = Int_tbl.create 64 in
      fun da db ->
        let key = ((da - a0) * wb) + (db - b0) in
        (not (Int_tbl.mem seen key))
        && begin
             Int_tbl.replace seen key ();
             true
           end
    end
    else begin
      let seen = Hashtbl.create 64 in
      fun da db ->
        (not (Hashtbl.mem seen (da, db)))
        && begin
             Hashtbl.replace seen (da, db) ();
             true
           end
    end
  in
  (* first-occurrence order, so constraints and give-up messages come
     out as the pairs are met *)
  Array.iteri
    (fun i (((a, b) as k1), _) ->
      Array.iteri
        (fun j (((c, d) as k2), _) ->
          if ((not same) || i <= j) && mark (a - c) (b - d) then f k1 k2)
        c2)
    c1

let check_exn ?walk (k : Ast.kernel) : result =
  let walk = match walk with Some w -> w | None -> Walk.run k in
  let st =
    {
      st_sizes = k.k_sizes;
      st_violations = [];
      st_unknown = None;
      st_next_id = 0;
      st_ranges = Hashtbl.create 64;
      st_quots = Hashtbl.create 64;
      st_quot_defs = Hashtbl.create 64;
      st_frames =
        Array.make
          (List.length walk.frames)
          { fr_value = Opq; fr_clamp = None };
      st_lets = Hashtbl.create 64;
    }
  in
  let counters = Hashtbl.create 8 in
  List.iter
    (fun (fr : Walk.frame) ->
      st.st_frames.(fr.fr_id) <- lower_frame st counters fr)
    walk.frames;
  List.iter
    (fun (b : Walk.barrier) ->
      if match b.b_kind with `Sync -> b.b_guarded | `Global_sync -> not b.b_top
      then
        violate st ~v_when:Constraint.tt ~rule:Verify.rule_barrier_divergence
          ~path:b.b_path
          (Verify.barrier_message b.b_kind)
      else if b.b_loops <> [] then
        give_up st
          "barrier under a lane-dependent loop whose uniform-trip escape is \
           launch-dependent")
    walk.barriers;
  let layouts = Layout.of_kernel k in
  let accs =
    List.map
      (fun (x : Walk.access) ->
        {
          x;
          x_vals = lazy (List.map (lower st x.a_env) (Walk.indices x.a_kind));
        })
      walk.accesses
  in
  let region = ref Constraint.tt in
  let require c = region := List.rev_append c !region in
  let unknown () = st.st_unknown <> None in
  (* bounds first, once per distinct access, binding and guard
     ({!Reads}; and only the extreme members of a replica group,
     {!bounds_to_check}): the phase is linear and its failures are common
     on transformed kernels, so bailing here skips the quadratic race
     phase when the verdict is already doomed to Unknown (the concrete
     fallback re-checks everything anyway) *)
  let distinct =
    let first = Array.make (List.length walk.accesses) false in
    List.iter
      (fun (x : Walk.access) -> first.(x.a_id) <- true)
      (Lazy.force walk.distinct);
    List.filter (fun a -> first.(a.x.a_id)) accs |> Array.of_list
  in
  let check = bounds_to_check st layouts distinct in
  Array.iteri
    (fun i a ->
      if check.(i) && not (unknown ()) then
        match prove_bounds st layouts a with
        | Ok c -> require c
        | Error m -> give_up st m)
    distinct;
  (* races, interval by interval, array by array *)
  if not (unknown ()) then begin
    let intervals = Hashtbl.create 8 in
    List.iter
      (fun a ->
        let i = a.x.a_interval in
        Hashtbl.replace intervals i
          (a :: (try Hashtbl.find intervals i with Not_found -> [])))
      accs;
    Hashtbl.iter
      (fun _ group ->
        let by_arr = Hashtbl.create 8 in
        List.iter
          (fun a ->
            Hashtbl.replace by_arr a.x.a_arr
              (a :: (try Hashtbl.find by_arr a.x.a_arr with Not_found -> [])))
          (List.rev group);
        Hashtbl.iter
          (fun arr accs_arr ->
            let accs_arr = List.rev accs_arr in
            if
              (not (unknown ()))
              && List.exists (fun a -> a.x.a_store) accs_arr
            then
              match Layout.find layouts arr with
              | None -> ()
              | Some lay ->
                  let arr_accs =
                    Array.of_list (List.map (stage st lay) accs_arr)
                  in
                  (* group by template: same store flag, path, guards
                     and frames, offsets equal up to constants; each
                     group keeps one access per distinct constant *)
                  let buckets = Hashtbl.create 16 and groups = ref [] in
                  let new_group (a : sacc) () =
                    let g = (a.x.a_store, ref []) in
                    groups := g :: !groups;
                    g
                  in
                  Array.iteri
                    (fun i sa ->
                      let a = sa.sx in
                      let (_, cs), consts =
                        match template st sa with
                        | None -> (new_group a (), (0, 0))
                        | Some (tpl, consts) ->
                            ( group_at buckets (a.x.a_store, a.x.a_path, tpl) a
                                ~fresh:(new_group a),
                              consts )
                      in
                      if not (List.mem_assoc consts !cs) then
                        cs := (consts, i) :: !cs)
                    arr_accs;
                  let gs =
                    Array.of_list
                      (List.rev_map
                         (fun (store, cs) ->
                           (store, Array.of_list (List.rev !cs)))
                         !groups)
                  in
                  Array.iteri
                    (fun gi (store_i, ci) ->
                      for gj = gi to Array.length gs - 1 do
                        let store_j, cj = gs.(gj) in
                        if (store_i || store_j) && not (unknown ()) then begin
                          let k1, r1 = ci.(0) and k2, r2 = cj.(0) in
                          let sa = arr_accs.(r1) in
                          let prove = pair_prover st sa arr_accs.(r2) in
                          each_difference ~same:(gi = gj) ci cj
                            (fun (kf1, ke1) (kf2, ke2) ->
                              if not (unknown ()) then (
                                let sf = kf1 - fst k1 - (kf2 - fst k2)
                                and se = ke1 - snd k1 - (ke2 - snd k2) in
                                match prove (sf, se) with
                                | `Ok c ->
                                    require
                                      (Constraint.relabel ("race on " ^ arr) c)
                                | `Fail m ->
                                    give_up st
                                      (Printf.sprintf "%s: %s (%s)" arr m
                                         (match sa.sx.x.a_path with
                                         | "" -> "top level"
                                         | p -> p))))
                        end
                      done)
                    gs)
          by_arr)
      intervals
  end;
  let verdict =
    match st.st_unknown with
    | Some r -> Unknown r
    | None -> (
        match Constraint.normalize !region with
        | [] -> Proved
        | c -> Proved_when c)
  in
  { res_kernel = k.k_name; verdict; violations = List.rev st.st_violations }

let check ?walk (k : Ast.kernel) : result =
  try check_exn ?walk k
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
    | Proved_when c -> (
        match Constraint.miss launch c with
        | None -> `Clean
        | Some why -> `Unknown ("launch outside the proved region: " ^ why))
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

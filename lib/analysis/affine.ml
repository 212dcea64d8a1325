(** Linear (affine) forms over thread-position variables and loop iterators.

    This is the machinery behind the paper's Section 3.2 index analysis:
    every array index is lowered, when possible, to

    {v c0 + c1*tidx + c2*tidy + c3*bidx + c4*bidy + sum ci*iter_i + sum cj*param_j v}

    The absolute ids [idx]/[idy] are canonicalized away using the current
    launch configuration ([idx = bidx*block_x + tidx]), and each in-scope
    loop variable [l] is replaced by [init(l) + Iter l * step(l)] where
    [Iter l] counts iterations — this matches the paper's rule of checking
    the first 16 iterations of a loop index, because alignment behaviour
    repeats with period 16 in the iteration count. *)

open Gpcc_ast

type var =
  | Tidx
  | Tidy
  | Bidx
  | Bidy
  | Iter of string  (** iteration counter of the named loop *)
  | Param of string  (** unbound scalar [int] parameter *)
  | Mod_of of var * int
      (** [v mod c] — introduced by sub-block privatization ([tidx %% 16]);
          opaque but lets the rest of the form stay analyzable *)
  | Div_of of var * int  (** [v / c], same purpose *)
[@@deriving show { with_path = false }, eq, ord]

(** Does the variable carry the half-warp lane (directly or through a
    mod/div of it)? *)
let rec lane_derived = function
  | Tidx -> true
  | Mod_of (v, _) | Div_of (v, _) -> lane_derived v
  | Tidy | Bidx | Bidy | Iter _ | Param _ -> false

type t = {
  const : int;
  terms : (var * int) list;  (** sorted by [compare_var], coefficients <> 0 *)
}
[@@deriving show { with_path = false }, eq]

let const c = { const = c; terms = [] }
let zero = const 0
let of_var v = { const = 0; terms = [ (v, 1) ] }

let normalize terms =
  terms
  |> List.filter (fun (_, c) -> c <> 0)
  |> List.sort (fun (a, _) (b, _) -> compare_var a b)

let add a b =
  let rec merge xs ys =
    match (xs, ys) with
    | [], l | l, [] -> l
    | (vx, cx) :: xs', (vy, cy) :: ys' ->
        let c = compare_var vx vy in
        if c = 0 then
          if cx + cy = 0 then merge xs' ys' else (vx, cx + cy) :: merge xs' ys'
        else if c < 0 then (vx, cx) :: merge xs' ys
        else (vy, cy) :: merge xs ys'
  in
  { const = a.const + b.const; terms = merge a.terms b.terms }

let scale k a =
  if k = 0 then zero
  else { const = k * a.const; terms = List.map (fun (v, c) -> (v, k * c)) a.terms }

let sub a b = add a (scale (-1) b)

let coeff v a =
  match List.assoc_opt v a.terms with Some c -> c | None -> 0

(** Drop the term for [v] (i.e. set its coefficient to zero). *)
let drop v a = { a with terms = List.filter (fun (v', _) -> not (equal_var v v')) a.terms }

let vars a = List.map fst a.terms
let is_const a = a.terms = []

(** Exact division by a positive constant, when every coefficient and the
    constant are divisible. *)
let div_exact a k =
  if k = 0 then None
  else if
    a.const mod k = 0 && List.for_all (fun (_, c) -> c mod k = 0) a.terms
  then
    Some
      { const = a.const / k; terms = normalize (List.map (fun (v, c) -> (v, c / k)) a.terms) }
  else None

(** [a mod k] when it is a compile-time constant (every coefficient
    divisible by [k]); uses the mathematical (non-negative) remainder,
    valid because index expressions are non-negative at runtime. *)
let mod_const a k =
  if k <= 0 then None
  else if List.for_all (fun (_, c) -> c mod k = 0) a.terms then
    Some (((a.const mod k) + k) mod k)
  else None

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

let eval (assignment : var -> int) a =
  List.fold_left (fun acc (v, c) -> acc + (c * assignment v)) a.const a.terms

module Smap = Map.Make (String)

type lets = t Smap.t

(** Analysis context: the compile-time knowledge the paper's compiler has
    when it checks an access — the specialized input sizes, the current
    launch configuration, the enclosing loops, and affine-valued local
    [int] lets. The lets map each name to its current form, so a lookup
    costs a logarithm of the live names however many reassignments a
    merged kernel makes. *)
type ctx = {
  sizes : (string * int) list;
  block_x : int;
  block_y : int;
  grid_x : int;
  grid_y : int;
  loops : (string * loop_desc) list;  (** innermost first *)
  lets : lets;
}

and loop_desc = {
  ld_init : t;
  ld_step : int;
  ld_trips : int option;  (** trip count when the bounds are compile-time *)
}

let ctx_of_launch ?(sizes = []) (l : Ast.launch) =
  {
    sizes;
    block_x = l.block_x;
    block_y = l.block_y;
    grid_x = l.grid_x;
    grid_y = l.grid_y;
    loops = [];
    lets = Smap.empty;
  }

(* one node's form, from its children's forms as [child] gives them *)
let of_node (ctx : ctx) (child : Ast.expr -> t option) (e : Ast.expr) :
    t option =
  let ( let* ) = Option.bind in
  match e with
  | Int_lit n -> Some (const n)
  | Float_lit _ -> None
  | Builtin b -> (
      match b with
      | Ast.Tidx -> Some (of_var Tidx)
      | Ast.Tidy -> Some (of_var Tidy)
      | Ast.Bidx -> Some (of_var Bidx)
      | Ast.Bidy -> Some (of_var Bidy)
      | Idx -> Some (add (scale ctx.block_x (of_var Bidx)) (of_var Tidx))
      | Idy -> Some (add (scale ctx.block_y (of_var Bidy)) (of_var Tidy))
      | Bdimx -> Some (const ctx.block_x)
      | Bdimy -> Some (const ctx.block_y)
      | Gdimx -> Some (const ctx.grid_x)
      | Gdimy -> Some (const ctx.grid_y))
  | Var v -> (
      match List.assoc_opt v ctx.loops with
      | Some ld -> Some (add ld.ld_init (scale ld.ld_step (of_var (Iter v))))
      | None -> (
          match List.assoc_opt v ctx.sizes with
          | Some n -> Some (const n)
          | None -> (
              match Smap.find_opt v ctx.lets with
              | Some form -> Some form
              | None -> Some (of_var (Param v)))))
  | Unop (Neg, a) ->
      let* fa = child a in
      Some (scale (-1) fa)
  | Unop (Not, _) -> None
  | Binop (Add, a, b) ->
      let* fa = child a in
      let* fb = child b in
      Some (add fa fb)
  | Binop (Sub, a, b) ->
      let* fa = child a in
      let* fb = child b in
      Some (sub fa fb)
  | Binop (Mul, a, b) -> (
      let* fa = child a in
      let* fb = child b in
      if is_const fa then Some (scale fa.const fb)
      else if is_const fb then Some (scale fb.const fa)
      else None)
  | Binop (Div, a, b) -> (
      let* fa = child a in
      let* fb = child b in
      if is_const fb then
        match div_exact fa fb.const with
        | Some f -> Some f
        | None -> (
            match (fa.const, fa.terms) with
            | 0, [ (v, 1) ] when fb.const > 0 ->
                Some (of_var (Div_of (v, fb.const)))
            | _ -> None)
      else None)
  | Binop (Mod, a, b) -> (
      let* fa = child a in
      let* fb = child b in
      if is_const fb then
        match mod_const fa fb.const with
        | Some c -> Some (const c)
        | None -> (
            match (fa.const, fa.terms) with
            | 0, [ (v, 1) ] when fb.const > 0 ->
                Some (of_var (Mod_of (v, fb.const)))
            | _ -> None)
      else None)
  | Binop ((Lt | Le | Gt | Ge | Eq | Ne | And | Or), _, _) -> None
  | Index _ | Vload _ | Field _ | Call _ | Select _ -> None

let of_expr (ctx : ctx) (e : Ast.expr) : t option =
  let rec go e = of_node ctx go e in
  go e

(** Evaluate an [int] expression to a compile-time constant under the
    context's size bindings (no thread-position or loop variables). *)
let eval_const (ctx : ctx) (e : Ast.expr) : int option =
  match of_expr ctx e with
  | Some f when is_const f -> Some f.const
  | _ -> None

(** Affine form of a loop's trip count, if compile-time. *)
let loop_trips (ctx : ctx) (l : Ast.loop) : int option =
  match (eval_const ctx l.l_init, eval_const ctx l.l_limit, eval_const ctx l.l_step) with
  | Some i0, Some lim, Some s when s > 0 ->
      Some (max 0 ((lim - i0 + s - 1) / s))
  | _ -> None

(** Push a loop onto the context (for analyses descending into bodies). *)
let enter_loop (ctx : ctx) (l : Ast.loop) : ctx option =
  match (of_expr ctx l.l_init, eval_const ctx l.l_step) with
  | Some init, Some step when step > 0 ->
      Some
        {
          ctx with
          loops =
            (l.l_var, { ld_init = init; ld_step = step; ld_trips = loop_trips ctx l })
            :: ctx.loops;
        }
  | _ -> None

(** Drop any let binding of the names: their values are no longer known
    (reassigned in a branch or loop body, or to a non-affine value). *)
let forget (ctx : ctx) names : ctx =
  let lets = List.fold_left (fun m v -> Smap.remove v m) ctx.lets names in
  if lets == ctx.lets then ctx else { ctx with lets }

(** Record an affine-valued local [int] binding ([int t = idx * 2;]);
    a non-affine value forgets the name. *)
let enter_let (ctx : ctx) name (e : Ast.expr) : ctx =
  match of_expr ctx e with
  | Some f -> { ctx with lets = Smap.add name f ctx.lets }
  | None -> forget ctx [ name ]

let to_string (a : t) =
  let rec var_name = function
    | Tidx -> "tidx"
    | Tidy -> "tidy"
    | Bidx -> "bidx"
    | Bidy -> "bidy"
    | Iter l -> "iter(" ^ l ^ ")"
    | Param p -> p
    | Mod_of (v, c) -> Printf.sprintf "(%s%%%d)" (var_name v) c
    | Div_of (v, c) -> Printf.sprintf "(%s/%d)" (var_name v) c
  in
  let term (v, c) =
    let vs = var_name v in
    if c = 1 then vs else Printf.sprintf "%d*%s" c vs
  in
  match (a.const, a.terms) with
  | c, [] -> string_of_int c
  | 0, ts -> String.concat " + " (List.map term ts)
  | c, ts -> String.concat " + " (List.map term ts) ^ " + " ^ string_of_int c

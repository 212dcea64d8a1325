(** Memory-coalescing analysis (paper Section 3.2).

    For every global-memory access the checker computes the addresses issued
    by the 16 consecutive threads of a half warp and decides whether they
    form one coalesced segment: the lane coefficient of the flattened
    address must be exactly one element, and the base address must be a
    multiple of 16 words for every possible value of the remaining
    variables — block ids, [tidy], unbound parameters, and the first 16
    iterations of every enclosing loop (alignment behaviour repeats with
    period 16 in the iteration count, the paper's "the same behavior
    repeats for remaining iterations"). *)

open Gpcc_ast

(** The paper's four index categories (Section 3.2). *)
type index_kind =
  | Constant
  | Predefined  (** built from thread-position builtins only *)
  | Loop_index  (** involves an enclosing loop iterator *)
  | Unresolved
[@@deriving show { with_path = false }, eq]

type reason =
  | Uniform  (** all 16 lanes read the same address *)
  | Strided of int  (** lane-to-lane stride in elements, <> 1 *)
  | Misaligned of string  (** base not always a multiple of 16 words *)
[@@deriving show { with_path = false }, eq]

type verdict =
  | Coalesced
  | Noncoalesced of reason
  | Unknown  (** unresolved index: the paper's compiler skips these *)
[@@deriving show { with_path = false }, eq]

(** One global-memory access site, with everything later passes need. *)
type access = {
  arr : string;
  indices : Ast.expr list;
  is_store : bool;
  vec_width : int;  (** 1 for scalar, 2/4 for vector loads *)
  flat : Affine.t option;  (** flattened element offset (in vector elements) *)
  enclosing : string list;  (** loop variables, innermost first *)
  verdict : verdict;
  ctx : Affine.ctx;  (** analysis context at the access site *)
  divergent : bool;
      (** the access sits under thread-dependent control flow, so not all
          threads of the block reach it — cooperative staging cannot be
          inserted here *)
  safe_loops : string list;
      (** enclosing loops that every thread of the block enters (not under
          any divergent guard) — valid insertion points for staging *)
}

let classify_index (ctx : Affine.ctx) (e : Ast.expr) : index_kind =
  match Affine.of_expr ctx e with
  | None -> Unresolved
  | Some f ->
      if Affine.is_const f then Constant
      else if
        List.exists
          (function Affine.Iter _ -> true | _ -> false)
          (Affine.vars f)
      then Loop_index
      else Predefined

(** Decide coalescing from a flattened affine element offset. *)
let verdict_of_flat (flat : Affine.t option) : verdict =
  match flat with
  | None -> Unknown
  | Some f
    when List.exists
           (function
             | (Affine.Mod_of _ | Affine.Div_of _), _ -> true
             | _ -> false)
           f.Affine.terms ->
      (* mod/div lane arithmetic (post-privatization): beyond the lane
         model; these accesses are not retransformed anyway *)
      Unknown
  | Some f ->
      let lane = Affine.coeff Affine.Tidx f in
      if lane = 0 then Noncoalesced Uniform
      else if lane <> 1 then Noncoalesced (Strided lane)
      else begin
        let rest = Affine.drop Affine.Tidx f in
        if rest.Affine.const mod 16 <> 0 then
          Noncoalesced
            (Misaligned (Printf.sprintf "constant offset %d" rest.Affine.const))
        else
          match
            List.find_opt (fun (_, c) -> c mod 16 <> 0) rest.Affine.terms
          with
          | Some (v, c) ->
              Noncoalesced
                (Misaligned
                   (Printf.sprintf "%s contributes stride %d"
                      (Affine.show_var v) c))
          | None -> Coalesced
      end

let flat_of_access (ctx : Affine.ctx) (layouts : Layout.table) arr indices :
    Affine.t option =
  match Layout.find layouts arr with
  | None -> None
  | Some layout -> (
      let forms = List.map (Affine.of_expr ctx) indices in
      if List.exists Option.is_none forms then None
      else
        let forms = List.map Option.get forms in
        match Layout.flatten layout forms with
        | f -> Some f
        | exception Invalid_argument _ -> None)

(** Collect every global-memory access of a kernel with its verdict.
    The walk tracks enclosing loops and affine-valued [int] locals. *)
let analyze_kernel ?(launch : Ast.launch option) (k : Ast.kernel) : access list
    =
  let launch =
    match launch with
    | Some l -> l
    | None -> { grid_x = 1; grid_y = 1; block_x = 16; block_y = 1 }
  in
  let ctx0 = Affine.ctx_of_launch ~sizes:k.k_sizes launch in
  let layouts = Layout.of_kernel k in
  let global_arrays =
    List.filter_map
      (fun (p : Ast.param) ->
        match p.p_ty with
        | Array { space = Global; _ } -> Some p.p_name
        | _ -> None)
      k.k_params
  in
  let is_global a = List.mem a global_arrays in
  let out = ref [] in
  let divergent_cond (c : Ast.expr) =
    List.exists
      (fun b -> Rewrite.expr_uses_builtin b c)
      [ Ast.Idx; Ast.Idy; Ast.Tidx; Ast.Tidy ]
  in
  let emit ctx ~enclosing ~safe ~safe_loops arr indices is_store vec_width =
    if is_global arr then begin
      let flat =
        match flat_of_access ctx layouts arr indices with
        | Some f when vec_width > 1 ->
            (* vector element offset: lane stride is in vector elements *)
            Some f
        | f -> f
      in
      out :=
        {
          arr;
          indices;
          is_store;
          vec_width;
          flat;
          enclosing;
          verdict = verdict_of_flat flat;
          ctx;
          divergent = not safe;
          safe_loops;
        }
        :: !out
    end
  in
  let rec on_expr ctx ~enclosing ~safe ~safe_loops (e : Ast.expr) =
    let go = on_expr ctx ~enclosing ~safe ~safe_loops in
    (match e with
    | Index (a, es) -> emit ctx ~enclosing ~safe ~safe_loops a es false 1
    | Vload { v_arr; v_width; v_index } ->
        emit ctx ~enclosing ~safe ~safe_loops v_arr [ v_index ] false v_width
    | _ -> ());
    match e with
    | Int_lit _ | Float_lit _ | Var _ | Builtin _ -> ()
    | Unop (_, a) | Field (a, _) -> go a
    | Binop (_, a, b) ->
        go a;
        go b
    | Index (_, es) | Call (_, es) -> List.iter go es
    | Vload v -> go v.v_index
    | Select (c, a, b) ->
        go c;
        go a;
        go b
  in
  let assigned_int_vars (b : Ast.block) =
    let acc = ref [] in
    ignore
      (Rewrite.map_stmts
         (function
           | Assign (Lvar v, _) as s ->
               acc := v :: !acc;
               [ s ]
           | s -> [ s ])
         b);
    !acc
  in
  let rec on_block ctx ~enclosing ~safe ~safe_loops (b : Ast.block) =
    ignore
      (List.fold_left
         (fun ctx s -> on_stmt ctx ~enclosing ~safe ~safe_loops s)
         ctx b)
  and on_stmt ctx ~enclosing ~safe ~safe_loops (s : Ast.stmt) : Affine.ctx =
    let go_e = on_expr ctx ~enclosing ~safe ~safe_loops in
    match s with
    | Comment _ | Sync | Global_sync -> ctx
    | Decl { d_name; d_ty = Scalar Int; d_init = Some e } ->
        go_e e;
        Affine.enter_let ctx d_name e
    | Decl { d_init; _ } ->
        Option.iter go_e d_init;
        ctx
    | Assign (lv, e) ->
        (match lv with
        | Lvar _ -> ()
        | Lindex (a, es) ->
            emit ctx ~enclosing ~safe ~safe_loops a es true 1;
            List.iter go_e es
        | Lfield (Lindex (a, es), _) ->
            emit ctx ~enclosing ~safe ~safe_loops a es true 1;
            List.iter go_e es
        | Lvec vl ->
            emit ctx ~enclosing ~safe ~safe_loops vl.v_arr [ vl.v_index ]
              true vl.v_width;
            go_e vl.v_index
        | Lfield _ -> ());
        go_e e;
        (match lv with
        | Lvar v -> Affine.enter_let ctx v e
        | _ -> ctx)
    | If (c, t, f) ->
        go_e c;
        let safe' = safe && not (divergent_cond c) in
        on_block ctx ~enclosing ~safe:safe' ~safe_loops t;
        on_block ctx ~enclosing ~safe:safe' ~safe_loops f;
        Affine.forget ctx (assigned_int_vars t @ assigned_int_vars f)
    | For l ->
        go_e l.l_init;
        go_e l.l_limit;
        go_e l.l_step;
        let safe_loops' = if safe then l.l_var :: safe_loops else safe_loops in
        let dirty = assigned_int_vars l.l_body in
        let ctx_clean = Affine.forget ctx dirty in
        (match Affine.enter_loop ctx_clean l with
        | Some ctx' ->
            on_block ctx' ~enclosing:(l.l_var :: enclosing) ~safe
              ~safe_loops:safe_loops' l.l_body
        | None ->
            on_block ctx_clean ~enclosing:(l.l_var :: enclosing) ~safe
              ~safe_loops:safe_loops' l.l_body);
        Affine.forget ctx_clean [ l.l_var ]
  in
  on_block ctx0 ~enclosing:[] ~safe:true ~safe_loops:[] k.k_body;
  List.rev !out

let all_coalesced accesses =
  List.for_all
    (fun a -> match a.verdict with Coalesced -> true | _ -> false)
    accesses

let noncoalesced accesses =
  List.filter
    (fun a -> match a.verdict with Noncoalesced _ -> true | _ -> false)
    accesses

let to_string (a : access) =
  Printf.sprintf "%s%s %s (%s): %s" a.arr
    (String.concat ""
       (List.map (fun e -> "[" ^ Pp.expr_to_string e ^ "]") a.indices))
    (if a.is_store then "store" else "load")
    (match a.flat with Some f -> Affine.to_string f | None -> "?")
    (show_verdict a.verdict)

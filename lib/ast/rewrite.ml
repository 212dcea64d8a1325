(** Generic AST traversal and rewriting utilities used by all passes. *)

open Ast

(** Bottom-up expression rewriting. [f] sees each node after its children
    were rewritten; returning [None] keeps the node. *)
let rec map_expr (f : expr -> expr option) (e : expr) : expr =
  let e' =
    match e with
    | Int_lit _ | Float_lit _ | Var _ | Builtin _ -> e
    | Unop (op, a) -> Unop (op, map_expr f a)
    | Binop (op, a, b) -> Binop (op, map_expr f a, map_expr f b)
    | Index (a, es) -> Index (a, List.map (map_expr f) es)
    | Vload v -> Vload { v with v_index = map_expr f v.v_index }
    | Field (a, fl) -> Field (map_expr f a, fl)
    | Call (name, args) -> Call (name, List.map (map_expr f) args)
    | Select (c, a, b) -> Select (map_expr f c, map_expr f a, map_expr f b)
  in
  match f e' with Some e'' -> e'' | None -> e'

let map_lvalue (f : expr -> expr option) (lv : lvalue) : lvalue =
  let rec go = function
    | Lvar v -> Lvar v
    | Lindex (a, es) -> Lindex (a, List.map (map_expr f) es)
    | Lfield (lv, fl) -> Lfield (go lv, fl)
    | Lvec vl -> Lvec { vl with v_index = map_expr f vl.v_index }
  in
  go lv

(** Rewrite every expression in a block (declarations' initializers, loop
    bounds, conditions, l-value indices, right-hand sides). *)
let rec map_block_exprs (f : expr -> expr option) (b : block) : block =
  List.map (map_stmt_exprs f) b

and map_stmt_exprs f = function
  | Decl d -> Decl { d with d_init = Option.map (map_expr f) d.d_init }
  | Assign (lv, e) -> Assign (map_lvalue f lv, map_expr f e)
  | If (c, t, e) -> If (map_expr f c, map_block_exprs f t, map_block_exprs f e)
  | For l ->
      For
        {
          l with
          l_init = map_expr f l.l_init;
          l_limit = map_expr f l.l_limit;
          l_step = map_expr f l.l_step;
          l_body = map_block_exprs f l.l_body;
        }
  | (Sync | Global_sync | Comment _) as s -> s

(** Structural statement rewriting: [f] maps each statement to a list of
    replacement statements, applied bottom-up (children first). *)
let rec map_stmts (f : stmt -> stmt list) (b : block) : block =
  List.concat_map
    (fun s ->
      let s' =
        match s with
        | If (c, t, e) -> If (c, map_stmts f t, map_stmts f e)
        | For l -> For { l with l_body = map_stmts f l.l_body }
        | s -> s
      in
      f s')
    b

(** Substitute free occurrences of variable [v]. Shadowing by an inner
    declaration or loop variable of the same name stops the substitution. *)
let subst_var (v : string) (replacement : expr) (b : block) : block =
  let rec go_block b =
    let shadowed = ref false in
    List.map
      (fun s -> if !shadowed then s else go_stmt (ref shadowed) s)
      b
  and go_stmt shadowed s =
    match s with
    | Decl d ->
        let d' = { d with d_init = Option.map go_expr d.d_init } in
        if String.equal d.d_name v then !shadowed := true;
        Decl d'
    | Assign (lv, e) -> Assign (go_lvalue lv, go_expr e)
    | If (c, t, e) -> If (go_expr c, go_block t, go_block e)
    | For l ->
        let l_init = go_expr l.l_init in
        if String.equal l.l_var v then
          For { l with l_init }
        else
          For
            {
              l with
              l_init;
              l_limit = go_expr l.l_limit;
              l_step = go_expr l.l_step;
              l_body = go_block l.l_body;
            }
    | (Sync | Global_sync | Comment _) as s -> s
  and go_expr e =
    map_expr
      (function Var v' when String.equal v v' -> Some replacement | _ -> None)
      e
  and go_lvalue lv =
    match lv with
    | Lvar _ -> lv
    | Lindex (a, es) -> Lindex (a, List.map go_expr es)
    | Lfield (inner, fl) -> Lfield (go_lvalue inner, fl)
    | Lvec vl -> Lvec { vl with v_index = go_expr vl.v_index }
  in
  go_block b

(** Substitute a thread-position builtin everywhere (builtins cannot be
    shadowed). *)
let subst_builtin (bn : builtin) (replacement : expr) (b : block) : block =
  map_block_exprs
    (function Builtin b' when equal_builtin bn b' -> Some replacement | _ -> None)
    b

let subst_builtin_expr (bn : builtin) (replacement : expr) (e : expr) : expr =
  map_expr
    (function Builtin b' when equal_builtin bn b' -> Some replacement | _ -> None)
    e

(** Rename declared variable [old] to [fresh] (declaration and uses). *)
let rename_var (old : string) (fresh : string) (b : block) : block =
  let b =
    map_stmts
      (function
        | Decl d when String.equal d.d_name old ->
            [ Decl { d with d_name = fresh } ]
        | Assign (Lvar v, e) when String.equal v old ->
            [ Assign (Lvar fresh, e) ]
        | Assign (Lindex (a, es), e) when String.equal a old ->
            [ Assign (Lindex (fresh, es), e) ]
        | Assign (Lfield (Lvar v, fl), e) when String.equal v old ->
            [ Assign (Lfield (Lvar fresh, fl), e) ]
        | Assign (Lvec vl, e) when String.equal vl.v_arr old ->
            [ Assign (Lvec { vl with v_arr = fresh }, e) ]
        | s -> [ s ])
      b
  in
  map_block_exprs
    (function
      | Var v when String.equal v old -> Some (Var fresh)
      | Index (a, es) when String.equal a old -> Some (Index (fresh, es))
      | _ -> None)
    b

(* --- queries --- *)

let rec exists_expr (p : expr -> bool) (e : expr) : bool =
  p e
  ||
  match e with
  | Int_lit _ | Float_lit _ | Var _ | Builtin _ -> false
  | Unop (_, a) | Field (a, _) -> exists_expr p a
  | Binop (_, a, b) -> exists_expr p a || exists_expr p b
  | Index (_, es) | Call (_, es) -> List.exists (exists_expr p) es
  | Vload v -> exists_expr p v.v_index
  | Select (c, a, b) ->
      exists_expr p c || exists_expr p a || exists_expr p b

let rec fold_exprs_block : 'a. ('a -> expr -> 'a) -> 'a -> block -> 'a =
 fun f acc b -> List.fold_left (fold_exprs_stmt f) acc b

and fold_exprs_stmt : 'a. ('a -> expr -> 'a) -> 'a -> stmt -> 'a =
 fun f acc s ->
  match s with
  | Decl { d_init = Some e; _ } -> f acc e
  | Decl { d_init = None; _ } | Sync | Global_sync | Comment _ -> acc
  | Assign (lv, e) ->
      let acc = fold_exprs_lvalue f acc lv in
      f acc e
  | If (c, t, e) ->
      let acc = f acc c in
      let acc = fold_exprs_block f acc t in
      fold_exprs_block f acc e
  | For l ->
      let acc = f acc l.l_init in
      let acc = f acc l.l_limit in
      let acc = f acc l.l_step in
      fold_exprs_block f acc l.l_body

and fold_exprs_lvalue : 'a. ('a -> expr -> 'a) -> 'a -> lvalue -> 'a =
 fun f acc -> function
  | Lvar _ -> acc
  | Lindex (_, es) -> List.fold_left f acc es
  | Lfield (lv, _) -> fold_exprs_lvalue f acc lv
  | Lvec vl -> f acc vl.v_index

(** Does the block mention a given builtin anywhere? *)
let block_uses_builtin (bn : builtin) (b : block) : bool =
  fold_exprs_block
    (fun acc e ->
      acc
      || exists_expr
           (function Builtin b' -> equal_builtin bn b' | _ -> false)
           e)
    false b

let expr_uses_builtin (bn : builtin) (e : expr) : bool =
  exists_expr (function Builtin b' -> equal_builtin bn b' | _ -> false) e

let expr_uses_var (v : string) (e : expr) : bool =
  exists_expr (function Var v' -> String.equal v v' | _ -> false) e

(** All array accesses (name, indices, [is_store]) in a block, outermost
    statement order, including those inside loops and branches. *)
let collect_accesses (b : block) : (string * expr list * bool) list =
  let acc = ref [] in
  let rec on_expr e =
    (match e with
    | Index (a, es) -> acc := (a, es, false) :: !acc
    | _ -> ());
    match e with
    | Int_lit _ | Float_lit _ | Var _ | Builtin _ -> ()
    | Unop (_, a) | Field (a, _) -> on_expr a
    | Binop (_, a, b) ->
        on_expr a;
        on_expr b
    | Index (_, es) | Call (_, es) -> List.iter on_expr es
    | Vload v -> on_expr v.v_index
    | Select (c, a, b) ->
        on_expr c;
        on_expr a;
        on_expr b
  in
  let on_lvalue = function
    | Lvar _ -> ()
    | Lindex (a, es) ->
        acc := (a, es, true) :: !acc;
        List.iter on_expr es
    | Lfield (Lindex (a, es), _) ->
        acc := (a, es, true) :: !acc;
        List.iter on_expr es
    | Lvec vl ->
        acc := (vl.v_arr, [ vl.v_index ], true) :: !acc;
        on_expr vl.v_index
    | Lfield _ -> ()
  in
  let rec on_block b = List.iter on_stmt b
  and on_stmt = function
    | Decl { d_init = Some e; _ } -> on_expr e
    | Decl _ | Sync | Global_sync | Comment _ -> ()
    | Assign (lv, e) ->
        on_lvalue lv;
        on_expr e
    | If (c, t, e) ->
        on_expr c;
        on_block t;
        on_block e
    | For l ->
        on_expr l.l_init;
        on_expr l.l_limit;
        on_expr l.l_step;
        on_block l.l_body
  in
  on_block b;
  List.rev !acc

(** Names declared anywhere in the block, with their types. *)
let rec declared_vars (b : block) : (string * ty) list =
  List.concat_map
    (function
      | Decl d -> [ (d.d_name, d.d_ty) ]
      | If (_, t, e) -> declared_vars t @ declared_vars e
      | For l -> (l.l_var, Scalar Int) :: declared_vars l.l_body
      | Assign _ | Sync | Global_sync | Comment _ -> [])
    b

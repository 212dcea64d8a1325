(** Property tests for the AST rewriting utilities and the pass-level
    simplifier: substitution and simplification must preserve evaluation,
    renaming must be capture-free, fresh names must be fresh. *)

open Gpcc_ast
open Util

(* a tiny integer-expression evaluator over a fixed environment *)
let rec eval_int env (e : Ast.expr) : int =
  match e with
  | Int_lit n -> n
  | Var v -> ( match List.assoc_opt v env with Some x -> x | None -> 7)
  | Builtin b -> (
      match b with
      | Ast.Idx -> 21
      | Idy -> 9
      | Tidx -> 5
      | Tidy -> 1
      | Bidx -> 2
      | Bidy -> 3
      | Bdimx -> 16
      | Bdimy -> 1
      | Gdimx -> 8
      | Gdimy -> 8)
  | Unop (Neg, a) -> -eval_int env a
  | Binop (Add, a, b) -> eval_int env a + eval_int env b
  | Binop (Sub, a, b) -> eval_int env a - eval_int env b
  | Binop (Mul, a, b) -> eval_int env a * eval_int env b
  | _ -> QCheck.assume_fail ()

let gen_int_expr : Ast.expr QCheck.Gen.t =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun n -> Ast.Int_lit n) (int_range (-20) 20);
        map (fun v -> Ast.Var v) (oneofl [ "u"; "v" ]);
        oneofl [ Ast.Builtin Ast.Idx; Builtin Tidx; Builtin Bidy ];
      ]
  in
  fix
    (fun self d ->
      if d = 0 then leaf
      else
        frequency
          [
            (2, leaf);
            ( 3,
              map3
                (fun o a b -> Ast.Binop (o, a, b))
                (oneofl [ Ast.Add; Sub; Mul ])
                (self (d - 1)) (self (d - 1)) );
            (1, map (fun a -> Ast.Unop (Neg, a)) (self (d - 1)));
          ])
    5

let arb_int_expr = QCheck.make gen_int_expr ~print:Pp.expr_to_string

let env = [ ("u", 4); ("v", -3) ]

let law_simplify_sound =
  QCheck.Test.make ~count:800 ~name:"simplify_expr preserves evaluation"
    arb_int_expr (fun e ->
      eval_int env (Gpcc_passes.Pass_util.simplify_expr e) = eval_int env e)

let law_simplify_idempotent =
  QCheck.Test.make ~count:500 ~name:"simplify_expr is idempotent" arb_int_expr
    (fun e ->
      let s1 = Gpcc_passes.Pass_util.simplify_expr e in
      Ast.equal_expr s1 (Gpcc_passes.Pass_util.simplify_expr s1))

let test_simplify_fixpoint () =
  (* [idx + -7 + 7] folds to [idx + 0] at the same node, which must fold
     on in the same call (found by [law_simplify_idempotent]) *)
  let simp e = Pp.expr_to_string (Gpcc_passes.Pass_util.simplify_expr e) in
  let e = Ast.Binop (Add, Binop (Add, Builtin Idx, Int_lit (-7)), Int_lit 7) in
  Alcotest.(check string) "nested fold" "idx" (simp e);
  Alcotest.(check string)
    "under a product" "u * (tidx - idx)"
    (simp (Binop (Mul, Var "u", Binop (Sub, Builtin Tidx, e))))

let law_subst_builtin =
  QCheck.Test.make ~count:500
    ~name:"subst_builtin_expr = evaluation with rebound builtin" arb_int_expr
    (fun e ->
      (* idx := 2*tidx + 1, then evaluate *)
      let replaced =
        Rewrite.subst_builtin_expr Ast.Idx
          (Binop (Add, Binop (Mul, Int_lit 2, Builtin Ast.Tidx), Int_lit 1))
          e
      in
      let rec eval_with_idx env' idx_val (e : Ast.expr) =
        match e with
        | Builtin Ast.Idx -> idx_val
        | Int_lit n -> n
        | Var v -> ( match List.assoc_opt v env' with Some x -> x | None -> 7)
        | Builtin _ -> eval_int env' e
        | Unop (Neg, a) -> -eval_with_idx env' idx_val a
        | Binop (Add, a, b) ->
            eval_with_idx env' idx_val a + eval_with_idx env' idx_val b
        | Binop (Sub, a, b) ->
            eval_with_idx env' idx_val a - eval_with_idx env' idx_val b
        | Binop (Mul, a, b) ->
            eval_with_idx env' idx_val a * eval_with_idx env' idx_val b
        | _ -> QCheck.assume_fail ()
      in
      eval_int env replaced = eval_with_idx env ((2 * 5) + 1) e)

let test_subst_var_shadowing () =
  (* substitution stops at a shadowing declaration *)
  let b =
    [
      Ast.Assign (Lvar "out", Var "x");
      Ast.Decl { d_name = "x"; d_ty = Scalar Int; d_init = Some (Int_lit 9) };
      Ast.Assign (Lvar "out2", Var "x");
    ]
  in
  match Rewrite.subst_var "x" (Ast.Int_lit 1) b with
  | [ Assign (_, Int_lit 1); Decl _; Assign (_, Var "x") ] -> ()
  | b' -> Alcotest.failf "bad substitution: %s" (Pp.block_to_string b')

let test_subst_var_loop_shadowing () =
  let b =
    [
      Ast.For
        {
          l_var = "x";
          l_init = Var "x";
          (* init is evaluated in the outer scope *)
          l_limit = Int_lit 10;
          l_step = Int_lit 1;
          l_body = [ Ast.Assign (Lvar "o", Var "x") ];
        };
    ]
  in
  match Rewrite.subst_var "x" (Ast.Int_lit 5) b with
  | [ For { l_init = Int_lit 5; l_body = [ Assign (_, Var "x") ]; _ } ] -> ()
  | b' -> Alcotest.failf "loop shadowing broken: %s" (Pp.block_to_string b')

let test_rename_var () =
  let b =
    [
      Ast.decl_f "s" ~init:(Ast.flt 0.0);
      Ast.accum (Lvar "s") (Var "x");
      Ast.Assign (Lindex ("o", [ Ast.idx ]), Var "s");
    ]
  in
  let b' = Rewrite.rename_var "s" "s_0" b in
  let txt = Pp.block_to_string b' in
  assert_contains "declaration renamed" txt "float s_0 = 0.0f";
  assert_contains "accumulation renamed" txt "s_0 += x";
  assert_contains "use renamed" txt "o[idx] = s_0";
  Alcotest.(check bool) "no stale name" false (contains ~needle:"= s;" txt)

let test_fresh_name () =
  let names = Fresh.create [ "x"; "x_0"; "x_1" ] in
  Alcotest.(check string) "skips collisions" "x_2" (Fresh.name names "x");
  Alcotest.(check string) "free name unchanged" "y" (Fresh.name names "y");
  Alcotest.(check string) "drawn names are reserved" "x_3"
    (Fresh.name names "x")

let test_collect_accesses_order () =
  let k =
    parse_kernel
      {|#pragma gpcc output o
__kernel void f(float a[16], float b[16], float o[16]) {
  float x = a[idx];
  o[idx] = x + b[idx];
}|}
  in
  let acc = Rewrite.collect_accesses k.k_body in
  Alcotest.(check (list (pair string bool)))
    "order and store flags"
    [ ("a", false); ("o", true); ("b", false) ]
    (List.map (fun (a, _, st) -> (a, st)) acc)

let test_declared_vars () =
  let k =
    parse_kernel
      {|__kernel void f(float o[16]) {
  float s = 0;
  for (int i = 0; i < 4; i++) {
    __shared__ float sh[16];
    sh[tidx] = s;
    __syncthreads();
    s = sh[tidx];
  }
  o[idx] = s;
}|}
  in
  Alcotest.(check (list string))
    "all declarations found" [ "s"; "i"; "sh" ]
    (List.map fst (Rewrite.declared_vars k.k_body))

let law_map_stmts_id =
  QCheck.Test.make ~count:200 ~name:"map_stmts identity" arb_int_expr (fun e ->
      let b =
        [
          Ast.If
            ( Binop (Lt, e, Int_lit 3),
              [ Ast.Assign (Lvar "a", e) ],
              [ Ast.For
                  {
                    l_var = "q";
                    l_init = Int_lit 0;
                    l_limit = Int_lit 4;
                    l_step = Int_lit 1;
                    l_body = [ Ast.Assign (Lvar "b", e) ];
                  } ] );
        ]
      in
      Ast.equal_block b (Rewrite.map_stmts (fun s -> [ s ]) b))

let suite =
  let t n f = Alcotest.test_case n `Quick f in
  ( "rewrite",
    [
      QCheck_alcotest.to_alcotest law_simplify_sound;
      QCheck_alcotest.to_alcotest law_simplify_idempotent;
      QCheck_alcotest.to_alcotest law_subst_builtin;
      t "subst stops at shadowing decl" test_subst_var_shadowing;
      t "subst respects loop scoping" test_subst_var_loop_shadowing;
      t "rename_var is complete" test_rename_var;
      t "fresh_name" test_fresh_name;
      t "collect_accesses order" test_collect_accesses_order;
      t "declared_vars" test_declared_vars;
      QCheck_alcotest.to_alcotest law_map_stmts_id;
      t "simplify_expr folds to a fixpoint" test_simplify_fixpoint;
    ] )

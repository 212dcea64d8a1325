(** Affine-form tests: algebraic laws (QCheck), expression lowering, and
    the analysis context (loops, lets, size bindings). *)

open Gpcc_analysis
open Util

let launch16 = { Gpcc_ast.Ast.grid_x = 8; grid_y = 8; block_x = 16; block_y = 1 }
let ctx ?(sizes = []) () = Affine.ctx_of_launch ~sizes launch16

let form e = Affine.of_expr (ctx ()) (expr e)

let check_form msg e want =
  match form e with
  | Some f ->
      Alcotest.(check string) msg want (Affine.to_string f)
  | None -> Alcotest.failf "%s: %s not affine" msg e

let test_lowering () =
  check_form "constant" "5" "5";
  check_form "idx expands" "idx" "tidx + 16*bidx";
  check_form "idy expands" "idy" "tidy + bidy";
  check_form "sum" "idx + 3" "tidx + 16*bidx + 3";
  check_form "scale" "4 * idx" "4*tidx + 64*bidx";
  check_form "cancel" "idx - tidx" "16*bidx";
  check_form "param" "w + 1" "w + 1";
  check_form "bdim constants" "bdimx * bidx + tidx" "tidx + 16*bidx";
  check_form "mod by const" "(idx * 16) % 16" "0";
  check_form "div exact" "(idx * 4) / 4" "tidx + 16*bidx"

let test_lowering_with_sizes () =
  let c = ctx ~sizes:[ ("w", 64) ] () in
  match Affine.of_expr c (expr "w * idy") with
  | Some f ->
      Alcotest.(check int) "coeff of bidy" 64 (Affine.coeff Affine.Bidy f)
  | None -> Alcotest.fail "not affine"

let test_non_affine () =
  Alcotest.(check bool) "product of vars" true (form "idx * idy" = None);
  Alcotest.(check bool) "comparison" true (form "idx < 4" = None);
  Alcotest.(check bool) "non-exact div" true (form "(idx + 1) / 2" = None)

let test_mod_div_opaque () =
  (* tidx %% 16 lowers to an opaque bounded variable *)
  match form "tidx % 5" with
  | Some f -> (
      match f.Affine.terms with
      | [ (Affine.Mod_of (Affine.Tidx, 5), 1) ] -> ()
      | _ -> Alcotest.fail "expected Mod_of term")
  | None -> Alcotest.fail "tidx %% 5 should lower"

let test_loops () =
  let c = ctx ~sizes:[ ("w", 64) ] () in
  let loop =
    {
      Gpcc_ast.Ast.l_var = "i";
      l_init = expr "0";
      l_limit = expr "w";
      l_step = expr "16";
      l_body = [];
    }
  in
  Alcotest.(check (option int)) "trip count" (Some 4) (Affine.loop_trips c loop);
  match Affine.enter_loop c loop with
  | None -> Alcotest.fail "enter_loop failed"
  | Some c' -> (
      match Affine.of_expr c' (expr "i + tidx") with
      | Some f ->
          Alcotest.(check int) "iter coeff includes step" 16
            (Affine.coeff (Affine.Iter "i") f);
          Alcotest.(check int) "lane coeff" 1 (Affine.coeff Affine.Tidx f)
      | None -> Alcotest.fail "loop var not affine")

let test_lets () =
  let c = Affine.enter_let (ctx ()) "t" (expr "idx * 2") in
  match Affine.of_expr c (expr "t + 1") with
  | Some f ->
      Alcotest.(check int) "inlined let coeff" 2 (Affine.coeff Affine.Tidx f);
      Alcotest.(check int) "const" 1 f.Affine.const
  | None -> Alcotest.fail "let not inlined"

(* a non-affine reassignment forgets the name: neither of the earlier
   affine values shows through *)
let test_stale_lets () =
  let c =
    List.fold_left
      (fun c rhs -> Affine.enter_let c "t" (expr rhs))
      (ctx ()) [ "idx"; "idx * 2"; "t * t" ]
  in
  Alcotest.(check (option string))
    "t after a non-affine reassignment"
    (Some (Affine.show (Affine.of_var (Affine.Param "t"))))
    (Option.map Affine.show (Affine.of_expr c (expr "t")));
  let c = Affine.forget (Affine.enter_let (ctx ()) "t" (expr "idx")) [ "t" ] in
  Alcotest.(check (option string))
    "t after forget"
    (Some (Affine.show (Affine.of_var (Affine.Param "t"))))
    (Option.map Affine.show (Affine.of_expr c (expr "t")))

(* --- QCheck laws --- *)

let gen_form : Affine.t QCheck.Gen.t =
  let open QCheck.Gen in
  let var =
    oneofl
      [ Affine.Tidx; Tidy; Bidx; Bidy; Iter "i"; Iter "j"; Param "w" ]
  in
  let* const = int_range (-50) 50 in
  let* terms = list_size (int_range 0 5) (pair var (int_range (-9) 9)) in
  return
    (List.fold_left
       (fun acc (v, c) -> Affine.add acc (Affine.scale c (Affine.of_var v)))
       (Affine.const const) terms)

let arb_form = QCheck.make gen_form ~print:Affine.to_string

let assignment v =
  match v with
  | Affine.Tidx -> 3
  | Tidy -> 5
  | Bidx -> 7
  | Bidy -> 11
  | Iter _ -> 13
  | Param _ -> 17
  | Mod_of _ -> 2
  | Div_of _ -> 2

let law_add_comm =
  QCheck.(
    Test.make ~count:300 ~name:"add commutes" (pair arb_form arb_form)
      (fun (a, b) -> Affine.equal (Affine.add a b) (Affine.add b a)))

let law_add_assoc =
  QCheck.(
    Test.make ~count:300 ~name:"add associates" (triple arb_form arb_form arb_form)
      (fun (a, b, c) ->
        Affine.equal
          (Affine.add a (Affine.add b c))
          (Affine.add (Affine.add a b) c)))

let law_eval_homomorphic =
  QCheck.(
    Test.make ~count:300 ~name:"eval is additive" (pair arb_form arb_form)
      (fun (a, b) ->
        Affine.eval assignment (Affine.add a b)
        = Affine.eval assignment a + Affine.eval assignment b))

let law_scale_eval =
  QCheck.(
    Test.make ~count:300 ~name:"eval commutes with scale"
      (pair arb_form small_signed_int)
      (fun (a, k) ->
        Affine.eval assignment (Affine.scale k a) = k * Affine.eval assignment a))

let law_sub_self =
  QCheck.(
    Test.make ~count:300 ~name:"a - a = 0" arb_form (fun a ->
        Affine.equal (Affine.sub a a) Affine.zero))

let law_normalized =
  QCheck.(
    Test.make ~count:300 ~name:"no zero coefficients" (pair arb_form arb_form)
      (fun (a, b) ->
        List.for_all (fun (_, c) -> c <> 0) (Affine.add a b).Affine.terms))

(* evaluating the affine form of an expression matches direct evaluation *)
let gen_int_expr : Gpcc_ast.Ast.expr QCheck.Gen.t =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun n -> Gpcc_ast.Ast.Int_lit n) (int_range 0 20);
        oneofl
          Gpcc_ast.Ast.
            [ Builtin Idx; Builtin Idy; Builtin Tidx; Builtin Tidy; Builtin Bidx ];
      ]
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        frequency
          [
            (2, leaf);
            ( 3,
              map3
                (fun o a b -> Gpcc_ast.Ast.Binop (o, a, b))
                (oneofl Gpcc_ast.Ast.[ Add; Sub; Mul ])
                (self (depth - 1)) (self (depth - 1)) );
          ])
    4

let eval_expr_direct ~tidx ~tidy ~bidx ~bidy (e : Gpcc_ast.Ast.expr) : int =
  let rec go = function
    | Gpcc_ast.Ast.Int_lit n -> n
    | Builtin Gpcc_ast.Ast.Idx -> (bidx * 16) + tidx
    | Builtin Idy -> (bidy * 1) + tidy
    | Builtin Tidx -> tidx
    | Builtin Tidy -> tidy
    | Builtin Bidx -> bidx
    | Builtin Bidy -> bidy
    | Binop (Add, a, b) -> go a + go b
    | Binop (Sub, a, b) -> go a - go b
    | Binop (Mul, a, b) -> go a * go b
    | _ -> QCheck.assume_fail ()
  in
  go e

let law_of_expr_sound =
  QCheck.(
    Test.make ~count:500 ~name:"of_expr agrees with direct evaluation"
      (make gen_int_expr ~print:Gpcc_ast.Pp.expr_to_string)
      (fun e ->
        match Affine.of_expr (ctx ()) e with
        | None -> true (* products of vars etc.: allowed to give up *)
        | Some f ->
            List.for_all
              (fun (tidx, tidy, bidx, bidy) ->
                let direct = eval_expr_direct ~tidx ~tidy ~bidx ~bidy e in
                let via =
                  Affine.eval
                    (function
                      | Affine.Tidx -> tidx
                      | Tidy -> tidy
                      | Bidx -> bidx
                      | Bidy -> bidy
                      | Iter _ | Param _ | Mod_of _ | Div_of _ -> 0)
                    f
                in
                direct = via)
              [ (0, 0, 0, 0); (3, 1, 2, 5); (15, 0, 7, 7) ]))

let suite =
  let t n f = Alcotest.test_case n `Quick f in
  ( "affine",
    [
      t "expression lowering" test_lowering;
      t "size bindings" test_lowering_with_sizes;
      t "non-affine forms" test_non_affine;
      t "opaque mod/div" test_mod_div_opaque;
      t "loop contexts" test_loops;
      t "let bindings" test_lets;
      t "stale let bindings" test_stale_lets;
      QCheck_alcotest.to_alcotest law_add_comm;
      QCheck_alcotest.to_alcotest law_add_assoc;
      QCheck_alcotest.to_alcotest law_eval_homomorphic;
      QCheck_alcotest.to_alcotest law_scale_eval;
      QCheck_alcotest.to_alcotest law_sub_self;
      QCheck_alcotest.to_alcotest law_normalized;
      QCheck_alcotest.to_alcotest law_of_expr_sound;
    ] )

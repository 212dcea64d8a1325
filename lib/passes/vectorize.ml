(** Vectorization of memory accesses (paper Section 3.1).

    NVIDIA rule (the strict one the paper uses for CUDA targets): when a
    pair of accesses to the same array has indices [2*e + N] and
    [2*e + N + 1] with [N] even, the pair is replaced by a single [float2]
    load at vector offset [e + N/2], and the two uses become [.x] and
    [.y]. This is designed for complex numbers stored with the real part
    next to the imaginary part.

    The two paired accesses must live in the same block (straight-line
    region), where a [float2] declaration inserted before the first of the
    two statements dominates both uses. *)

open Gpcc_ast
open Ast
open Gpcc_analysis

(** Syntactically halve an even index expression: [2*e] -> [e],
    [2*e + 2c] -> [e + c]. *)
let rec halve (e : Ast.expr) : Ast.expr option =
  match e with
  | Int_lit n when n mod 2 = 0 -> Some (Int_lit (n / 2))
  | Binop (Mul, Int_lit 2, x) | Binop (Mul, x, Int_lit 2) -> Some x
  | Binop (Add, a, b) -> (
      match (halve a, halve b) with
      | Some a', Some b' -> Some (Ast.( +: ) a' b')
      | _ -> None)
  | Binop (Sub, a, b) -> (
      match (halve a, halve b) with
      | Some a', Some b' -> Some (Ast.( -: ) a' b')
      | _ -> None)
  | _ -> None

(** 1-D load accesses of global arrays appearing *directly* in a statement
    (not inside nested blocks, which the recursion handles at their own
    scope — a pair must be replaced where its loop variables are live). *)
let stmt_loads (globals : string list) (s : Ast.stmt) :
    (string * Ast.expr) list =
  let shallow =
    match s with
    | If (c, _, _) -> [ Assign (Lvar "_c", c) ]
    | For _ | Sync | Global_sync | Comment _ -> []
    | s -> [ s ]
  in
  Rewrite.collect_accesses shallow
  |> List.filter_map (fun (arr, idxs, is_store) ->
         match idxs with
         | [ ix ] when (not is_store) && List.mem arr globals -> Some (arr, ix)
         | _ -> None)

(** The candidate pairs ([2*e+N], [2*e+N+1]) among loads of the same
    array, in scan order, each with the statement of its second load.
    Each index carries its affine form in its own statement's context;
    the affine engine checks the "+1" relation, and [halve] extracts the
    vector offset syntactically so the emitted code stays readable. *)
let candidates (loads : (int * (string * Ast.expr * Affine.t)) list) :
    (string * Ast.expr * Ast.expr * Ast.expr * int) Seq.t =
  let rec scan = function
    | [] -> Seq.empty
    | (_, (arr, ix1, f1)) :: rest -> (
        match halve ix1 with
        | None -> scan rest
        | Some v_index ->
            Seq.append
              (Seq.filter_map
                 (fun (j, (arr2, ix2, f2)) ->
                   if
                     String.equal arr arr2
                     && Affine.equal (Affine.sub f2 f1) (Affine.const 1)
                   then Some (arr, ix1, ix2, v_index, j)
                   else None)
                 (List.to_seq rest))
              (fun () -> scan rest ()))
  in
  scan loads

(** Vectorize one block: scan straight-line statements, pair accesses that
    may live in different adjacent statements of the same block. Returns
    the rewritten block; [counter] counts the pairs formed. *)
let rec vectorize_block (names : Fresh.t) (counter : int ref)
    (ctx : Affine.ctx) (globals : string list) (b : Ast.block) : Ast.block =
  (* a statement with the context before it (the walk's statement rule)
     and its loads' forms there; pairing leaves every context as it was:
     a register declaration binds a fresh name, and neither a load nor
     its replacement is affine *)
  let entry ctx s =
    ( ctx,
      s,
      List.filter_map
        (fun (arr, ix) ->
          Option.map (fun f -> (arr, ix, f)) (Affine.of_expr ctx ix))
        (stmt_loads globals s) )
  in
  (* first recurse into structured statements *)
  let b =
    List.fold_left
      (fun (ctx, acc) s ->
        let s' =
          match s with
          | If (c, t, f) ->
              If
                ( c,
                  vectorize_block names counter ctx globals t,
                  vectorize_block names counter ctx globals f )
          | For l ->
              For
                {
                  l with
                  l_body =
                    vectorize_block names counter (Walk.body_ctx ctx l)
                      globals l.l_body;
                }
          | s -> s
        in
        (Walk.after_stmt ctx s, entry ctx s' :: acc))
      (ctx, []) b
    |> snd |> List.rev
  in
  (* place a candidate: the float2 load goes before the first statement
     [p] that uses either index as written, and replaces both there and in
     the statements after it up to the first that kills the register: one
     that overwrites the array, a barrier (other threads may overwrite
     it), or one that assigns a name either index reads. [p] reads the
     pair before it assigns anything, but a branch it guards may run
     after, so a killing [p] is the whole window. The candidate is
     declined unless its second load lies in the window: then both halves
     are used, and as the window assigns no name the indices read, they
     differ by one at [p] as they do where they were paired. *)
  let place b (arr, ix1, ix2, v_index, j) =
    let kills s =
      match s with
      | Sync | Global_sync -> true
      | _ ->
          List.exists
            (fun (a, _, st) -> st && String.equal a arr)
            (Rewrite.collect_accesses [ s ])
          || List.exists
               (fun v ->
                 Rewrite.expr_uses_var v ix1 || Rewrite.expr_uses_var v ix2)
               (Walk.assigned_vars [ s ])
    and uses (_, s, _) =
      List.exists
        (fun (a, ix) ->
          String.equal a arr
          && (Ast.equal_expr ix ix1 || Ast.equal_expr ix ix2))
        (stmt_loads globals s)
    in
    let p = Option.get (List.find_index uses b) in
    let killed = (fun (_, s, _) -> kills s) (List.nth b p) in
    let rec window_end i = function
      | [] -> i - 1
      | (_, s, _) :: rest ->
          if i > p && (killed || kills s) then i - 1 else window_end (i + 1) rest
    in
    let last = window_end 0 b in
    if j > last then None
    else
      let name = Fresh.name names (Printf.sprintf "vec%d" !counter) in
      incr counter;
      let decl =
        Decl
          {
            d_name = name;
            d_ty = Scalar Float2;
            d_init = Some (Vload { v_arr = arr; v_width = 2; v_index });
          }
      in
      let subst_e e =
        e
        |> Pass_util.replace_expr_in (Index (arr, [ ix1 ])) (Field (Var name, FX))
        |> Pass_util.replace_expr_in (Index (arr, [ ix2 ])) (Field (Var name, FY))
      in
      let subst = Rewrite.map_stmt_exprs (fun e -> Some (subst_e e)) in
      Some
        (List.concat
           (List.mapi
              (fun i ((c, s, _) as en) ->
                if i < p || i > last then [ en ]
                else if i > p then [ entry c (subst s) ]
                else
                  match s with
                  | If (cond, t, f) when killed ->
                      [ (c, decl, []); entry c (If (subst_e cond, t, f)) ]
                  | s -> [ (c, decl, []); entry c (subst s) ])
              b))
  in
  (* then pair accesses across this block's straight-line statements *)
  let rec pair_pass b =
    let loads =
      List.concat (List.mapi (fun j (_, _, ls) -> List.map (fun l -> (j, l)) ls) b)
    in
    match Seq.find_map (place b) (candidates loads) with
    | None -> List.map (fun (_, s, _) -> s) b
    | Some b -> pair_pass b
  in
  pair_pass b

(** The pass: returns the kernel with paired accesses vectorized. *)
let apply (k : Ast.kernel) (launch : Ast.launch) : Pass_util.outcome =
  let ctx = Affine.ctx_of_launch ~sizes:k.k_sizes launch in
  let counter = ref 0 in
  let globals = Pass_util.global_arrays k in
  let body =
    vectorize_block (Fresh.of_kernel k) counter ctx globals k.k_body
  in
  if !counter = 0 then
    Pass_util.unchanged ~notes:[ "no 2*e / 2*e+1 access pairs found" ] k launch
  else
    Pass_util.changed
      ~notes:
        [ Printf.sprintf "grouped %d access pairs into float2 loads" !counter ]
      { k with k_body = body }
      launch

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

(** Find a pair ([2*e+N], [2*e+N+1]) among accesses to the same array. The
    affine engine checks the "+1" relation; [halve] extracts the vector
    offset syntactically so the emitted code stays readable. *)
let find_pair (ctx : Affine.ctx) (accesses : (string * Ast.expr) list) :
    (string * Ast.expr * Ast.expr * Ast.expr) option =
  let with_forms =
    List.filter_map
      (fun (arr, ix) ->
        match Affine.of_expr ctx ix with
        | Some f -> Some (arr, ix, f)
        | None -> None)
      accesses
  in
  let rec scan = function
    | [] -> None
    | (arr, ix1, f1) :: rest -> (
        let partner =
          List.find_opt
            (fun (arr2, _, f2) ->
              String.equal arr arr2
              && Affine.equal (Affine.sub f2 f1) (Affine.const 1))
            rest
        in
        match partner with
        | Some (_, ix2, _) -> (
            match halve ix1 with
            | Some v_index -> Some (arr, ix1, ix2, v_index)
            | None -> scan rest)
        | None -> scan rest)
  in
  scan with_forms

(** Vectorize one block: scan straight-line statements, pair accesses that
    may live in different adjacent statements of the same block. Returns
    the rewritten block and how many pairs were formed. [ctx] mirrors the
    walk in {!Coalesce_check.analyze_kernel} for loop handling. *)
let rec vectorize_block (names : Fresh.t) (counter : int ref)
    (ctx : Affine.ctx) (globals : string list) (b : Ast.block) : Ast.block =
  (* first recurse into structured statements *)
  let b =
    List.map
      (fun s ->
        match s with
        | If (c, t, f) ->
            If
              ( c,
                vectorize_block names counter ctx globals t,
                vectorize_block names counter ctx globals f )
        | For l -> (
            match Affine.enter_loop ctx l with
            | Some ctx' ->
                For
                  {
                    l with
                    l_body = vectorize_block names counter ctx' globals l.l_body;
                  }
            | None ->
                For
                  {
                    l with
                    l_body = vectorize_block names counter ctx globals l.l_body;
                  })
        | s -> s)
      b
  in
  (* then pair accesses across this block's straight-line statements *)
  let rec pair_pass b =
    let all = List.concat_map (stmt_loads globals) b in
    match find_pair ctx all with
    | None -> b
    | Some (arr, ix1, ix2, v_index) ->
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
        let subst s =
          [ s ]
          |> Pass_util.replace_expr (Index (arr, [ ix1 ])) (Field (Var name, FX))
          |> Pass_util.replace_expr (Index (arr, [ ix2 ])) (Field (Var name, FY))
          |> List.hd
        in
        (* the register is only valid until the array is overwritten or a
           barrier lets other threads overwrite it; stop substituting
           there (later identical loads form their own pair next round) *)
        let kills s =
          match s with
          | Sync | Global_sync -> true
          | _ ->
              Rewrite.collect_accesses [ s ]
              |> List.exists (fun (a, _, st) -> st && String.equal a arr)
        in
        (* insert the float2 load before the first statement using either *)
        let rec insert = function
          | [] -> []
          | s :: rest ->
              let uses =
                stmt_loads globals s
                |> List.exists (fun (a, ix) ->
                       String.equal a arr
                       && (Ast.equal_expr ix ix1 || Ast.equal_expr ix ix2))
              in
              if uses then begin
                let rec live = function
                  | [] -> []
                  | s :: rest ->
                      if kills s then s :: rest else subst s :: live rest
                in
                decl :: subst s :: live rest
              end
              else s :: insert rest
        in
        pair_pass (insert b)
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

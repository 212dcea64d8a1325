(** Partition-camping elimination (paper Section 3.7).

    Detection: concurrent thread blocks differ mainly in [bidx] (neighbors
    along X run at the same time), so for every global access the compiler
    computes the address stride between blocks [bidx] and [bidx+1]; when
    the stride is a non-zero multiple of (partition width x number of
    partitions), all those blocks queue on the same memory partition.

    Elimination, per the paper's two cases:
    - {b 1-D grids} (mv): an address offset of one partition width per
      block is inserted — each block starts its reduction sweep at column
      [(i + 64*bidx) mod W], which rotates the (commutative) reduction and
      spreads the simultaneous traffic across all partitions. Applied only
      when the swept loop carries nothing but reductions and staging, so
      the rotation is semantics-preserving.
    - {b 2-D grids} (tp): diagonal block reordering (Ruetsch &
      Micikevicius, adopted by the paper): the block scheduled as
      [(bidx,bidy)] processes tile [((bidx+bidy) mod gridDim.x, bidx)]. *)

open Gpcc_ast
open Ast
open Gpcc_analysis

type detection = {
  d_arr : string;
  d_stride_bytes : int;
  d_outer_loop : string option;  (** outermost loop sweeping the access *)
}

(** Accesses whose block-to-block address stride lands on one partition. *)
let detect (cfg : Gpcc_sim.Config.t) (k : Ast.kernel) (launch : Ast.launch) :
    detection list =
  if launch.grid_x < 2 then []
  else
    Analysis_cache.(accesses (domain ()) ~launch k)
    |> List.filter_map (fun (a : Coalesce_check.access) ->
           match a.flat with
           | None -> None
           | Some f ->
               let stride =
                 Affine.coeff Affine.Bidx f * 4 * max 1 a.vec_width
               in
               let span = cfg.partition_bytes * cfg.num_partitions in
               if stride <> 0 && stride mod span = 0 then
                 Some
                   {
                     d_arr = a.arr;
                     d_stride_bytes = stride;
                     d_outer_loop =
                       (match List.rev a.enclosing with
                       | outer :: _ -> Some outer
                       | [] -> None);
                   }
               else None)

(* --- 2-D: diagonal block reordering --- *)

let diagonal_remap (k : Ast.kernel) (launch : Ast.launch) : Pass_util.outcome
    =
  if launch.grid_x <> launch.grid_y then
    Pass_util.unchanged
      ~notes:[ "diagonal reordering needs a square grid; skipped" ]
      k launch
  else begin
    let names = Fresh.of_kernel k in
    let nbx = Fresh.name names "bidx_d" in
    let nby = Fresh.name names "bidy_d" in
    let body =
      k.k_body
      |> Rewrite.subst_builtin Ast.Idx
           (Ast.( +: ) (Ast.( *: ) (Var nbx) Ast.bdimx) Ast.tidx)
      |> Rewrite.subst_builtin Ast.Idy
           (Ast.( +: ) (Ast.( *: ) (Var nby) Ast.bdimy) Ast.tidy)
      |> Rewrite.subst_builtin Ast.Bidx (Var nbx)
      |> Rewrite.subst_builtin Ast.Bidy (Var nby)
    in
    let header =
      [
        Comment "diagonal block reordering eliminates partition camping";
        Ast.decl_i nbx
          ~init:(Ast.( %: ) (Ast.( +: ) Ast.bidx Ast.bidy) (Builtin Gdimx));
        Ast.decl_i nby ~init:Ast.bidx;
      ]
    in
    Pass_util.changed
      ~notes:
        [
          "remapped block ids diagonally: newbidx = (bidx+bidy) mod gridDim.x, \
           newbidy = bidx";
        ]
      { k with k_body = Pass_util.simplify_block (header @ body) }
      launch
  end

(* --- 1-D: address-offset insertion --- *)

(** Is this loop safe to rotate? Its body may only stage into shared
    memory, accumulate into scalars, declare values, sync, or run inner
    loops/guards of the same shape — i.e. the loop is a reduction sweep
    whose iteration order is free. *)
let rec reduction_sweep (shared : string list) (b : Ast.block) : bool =
  List.for_all
    (fun s ->
      match s with
      | Comment _ | Sync -> true
      | Global_sync -> false
      | Decl _ -> true
      | Assign (Lindex (sh, _), _) -> List.mem sh shared
      | Assign (Lvar v, Binop (Add, Var v', _))
      | Assign (Lvar v, Binop (Add, _, Var v')) ->
          String.equal v v'
      | Assign (Lvar _, _) -> false
      | Assign ((Lfield _ | Lvec _), _) -> false
      | If (_, t, f) -> reduction_sweep shared t && reduction_sweep shared f
      | For l -> reduction_sweep shared l.l_body)
    b

let offset_insertion (cfg : Gpcc_sim.Config.t) (k : Ast.kernel)
    (launch : Ast.launch) (loops : string list) : Pass_util.outcome =
  let shared = Pass_util.shared_arrays k.k_body in
  let globals = Pass_util.global_arrays k in
  let offset_elems = cfg.partition_bytes / 4 in
  let names = Fresh.of_kernel k in
  let rotated = ref [] in
  let skipped = ref [] in
  let rotate_loop (l : Ast.loop) : Ast.stmt =
    if not (reduction_sweep shared l.l_body) then begin
      skipped := (l.l_var ^ ": loop is not a pure reduction sweep") :: !skipped;
      For l
    end
    else begin
      let pc = Fresh.name names (l.l_var ^ "_pc") in
      let width = l.l_limit in
      let rot =
        Ast.decl_i pc
          ~init:
            (Ast.( %: )
               (Ast.( +: ) (Var l.l_var)
                  (Ast.( *: ) (Int_lit offset_elems) Ast.bidx))
               width)
      in
      (* substitute the rotated index inside global-array index
         expressions only *)
      let body =
        Rewrite.map_block_exprs
          (function
            | Index (a, es) when List.mem a globals ->
                Some
                  (Index
                     ( a,
                       List.map
                         (fun e ->
                           Rewrite.map_expr
                             (function
                               | Var v when String.equal v l.l_var ->
                                   Some (Var pc)
                               | _ -> None)
                             e)
                         es ))
            | _ -> None)
          l.l_body
      in
      rotated := l.l_var :: !rotated;
      For
        {
          l with
          l_body = Comment "partition offset: rotate the sweep per block" :: rot :: body;
        }
    end
  in
  let body =
    Rewrite.map_stmts
      (function
        | For l when List.mem l.l_var loops && not (List.mem l.l_var !rotated)
          ->
            [ rotate_loop l ]
        | s -> [ s ])
      k.k_body
  in
  if !rotated = [] then
    Pass_util.unchanged
      ~notes:(List.map (fun s -> "offset insertion skipped: " ^ s) !skipped)
      k launch
  else
    Pass_util.changed
      ~notes:
        ([
           Printf.sprintf
             "inserted per-block address offset (%d elements * bidx) into \
              sweep loop(s) %s"
             offset_elems
             (String.concat ", " !rotated);
         ]
        @ List.map (fun s -> "note: " ^ s) !skipped)
      { k with k_body = body }
      launch

let apply ?(cfg = Gpcc_sim.Config.gtx280) (k : Ast.kernel)
    (launch : Ast.launch) : Pass_util.outcome =
  match detect cfg k launch with
  | [] ->
      Pass_util.unchanged ~notes:[ "no partition camping detected" ] k launch
  | detections ->
      let arrs =
        List.sort_uniq String.compare (List.map (fun d -> d.d_arr) detections)
      in
      let note =
        Printf.sprintf
          "partition camping detected on %s (block-to-block stride multiple \
           of %d bytes)"
          (String.concat ", " arrs)
          (cfg.partition_bytes * cfg.num_partitions)
      in
      let result =
        if launch.grid_y > 1 then diagonal_remap k launch
        else
          let loops =
            List.sort_uniq String.compare
              (List.filter_map (fun d -> d.d_outer_loop) detections)
          in
          if loops = [] then
            Pass_util.unchanged
              ~notes:[ "camping access is not swept by a loop; left as is" ]
              k launch
          else offset_insertion cfg k launch loops
      in
      { result with notes = note :: result.notes }

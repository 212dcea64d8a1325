(** Inter-thread-block data-sharing analysis (paper Section 3.4).

    After memory coalescing every global load is associated with coalesced
    segments; the compiler detects data sharing by checking whether the
    address ranges touched by *neighboring* thread blocks overlap. With
    affine flattened addresses this has a crisp criterion: a load whose
    address does not depend on [bidx] is accessed identically by every
    block along X (full overlap), and likewise for [bidy] along Y.

    Loads are classified by their target (Section 3.3's two kinds of global
    memory load statements):
    - G2S — global to shared memory: the load is the right-hand side of an
      assignment into a [__shared__] array;
    - G2R — global to register: the load feeds a computation directly.

    The merge-selection rule of Section 3.5.3 keys off this classification:
    G2S sharing prefers thread-block merge, G2R sharing prefers thread
    merge. *)

open Gpcc_ast

type role =
  | G2S
  | G2R
[@@deriving show { with_path = false }, eq]

type direction =
  | Along_x
  | Along_y
[@@deriving show { with_path = false }, eq]

(** Sharing summary for one global array's loads. *)
type array_sharing = {
  arr : string;
  role : role;
  share_x : bool;  (** neighboring blocks along X touch the same data *)
  share_y : bool;
  loads : int;  (** number of load sites *)
}
[@@deriving show { with_path = false }]

(** Global arrays whose elements are loaded directly into a shared array
    (pattern [shared[..] = g[..]]). *)
let g2s_arrays (k : Ast.kernel) : string list =
  let shared =
    Rewrite.declared_vars k.k_body
    |> List.filter_map (fun (n, ty) ->
           match ty with
           | Ast.Array { space = Shared; _ } -> Some n
           | _ -> None)
  in
  let acc = ref [] in
  ignore
    (Rewrite.map_stmts
       (function
         | Assign (Lindex (dst, _), rhs) as s when List.mem dst shared ->
             Rewrite.collect_accesses [ Assign (Lvar "_", rhs) ]
             |> List.iter (fun (a, _, _) -> acc := a :: !acc);
             [ s ]
         | s -> [ s ])
       k.k_body);
  List.sort_uniq String.compare !acc

(** Summarize sharing for every global array that is loaded. *)
let of_accesses (k : Ast.kernel) (accesses : Coalesce_check.access list) :
    array_sharing list =
  let g2s = g2s_arrays k in
  let loads = List.filter (fun a -> not a.Coalesce_check.is_store) accesses in
  let arrays =
    List.sort_uniq String.compare
      (List.map (fun a -> a.Coalesce_check.arr) loads)
  in
  List.map
    (fun arr ->
      let mine =
        List.filter (fun a -> String.equal a.Coalesce_check.arr arr) loads
      in
      (* sharing pays off when a *repeated* (loop-nested) load touches the
         same data in the neighboring block; one-shot loads outside loops
         carry no reuse and do not drive merges *)
      let indep v =
        List.exists
          (fun (a : Coalesce_check.access) ->
            a.enclosing <> []
            &&
            match a.flat with Some f -> Affine.coeff v f = 0 | None -> false)
          mine
      in
      {
        arr;
        role = (if List.mem arr g2s then G2S else G2R);
        share_x = indep Affine.Bidx;
        share_y = indep Affine.Bidy;
        loads = List.length mine;
      })
    arrays

let analyze ?(launch : Ast.launch option) (k : Ast.kernel) :
    array_sharing list =
  of_accesses k (Coalesce_check.analyze_kernel ?launch k)

(** Directions in which a merge would pay off, with the role that drives
    the paper's choice between thread-block merge and thread merge. *)
let merge_opportunities (sharing : array_sharing list) :
    (direction * role * string) list =
  List.concat_map
    (fun s ->
      let dirs = [] in
      let dirs = if s.share_x then (Along_x, s.role, s.arr) :: dirs else dirs in
      let dirs = if s.share_y then (Along_y, s.role, s.arr) :: dirs else dirs in
      dirs)
    sharing

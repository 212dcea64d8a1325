(** Memory-coalescing analysis (paper Section 3.2): a view over the
    global accesses of a {!Walk} record.

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

(** The global accesses of a walk record outside wrap passes, in the
    contexts of one launch. *)
let of_walk (layouts : Layout.table) (cs : Walk.contexts) (w : Walk.t) :
    access list =
  List.filter_map
    (fun (a : Walk.access) ->
      let frames = a.a_env.frames in
      if
        a.a_space <> `Global
        || List.exists (fun (f : Walk.frame) -> f.fr_offset <> 0) frames
      then None
      else
        let indices = Walk.indices a.a_kind in
        let ctx = Walk.ctx cs a.a_ctx in
        let flat = flat_of_access ctx layouts a.a_arr indices in
        Some
          {
            arr = a.a_arr;
            indices;
            is_store = a.a_store;
            vec_width = (match a.a_kind with `Sc _ -> 1 | `Vec (w, _) -> w);
            flat;
            enclosing = List.map (fun (f : Walk.frame) -> f.fr_var) frames;
            verdict = verdict_of_flat flat;
            ctx;
            divergent = Walk.guarded a.a_guards;
            safe_loops =
              List.filter_map
                (fun (f : Walk.frame) ->
                  if Lazy.force f.fr_guarded then None else Some f.fr_var)
                frames;
          })
    w.accesses

let analyze_kernel
    ?(launch = { Ast.grid_x = 1; grid_y = 1; block_x = 16; block_y = 1 })
    (k : Ast.kernel) : access list =
  let w = Walk.run k in
  of_walk (Layout.of_kernel k) (Walk.contexts w launch) w

let to_string (a : access) =
  Printf.sprintf "%s%s %s (%s): %s" a.arr
    (String.concat ""
       (List.map (fun e -> "[" ^ Pp.expr_to_string e ^ "]") a.indices))
    (if a.is_store then "store" else "load")
    (match a.flat with Some f -> Affine.to_string f | None -> "?")
    (show_verdict a.verdict)

(** Data prefetching (paper Section 3.6, Figure 8).

    For each loop whose body begins with global-to-shared staging, the
    global load is double-buffered through a register: the value for the
    first iteration is loaded before the loop; inside the loop the staging
    stores the register to shared memory, and right after the
    [__syncthreads()] the next iteration's value is fetched (bound-checked)
    so the load's latency overlaps the iteration's computation.

    The cost is one register per staged load. Following the paper ("when
    registers are used up before prefetching, the prefetching step is
    skipped"), the transformation is applied only when it does not lower
    the SM occupancy, and only when the staged address is an affine
    function of the loop variable (so "next iteration" is well-defined). *)

open Gpcc_ast
open Ast

(** A staging site inside a loop body: the statement position, optional
    guard, shared target, and the global-load right-hand side. *)
type site = {
  pos : int;
  guard : Ast.expr option;
  target : Ast.lvalue;
  load : Ast.expr;  (** the global Index/Vload expression *)
}

let is_global_load (globals : string list) = function
  | Index (a, _) when List.mem a globals -> true
  | Vload { v_arr; _ } when List.mem v_arr globals -> true
  | _ -> false

(** Variables assigned anywhere in a block (rotated-index locals etc.). *)
let assigned_vars (b : Ast.block) : string list =
  let acc = ref [] in
  ignore
    (Rewrite.map_stmts
       (function
         | Assign (Lvar v, _) as s ->
             acc := v :: !acc;
             [ s ]
         | Decl d as s ->
             acc := d.d_name :: !acc;
             [ s ]
         | s -> [ s ])
       b);
  !acc

let find_sites (globals : string list) (shared : string list)
    (body : Ast.block) : site list =
  List.concat
    (List.mapi
       (fun pos s ->
         match s with
         | Assign ((Lindex (sh, _) as lv), rhs)
           when List.mem sh shared && is_global_load globals rhs ->
             [ { pos; guard = None; target = lv; load = rhs } ]
         | If (g, stagings, []) ->
             List.filter_map
               (function
                 | Assign ((Lindex (sh, _) as lv), rhs)
                   when List.mem sh shared && is_global_load globals rhs ->
                     Some { pos; guard = Some g; target = lv; load = rhs }
                 | _ -> None)
               stagings
         | _ -> [])
       body)

(** Position of the first [__syncthreads] after the staging group. *)
let sync_pos (body : Ast.block) (after : int) : int option =
  let rec go i = function
    | [] -> None
    | Sync :: _ when i > after -> Some i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 body

let guard_stmt (guard : Ast.expr option) (s : Ast.stmt) =
  match guard with None -> s | Some g -> If (g, [ s ], [])

let and_guard (guard : Ast.expr option) (cond : Ast.expr) =
  match guard with None -> cond | Some g -> Binop (And, g, cond)

(** Rewrite one loop: returns [None] when the loop has no prefetchable
    staging. *)
let prefetch_loop (globals : string list) (shared : string list)
    (fresh : string -> string) (l : Ast.loop) : (Ast.stmt list * int) option =
  let sites = find_sites globals shared l.l_body in
  (* the load must move with the loop variable, and must not depend on
     any value computed inside the body (e.g. a rotated index) *)
  let inner = assigned_vars l.l_body in
  let sites =
    List.filter
      (fun s ->
        Rewrite.expr_uses_var l.l_var s.load
        && not (List.exists (fun v -> Rewrite.expr_uses_var v s.load) inner))
      sites
  in
  if sites = [] then None
  else
    match sync_pos l.l_body (List.fold_left (fun m s -> max m s.pos) 0 sites) with
    | None -> None
    | Some sp ->
        let tmps = List.map (fun s -> (fresh "pref", s)) sites in
        let next e =
          Pass_util.simplify_expr
            ([ Assign (Lvar "_", e) ]
            |> Rewrite.subst_var l.l_var (Ast.( +: ) (Var l.l_var) l.l_step)
            |> function
            | [ Assign (_, e') ] -> e'
            | _ -> e)
        in
        let at_init e =
          Pass_util.simplify_expr
            ([ Assign (Lvar "_", e) ]
            |> Rewrite.subst_var l.l_var l.l_init
            |> function
            | [ Assign (_, e') ] -> e'
            | _ -> e)
        in
        (* declarations + first-iteration loads before the loop *)
        let pre =
          List.concat_map
            (fun (tmp, s) ->
              let ty =
                match s.load with
                | Vload { v_width = 2; _ } -> Scalar Float2
                | Vload _ -> Scalar Float4
                | _ -> Scalar Float
              in
              [
                Decl { d_name = tmp; d_ty = ty; d_init = None };
                guard_stmt s.guard (Assign (Lvar tmp, at_init s.load));
              ])
            tmps
        in
        (* inside the loop: staging uses the register; after the sync the
           next value is fetched under a bound check *)
        let bound_check =
          Ast.( <: ) (Ast.( +: ) (Var l.l_var) l.l_step) l.l_limit
        in
        let body =
          List.concat
            (List.mapi
               (fun i st ->
                 let replaced =
                   List.fold_left
                     (fun st (tmp, s) ->
                       match st with
                       | Assign (lv, rhs) when Ast.equal_lvalue lv s.target ->
                           Assign
                             ( lv,
                               Pass_util.replace_expr_in s.load (Var tmp) rhs )
                       | If (g, stagings, []) ->
                           If
                             ( g,
                               List.map
                                 (function
                                   | Assign (lv, rhs)
                                     when Ast.equal_lvalue lv s.target ->
                                       Assign
                                         ( lv,
                                           Pass_util.replace_expr_in s.load
                                             (Var tmp) rhs )
                                   | st -> st)
                                 stagings,
                               [] )
                       | st -> st)
                     st tmps
                 in
                 let prefetches =
                   if i = sp then
                     List.map
                       (fun (tmp, s) ->
                         If
                           ( and_guard s.guard bound_check,
                             [ Assign (Lvar tmp, next s.load) ],
                             [] ))
                       tmps
                   else []
                 in
                 (replaced :: prefetches))
               l.l_body)
        in
        Some (pre @ [ For { l with l_body = body } ], List.length tmps)

(** Number of 32-bit registers the prefetch temporaries would add. *)
let extra_regs (tmps : int) = tmps

let apply ?(cfg = Gpcc_sim.Config.gtx280) (k : Ast.kernel)
    (launch : Ast.launch) : Pass_util.outcome =
  let globals = Pass_util.global_arrays k in
  let shared = Pass_util.shared_arrays k.k_body in
  let fresh = Fresh.name (Fresh.of_kernel k) in
  let added = ref 0 in
  let body =
    Rewrite.map_stmts
      (function
        | For l when !added = 0 -> (
            match prefetch_loop globals shared fresh l with
            | Some (stmts, n) ->
                added := n;
                stmts
            | None -> [ For l ])
        | s -> [ s ])
      k.k_body
  in
  if !added = 0 then
    Pass_util.unchanged ~notes:[ "no prefetchable staging loop found" ] k
      launch
  else begin
    (* occupancy check: skip if the temporaries would reduce resident
       blocks (the paper's "registers are used up" rule) *)
    let regs = Gpcc_analysis.Regcount.estimate k in
    let shmem = Gpcc_analysis.Regcount.shared_bytes k in
    let tpb = Ast.threads_per_block launch in
    let occ_before =
      Gpcc_sim.Occupancy.calc cfg ~regs_per_thread:regs ~shared_per_block:shmem
        ~threads_per_block:tpb
    in
    let occ_after =
      Gpcc_sim.Occupancy.calc cfg
        ~regs_per_thread:(regs + extra_regs !added)
        ~shared_per_block:shmem ~threads_per_block:tpb
    in
    if occ_after.blocks_per_sm < occ_before.blocks_per_sm then
      Pass_util.unchanged
        ~notes:
          [
            Printf.sprintf
              "prefetching skipped: %d extra register(s) would reduce \
               occupancy from %d to %d blocks/SM"
              !added occ_before.blocks_per_sm occ_after.blocks_per_sm;
          ]
        k launch
    else
      Pass_util.changed
        ~notes:
          [
            Printf.sprintf
              "double-buffered %d global-to-shared load(s) through prefetch \
               register(s)"
              !added;
          ]
        { k with k_body = body }
        launch
  end

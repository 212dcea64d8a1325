(** Thread-block merge and thread merge (paper Section 3.5) — the paper's
    novel route to loop tiling and unrolling: aggregating fine-grain work
    items into bigger thread blocks (shared-memory reuse) and bigger
    threads (register reuse).

    {b Thread-block merge along X} ([block_merge_x]) combines [n]
    neighboring blocks into one: the block width grows, and each
    global-to-shared staging statement is treated according to its data:
    - stagings whose address does not depend on [bidx] load data shared by
      all merged sub-blocks, so they are wrapped in [if (tidx < old_width)]
      to remove the now-redundant loads (paper Figure 5);
    - cooperative staging loops striding by the block width (the apron
      pattern) scale naturally: their stride becomes the new width and the
      staged buffer widens.

    {b Thread merge} ([thread_merge]) combines the threads of [n]
    neighboring blocks along X or Y into one thread each: statements that
    depend on the merged direction are replicated [n] times with the
    thread position substituted ([idy -> idy*n + r] along Y), per-thread
    scalars and per-replica shared buffers are renamed per replica, control
    flow and direction-independent statements keep a single copy, and
    direction-independent global loads inside replicated statements are
    hoisted into a register shared by all replicas (paper Figure 7's
    [float r0 = b[(i+k)][idx]]) — the register-reuse payoff that makes the
    compiler prefer thread merge for G2R sharing. *)

open Gpcc_ast
open Ast
open Gpcc_analysis

type direction =
  | X
  | Y

(* --------------------------------------------------------------------- *)
(* Thread-block merge along X                                             *)
(* --------------------------------------------------------------------- *)

(** Classification of a statement that writes a shared array. *)
type staging_class =
  | Guardable  (** bidx-independent: data shared across merged sub-blocks *)
  | Scaling  (** cooperative [for t = tidx; ...; t += width] staging loop *)
  | Private
      (** per-sub-block data (the mv row tile): each merged group of
          [old_width] threads keeps its own copy — the staged array gains a
          leading dimension indexed by [tidx / old_width], and [tidx]
          inside the staging and the uses becomes [tidx %% old_width] *)
  | Blocking of string  (** prevents the merge *)

(** Whether every global load in [body] is bidx-independent. Flattened
    forms come from an analysis of the *whole* kernel ([table]) and are
    matched syntactically — a probe of the statement alone would lose the
    enclosing-loop context and misjudge loads whose bidx-dependence flows
    through a loop variable (e.g. [for i = idx; ...]). *)
let rhs_globals_bidx_free (k : Ast.kernel)
    (table : Coalesce_check.access list) (body : Ast.block) : bool =
  let globals = Pass_util.global_arrays k in
  let loads =
    Rewrite.collect_accesses body
    |> List.filter (fun (a, _, st) -> (not st) && List.mem a globals)
  in
  loads <> []
  && List.for_all
       (fun (arr, idxs, _) ->
         let matches =
           List.filter
             (fun (a : Coalesce_check.access) ->
               String.equal a.arr arr
               && List.length a.indices = List.length idxs
               && List.for_all2 Ast.equal_expr a.indices idxs)
             table
         in
         matches <> []
         && List.for_all
              (fun (a : Coalesce_check.access) ->
                match a.flat with
                | Some f ->
                    Affine.coeff Affine.Bidx f = 0
                    && List.for_all
                         (fun (v, _) ->
                           match v with
                           | Affine.Mod_of (b, _) | Affine.Div_of (b, _) ->
                               not (Affine.equal_var b Affine.Bidx)
                           | _ -> true)
                         f.Affine.terms
                | None -> false)
              matches)
       loads

(** Find and classify every statement that stores into a shared array.
    Returns [(classification, rewrite them in place)] via a statement map. *)
let classify_staging (k : Ast.kernel)
    (table : Coalesce_check.access list) (shared : string list)
    (s : Ast.stmt) : staging_class option =
  let writes_shared b =
    Rewrite.collect_accesses b
    |> List.exists (fun (a, _, st) -> st && List.mem a shared)
  in
  let all_shared_stores b =
    b <> []
    && List.for_all
         (function
           | Assign (Lindex (sh, _), _) -> List.mem sh shared
           | _ -> false)
         b
  in
  match s with
  | Assign (Lindex (sh, _), _) when List.mem sh shared ->
      if rhs_globals_bidx_free k table [ s ] then Some Guardable
      else Some Private
  | For l when all_shared_stores l.l_body ->
      if Ast.equal_expr l.l_init Ast.tidx then Some Scaling
      else if rhs_globals_bidx_free k table l.l_body then Some Guardable
      else Some Private
  | For _ -> None
  | If (_, t, f) when writes_shared t || writes_shared f ->
      (* already-guarded staging from a previous merge *)
      if rhs_globals_bidx_free k table (t @ f) then Some Guardable
      else Some (Blocking "guarded staging depends on bidx")
  | _ -> None

(** Widen an apron-style shared array and its staging loop by
    [extra = old_block_x * (n-1)] columns. *)
let widen_apron (extra : int) (sh_widths : (string, int) Hashtbl.t)
    (s : Ast.stmt) : Ast.stmt =
  match s with
  | For l ->
      let widened_limit =
        match l.l_limit with
        | Int_lit w -> Int_lit (w + extra)
        | e -> Ast.( +: ) e (Int_lit extra)
      in
      For { l with l_limit = widened_limit }
  | s -> ignore sh_widths; s

let block_merge_x (k : Ast.kernel) (launch : Ast.launch) (n : int) :
    Pass_util.outcome =
  if n <= 1 then Pass_util.unchanged k launch
  else if launch.grid_x mod n <> 0 then
    Pass_util.unchanged
      ~notes:
        [ Printf.sprintf "thread-block merge x%d skipped: grid.x=%d not divisible" n launch.grid_x ]
      k launch
  else begin
    let shared = Pass_util.shared_arrays k.k_body in
    let table = Coalesce_check.analyze_kernel ~launch k in
    let old_bx = launch.block_x in
    let extra = old_bx * (n - 1) in
    let blockers = ref [] in
    let guarded = ref 0 and scaled = ref 0 in
    (* first check feasibility: top-down, stopping at classified
       stagings so their inner statements are not re-classified *)
    let rec scan b =
      List.iter
        (fun s ->
          match classify_staging k table shared s with
          | Some (Blocking why) -> blockers := why :: !blockers
          | Some _ -> ()
          | None -> (
              match s with
              | For l -> scan l.l_body
              | If (_, t, f) ->
                  scan t;
                  scan f
              | _ -> ()))
        b
    in
    scan k.k_body;
    if !blockers <> [] then
      Pass_util.unchanged
        ~notes:
          (List.map
             (fun w -> "thread-block merge x" ^ string_of_int n ^ " blocked: " ^ w)
             !blockers)
        k launch
    else begin
      (* resize apron shared decls: arrays staged by Scaling loops *)
      let scaling_arrays = ref [] in
      let rec find_scaling b =
        List.iter
          (fun s ->
            match classify_staging k table shared s with
            | Some Scaling ->
                Rewrite.collect_accesses [ s ]
                |> List.iter (fun (a, _, st) ->
                       if st && List.mem a shared then
                         scaling_arrays := a :: !scaling_arrays)
            | Some _ -> ()
            | None -> (
                match s with
                | For l -> find_scaling l.l_body
                | If (_, t, f) ->
                    find_scaling t;
                    find_scaling f
                | _ -> ()))
          b
      in
      find_scaling k.k_body;
      (* arrays staged by Private loops, with their original rank *)
      let private_arrays = ref [] in
      let decl_rank =
        let ranks = Hashtbl.create 4 in
        List.iter
          (fun (nm, ty) ->
            match ty with
            | Array { Ast.dims; _ } -> Hashtbl.replace ranks nm (List.length dims)
            | _ -> ())
          (Rewrite.declared_vars k.k_body);
        fun nm -> Hashtbl.find_opt ranks nm
      in
      let rec find_private b =
        List.iter
          (fun s ->
            match classify_staging k table shared s with
            | Some Private ->
                Rewrite.collect_accesses [ s ]
                |> List.iter (fun (a, _, st) ->
                       if st && List.mem a shared
                          && not (List.mem a !private_arrays) then
                         private_arrays := a :: !private_arrays)
            | Some _ -> ()
            | None -> (
                match s with
                | For l -> find_private l.l_body
                | If (_, t, f) ->
                    find_private t;
                    find_private f
                | _ -> ()))
          b
      in
      find_private k.k_body;
      let privatized = ref 0 in
      let sub_index = Ast.( /: ) Ast.tidx (Int_lit old_bx) in
      let lane_sub e =
        Rewrite.subst_builtin_expr Ast.Tidx
          (Ast.( %: ) Ast.tidx (Int_lit old_bx))
          e
      in
      let widths = Hashtbl.create 4 in
      let rec rewrite_block b = List.concat_map rewrite_stmt b
      and rewrite_stmt s =
        match classify_staging k table shared s with
        | Some Guardable ->
            incr guarded;
            [ If (Ast.( <: ) Ast.tidx (Int_lit old_bx), [ s ], []) ]
        | Some Scaling -> (
            incr scaled;
            match widen_apron extra widths s with
            | For l -> [ For { l with l_step = Int_lit (old_bx * n) } ]
            | s -> [ s ])
        | Some Private ->
            incr privatized;
            (* every tidx in the staging becomes the lane within the
               sub-block; staged arrays gain the sub-block index *)
            let s =
              match
                Rewrite.map_block_exprs
                  (function
                    | Builtin Ast.Tidx ->
                        Some (Ast.( %: ) Ast.tidx (Int_lit old_bx))
                    | _ -> None)
                  [ s ]
              with
              | [ s ] -> s
              | _ -> s
            in
            let add_sub =
              Rewrite.map_stmts
                (function
                  | Assign (Lindex (a, idxs), e)
                    when List.mem a !private_arrays ->
                      [ Assign (Lindex (a, sub_index :: idxs), e) ]
                  | s -> [ s ])
            in
            (match add_sub [ s ] with [ s ] -> [ s ] | b -> b)
        | Some (Blocking _) | None -> (
            match s with
            | For l -> [ For { l with l_body = rewrite_block l.l_body } ]
            | If (c, t, f) -> [ If (c, rewrite_block t, rewrite_block f) ]
            | s -> [ s ])
      in
      let body = rewrite_block k.k_body in
      (* rewrite the *uses* of privatized arrays (original rank only) and
         widen their declarations *)
      let body =
        if !private_arrays = [] then body
        else
          Rewrite.map_block_exprs
            (fun e ->
              match e with
              | Index (a, idxs)
                when List.mem a !private_arrays
                     && decl_rank a = Some (List.length idxs) ->
                  Some (Index (a, sub_index :: List.map lane_sub idxs))
              | _ -> None)
            body
          |> Rewrite.map_stmts (function
               | Decl ({ d_ty = Array ({ space = Shared; dims; _ } as a); d_name; _ } as d)
                 when List.mem d_name !private_arrays
                      && List.length dims = Option.value (decl_rank d_name) ~default:(-1) ->
                   [ Decl { d with d_ty = Array { a with dims = n :: dims } } ]
               | s -> [ s ])
      in
      (* widen the declarations of scaling-staged arrays *)
      let body =
        Rewrite.map_stmts
          (function
            | Decl ({ d_ty = Array ({ space = Shared; dims = [ w ]; _ } as a); d_name; _ } as d)
              when List.mem d_name !scaling_arrays ->
                [ Decl { d with d_ty = Array { a with dims = [ w + extra ] } } ]
            | s -> [ s ])
          body
      in
      let launch' =
        { launch with block_x = old_bx * n; grid_x = launch.grid_x / n }
      in
      Pass_util.changed
        ~notes:
          [
            Printf.sprintf
              "merged %d thread blocks along X: block (%d,%d), %d staging \
               statement(s) guarded with (tidx < %d), %d cooperative \
               staging loop(s) rescaled"
              n launch'.block_x launch'.block_y !guarded old_bx !scaled;
          ]
        { k with k_body = body }
        launch'
    end
  end

(* --------------------------------------------------------------------- *)
(* Thread merge                                                           *)
(* --------------------------------------------------------------------- *)

(* Merged kernels copy every per-thread statement up to 32 times, so
   every per-name question here is a hash lookup: a list scan would make
   the pass quadratic in kernel size. *)
type dep_env = {
  dir : direction;
  repl : (string, unit) Hashtbl.t;  (** replica-dependent variables / arrays *)
  mutable order : string list;  (** [repl], most recently added first *)
  names : (string, string array) Hashtbl.t;
      (** collision-free replica names for each replicated variable *)
}

let is_repl (env : dep_env) (v : string) : bool = Hashtbl.mem env.repl v

let replica_name (env : dep_env) (v : string) (r : int) : string =
  match Hashtbl.find_opt env.names v with
  | Some arr -> arr.(r)
  | None -> Printf.sprintf "%s_%d" v r

(* one walk: a position builtin of the merged direction, or a use of a
   replicated variable or array *)
let expr_dep (env : dep_env) (e : Ast.expr) : bool =
  Rewrite.exists_expr
    (function
      | Builtin b -> (
          match (env.dir, b) with
          | X, Ast.Idx | Y, (Ast.Idy | Ast.Bidy) -> true
          | _ -> false)
      | Var v | Index (v, _) -> is_repl env v
      | _ -> false)
    e

let lvalue_dep (env : dep_env) (lv : Ast.lvalue) : bool =
  let rec name = function
    | Lvar v | Lindex (v, _) -> v
    | Lvec vl -> vl.v_arr
    | Lfield (lv, _) -> name lv
  in
  let idx_exprs =
    match lv with
    | Lindex (_, es) -> es
    | Lvar _ -> []
    | Lfield (Lindex (_, es), _) -> es
    | Lvec vl -> [ vl.v_index ]
    | Lfield _ -> []
  in
  is_repl env (name lv) || List.exists (expr_dep env) idx_exprs

(** One fixpoint round: does this statement do replica-dependent work
    directly (not counting nested control-flow bodies)? *)
let rec stmt_dep (env : dep_env) (s : Ast.stmt) : bool =
  match s with
  | Decl { d_name; d_init; _ } ->
      is_repl env d_name
      || (match d_init with Some e -> expr_dep env e | None -> false)
  | Assign (lv, e) -> lvalue_dep env lv || expr_dep env e
  | If (c, t, f) ->
      expr_dep env c || List.exists (stmt_dep env) t || List.exists (stmt_dep env) f
  | For l ->
      expr_dep env l.l_init || expr_dep env l.l_limit || expr_dep env l.l_step
  | Sync | Global_sync | Comment _ -> false

(** Mark every variable written by replica-dependent statements, to a
    fixpoint. Only kernel-local names (register scalars and shared arrays)
    replicate — global arrays are indexed per replica, never renamed. *)
let compute_repl_vars (env : dep_env) (body : Ast.block) : unit =
  let names_of b =
    let set = Hashtbl.create 64 in
    List.iter
      (fun (v, _) -> Hashtbl.replace set v ())
      (Rewrite.declared_vars b);
    set
  in
  let locals = names_of body in
  let changed = ref true in
  let add v =
    if Hashtbl.mem locals v && not (is_repl env v) then begin
      Hashtbl.replace env.repl v ();
      env.order <- v :: env.order;
      changed := true
    end
  in
  let lv_name lv =
    let rec go = function
      | Lvar v | Lindex (v, _) -> v
      | Lvec vl -> vl.v_arr
      | Lfield (lv, _) -> go lv
    in
    go lv
  in
  (* a control region whose condition/bounds are replica-dependent is
     replicated wholesale, so every variable it writes but declares
     *outside* it escapes per replica and must be renamed; variables
     declared inside the region are self-contained (each replica carries
     its own declaration) *)
  let mark_escaping (b : Ast.block) =
    let inner = names_of b in
    ignore
      (Rewrite.map_stmts
         (function
           | Assign (lv, _) as s ->
               let v = lv_name lv in
               if not (Hashtbl.mem inner v) then add v;
               [ s ]
           | s -> [ s ])
         b)
  in
  let rec mark b =
    List.iter
      (fun s ->
        match s with
        | Decl d -> if stmt_dep env s then add d.d_name
        | Assign (lv, _) -> if stmt_dep env s then add (lv_name lv)
        | If (c, t, f) ->
            if expr_dep env c then begin
              mark_escaping t;
              mark_escaping f
            end;
            mark t;
            mark f
        | For l ->
            if
              expr_dep env l.l_init || expr_dep env l.l_limit
              || expr_dep env l.l_step
            then mark_escaping l.l_body;
            mark l.l_body
        | Sync | Global_sync | Comment _ -> ())
      b
  in
  while !changed do
    changed := false;
    mark body
  done

(** Substitute the thread position of replica [r] and rename dependent
    variables. *)
let replica_expr (env : dep_env) ~(n : int) ~(old_bx : int) (r : int)
    (e : Ast.expr) : Ast.expr =
  let rename =
    Rewrite.map_expr (function
      | Var v when is_repl env v -> Some (Var (replica_name env v r))
      | Index (a, es) when is_repl env a ->
          Some (Index (replica_name env a r, es))
      | _ -> None)
  in
  let substituted =
    match env.dir with
    | Y ->
        Rewrite.subst_builtin_expr Ast.Idy
          (Ast.( +: ) (Ast.( *: ) Ast.idy (Int_lit n)) (Int_lit r))
          e
    | X ->
        Rewrite.subst_builtin_expr Ast.Idx
          (Ast.( +: )
             (Ast.( +: )
                (Ast.( *: ) (Ast.( -: ) Ast.idx Ast.tidx) (Int_lit n))
                (Int_lit (r * old_bx)))
             Ast.tidx)
          e
  in
  Pass_util.simplify_expr (rename substituted)

let replica_lvalue (env : dep_env) ~n ~old_bx r (lv : Ast.lvalue) : Ast.lvalue
    =
  let rec go = function
    | Lvar v when is_repl env v -> Lvar (replica_name env v r)
    | Lvar v -> Lvar v
    | Lindex (a, es) ->
        let a' = if is_repl env a then replica_name env a r else a in
        Lindex (a', List.map (replica_expr env ~n ~old_bx r) es)
    | Lvec vl ->
        let a' =
          if is_repl env vl.v_arr then replica_name env vl.v_arr r
          else vl.v_arr
        in
        Lvec
          { vl with v_arr = a'; v_index = replica_expr env ~n ~old_bx r vl.v_index }
    | Lfield (lv, f) -> Lfield (go lv, f)
  in
  go lv

(** Hoist direction-invariant global loads out of a replicated statement:
    emit one [float rK = load;] and use [rK] in every replica. *)
let hoist_invariant_loads (env : dep_env) (globals : string list)
    (fresh : string -> string) (e : Ast.expr) :
    Ast.stmt list * Ast.expr =
  let hoisted = ref [] in
  let e' =
    Rewrite.map_expr
      (function
        | (Index (a, _) | Vload { v_arr = a; _ }) as load
          when List.mem a globals && not (expr_dep env load) ->
            (* reuse an already-hoisted identical load *)
            let existing =
              List.find_opt (fun (_, l) -> Ast.equal_expr l load) !hoisted
            in
            let name =
              match existing with
              | Some (nm, _) -> nm
              | None ->
                  let nm = fresh "r" in
                  hoisted := (nm, load) :: !hoisted;
                  nm
            in
            Some (Var name)
        | _ -> None)
      e
  in
  let decls =
    List.rev_map
      (fun (nm, load) ->
        let ty =
          match load with
          | Vload { v_width = 2; _ } -> Scalar Float2
          | Vload _ -> Scalar Float4
          | _ -> Scalar Float
        in
        Decl { d_name = nm; d_ty = ty; d_init = Some load })
      !hoisted
  in
  (decls, e')

(** Merge the threads of [n] neighboring blocks along [dir] into one
    thread each. *)
let thread_merge (dir : direction) (k : Ast.kernel) (launch : Ast.launch)
    (n : int) : Pass_util.outcome =
  if n <= 1 then Pass_util.unchanged k launch
  else begin
    let feasible, why =
      match dir with
      | Y ->
          ( launch.block_y = 1 && launch.grid_y mod n = 0,
            "block.y must be 1 and grid.y divisible" )
      | X -> (launch.grid_x mod n = 0, "grid.x must be divisible")
    in
    if not feasible then
      Pass_util.unchanged
        ~notes:
          [
            Printf.sprintf "thread merge %s x%d skipped: %s"
              (match dir with X -> "X" | Y -> "Y")
              n why;
          ]
        k launch
    else begin
      let env =
        {
          dir;
          repl = Hashtbl.create 64;
          order = [];
          names = Hashtbl.create 64;
        }
      in
      compute_repl_vars env k.k_body;
      let globals = Pass_util.global_arrays k in
      let supply = Fresh.of_kernel k in
      List.iter
        (fun v ->
          Hashtbl.replace env.names v
            (Array.init n (fun r ->
                 Fresh.name supply (Printf.sprintf "%s_%d" v r))))
        env.order;
      let fresh = Fresh.name supply in
      let old_bx = launch.block_x in
      let hoists = ref 0 in
      let replicas f = List.init n f in
      let rec go_block (b : Ast.block) : Ast.block =
        List.concat_map go_stmt b
      and go_stmt (s : Ast.stmt) : Ast.stmt list =
        match s with
        | Comment _ | Sync | Global_sync -> [ s ]
        | Decl d ->
            if is_repl env d.d_name then
              replicas (fun r ->
                  Decl
                    {
                      d with
                      d_name = replica_name env d.d_name r;
                      d_init =
                        Option.map (replica_expr env ~n ~old_bx r) d.d_init;
                    })
            else [ s ]
        | Assign (lv, e) ->
            if stmt_dep env s then begin
              let pre, e' = hoist_invariant_loads env globals fresh e in
              hoists := !hoists + List.length pre;
              pre
              @ replicas (fun r ->
                    Assign
                      ( replica_lvalue env ~n ~old_bx r lv,
                        replica_expr env ~n ~old_bx r e' ))
            end
            else [ s ]
        | If (c, t, f) ->
            if expr_dep env c then begin
              (* hoist direction-invariant global loads out of the guarded
                 bodies so the replicas share one register (speculative but
                 safe: guarded loads in these kernels are in-bounds by
                 construction) *)
              let pre = ref [] in
              let hoist_block (b : Ast.block) : Ast.block =
                List.map
                  (function
                    | Assign (lv, e) ->
                        let decls, e' =
                          hoist_invariant_loads env globals fresh e
                        in
                        pre := !pre @ decls;
                        hoists := !hoists + List.length decls;
                        Assign (lv, e')
                    | s -> s)
                  b
              in
              let t' = hoist_block t and f' = hoist_block f in
              !pre
              @ replicas (fun r ->
                    If
                      ( replica_expr env ~n ~old_bx r c,
                        go_replica_block r t',
                        go_replica_block r f' ))
            end
            else [ If (c, go_block t, go_block f) ]
        | For l ->
            if expr_dep env l.l_init || expr_dep env l.l_limit || expr_dep env l.l_step
            then
              replicas (fun r ->
                  For
                    {
                      l with
                      l_init = replica_expr env ~n ~old_bx r l.l_init;
                      l_limit = replica_expr env ~n ~old_bx r l.l_limit;
                      l_step = replica_expr env ~n ~old_bx r l.l_step;
                      l_body = go_replica_block r l.l_body;
                    })
            else [ For { l with l_body = go_block l.l_body } ]
      (* inside a replicated control statement every nested statement
         belongs to replica [r] *)
      and go_replica_block r (b : Ast.block) : Ast.block =
        List.map
          (fun s ->
            match s with
            | Decl d ->
                Decl
                  {
                    d with
                    d_name =
                      (if is_repl env d.d_name then
                         replica_name env d.d_name r
                       else d.d_name);
                    d_init = Option.map (replica_expr env ~n ~old_bx r) d.d_init;
                  }
            | Assign (lv, e) ->
                Assign
                  ( replica_lvalue env ~n ~old_bx r lv,
                    replica_expr env ~n ~old_bx r e )
            | If (c, t, f) ->
                If
                  ( replica_expr env ~n ~old_bx r c,
                    go_replica_block r t,
                    go_replica_block r f )
            | For l ->
                For
                  {
                    l with
                    l_init = replica_expr env ~n ~old_bx r l.l_init;
                    l_limit = replica_expr env ~n ~old_bx r l.l_limit;
                    l_step = replica_expr env ~n ~old_bx r l.l_step;
                    l_body = go_replica_block r l.l_body;
                  }
            | (Sync | Global_sync | Comment _) as s -> s)
          b
      in
      let body = go_block k.k_body in
      let launch' =
        match dir with
        | Y -> { launch with grid_y = launch.grid_y / n }
        | X -> { launch with grid_x = launch.grid_x / n }
      in
      Pass_util.changed
        ~notes:
          [
            Printf.sprintf
              "merged %d threads from neighboring blocks along %s \
               (replicated %d variable(s): %s); hoisted %d shared \
               register load(s)"
              n
              (match dir with X -> "X" | Y -> "Y")
              (List.length env.order)
              (String.concat ", " (List.rev env.order))
              !hoists;
          ]
        { k with k_body = body }
        launch'
    end
  end

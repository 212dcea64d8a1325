(** The access walk (see the interface for the binding rule). *)

open Gpcc_ast
module Smap = Map.Make (String)

type point = int

type step =
  | Start
  | Bind of point * string * Ast.expr
  | Forget of point * string list
  | Body of point * Ast.loop

type binding =
  | Let of let_
  | Loop of int
  | Unknown
  | Carried

and let_ = {
  l_id : int;
  l_expr : Ast.expr;
  l_env : env;
  l_ctx : point;
  l_tdep : bool Lazy.t;
  l_reads : int Lazy.t;
}

and env = {
  binds : binding Smap.t;
  frames : frame list;
}

and frame = {
  fr_id : int;
  fr_loop : int;
  fr_var : string;
  fr_init : Ast.expr;
  fr_limit : Ast.expr;
  fr_step : Ast.expr;
  fr_assigned : string list;
  fr_entry : env;
  fr_entry_ctx : point;
  fr_trip : env;
  fr_trip_ctx : point;
  fr_frozen : bool;
  fr_offset : int;
  fr_tdep : bool Lazy.t;
  fr_reads : int Lazy.t;
  fr_guarded : bool Lazy.t;
}

type guard = {
  g_cond : Ast.expr;
  g_env : env;
  g_ctx : point;
  g_tdep : bool Lazy.t;
  g_reads : int Lazy.t;
}

type kind = [ `Sc of Ast.expr list | `Vec of int * Ast.expr ]

let indices : kind -> Ast.expr list = function
  | `Sc idxs -> idxs
  | `Vec (_, ie) -> [ ie ]

type access = {
  a_id : int;
  a_arr : string;
  a_space : [ `Shared | `Global ];
  a_kind : kind;
  a_store : bool;
  a_interval : int;
  a_env : env;
  a_guards : guard list;
  a_ctx : point;
  a_path : string;
  a_reads : int list Lazy.t;
}

type barrier = {
  b_kind : [ `Sync | `Global_sync ];
  b_path : string;
  b_top : bool;
  b_guarded : bool;
  b_loops : frame list;
}

type t = {
  accesses : access list;
  barriers : barrier list;
  frames : frame list;
  distinct : access list Lazy.t;
  sizes : (string * int) list;
  steps : step array;
}

let show a =
  Pp.expr_to_string
    (match a.a_kind with
    | `Sc idxs -> Index (a.a_arr, idxs)
    | `Vec (w, ie) -> Vload { v_arr = a.a_arr; v_width = w; v_index = ie })

(* --- the statement-level rule --- *)

let rec assigned_vars b = List.concat_map assigned_stmt b

and assigned_stmt = function
  | Ast.Decl d -> [ d.d_name ]
  | Assign (Lvar v, _) | Assign (Lfield (Lvar v, _), _) -> [ v ]
  | Assign ((Lindex _ | Lvec _ | Lfield _), _) -> []
  | If (_, t, f) -> assigned_vars t @ assigned_vars f
  | For l -> l.l_var :: assigned_vars l.l_body
  | Sync | Global_sync | Comment _ -> []

(* what a statement leaves bound after it: one let, or names forgotten *)
let effect (s : Ast.stmt) =
  match s with
  | Decl { d_name; d_ty = Scalar _; d_init = Some e } | Assign (Lvar d_name, e)
    ->
      `Let (d_name, e)
  | Decl { d_name; d_ty = Scalar _; d_init = None }
  | Assign (Lfield (Lvar d_name, _), _) ->
      `Forget [ d_name ]
  | If _ | For _ -> `Forget (assigned_stmt s)
  | Decl _ | Assign _ | Sync | Global_sync | Comment _ -> `Forget []

let after_stmt ctx s =
  match effect s with
  | `Let (v, e) -> Affine.enter_let ctx v e
  | `Forget vs -> Affine.forget ctx vs

let enter_body trip (l : Ast.loop) =
  match Affine.enter_loop trip l with Some c -> c | None -> trip

let body_ctx ctx (l : Ast.loop) =
  enter_body (Affine.forget ctx (assigned_vars l.l_body)) l

let rec block_has_sync b = List.exists stmt_has_sync b

and stmt_has_sync = function
  | Ast.Sync | Global_sync -> true
  | If (_, t, f) -> block_has_sync t || block_has_sync f
  | For l -> block_has_sync l.l_body
  | Decl _ | Assign _ | Comment _ -> false

(* --- facts about names --- *)

let frame_at frames d = List.nth frames (List.length frames - 1 - d)
let find (env : env) v = Smap.find_opt v env.binds

let rec thread_dep (env : env) (e : Ast.expr) : bool =
  match e with
  | Builtin (Idx | Idy | Tidx | Tidy) | Index _ | Vload _ -> true
  | Builtin _ | Int_lit _ | Float_lit _ -> false
  | Var v -> (
      match find env v with
      | Some (Let l) -> Lazy.force l.l_tdep
      | Some (Loop d) -> Lazy.force (frame_at env.frames d).fr_tdep
      | Some (Unknown | Carried) -> true
      | None -> false)
  | Unop (_, a) | Field (a, _) -> thread_dep env a
  | Binop (_, a, b) -> thread_dep env a || thread_dep env b
  | Call (_, args) -> List.exists (thread_dep env) args
  | Select (a, b, c) -> thread_dep env a || thread_dep env b || thread_dep env c

let guarded gs = List.exists (fun g -> Lazy.force g.g_tdep) gs

(* the identities of the names [e] reads under [env] *)
let name_reads (env : env) (e : Ast.expr) : int list =
  Reads.names
    (fun v ->
      match find env v with
      | Some (Let l) -> Lazy.force l.l_reads
      | Some (Loop d) -> Lazy.force (frame_at env.frames d).fr_reads
      | Some Unknown -> Reads.unknown
      | Some Carried -> Reads.carried
      | None -> Reads.unbound)
    e

(* --- the walk --- *)

(* [env] with only the bindings of the names [es] read: what a record
   keeps of its program point, so that it does not hold every version of
   the walk's binding map alive *)
let restrict (env : env) (es : Ast.expr list) : env =
  let rec add m (e : Ast.expr) =
    match e with
    | Var v -> (
        if Smap.mem v m then m
        else match find env v with Some b -> Smap.add v b m | None -> m)
    | Int_lit _ | Float_lit _ | Builtin _ -> m
    | Unop (_, a) | Field (a, _) | Vload { v_index = a; _ } -> add m a
    | Binop (_, a, b) -> add (add m a) b
    | Index (_, es) | Call (_, es) -> List.fold_left add m es
    | Select (a, b, c) -> add (add (add m a) b) c
  in
  { env with binds = List.fold_left add Smap.empty es }

type wenv = {
  env : env;
  ctx : point;
  guards : guard list;
  path : string;
  frozen_depth : int;
}

type state = {
  spaces : (string * [ `Shared | `Global ]) list;
  st_reads : Reads.t;
  mutable interval : int;
  mutable accs : access list;
  mutable naccs : int;
  mutable bars : barrier list;
  mutable frs : frame list;  (** newest first *)
  mutable lets : int;
  mutable steps : step list;  (** newest first *)
  mutable points : int;
  bound : (string, unit) Hashtbl.t;  (** the names some [Bind] step binds *)
}

(* Is [e] never affine, whatever the launch ({!Affine.of_expr} is [None]
   on a float, a load, a call, a selection or a comparison, and on any
   expression containing one)? Binding it forgets the name, and the
   step need not keep it. *)
let rec affine_free (e : Ast.expr) =
  match e with
  | Float_lit _ | Index _ | Vload _ | Field _ | Call _ | Select _
  | Unop (Not, _)
  | Binop ((Lt | Le | Gt | Ge | Eq | Ne | And | Or), _, _) ->
      true
  | Int_lit _ | Builtin _ | Var _ -> false
  | Unop (Neg, a) -> affine_free a
  | Binop (_, a, b) -> affine_free a || affine_free b

(* a new program point, whose context [step] makes *)
let point st step =
  st.steps <- step :: st.steps;
  st.points <- st.points + 1;
  st.points - 1

(* the point after forgetting [names] at [p]: [p] itself when no step
   has bound one of them, since forgetting leaves every context as it
   is (a float assignment, for one) *)
let forget st p names =
  if List.exists (Hashtbl.mem st.bound) names then
    point st (Forget (p, names))
  else p

let enter w seg = if w.path = "" then seg else w.path ^ "/" ^ seg

let spaces_of (k : Ast.kernel) =
  List.filter_map
    (fun (p : Ast.param) ->
      match p.p_ty with
      | Array { space = Global; _ } -> Some (p.p_name, `Global)
      | Array { space = Shared; _ } -> Some (p.p_name, `Shared)
      | _ -> None)
    k.k_params
  @ List.filter_map
      (fun (name, ty) ->
        match ty with
        | Ast.Array { space = Shared; _ } -> Some (name, `Shared)
        | _ -> None)
      (Rewrite.declared_vars k.k_body)

let set w names b =
  let binds = List.fold_left (fun m v -> Smap.add v b m) w.env.binds names in
  { w with env = { w.env with binds } }

let record st w arr (kind : kind) ~store =
  match
    List.find_map
      (fun (a, space) -> if String.equal a arr then Some space else None)
      st.spaces
  with
  | None -> ()
  | Some space ->
      let env = restrict w.env (indices kind) and guards = w.guards in
      st.naccs <- st.naccs + 1;
      st.accs <-
        {
          a_id = st.naccs - 1;
          a_arr = arr;
          a_space = space;
          a_kind = kind;
          a_store = store;
          a_interval = st.interval;
          a_env = env;
          a_guards = guards;
          a_ctx = w.ctx;
          a_path = w.path;
          a_reads =
            lazy
              (List.concat_map (name_reads env) (indices kind)
              @ List.map (fun g -> Lazy.force g.g_reads) guards);
        }
        :: st.accs

let rec loads st w (e : Ast.expr) : unit =
  match e with
  | Index (arr, idxs) ->
      record st w arr (`Sc idxs) ~store:false;
      List.iter (loads st w) idxs
  | Vload { v_arr; v_width; v_index } ->
      record st w v_arr (`Vec (v_width, v_index)) ~store:false;
      loads st w v_index
  | Unop (_, a) | Field (a, _) -> loads st w a
  | Binop (_, a, b) ->
      loads st w a;
      loads st w b
  | Call (_, args) -> List.iter (loads st w) args
  | Select (a, b, c) ->
      loads st w a;
      loads st w b;
      loads st w c
  | Int_lit _ | Float_lit _ | Var _ | Builtin _ -> ()

let store st w (lv : Ast.lvalue) =
  match lv with
  | Lindex (arr, idxs) | Lfield (Lindex (arr, idxs), _) ->
      record st w arr (`Sc idxs) ~store:true;
      List.iter (loads st w) idxs
  | Lvec { v_arr; v_width; v_index } ->
      record st w v_arr (`Vec (v_width, v_index)) ~store:true;
      loads st w v_index
  | Lvar _ | Lfield _ -> ()

let barrier st w kind seg =
  st.bars <-
    {
      b_kind = kind;
      b_path = enter w seg;
      b_top = w.path = "";
      b_guarded = guarded w.guards;
      b_loops = List.filter (fun f -> Lazy.force f.fr_tdep) w.env.frames;
    }
    :: st.bars;
  if w.guards = [] then st.interval <- st.interval + 1

(* apply the statement's effect on the bindings *)
let bind st w (s : Ast.stmt) =
  match effect s with
  | `Let (name, e) ->
      let env = restrict w.env [ e ] in
      let l =
        {
          l_id = st.lets;
          l_expr = e;
          l_env = env;
          l_ctx = w.ctx;
          l_tdep = lazy (thread_dep env e);
          l_reads = lazy (Reads.define st.st_reads e (name_reads env e));
        }
      in
      st.lets <- st.lets + 1;
      let ctx =
        if affine_free e then forget st w.ctx [ name ]
        else begin
          Hashtbl.replace st.bound name ();
          point st (Bind (w.ctx, name, e))
        end
      in
      { (set w [ name ] (Let l)) with ctx }
  | `Forget [] -> w
  | `Forget names -> { (set w names Unknown) with ctx = forget st w.ctx names }

let rec walk_block st w (b : Ast.block) = List.fold_left (walk_stmt st) w b

and walk_stmt st w (s : Ast.stmt) =
  (match s with
  | Decl { d_ty = Scalar _; d_init = Some e; _ } -> loads st w e
  | Decl _ | Comment _ -> ()
  | Assign (lv, e) ->
      store st w lv;
      loads st w e
  | Sync -> barrier st w `Sync "__syncthreads()"
  | Global_sync -> barrier st w `Global_sync "__global_sync()"
  | If (cond, t, f) ->
      loads st w cond;
      let seg =
        let c = Pp.expr_to_string cond in
        "if("
        ^ (if String.length c <= 28 then c else String.sub c 0 28 ^ "…")
        ^ ")"
      in
      let branch cond' =
        let env = restrict w.env [ cond' ] in
        let g =
          {
            g_cond = cond';
            g_env = env;
            g_ctx = w.ctx;
            g_tdep = lazy (thread_dep env cond');
            g_reads =
              lazy (Reads.define st.st_reads cond' (name_reads env cond'));
          }
        in
        { w with guards = g :: w.guards; path = enter w seg }
      in
      ignore (walk_block st (branch cond) t);
      ignore (walk_block st (branch (Unop (Not, cond))) f)
  | For ({ l_var; l_init; l_limit; l_step; l_body } as lp) ->
      let assigned = assigned_vars l_body in
      let trip =
        {
          (set w assigned Carried) with
          ctx = forget st w.ctx assigned;
        }
      in
      loads st w l_init;
      loads st trip l_limit;
      loads st trip l_step;
      let entry = restrict w.env [ l_init ]
      and tenv = restrict trip.env [ l_limit; l_step ] in
      let frozen = block_has_sync l_body in
      let loop = List.length st.frs (* the id of its first pass's frame *) in
      let tdep =
        lazy
          (thread_dep entry l_init || thread_dep tenv l_limit
         || thread_dep tenv l_step)
      and reads =
        lazy
          (Reads.define st.st_reads
             (Call ("for", [ l_init; l_limit; l_step ]))
             (name_reads entry l_init @ name_reads tenv l_limit
             @ name_reads tenv l_step))
      and under_guard = lazy (guarded w.guards)
      and inner = point st (Body (trip.ctx, { lp with l_body = [] })) in
      let body = set trip [ l_var ] (Loop (List.length entry.frames)) in
      let pass offset =
        let fr =
          {
            fr_id = List.length st.frs;
            fr_loop = loop;
            fr_var = l_var;
            fr_init = l_init;
            fr_limit = l_limit;
            fr_step = l_step;
            fr_assigned = assigned;
            fr_entry = entry;
            fr_entry_ctx = w.ctx;
            fr_trip = tenv;
            fr_trip_ctx = trip.ctx;
            fr_frozen = frozen;
            fr_offset = offset;
            fr_tdep = tdep;
            fr_reads = reads;
            fr_guarded = under_guard;
          }
        in
        st.frs <- fr :: st.frs;
        ignore
          (walk_block st
             {
               w with
               env = { body.env with frames = fr :: entry.frames };
               ctx = inner;
               path = enter w ("for(" ^ l_var ^ ")");
               frozen_depth = (w.frozen_depth + if frozen then 1 else 0);
             }
             l_body)
      in
      pass 0;
      (* the wrap pass: iteration k + 1, whose accesses before the first
         barrier land in the interval the last barrier of iteration k
         opened *)
      if frozen && w.frozen_depth < 2 then pass 1);
  bind st w s

let run (k : Ast.kernel) : t =
  let st =
    {
      spaces = spaces_of k;
      st_reads = Reads.create ();
      interval = 0;
      accs = [];
      naccs = 0;
      bars = [];
      frs = [];
      lets = 0;
      steps = [];
      points = 0;
      bound = Hashtbl.create 16;
    }
  in
  let w =
    {
      env = { binds = Smap.empty; frames = [] };
      ctx = point st Start;
      guards = [];
      path = "";
      frozen_depth = 0;
    }
  in
  ignore (walk_block st w k.k_body);
  let accesses = List.rev st.accs in
  {
    accesses;
    barriers = List.rev st.bars;
    frames = List.rev st.frs;
    distinct =
      lazy
        (List.filter
           (fun a ->
             Reads.first st.st_reads ~path:a.a_path ~arr:a.a_arr
               ~store:a.a_store a.a_kind a.a_reads)
           accesses);
    sizes = k.k_sizes;
    steps = Array.of_list (List.rev st.steps);
  }

(* --- contexts at a launch --- *)

type contexts = Affine.ctx array

(* every point in creation order: a step reads an earlier point *)
let contexts (t : t) (launch : Ast.launch) : contexts =
  let start = Affine.ctx_of_launch ~sizes:t.sizes launch in
  let cs = Array.make (Array.length t.steps) start in
  Array.iteri
    (fun p step ->
      cs.(p) <-
        (match step with
        | Start -> start
        | Bind (q, v, e) -> Affine.enter_let cs.(q) v e
        | Forget (q, names) -> Affine.forget cs.(q) names
        | Body (q, l) -> enter_body cs.(q) l))
    t.steps;
  cs

let ctx (cs : contexts) (p : point) = cs.(p)

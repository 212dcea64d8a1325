(** Static kernel verifier (see the interface for the rule catalogue).

    The implementation has four moving parts:

    1. a {e walk} over the kernel body that numbers barrier intervals,
       snapshots every memory access with its guards, enclosing loops,
       scalar bindings and {!Affine} context, and reports barrier
       divergence on the way;
    2. a {e staged concrete evaluator}: each access's index, guard and
       loop-bound expressions are resolved once per launch (binding
       chains, sizes, launch dimensions) into closures over one thread's
       coordinates and loop-iteration slots — this is what lets the race
       check intersect per-thread access sets exactly, including the
       mod/div index rotations the passes introduce;
    3. a {e strided-interval} range analysis (value range plus a
       congruence stride) with affine guard refinement, used to prove
       indices in-bounds;
    4. enumeration drivers that combine 1+2 to build per-interval
       address tables (races, bank conflicts) and to hunt concrete
       out-of-bounds witnesses when 3 cannot prove safety. *)

open Gpcc_ast

type severity =
  | Error
  | Warning

type diagnostic = {
  severity : severity;
  rule : string;
  kernel : string;
  path : string;
  message : string;
}

let rule_race_shared = "race-shared"
let rule_race_global = "race-global"
let rule_barrier_divergence = "barrier-divergence"
let rule_oob_shared = "oob-shared"
let rule_oob_global = "oob-global"
let rule_oob_unproven = "oob-unproven"
let rule_bank_conflict = "bank-conflict"
let rule_noncoalesced = "noncoalesced"
let rule_verify_incomplete = "verify-incomplete"
let severity_to_string = function Error -> "error" | Warning -> "warning"

let to_string d =
  Printf.sprintf "%s[%s] %s%s: %s"
    (severity_to_string d.severity)
    d.rule d.kernel
    (if d.path = "" then "" else " at " ^ d.path)
    d.message

let errors = List.filter (fun d -> d.severity = Error)
let warnings = List.filter (fun d -> d.severity = Warning)
let is_clean ds = errors ds = []

(* --- JSON emission (hand-rolled; bin and CI consume it) --- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_of_diagnostic d =
  Printf.sprintf
    {|{"severity":"%s","rule":"%s","kernel":"%s","path":"%s","message":"%s"}|}
    (severity_to_string d.severity)
    (json_escape d.rule) (json_escape d.kernel) (json_escape d.path)
    (json_escape d.message)

let json_of_diagnostics ds =
  "[" ^ String.concat "," (List.map json_of_diagnostic ds) ^ "]"

(* --- staged concrete evaluation --- *)

(** A scalar binding at some program point. [Bexpr] keeps the defining
    expression (evaluated in the environment suffix {e after} the
    binding, so rebindings and self-references resolve lexically).
    [Bloop d] is the variable of the enclosing loop at depth [d]
    (outermost 0), bound at loop entry: an assignment in the body
    shadows it, and it shadows the [Bunknown] an earlier loop over the
    same name left behind. *)
type binding =
  | Bexpr of Ast.expr
  | Bloop of int
  | Bunknown

exception Unknown

let rec assoc_split name = function
  | [] -> None
  | (n, b) :: rest ->
      if String.equal n name then Some (b, rest) else assoc_split name rest

(** The run-time inputs of staged code: one thread's block and lane
    coordinates, and the values of its enclosing loop variables by
    depth ([unset] where the enumeration has none). *)
type lane_env = {
  l_block_x : int;
  mutable l_tidx : int;
  mutable l_tidy : int;
  mutable l_bidx : int;
  mutable l_bidy : int;
  l_slots : int array;
}

let unset = min_int

let lane_env (launch : Ast.launch) ~depth =
  {
    l_block_x = launch.block_x;
    l_tidx = 0;
    l_tidy = 0;
    l_bidx = 0;
    l_bidy = 0;
    l_slots = Array.make depth unset;
  }

let set_block l (bidx, bidy) =
  l.l_bidx <- bidx;
  l.l_bidy <- bidy

let set_lane l lane =
  l.l_tidx <- lane mod l.l_block_x;
  l.l_tidy <- lane / l.l_block_x

(** An integer expression staged for one launch: every binding chain
    and launch constant is resolved when staging, so evaluating it for
    a lane only reads the lane's coordinates and loop slots. [Dyn]
    raises [Unknown] where the value cannot be computed (division by
    zero, an unset loop slot); [Never] is unknown for every lane. *)
type code =
  | Const of int
  | Dyn of (lane_env -> int)
  | Never

let fn = function
  | Const n -> fun _ -> n
  | Dyn f -> f
  | Never -> fun _ -> raise_notrace Unknown

let run c l =
  match c with
  | Const n -> n
  | Dyn f -> f l
  | Never -> raise_notrace Unknown

let run_opt c l = match run c l with v -> Some v | exception Unknown -> None

(* a strict binary operator: both operands must evaluate *)
let lift2 (op : int -> int -> int) a b =
  match (a, b) with
  | Never, _ | _, Never -> Never
  | Const x, Const y -> (
      match op x y with v -> Const v | exception Unknown -> Never)
  | _ ->
      let fa = fn a and fb = fn b in
      Dyn (fun l -> op (fa l) (fb l))

(* [+], [-] and [*] dominate index arithmetic: specialized so a constant
   operand costs no closure call *)
let add a b =
  match (a, b) with
  | Dyn f, Const y -> Dyn (fun l -> f l + y)
  | Const x, Dyn g -> Dyn (fun l -> x + g l)
  | Dyn f, Dyn g -> Dyn (fun l -> f l + g l)
  | _ -> lift2 ( + ) a b

let sub a b =
  match (a, b) with
  | Dyn f, Const y -> Dyn (fun l -> f l - y)
  | Const x, Dyn g -> Dyn (fun l -> x - g l)
  | Dyn f, Dyn g -> Dyn (fun l -> f l - g l)
  | _ -> lift2 ( - ) a b

let mul a b =
  match (a, b) with
  | Dyn f, Const y -> Dyn (fun l -> f l * y)
  | Const x, Dyn g -> Dyn (fun l -> x * g l)
  | Dyn f, Dyn g -> Dyn (fun l -> f l * g l)
  | _ -> lift2 ( * ) a b

let map_code (f : int -> int) = function
  | Const n -> ( match f n with v -> Const v | exception Unknown -> Never)
  | Dyn g -> Dyn (fun l -> f (g l))
  | Never -> Never

let truth = map_code (fun x -> if x <> 0 then 1 else 0)

(** Stage [e] under [binds] for [launch]. [depth] is the number of loop
    slots the code may read: the variable of a loop at depth [depth] or
    deeper is unknown. *)
let rec stage (launch : Ast.launch) sizes ~depth binds (e : Ast.expr) : code =
  let stage' = stage launch sizes ~depth binds in
  match e with
  | Int_lit n -> Const n
  | Float_lit _ -> Never
  | Builtin b -> (
      let bx = launch.block_x and by = launch.block_y in
      match b with
      | Tidx -> Dyn (fun l -> l.l_tidx)
      | Tidy -> Dyn (fun l -> l.l_tidy)
      | Bidx -> Dyn (fun l -> l.l_bidx)
      | Bidy -> Dyn (fun l -> l.l_bidy)
      | Bdimx -> Const bx
      | Bdimy -> Const by
      | Gdimx -> Const launch.grid_x
      | Gdimy -> Const launch.grid_y
      | Idx -> Dyn (fun l -> (l.l_bidx * bx) + l.l_tidx)
      | Idy -> Dyn (fun l -> (l.l_bidy * by) + l.l_tidy))
  | Var v -> (
      match assoc_split v binds with
      | Some (Bexpr e', rest) -> stage launch sizes ~depth rest e'
      | Some (Bloop d, _) when d < depth ->
          Dyn
            (fun l ->
              let x = l.l_slots.(d) in
              if x = unset then raise_notrace Unknown else x)
      | Some ((Bloop _ | Bunknown), _) -> Never
      | None -> (
          match List.assoc_opt v sizes with Some n -> Const n | None -> Never))
  | Unop (Neg, a) -> map_code (fun x -> -x) (stage' a)
  | Unop (Not, a) -> map_code (fun x -> if x = 0 then 1 else 0) (stage' a)
  | Binop (And, a, b) -> (
      match stage' a with
      | Never -> Never
      | Const 0 -> Const 0
      | Const _ -> truth (stage' b)
      | Dyn f ->
          let g = fn (stage' b) in
          Dyn (fun l -> if f l = 0 then 0 else if g l <> 0 then 1 else 0))
  | Binop (Or, a, b) -> (
      match stage' a with
      | Never -> Never
      | Const 0 -> truth (stage' b)
      | Const _ -> Const 1
      | Dyn f ->
          let g = fn (stage' b) in
          Dyn (fun l -> if f l <> 0 then 1 else if g l <> 0 then 1 else 0))
  | Binop (op, a, b) -> (
      let a = stage' a and b = stage' b in
      let bit c = if c then 1 else 0 in
      match op with
      | Add -> add a b
      | Sub -> sub a b
      | Mul -> mul a b
      | Div ->
          lift2
            (fun x y -> if y = 0 then raise_notrace Unknown else x / y)
            a b
      (* mathematical mod, matching the simulator *)
      | Mod ->
          lift2
            (fun x y ->
              if y = 0 then raise_notrace Unknown else ((x mod y) + y) mod y)
            a b
      | Lt -> lift2 (fun x y -> bit (x < y)) a b
      | Le -> lift2 (fun x y -> bit (x <= y)) a b
      | Gt -> lift2 (fun x y -> bit (x > y)) a b
      | Ge -> lift2 (fun x y -> bit (x >= y)) a b
      | Eq -> lift2 (fun x y -> bit (x = y)) a b
      | Ne -> lift2 (fun x y -> bit (x <> y)) a b
      | And | Or -> assert false)
  | Call ("min", [ a; b ]) ->
      lift2 (fun x y -> if x <= y then x else y) (stage' a) (stage' b)
  | Call ("max", [ a; b ]) ->
      lift2 (fun x y -> if x >= y then x else y) (stage' a) (stage' b)
  | Select (c, a, b) -> (
      match stage' c with
      | Never -> Never
      | Const n -> if n <> 0 then stage' a else stage' b
      | Dyn f ->
          let fa = fn (stage' a) and fb = fn (stage' b) in
          Dyn (fun l -> if f l <> 0 then fa l else fb l))
  | Index _ | Vload _ | Field _ | Call _ -> Never

(* --- strided intervals: value range plus congruence stride --- *)

(** Values of [s] lie in [[s.lo, s.hi]] and are all congruent to [s.lo]
    modulo [s.st]; a singleton ([lo = hi]) has [st = 0], meaning every
    stride divides it (so [gcd] combines it for free), otherwise
    [st >= 1] and [hi ≡ lo (mod st)]. The stride is what lets a guard
    like [i + 16 < w] on a step-16 loop round down to the last
    actually-reachable iterate. *)
type si = { lo : int; hi : int; st : int }

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)
let si_const n = { lo = n; hi = n; st = 0 }

let si_norm s =
  if s.hi <= s.lo then { s with hi = s.lo; st = 0 }
  else { s with hi = s.lo + ((s.hi - s.lo) / s.st * s.st) }

let si_add a b =
  si_norm { lo = a.lo + b.lo; hi = a.hi + b.hi; st = gcd a.st b.st }

let si_neg a = si_norm { lo = -a.hi; hi = -a.lo; st = a.st }
let si_sub a b = si_add a (si_neg b)

let si_scale k a =
  if k = 0 then si_const 0
  else if k > 0 then { lo = k * a.lo; hi = k * a.hi; st = k * a.st }
  else { lo = k * a.hi; hi = k * a.lo; st = -k * a.st }

let si_mul a b =
  if a.lo = a.hi then si_scale a.lo b
  else if b.lo = b.hi then si_scale b.lo a
  else
    let cs = [ a.lo * b.lo; a.lo * b.hi; a.hi * b.lo; a.hi * b.hi ] in
    si_norm
      {
        lo = List.fold_left min max_int cs;
        hi = List.fold_left max min_int cs;
        st = 1;
      }

(* for two-alternative combinations (hull / min / max) the stride must
   also divide the offset between the two residue classes *)
let si_hull a b =
  let st = gcd (gcd a.st b.st) (a.lo - b.lo) in
  si_norm { lo = min a.lo b.lo; hi = max a.hi b.hi; st }

let si_min a b =
  let st = gcd (gcd a.st b.st) (a.lo - b.lo) in
  si_norm { lo = min a.lo b.lo; hi = min a.hi b.hi; st }

let si_max a b =
  let st = gcd (gcd a.st b.st) (a.lo - b.lo) in
  si_norm { lo = max a.lo b.lo; hi = max a.hi b.hi; st }

(** [a mod c] under mathematical mod, for a constant [c > 0]. *)
let si_mod a c =
  if a.lo >= 0 && a.hi < c then a
  else
    let g = max 1 (gcd a.st c) in
    let lo = ((a.lo mod g) + g) mod g in
    si_norm { lo; hi = lo + ((c - 1 - lo) / g * g); st = g }

(** [a / c] (truncating division is monotone), for a constant [c > 0]. *)
let si_div a c = si_norm { lo = a.lo / c; hi = a.hi / c; st = 1 }

(** Clamp [b] into [[lo, hi]] respecting [b]'s residue class. [None]
    when the intersection is empty (the governing guards are
    unsatisfiable, so the access never executes). *)
let si_clamp b ~lo ~hi =
  if b.lo = b.hi then if b.lo >= lo && b.lo <= hi then Some b else None
  else
    let lo' =
      if b.lo >= lo then b.lo else b.lo + ((lo - b.lo + b.st - 1) / b.st * b.st)
    and hi' =
      if b.hi <= hi then b.hi
      else if hi < b.lo then b.lo - b.st (* below the whole range: empty *)
      else b.lo + ((hi - b.lo) / b.st * b.st)
    in
    if hi' < lo' then None else Some (si_norm { lo = lo'; hi = hi'; st = b.st })

(* --- access records collected by the walk --- *)

type frame = {
  fr_var : string;
  fr_init : Ast.expr;
  fr_limit : Ast.expr;
  fr_step : Ast.expr;
  fr_frozen : bool;  (** the loop body contains a barrier *)
  fr_offset : int;  (** 0, or 1 for the wrap-around symbolic pass *)
  fr_binds : (string * binding) list;  (** scalar env at loop entry *)
}

type guard = {
  g_cond : Ast.expr;  (** must evaluate true for the access to run *)
  g_binds : (string * binding) list;
}

(** An access's expressions staged for the launch: the bounds of its
    loop frames (frame [d] reads slots [0 .. d-1]), its guards and its
    index expressions (one per dimension, or the vector index). *)
type frame_code = {
  f_frame : frame;
  f_init : code;
  f_limit : code;
  f_step : code;
}

type acc_code = {
  c_frames : frame_code array;  (** outermost first *)
  c_guards : code list;
  c_idxs : code list;
}

type acc = {
  a_arr : string;
  a_space : [ `Shared | `Global ];
  a_kind : [ `Sc of Ast.expr list | `Vec of int * Ast.expr ];
  a_store : bool;
  a_interval : int;
  a_frames : frame list;  (** outermost first; frozen frames form a prefix *)
  a_guards : guard list;
  a_binds : (string * binding) list;
  a_ctx : Affine.ctx;
  a_path : string;
  a_code : acc_code Lazy.t;  (** staged once, on first enumeration *)
}

let stage_access launch sizes ~frames ~guards ~binds kind : acc_code =
  let depth = List.length frames in
  {
    c_frames =
      Array.of_list
        (List.mapi
           (fun d fr ->
             let c = stage launch sizes ~depth:d fr.fr_binds in
             {
               f_frame = fr;
               f_init = c fr.fr_init;
               f_limit = c fr.fr_limit;
               f_step = c fr.fr_step;
             })
           frames);
    c_guards =
      List.map (fun g -> stage launch sizes ~depth g.g_binds g.g_cond) guards;
    c_idxs =
      List.map (stage launch sizes ~depth binds)
        (match kind with `Sc idxs -> idxs | `Vec (_, ie) -> [ ie ]);
  }

let acc_expr a =
  match a.a_kind with
  | `Sc idxs -> Pp.expr_to_string (Index (a.a_arr, idxs))
  | `Vec (w, ie) ->
      Pp.expr_to_string (Vload { v_arr = a.a_arr; v_width = w; v_index = ie })

let sample_axis n cap =
  if n <= cap then List.init n Fun.id
  else List.sort_uniq compare (List.init cap (fun i -> i * (n - 1) / (cap - 1)))

(** Can every thread of any one block be shown to run the loop the same
    number of times? (Grid-strided loops like
    [for (i = idx; i < len; i += nt)] may contain barriers.) Concretely
    evaluates the trip count per (block, lane); large grids are sampled
    per axis (corners plus a strided interior), so acceptance is
    empirical beyond the cap — in keeping with the verifier's
    lint-grade charter — while rejection (returning [false]) merely
    defers to the conservative divergence flag. *)
let uniform_trip_count (launch : Ast.launch) sizes binds (lp : Ast.loop) : bool
    =
  let lanes = launch.block_x * launch.block_y in
  lanes <= 512
  &&
  let c = stage launch sizes ~depth:0 binds in
  let init = c lp.l_init and limit = c lp.l_limit and step = c lp.l_step in
  let l = lane_env launch ~depth:0 in
  (* trip count of the current lane, -1 when it cannot be evaluated *)
  let trip lane =
    set_lane l lane;
    match (run init l, run limit l, run step l) with
    | v0, lim, step when step > 0 ->
        if lim <= v0 then 0 else (lim - v0 + step - 1) / step
    | _ -> -1
    | exception Unknown -> -1
  in
  try
    List.iter
      (fun bidx ->
        List.iter
          (fun bidy ->
            set_block l (bidx, bidy);
            let t0 = trip 0 in
            if t0 < 0 then raise Exit;
            for lane = 1 to lanes - 1 do
              if trip lane <> t0 then raise Exit
            done)
          (sample_axis launch.grid_y 64))
      (sample_axis launch.grid_x 64);
    true
  with Exit -> false

(* --- the walk: intervals, accesses, barrier divergence --- *)

type wenv = {
  w_binds : (string * binding) list;
  w_frames : frame list;  (** innermost first *)
  w_guards : guard list;
  w_ctx : Affine.ctx;
  w_div : bool;  (** under thread-dependent control flow *)
  w_path : string list;  (** reversed segments *)
  w_frozen_depth : int;
}

type wstate = {
  ws_kernel : string;
  ws_launch : Ast.launch;
  ws_sizes : (string * int) list;
  mutable ws_interval : int;
  mutable ws_accs : acc list;
  mutable ws_diags : diagnostic list;
}

let truncate_str n s = if String.length s <= n then s else String.sub s 0 n ^ "…"
let path_of env = String.concat "/" (List.rev env.w_path)

(* the loop frame at depth [d] (outermost 0) of an innermost-first list *)
let frame_at frames d = List.nth frames (List.length frames - 1 - d)

(** Does the expression's value depend on the thread position?
    Conservative: array loads count (data-dependent), loop variables
    count when any of the loop's bounds do. *)
let rec thread_dep (binds : (string * binding) list) (frames : frame list)
    (e : Ast.expr) : bool =
  match e with
  | Builtin (Idx | Idy | Tidx | Tidy) -> true
  | Builtin _ | Int_lit _ | Float_lit _ -> false
  | Var v -> (
      match assoc_split v binds with
      | Some (Bexpr e', rest) -> thread_dep rest frames e'
      | Some (Bunknown, _) -> true
      | Some (Bloop d, _) ->
          let f = frame_at frames d in
          thread_dep f.fr_binds frames f.fr_init
          || thread_dep f.fr_binds frames f.fr_limit
          || thread_dep f.fr_binds frames f.fr_step
      | None -> false)
  | Index _ | Vload _ -> true
  | Unop (_, a) | Field (a, _) -> thread_dep binds frames a
  | Binop (_, a, b) -> thread_dep binds frames a || thread_dep binds frames b
  | Call (_, args) -> List.exists (thread_dep binds frames) args
  | Select (a, b, c) ->
      thread_dep binds frames a || thread_dep binds frames b
      || thread_dep binds frames c

let rec block_has_sync b = List.exists stmt_has_sync b

and stmt_has_sync = function
  | Ast.Sync | Global_sync -> true
  | If (_, t, f) -> block_has_sync t || block_has_sync f
  | For l -> block_has_sync l.l_body
  | Decl _ | Assign _ | Comment _ -> false

(** Scalar names (re)assigned or declared anywhere in a block — after a
    branch or loop their walk-time binding is no longer reliable. *)
let rec assigned_vars b = List.concat_map assigned_vars_stmt b

and assigned_vars_stmt = function
  | Ast.Decl d -> [ d.d_name ]
  | Assign (Lvar v, _) | Assign (Lfield (Lvar v, _), _) -> [ v ]
  | Assign ((Lindex _ | Lvec _ | Lfield _), _) -> []
  | If (_, t, f) -> assigned_vars t @ assigned_vars f
  | For l -> l.l_var :: assigned_vars l.l_body
  | Sync | Global_sync | Comment _ -> []

let forget_vars env vars =
  {
    env with
    w_binds = List.map (fun v -> (v, Bunknown)) vars @ env.w_binds;
    w_ctx = Affine.forget env.w_ctx vars;
  }

let diag st ?(severity = Error) ~rule ~path message =
  st.ws_diags <-
    { severity; rule; kernel = st.ws_kernel; path; message } :: st.ws_diags

let record_access st env spaces arr kind ~store =
  match List.assoc_opt arr spaces with
  | None -> ()
  | Some space ->
      let frames = List.rev env.w_frames
      and guards = env.w_guards
      and binds = env.w_binds in
      st.ws_accs <-
        {
          a_arr = arr;
          a_space = space;
          a_kind = kind;
          a_store = store;
          a_interval = st.ws_interval;
          a_frames = frames;
          a_guards = guards;
          a_binds = binds;
          a_ctx = env.w_ctx;
          a_path = path_of env;
          a_code =
            lazy
              (stage_access st.ws_launch st.ws_sizes ~frames ~guards ~binds
                 kind);
        }
        :: st.ws_accs

let rec collect_expr st env spaces (e : Ast.expr) : unit =
  match e with
  | Index (arr, idxs) ->
      record_access st env spaces arr (`Sc idxs) ~store:false;
      List.iter (collect_expr st env spaces) idxs
  | Vload { v_arr; v_width; v_index } ->
      record_access st env spaces v_arr (`Vec (v_width, v_index)) ~store:false;
      collect_expr st env spaces v_index
  | Unop (_, a) | Field (a, _) -> collect_expr st env spaces a
  | Binop (_, a, b) ->
      collect_expr st env spaces a;
      collect_expr st env spaces b
  | Call (_, args) -> List.iter (collect_expr st env spaces) args
  | Select (a, b, c) ->
      collect_expr st env spaces a;
      collect_expr st env spaces b;
      collect_expr st env spaces c
  | Int_lit _ | Float_lit _ | Var _ | Builtin _ -> ()

let rec walk_block st spaces env (b : Ast.block) : wenv =
  List.fold_left (fun e s -> walk_stmt st spaces e s) env b

and walk_stmt st spaces env (s : Ast.stmt) : wenv =
  match s with
  | Comment _ -> env
  | Decl { d_name; d_ty = Scalar _; d_init } -> (
      match d_init with
      | Some e ->
          collect_expr st env spaces e;
          {
            env with
            w_binds = (d_name, Bexpr e) :: env.w_binds;
            w_ctx = Affine.enter_let env.w_ctx d_name e;
          }
      | None ->
          {
            env with
            w_binds = (d_name, Bunknown) :: env.w_binds;
            w_ctx = Affine.forget env.w_ctx [ d_name ];
          })
  | Decl _ -> env (* shared arrays: layout table covers them *)
  | Assign (lv, e) -> (
      collect_expr st env spaces e;
      match lv with
      | Lvar v ->
          {
            env with
            w_binds = (v, Bexpr e) :: env.w_binds;
            w_ctx = Affine.enter_let env.w_ctx v e;
          }
      | Lfield (Lvar v, _) -> forget_vars env [ v ]
      | Lindex (arr, idxs) ->
          record_access st env spaces arr (`Sc idxs) ~store:true;
          List.iter (collect_expr st env spaces) idxs;
          env
      | Lvec { v_arr; v_width; v_index } ->
          record_access st env spaces v_arr
            (`Vec (v_width, v_index))
            ~store:true;
          collect_expr st env spaces v_index;
          env
      | Lfield (Lindex (arr, idxs), _) ->
          record_access st env spaces arr (`Sc idxs) ~store:true;
          List.iter (collect_expr st env spaces) idxs;
          env
      | Lfield _ -> env)
  | Sync ->
      if env.w_div then
        diag st ~rule:rule_barrier_divergence
          ~path:(path_of { env with w_path = "__syncthreads()" :: env.w_path })
          "__syncthreads() under thread-dependent control flow: threads \
           that skip the barrier deadlock or desynchronize the block";
      (* a guarded barrier may not execute: splitting the interval there
         would hide races between the code around it, so only an
         unconditional barrier starts a new interval *)
      if env.w_guards = [] then st.ws_interval <- st.ws_interval + 1;
      env
  | Global_sync ->
      if env.w_frames <> [] || env.w_guards <> [] then
        diag st ~rule:rule_barrier_divergence
          ~path:(path_of { env with w_path = "__global_sync()" :: env.w_path })
          "__global_sync() must appear at kernel top level";
      if env.w_guards = [] then st.ws_interval <- st.ws_interval + 1;
      env
  | If (cond, t, f) ->
      collect_expr st env spaces cond;
      let d = thread_dep env.w_binds env.w_frames cond in
      let seg =
        Printf.sprintf "if(%s)" (truncate_str 28 (Pp.expr_to_string cond))
      in
      let branch cond' =
        {
          env with
          w_guards = { g_cond = cond'; g_binds = env.w_binds } :: env.w_guards;
          w_div = env.w_div || d;
          w_path = seg :: env.w_path;
        }
      in
      ignore (walk_block st spaces (branch cond) t);
      ignore (walk_block st spaces (branch (Unop (Not, cond))) f);
      forget_vars env (assigned_vars t @ assigned_vars f)
  | For ({ l_var; l_init; l_limit; l_step; l_body } as lp) ->
      collect_expr st env spaces l_init;
      collect_expr st env spaces l_limit;
      collect_expr st env spaces l_step;
      let frozen = block_has_sync l_body in
      let tdep =
        thread_dep env.w_binds env.w_frames l_init
        || thread_dep env.w_binds env.w_frames l_limit
        || thread_dep env.w_binds env.w_frames l_step
      in
      (* lane-dependent bounds with a provably block-uniform trip count
         (the grid-strided idiom) execute any contained barrier in
         lockstep: not divergence *)
      let tdep =
        tdep
        && not
             (frozen
             && uniform_trip_count st.ws_launch st.ws_sizes env.w_binds lp)
      in
      let fr offset =
        {
          fr_var = l_var;
          fr_init = l_init;
          fr_limit = l_limit;
          fr_step = l_step;
          fr_frozen = frozen;
          fr_offset = offset;
          fr_binds = env.w_binds;
        }
      in
      let ctx' =
        match Affine.enter_loop env.w_ctx lp with
        | Some c -> c
        | None -> env.w_ctx
      in
      let depth = List.length env.w_frames in
      let benv offset =
        {
          env with
          w_binds = (l_var, Bloop depth) :: env.w_binds;
          w_frames = fr offset :: env.w_frames;
          w_ctx = ctx';
          w_div = env.w_div || tdep;
          w_path = Printf.sprintf "for(%s)" l_var :: env.w_path;
          w_frozen_depth = (env.w_frozen_depth + if frozen then 1 else 0);
        }
      in
      if frozen && env.w_frozen_depth < 2 then begin
        (* two symbolic passes: iteration k, then k+1 — accesses of the
           second pass land in the interval opened by the last barrier of
           the first, which is exactly the wrap-around interval *)
        ignore (walk_block st spaces (benv 0) l_body);
        ignore (walk_block st spaces (benv 1) l_body)
      end
      else ignore (walk_block st spaces (benv 0) l_body);
      forget_vars env (l_var :: assigned_vars l_body)

(* --- enumeration: windows of loop-iteration values per thread --- *)

let race_window = 6
let witness_window = 8

(** The bounds [(init, step, limit)] of a staged loop frame for the lane
    of [l], [None] when they cannot be evaluated or the step is not
    positive. *)
let frame_bounds (fc : frame_code) l =
  match (run fc.f_init l, run fc.f_step l) with
  | v0, st when st > 0 -> (
      match run fc.f_limit l with
      | lim -> Some (v0, st, lim)
      | exception Unknown -> None)
  | _ -> None
  | exception Unknown -> None

(** Apply [f] to the first [w] iteration values of a loop plus the last
    (none when the loop does not execute). *)
let iter_window ~w (v0, step, lim) f =
  if lim > v0 then begin
    let trips = (lim - v0 + step - 1) / step in
    let wn = min w trips in
    for i = 0 to wn - 1 do
      f (v0 + (i * step))
    done;
    if trips > wn then f (v0 + ((trips - 1) * step))
  end

(** Run [f] on every concrete instance of [acc] at the block and lane of
    [l], with the instance's loop values in the slots of [l]. Guards are
    checked; an unevaluable guard passes when [lenient]. With
    [~frozen:(Some asn)] the frames whose body holds a barrier take the
    block-shared iteration of [asn] (loop variable -> (base, step,
    limit) computed at lane 0; the frame's [fr_offset] advances the base
    by one step, skipping iterations past the limit; when the loop's
    bounds evaluate per lane — grid-strided loops — the value is rebased
    to this lane's own init, so lane-dependent uniform-trip loops are
    modeled faithfully) and the other frames enumerate a window of [w]
    iterations; with [~frozen:None] every frame enumerates. *)
let enum_access l ~lane ~lenient ~w ~frozen (acc : acc) (f : unit -> unit) :
    unit =
  let c = Lazy.force acc.a_code in
  let n = Array.length c.c_frames in
  let rec go d =
    if d = n then begin
      let holds g =
        match run g l with v -> v <> 0 | exception Unknown -> lenient
      in
      if List.for_all holds c.c_guards then f ()
    end
    else
      let fc = c.c_frames.(d) in
      let fr = fc.f_frame in
      match frozen with
      | Some asn when fr.fr_frozen -> (
          match List.assoc_opt fr.fr_var asn with
          | None -> ()
          | Some (base, step, lim) ->
              set_lane l 0;
              let i0 = run_opt fc.f_init l in
              set_lane l lane;
              let v, vlim =
                match (i0, run_opt fc.f_init l, run_opt fc.f_limit l) with
                | Some i0, Some il, Some ll ->
                    (base - i0 + il + (fr.fr_offset * step), ll)
                | _ -> (base + (fr.fr_offset * step), lim)
              in
              if v < vlim then begin
                l.l_slots.(d) <- v;
                go (d + 1)
              end)
      | _ -> (
          match frame_bounds fc l with
          | Some b ->
              iter_window ~w b (fun v ->
                  l.l_slots.(d) <- v;
                  go (d + 1))
          | None -> ())
  in
  go 0

(** The flattened element offset of one instance of [acc] ([`Sc]), or
    its vector index ([`Vec]), staged against the array's layout. *)
let offset_code (lay : Layout.t) (acc : acc) : code =
  let c = Lazy.force acc.a_code in
  match acc.a_kind with
  | `Sc _ ->
      let strides = Layout.strides lay in
      if List.length c.c_idxs <> List.length strides then Never
      else
        List.fold_left2
          (fun off i st -> add off (mul i (Const st)))
          (Const 0) c.c_idxs strides
  | `Vec _ -> List.hd c.c_idxs

(** Apply [f] to each element offset one instance touches, given the
    value of its {!offset_code}. *)
let iter_offsets (acc : acc) v f =
  match acc.a_kind with
  | `Sc _ -> f v
  | `Vec (w, _) ->
      for q = 0 to w - 1 do
        f ((v * w) + q)
      done

let max_depth accs =
  List.fold_left (fun m a -> max m (List.length a.a_frames)) 0 accs

(* --- race detection per barrier interval --- *)

(** Joint assignments of the frozen loop variables of an interval,
    computed at lane 0 of the block of [l]; lanes of a lane-dependent
    (uniform-trip) loop are rebased in {!enum_access}. Each assignment
    maps variable -> (base, step, limit). *)
let frozen_assignments l (group : acc list) :
    (string * (int * int * int)) list list =
  let frames =
    List.fold_left
      (fun seen a ->
        List.fold_left
          (fun seen (d, fr) ->
            let known (_, _, f) = String.equal f.fr_var fr.fr_var in
            if fr.fr_frozen && fr.fr_offset = 0 && not (List.exists known seen)
            then seen @ [ (a, d, fr) ]
            else seen)
          seen
          (List.mapi (fun d fr -> (d, fr)) a.a_frames))
      [] group
  in
  set_lane l 0;
  List.fold_left
    (fun asns (a, d, fr) ->
      let c = Lazy.force a.a_code in
      List.concat_map
        (fun asn ->
          (* the enclosing loops' slots, from this assignment *)
          List.iteri
            (fun j (outer : frame) ->
              if j < d then
                l.l_slots.(j) <-
                  (match List.assoc_opt outer.fr_var asn with
                  | Some (b, _, _) -> b
                  | None -> unset))
            a.a_frames;
          match frame_bounds c.c_frames.(d) l with
          | Some ((_, step, lim) as b) ->
              let vs = ref [] in
              iter_window ~w:race_window b (fun v -> vs := v :: !vs);
              List.rev_map (fun v -> asn @ [ (fr.fr_var, (v, step, lim)) ]) !vs
          | None -> [ asn ])
        asns)
    [ [] ] frames

(* element offset -> the (lane, path) of one access seen there *)
module Offsets = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

let check_races st (launch : Ast.launch) layouts ~max_lanes ~dedup_pairs
    (group : acc list) : unit =
  let n = launch.block_x * launch.block_y in
  if n > 1 then begin
    let lanes = min n max_lanes in
    let by_arr = Hashtbl.create 8 in
    List.iter
      (fun a ->
        Hashtbl.replace by_arr a.a_arr
          (a :: (try Hashtbl.find by_arr a.a_arr with Not_found -> [])))
      group;
    let blocks =
      List.sort_uniq compare
        [ (0, 0); (launch.grid_x - 1, launch.grid_y - 1) ]
    in
    let l = lane_env launch ~depth:(max_depth group) in
    Hashtbl.iter
      (fun arr accs ->
        let accs = List.rev accs in
        if List.exists (fun a -> a.a_store) accs then
          match Layout.find layouts arr with
          | None -> ()
          | Some lay -> (
              let space = (List.hd accs).a_space in
              let report lane1 st1 p1 lane2 st2 p2 ~bidx ~bidy off =
                let key = (arr, min p1 p2, max p1 p2) in
                if not (Hashtbl.mem dedup_pairs key) then begin
                  Hashtbl.replace dedup_pairs key ();
                  let rule =
                    if space = `Shared then rule_race_shared
                    else rule_race_global
                  in
                  let rw s = if s then "write" else "read" in
                  diag st ~rule ~path:p1
                    (Printf.sprintf
                       "threads %d and %d of block (%d,%d) touch %s element \
                        %d in the same barrier interval (%s at %s, %s at \
                        %s): insert __syncthreads() between the accesses"
                       lane1 lane2 bidx bidy arr off (rw st1)
                       (if p1 = "" then "top level" else p1)
                       (rw st2)
                       (if p2 = "" then "top level" else p2))
                end
              in
              (* instances whose offset no lane can evaluate touch nothing *)
              let evaluable =
                List.filter_map
                  (fun a ->
                    match offset_code lay a with
                    | Never -> None
                    | off -> Some (a, fn off))
                  accs
              in
              let exception
                Conflict of (int * bool * string * int * bool * string * int)
              in
              let exception Found in
              try
                List.iter
                  (fun ((bidx, bidy) as block) ->
                    set_block l block;
                    List.iter
                      (fun frozen ->
                        (* element -> one write and one read seen, if any *)
                        let writes = Offsets.create 64
                        and reads = Offsets.create 64 in
                        let touch lane (acc : acc) off =
                          let foreign tbl =
                            match Offsets.find_opt tbl off with
                            | Some (l2, _) as seen when l2 <> lane -> seen
                            | _ -> None
                          in
                          (* a store meeting both a foreign write and a
                             foreign read reports the read *)
                          (match
                             ( (if acc.a_store then foreign reads else None),
                               foreign writes )
                           with
                          | Some (l2, p2), _ ->
                              raise
                                (Conflict
                                   (lane, true, acc.a_path, l2, false, p2, off))
                          | None, Some (l2, p2) ->
                              raise
                                (Conflict
                                   ( lane,
                                     acc.a_store,
                                     acc.a_path,
                                     l2,
                                     true,
                                     p2,
                                     off ))
                          | None, None -> ());
                          Offsets.replace
                            (if acc.a_store then writes else reads)
                            off (lane, acc.a_path)
                        in
                        match
                          List.iter
                            (fun (acc, off) ->
                              for lane = 0 to lanes - 1 do
                                set_lane l lane;
                                enum_access l ~lane ~lenient:true
                                  ~w:race_window ~frozen:(Some frozen) acc
                                  (fun () ->
                                    match off l with
                                    | v -> iter_offsets acc v (touch lane acc)
                                    | exception Unknown -> ())
                              done)
                            evaluable
                        with
                        | () -> ()
                        | exception Conflict (l1, s1, p1, l2, s2, p2, off) ->
                            report l1 s1 p1 l2 s2 p2 ~bidx ~bidy off;
                            raise Found)
                      (frozen_assignments l accs))
                  blocks
              with Found -> ()))
      by_arr
  end

(* --- bounds checking: strided intervals + affine guard refinement --- *)

type renv = {
  r_launch : Ast.launch;
  r_sizes : (string * int) list;
  r_binds : (string * binding) list;
  r_iters : (int * si) list;  (** loop depth -> range of its variable *)
  r_trips : (string * si) list;  (** loop var -> range of [Affine.Iter] *)
  r_ctx : Affine.ctx;
  r_over : (Affine.var * (int option * int option)) list;
      (** guard-derived bounds per affine variable *)
}

let fdiv a b = if a >= 0 then a / b else -(((-a) + b - 1) / b)
let cdiv a b = if a >= 0 then (a + b - 1) / b else -((-a) / b)

let rec var_si (env : renv) (v : Affine.var) : si option =
  let dim n = Some (si_norm { lo = 0; hi = n - 1; st = 1 }) in
  let base =
    match v with
    | Affine.Tidx -> dim env.r_launch.block_x
    | Tidy -> dim env.r_launch.block_y
    | Bidx -> dim env.r_launch.grid_x
    | Bidy -> dim env.r_launch.grid_y
    | Iter name -> List.assoc_opt name env.r_trips
    | Param _ -> None
    | Mod_of (v', c) when c > 0 -> Option.map (fun s -> si_mod s c) (var_si env v')
    | Div_of (v', c) when c > 0 -> Option.map (fun s -> si_div s c) (var_si env v')
    | Mod_of _ | Div_of _ -> None
  in
  match (List.assoc_opt v env.r_over, base) with
  | None, b -> b
  | Some _, None -> None
  | Some (lo, hi), Some b ->
      si_clamp b
        ~lo:(Option.value lo ~default:b.lo)
        ~hi:(Option.value hi ~default:b.hi)

let si_of_affine (env : renv) (f : Affine.t) : si option =
  List.fold_left
    (fun acc (v, c) ->
      match (acc, var_si env v) with
      | Some a, Some s -> Some (si_add a (si_scale c s))
      | _ -> None)
    (Some (si_const f.const))
    f.terms

let rec range_expr (env : renv) (e : Ast.expr) : si option =
  let affine =
    match Affine.of_expr env.r_ctx e with
    | Some f -> si_of_affine env f
    | None -> None
  in
  (* the affine form is exact on correlations (e.g. [idx - tidx]) but
     decomposes a loop variable as init + step·iter, losing the limit
     clamp; the structural walk has the clamp but no correlations — so
     intersect the two *)
  match (affine, structural_range env e) with
  | Some a, Some s ->
      Some (Option.value (si_clamp a ~lo:s.lo ~hi:s.hi) ~default:a)
  | (Some _ as r), None | None, r -> r

and structural_range (env : renv) (e : Ast.expr) : si option =
  let ( let* ) = Option.bind in
  match e with
  | Int_lit n -> Some (si_const n)
  | Float_lit _ -> None
  | Builtin b ->
      let l = env.r_launch in
      let dim n = Some (si_norm { lo = 0; hi = n - 1; st = 1 }) in
      (match b with
      | Tidx -> dim l.block_x
      | Tidy -> dim l.block_y
      | Bidx -> dim l.grid_x
      | Bidy -> dim l.grid_y
      | Idx -> dim (l.grid_x * l.block_x)
      | Idy -> dim (l.grid_y * l.block_y)
      | Bdimx -> Some (si_const l.block_x)
      | Bdimy -> Some (si_const l.block_y)
      | Gdimx -> Some (si_const l.grid_x)
      | Gdimy -> Some (si_const l.grid_y))
  | Var v -> (
      match assoc_split v env.r_binds with
      | Some (Bloop d, _) -> List.assoc_opt d env.r_iters
      | Some (Bexpr e', rest) -> range_expr { env with r_binds = rest } e'
      | Some (Bunknown, _) -> None
      | None -> Option.map si_const (List.assoc_opt v env.r_sizes))
  | Unop (Neg, a) -> Option.map si_neg (range_expr env a)
  | Unop (Not, _) -> Some { lo = 0; hi = 1; st = 1 }
  | Binop (Add, a, b) ->
      let* x = range_expr env a in
      let* y = range_expr env b in
      Some (si_add x y)
  | Binop (Sub, a, b) ->
      let* x = range_expr env a in
      let* y = range_expr env b in
      Some (si_sub x y)
  | Binop (Mul, a, b) ->
      let* x = range_expr env a in
      let* y = range_expr env b in
      Some (si_mul x y)
  | Binop (Div, a, b) -> (
      let* y = range_expr env b in
      if y.lo = y.hi && y.lo > 0 then
        let* x = range_expr env a in
        Some (si_div x y.lo)
      else None)
  | Binop (Mod, a, b) -> (
      let* y = range_expr env b in
      if y.lo = y.hi && y.lo > 0 then
        let* x = range_expr env a in
        Some (si_mod x y.lo)
      else None)
  | Binop ((Lt | Le | Gt | Ge | Eq | Ne | And | Or), _, _) ->
      Some { lo = 0; hi = 1; st = 1 }
  | Call ("min", [ a; b ]) ->
      let* x = range_expr env a in
      let* y = range_expr env b in
      Some (si_min x y)
  | Call ("max", [ a; b ]) ->
      let* x = range_expr env a in
      let* y = range_expr env b in
      Some (si_max x y)
  | Select (_, a, b) ->
      let* x = range_expr env a in
      let* y = range_expr env b in
      Some (si_hull x y)
  | Index _ | Vload _ | Field _ | Call _ -> None

(** Refine per-variable bounds from one guard condition: a constraint
    whose affine difference has a single variable pins that variable. *)
let rec refine_guard (env : renv) (cond : Ast.expr) : renv =
  let add_le f bound env =
    (* constraint: f <= bound *)
    match f.Affine.terms with
    | [ (v, c) ] when c <> 0 ->
        let limit = bound - f.Affine.const in
        let lo0, hi0 =
          match List.assoc_opt v env.r_over with
          | Some b -> b
          | None -> (None, None)
        in
        let bnds =
          if c > 0 then
            let u = fdiv limit c in
            (lo0, Some (match hi0 with Some h -> min h u | None -> u))
          else
            let l = cdiv (-limit) (-c) in
            ((Some (match lo0 with Some l0 -> max l0 l | None -> l)), hi0)
        in
        { env with r_over = (v, bnds) :: List.remove_assoc v env.r_over }
    | _ -> env
  in
  match cond with
  | Binop (And, a, b) -> refine_guard (refine_guard env a) b
  | Unop (Not, Binop (Lt, a, b)) -> refine_guard env (Binop (Ge, a, b))
  | Unop (Not, Binop (Le, a, b)) -> refine_guard env (Binop (Gt, a, b))
  | Unop (Not, Binop (Gt, a, b)) -> refine_guard env (Binop (Le, a, b))
  | Unop (Not, Binop (Ge, a, b)) -> refine_guard env (Binop (Lt, a, b))
  | Binop (((Lt | Le | Gt | Ge | Eq) as op), a, b) -> (
      match (Affine.of_expr env.r_ctx a, Affine.of_expr env.r_ctx b) with
      | Some fa, Some fb -> (
          let d = Affine.sub fa fb in
          match op with
          | Lt -> add_le d (-1) env
          | Le -> add_le d 0 env
          | Gt -> add_le (Affine.scale (-1) d) (-1) env
          | Ge -> add_le (Affine.scale (-1) d) 0 env
          | Eq -> add_le (Affine.scale (-1) d) 0 (add_le d 0 env)
          | _ -> env)
      | _ -> env)
  | _ -> env

(** Build the range environment of one access: loop-variable ranges
    outer-to-inner, then guard refinement (two rounds, so a bound on one
    side of a comparison can tighten the other). *)
let renv_of_acc launch sizes (acc : acc) : renv =
  let base =
    {
      r_launch = launch;
      r_sizes = sizes;
      r_binds = acc.a_binds;
      r_iters = [];
      r_trips = [];
      r_ctx = acc.a_ctx;
      r_over = [];
    }
  in
  let env, _ =
    List.fold_left
      (fun (env, d) fr ->
        let init = range_expr env fr.fr_init
        and limit = range_expr env fr.fr_limit
        and step = range_expr env fr.fr_step in
        match (init, limit, step) with
        | Some i, Some lim, Some st when st.lo = st.hi && st.lo > 0 ->
            let stv = max 1 (gcd i.st st.lo) in
            let hi_raw = lim.hi - 1 in
            let value =
              si_norm { lo = i.lo; hi = max i.lo hi_raw; st = stv }
            in
            let trips_hi = max 0 ((lim.hi - 1 - i.lo) / st.lo) in
            ( {
                env with
                r_iters = (d, value) :: env.r_iters;
                r_trips =
                  (fr.fr_var, si_norm { lo = 0; hi = trips_hi; st = 1 })
                  :: env.r_trips;
              },
              d + 1 )
        | _ -> (env, d + 1))
      (base, 0) acc.a_frames
  in
  let refine env =
    List.fold_left (fun e g -> refine_guard e g.g_cond) env acc.a_guards
  in
  refine (refine env)

(** Hunt a concrete out-of-bounds witness by enumerating corner blocks,
    sampled lanes and iteration windows with guards evaluated strictly
    (an unevaluable guard skips the instance, so a hit is a real
    executable state). Returns [(dim, value, bound, lane, block)]. *)
let find_oob_witness (launch : Ast.launch) lay (acc : acc) :
    (int * int * int * int * (int * int)) option =
  let gx = launch.grid_x and gy = launch.grid_y in
  let blocks =
    List.sort_uniq compare
      [
        (0, 0);
        (gx - 1, 0);
        (0, gy - 1);
        (gx - 1, gy - 1);
        ((gx - 1) / 2, (gy - 1) / 2);
      ]
  in
  let n = launch.block_x * launch.block_y in
  let lanes =
    if n <= 64 then List.init n (fun i -> i)
    else
      List.sort_uniq compare
        (List.concat
           [
             [ 0; 1; launch.block_x - 1; launch.block_x; n - 2; n - 1; n / 2 ];
             List.init 16 (fun i -> i * (n - 1) / 15);
           ])
      |> List.filter (fun l -> l >= 0 && l < n)
  in
  let bounds =
    match acc.a_kind with
    | `Sc _ -> lay.Layout.pitches
    | `Vec _ -> [ Layout.size_elems lay ]
  in
  (* the last element each dimension's index touches *)
  let idxs =
    let c = Lazy.force acc.a_code in
    match acc.a_kind with
    | `Sc _ -> c.c_idxs
    | `Vec (w, _) ->
        [
          map_code
            (fun v -> if v >= 0 then (v * w) + w - 1 else v * w)
            (List.hd c.c_idxs);
        ]
  in
  let l = lane_env launch ~depth:(List.length acc.a_frames) in
  let exception Witness of (int * int * int * int * (int * int)) in
  try
    List.iter
      (fun ((bidx, bidy) as block) ->
        set_block l block;
        List.iter
          (fun lane ->
            set_lane l lane;
            enum_access l ~lane ~lenient:false ~w:witness_window ~frozen:None
              acc (fun () ->
                List.iteri
                  (fun dim (idx, bound) ->
                    match run idx l with
                    | v when v < 0 || v >= bound ->
                        raise (Witness (dim, v, bound, lane, (bidx, bidy)))
                    | _ -> ()
                    | exception Unknown -> ())
                  (List.combine idxs bounds)))
          lanes)
      blocks;
    None
  with Witness w -> Some w

let check_bounds st (launch : Ast.launch) sizes layouts (acc : acc) : unit =
  match Layout.find layouts acc.a_arr with
  | None -> ()
  | Some lay ->
      (* the frozen wrap pass duplicates each access; bounds are
         iteration-uniform, so every frame enumerates freely *)
      let env = renv_of_acc launch sizes acc in
      let dims =
        match acc.a_kind with
        | `Sc idxs ->
            if List.length idxs <> List.length lay.Layout.pitches then []
            else List.combine idxs lay.Layout.pitches
        | `Vec (w, ie) ->
            (* element range of the vector access against the flat size *)
            [ (Binop (Mul, ie, Int_lit w), Layout.size_elems lay - (w - 1)) ]
      in
      let unproven =
        List.filter_map
          (fun (e, bound) ->
            match range_expr env e with
            | Some s when s.lo >= 0 && s.hi < bound -> None
            | r -> Some (e, bound, r))
          dims
      in
      if unproven <> [] then begin
        let rule_err =
          if acc.a_space = `Shared then rule_oob_shared else rule_oob_global
        in
        match find_oob_witness launch lay acc with
        | Some (_, v, bound, lane, (bx, by)) ->
            diag st ~rule:rule_err ~path:acc.a_path
              (Printf.sprintf
                 "%s indexes element %d of %s (extent %d) for thread %d of \
                  block (%d,%d)"
                 (acc_expr acc) v acc.a_arr bound lane bx by)
        | None ->
            let e, bound, r = List.hd unproven in
            diag st ~severity:Warning ~rule:rule_oob_unproven ~path:acc.a_path
              (Printf.sprintf
                 "cannot prove %s in bounds: index %s has %s, extent %d"
                 (acc_expr acc)
                 (Pp.expr_to_string e)
                 (match r with
                 | Some s -> Printf.sprintf "range [%d, %d]" s.lo s.hi
                 | None -> "no derivable range")
                 bound)
      end

(* --- bank conflicts on the first half-warp --- *)

let check_bank st (launch : Ast.launch) layouts (acc : acc) : unit =
  if acc.a_space = `Shared then
    match Layout.find layouts acc.a_arr with
    | None -> ()
    | Some lay ->
        let n = launch.block_x * launch.block_y in
        let hw = min 16 n in
        if hw > 1 then begin
          (* first iteration of every loop, lenient guards: lanes whose
             guard fails do not participate in the request; a lane's
             address is its first evaluable instance's first element *)
          let off = offset_code lay acc in
          let first v =
            match acc.a_kind with `Sc _ -> v | `Vec (w, _) -> v * w
          in
          let addrs = ref [] in
          let l = lane_env launch ~depth:(List.length acc.a_frames) in
          set_block l (0, 0);
          (match off with
          | Never -> ()
          | _ ->
              for lane = 0 to hw - 1 do
                set_lane l lane;
                enum_access l ~lane ~lenient:true ~w:1 ~frozen:None acc
                  (fun () ->
                    match run off l with
                    | v when not (List.mem_assoc lane !addrs) ->
                        addrs := (lane, first v) :: !addrs
                    | _ -> ()
                    | exception Unknown -> ())
              done);
          let banks = Hashtbl.create 16 in
          List.iter
            (fun (_, off) ->
              let b = ((off mod 16) + 16) mod 16 in
              let prev = try Hashtbl.find banks b with Not_found -> [] in
              if not (List.mem off prev) then
                Hashtbl.replace banks b (off :: prev))
            !addrs;
          let degree =
            Hashtbl.fold (fun _ offs m -> max m (List.length offs)) banks 1
          in
          if degree > 1 then
            diag st ~severity:Warning ~rule:rule_bank_conflict ~path:acc.a_path
              (Printf.sprintf
                 "%s serializes the first half-warp %d-way across shared \
                  banks (pad the minor dimension, e.g. [16][17])"
                 (acc_expr acc) degree)
        end

(* --- coalescing lint via Coalesce_check --- *)

let check_coalescing st launch (k : Ast.kernel) : unit =
  List.iter
    (fun (a : Coalesce_check.access) ->
      match a.verdict with
      | Coalesce_check.Noncoalesced reason ->
          let why =
            match reason with
            | Coalesce_check.Uniform ->
                "all 16 lanes of a half-warp read one address"
            | Strided s -> Printf.sprintf "lane-to-lane stride %d elements" s
            | Misaligned m -> "misaligned base: " ^ m
          in
          diag st ~severity:Warning ~rule:rule_noncoalesced ~path:""
            (Printf.sprintf "global access %s is not coalesced (%s)"
               (Pp.expr_to_string (Index (a.arr, a.indices)))
               why)
      | Coalesced | Unknown -> ())
    (Coalesce_check.analyze_kernel ~launch k)

(* --- driver --- *)

let spaces_of (k : Ast.kernel) : (string * [ `Shared | `Global ]) list =
  let from_params =
    List.filter_map
      (fun (p : Ast.param) ->
        match p.p_ty with
        | Array { space = Global; _ } -> Some (p.p_name, `Global)
        | Array { space = Shared; _ } -> Some (p.p_name, `Shared)
        | _ -> None)
      k.k_params
  in
  let from_decls =
    Rewrite.declared_vars k.k_body
    |> List.filter_map (fun (name, ty) ->
           match ty with
           | Ast.Array { space = Shared; _ } -> Some (name, `Shared)
           | _ -> None)
  in
  from_params @ from_decls

let check ?(max_lanes = 512) ~(launch : Ast.launch) (k : Ast.kernel) :
    diagnostic list =
  let sizes = k.k_sizes in
  let layouts = Layout.of_kernel k in
  let spaces = spaces_of k in
  let st =
    {
      ws_kernel = k.k_name;
      ws_launch = launch;
      ws_sizes = sizes;
      ws_interval = 0;
      ws_accs = [];
      ws_diags = [];
    }
  in
  let env0 =
    {
      w_binds = [];
      w_frames = [];
      w_guards = [];
      w_ctx = Affine.ctx_of_launch ~sizes launch;
      w_div = false;
      w_path = [];
      w_frozen_depth = 0;
    }
  in
  ignore (walk_block st spaces env0 k.k_body);
  let accs = List.rev st.ws_accs in
  (let n = launch.block_x * launch.block_y in
   if
     n > max_lanes
     && List.exists
          (fun a -> a.a_store && Layout.find layouts a.a_arr <> None)
          accs
   then
     diag st ~severity:Warning ~rule:rule_verify_incomplete ~path:""
       (Printf.sprintf
          "race check enumerated only %d of %d lanes; the verdict for this \
           launch is incomplete"
          max_lanes n));
  (* races, interval by interval; the pair table dedups across them *)
  let dedup_pairs = Hashtbl.create 32 in
  let intervals = Hashtbl.create 8 in
  List.iter
    (fun a ->
      Hashtbl.replace intervals a.a_interval
        (a :: (try Hashtbl.find intervals a.a_interval with Not_found -> [])))
    accs;
  Hashtbl.fold (fun i g acc -> (i, List.rev g) :: acc) intervals []
  |> List.sort compare
  |> List.iter (fun (_, group) ->
         check_races st launch layouts ~max_lanes ~dedup_pairs group);
  (* bounds and bank conflicts, once per distinct syntactic access (the
     frozen wrap pass records duplicates) *)
  let seen = Hashtbl.create 64 in
  List.iter
    (fun a ->
      let key = (a.a_path, a.a_arr, a.a_store, acc_expr a) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.replace seen key ();
        check_bounds st launch sizes layouts a;
        check_bank st launch layouts a
      end)
    accs;
  check_coalescing st launch k;
  (* dedup, errors first, walk order otherwise *)
  let out = List.rev st.ws_diags in
  let seen = Hashtbl.create 32 in
  let out =
    List.filter
      (fun d ->
        let key = (d.severity, d.rule, d.path, d.message) in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.replace seen key ();
          true
        end)
      out
  in
  List.stable_sort
    (fun a b ->
      compare
        (match a.severity with Error -> 0 | Warning -> 1)
        (match b.severity with Error -> 0 | Warning -> 1))
    out

(** Static kernel verifier (see the interface for the rule catalogue).

    The implementation has four moving parts:

    1. the {!Walk} record of the kernel text, made once without a launch
       and planned ({!plan}): barrier intervals, every memory access
       with its guards, enclosing loops and scalar bindings, the barrier
       sites, whose divergence is reported first, and the distinct
       accesses grouped into replicas; at a launch, the record's
       {!Affine} contexts are derived from its steps;
    2. a {e staged concrete evaluator}: each access's index, guard and
       loop-bound expressions are resolved once per launch (binding
       chains, sizes, launch dimensions) into closures over one thread's
       coordinates and loop-iteration slots — this is what lets the race
       check intersect per-thread access sets exactly, including the
       mod/div index rotations the passes introduce;
    3. a {e strided-interval} range analysis (value range plus a
       congruence stride) with affine guard refinement, used to prove
       indices in-bounds, each loop frame ranged once per launch and a
       replica group once while its extreme members fit;
    4. enumeration drivers that combine 1+2 to build per-interval
       address tables (races, bank conflicts) and to hunt concrete
       out-of-bounds witnesses when 3 cannot prove safety.

    A check at a launch runs the race search over every access (the
    concrete fallback and the oracle), then the warning phase: bounds,
    bank conflicts and coalescing. A lint ({!lint}) runs the warning
    phase alone, so each rule has one implementation. *)

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

(** Values of [s] lie in [[s.lo, s.hi]] and are all congruent to [s.lo]
    modulo [s.st]; a singleton ([lo = hi]) has [st = 0], meaning every
    stride divides it (so [gcd] combines it for free), otherwise
    [st >= 1] and [hi ≡ lo (mod st)]. The stride is what lets a guard
    like [i + 16 < w] on a step-16 loop round down to the last
    actually-reachable iterate. *)
type si = { lo : int; hi : int; st : int }

exception Unknown

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

(** Stage [e] under [env]'s bindings for [launch]. [depth] is the number of loop
    slots the code may read: the variable of a loop at depth [depth] or
    deeper is unknown. *)
let rec stage (launch : Ast.launch) sizes ~depth env (e : Ast.expr) : code =
  let stage' = stage launch sizes ~depth env in
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
      match Walk.find env v with
      | Some (Let l) -> stage launch sizes ~depth l.l_env l.l_expr
      | Some (Loop d) when d < depth ->
          Dyn
            (fun l ->
              let x = l.l_slots.(d) in
              if x = unset then raise_notrace Unknown else x)
      | Some (Loop _ | Unknown | Carried) -> Never
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

let si_const n = { lo = n; hi = n; st = 0 }

let si_norm s =
  if s.hi <= s.lo then { s with hi = s.lo; st = 0 }
  else { s with hi = s.lo + ((s.hi - s.lo) / s.st * s.st) }

let si_add a b =
  si_norm { lo = a.lo + b.lo; hi = a.hi + b.hi; st = Affine.gcd a.st b.st }

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
  let st = Affine.gcd (Affine.gcd a.st b.st) (a.lo - b.lo) in
  si_norm { lo = min a.lo b.lo; hi = max a.hi b.hi; st }

let si_min a b =
  let st = Affine.gcd (Affine.gcd a.st b.st) (a.lo - b.lo) in
  si_norm { lo = min a.lo b.lo; hi = min a.hi b.hi; st }

let si_max a b =
  let st = Affine.gcd (Affine.gcd a.st b.st) (a.lo - b.lo) in
  si_norm { lo = max a.lo b.lo; hi = max a.hi b.hi; st }

(** [a mod c] under mathematical mod, for a constant [c > 0]. *)
let si_mod a c =
  if a.lo >= 0 && a.hi < c then a
  else
    let g = max 1 (Affine.gcd a.st c) in
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

(* --- accesses staged for one launch --- *)

(** An access's expressions staged for the launch: the bounds of its
    loop frames (frame [d] reads slots [0 .. d-1]), its guards and its
    index expressions (one per dimension, or the vector index). *)
type frame_code = {
  f_frame : Walk.frame;
  f_init : code;
  f_limit : code;
  f_step : code;
  f_varying : bool;
      (** the step reads the loop variable ([i += i]): it is staged with
          the variable in slot [d] and evaluated trip by trip *)
}

type acc_code = {
  c_frames : frame_code array;  (** outermost first *)
  c_guards : code list;
  c_idxs : code list;
}

type acc = {
  w : Walk.access;
  a_frames : Walk.frame list;
      (** outermost first; frozen frames form a prefix *)
  a_code : acc_code Lazy.t;  (** staged once, on first enumeration *)
}

let stage_access launch sizes (w : Walk.access) ~frames : acc_code =
  let depth = List.length frames in
  {
    c_frames =
      Array.of_list
        (List.mapi
           (fun d (fr : Walk.frame) ->
             let c = stage launch sizes ~depth:d fr.fr_trip in
             let varying = Rewrite.expr_uses_var fr.fr_var fr.fr_step in
             {
               f_frame = fr;
               f_init =
                 stage launch sizes ~depth:d fr.fr_entry fr.fr_init;
               f_limit = c fr.fr_limit;
               f_step =
                 (if varying then
                    (* at the frame's own depth: the variable is slot [d] *)
                    stage launch sizes ~depth:(d + 1)
                      {
                        fr.fr_trip with
                        binds =
                          Walk.Smap.add fr.fr_var (Walk.Loop d)
                            fr.fr_trip.binds;
                      }
                      fr.fr_step
                  else c fr.fr_step);
               f_varying = varying;
             })
           frames);
    c_guards =
      List.map
        (fun (g : Walk.guard) ->
          stage launch sizes ~depth g.g_env g.g_cond)
        w.a_guards;
    c_idxs =
      List.map
        (stage launch sizes ~depth w.a_env)
        (Walk.indices w.a_kind);
  }

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
let uniform_trip_count (launch : Ast.launch) sizes (fr : Walk.frame) : bool =
  let lanes = launch.block_x * launch.block_y in
  lanes <= 512
  &&
  let c = stage launch sizes ~depth:0 fr.fr_trip in
  let init = stage launch sizes ~depth:0 fr.fr_entry fr.fr_init
  and limit = c fr.fr_limit
  and step = c fr.fr_step in
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

(* --- barrier divergence --- *)

type state = { kernel : string; mutable diags : diagnostic list }

let diag st ?(severity = Error) ~rule ~path message =
  st.diags <- { severity; rule; kernel = st.kernel; path; message } :: st.diags

let barrier_message = function
  | `Sync ->
      "__syncthreads() under thread-dependent control flow: threads that \
       skip the barrier deadlock or desynchronize the block"
  | `Global_sync -> "__global_sync() must appear at kernel top level"

(** A [__syncthreads()] diverges under a thread-dependent guard, or in a
    thread-dependent loop whose trip count is not block-uniform at this
    launch; a [__global_sync()] anywhere but at top level. *)
let check_barriers st launch sizes (bars : Walk.barrier list) : unit =
  let memo = Hashtbl.create 8 in
  (* once per loop: a wrap pass shares its loop's verdict *)
  let uniform (fr : Walk.frame) =
    match Hashtbl.find_opt memo fr.fr_loop with
    | Some u -> u
    | None ->
        let u = uniform_trip_count launch sizes fr in
        Hashtbl.replace memo fr.fr_loop u;
        u
  in
  List.iter
    (fun (b : Walk.barrier) ->
      if
        match b.b_kind with
        | `Sync -> b.b_guarded || not (List.for_all uniform b.b_loops)
        | `Global_sync -> not b.b_top
      then
        diag st ~rule:rule_barrier_divergence ~path:b.b_path
          (barrier_message b.b_kind))
    bars

(* --- enumeration: windows of loop-iteration values per thread --- *)

let race_window = 6
let witness_window = 8

(** The bounds [(init, step, limit)] of a staged loop frame whose step
    does not read its variable, for the lane of [l]; [None] when they
    cannot be evaluated or the step is not positive. *)
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

(* a loop whose step reads its variable is iterated trip by trip; past
   this many trips it is not enumerated *)
let trip_cap = 4096

(** The same window for frame [d] of [l] when its step reads the loop
    variable: the limit, and the first [w] values plus the last, each
    with the value the next trip starts from. [None] when a bound or a
    step cannot be evaluated, a step is not positive or the loop runs
    more than {!trip_cap} trips. Leaves slot [d] set. *)
let varying_window ~w (fc : frame_code) l d :
    (int * (int * int) list) option =
  let next v =
    l.l_slots.(d) <- v;
    match run fc.f_step l with
    | s when s > 0 -> v + s
    | _ -> raise_notrace Unknown
  in
  (* [v] is the value of trip [k], below the limit *)
  let rec trips lim k v acc =
    let v' = next v in
    let acc = if k < w then (v, v') :: acc else acc in
    if v' < lim then
      if k >= trip_cap then raise_notrace Unknown
      else trips lim (k + 1) v' acc
    else if k >= w then (v, v') :: acc
    else acc
  in
  match (run fc.f_init l, run fc.f_limit l) with
  | v0, lim when v0 >= lim -> Some (lim, [])
  | v0, lim -> (
      match trips lim 0 v0 [] with
      | vs -> Some (lim, List.rev vs)
      | exception Unknown -> None)
  | exception Unknown -> None

(** The window of frame [d] for the lane of [l] as {!varying_window}
    gives it, whatever its step. *)
let frame_window ~w (fc : frame_code) l d =
  if fc.f_varying then varying_window ~w fc l d
  else
    Option.map
      (fun ((_, step, lim) as b) ->
        let vs = ref [] in
        iter_window ~w b (fun v -> vs := (v, v + step) :: !vs);
        (lim, List.rev !vs))
      (frame_bounds fc l)

(** Run [f] on every concrete instance of [acc] at the block and lane of
    [l], with the instance's loop values in the slots of [l]. Guards are
    checked; an unevaluable guard passes when [lenient]. With
    [~frozen:(Some asn)] the frames whose body holds a barrier take the
    block-shared iteration of [asn] (loop variable -> (value, next
    value, limit) computed at lane 0; a frame with [fr_offset] 1 takes
    the next value, skipping iterations past the limit; when the loop's
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
          | Some (base, next, lim) ->
              set_lane l 0;
              let i0 = run_opt fc.f_init l in
              set_lane l lane;
              let pick = if fr.fr_offset = 0 then base else next in
              let v, vlim =
                match (i0, run_opt fc.f_init l, run_opt fc.f_limit l) with
                | Some i0, Some il, Some ll -> (pick - i0 + il, ll)
                | _ -> (pick, lim)
              in
              if v < vlim then begin
                l.l_slots.(d) <- v;
                go (d + 1)
              end)
      | _ when fc.f_varying -> (
          match varying_window ~w fc l d with
          | Some (_, vs) ->
              List.iter
                (fun (v, _) ->
                  l.l_slots.(d) <- v;
                  go (d + 1))
                vs
          | None -> ())
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
  match acc.w.a_kind with
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
  match acc.w.a_kind with
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
    maps variable -> (value, next value, limit): the k-th value of the
    window and the one after it. *)
let frozen_assignments l (group : acc list) :
    (string * (int * int * int)) list list =
  let frames =
    List.fold_left
      (fun seen a ->
        List.fold_left
          (fun seen (d, (fr : Walk.frame)) ->
            let known (_, _, (f : Walk.frame)) =
              String.equal f.fr_var fr.fr_var
            in
            if fr.fr_frozen && fr.fr_offset = 0 && not (List.exists known seen)
            then seen @ [ (a, d, fr) ]
            else seen)
          seen
          (List.mapi (fun d fr -> (d, fr)) a.a_frames))
      [] group
  in
  set_lane l 0;
  List.fold_left
    (fun asns (a, d, (fr : Walk.frame)) ->
      let c = Lazy.force a.a_code in
      List.concat_map
        (fun asn ->
          (* the enclosing loops' slots, from this assignment *)
          List.iteri
            (fun j (outer : Walk.frame) ->
              if j < d then
                l.l_slots.(j) <-
                  (match List.assoc_opt outer.fr_var asn with
                  | Some (b, _, _) -> b
                  | None -> unset))
            a.a_frames;
          match frame_window ~w:race_window c.c_frames.(d) l d with
          | Some (lim, vs) ->
              List.map
                (fun (v, next) -> asn @ [ (fr.fr_var, (v, next, lim)) ])
                vs
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
  let lanes = min (launch.block_x * launch.block_y) max_lanes in
  (* a conflict needs two distinct lanes: a one-lane lint has none *)
  if lanes > 1 then begin
    let by_arr = Hashtbl.create 8 in
    List.iter
      (fun a ->
        Hashtbl.replace by_arr a.w.a_arr
          (a :: (try Hashtbl.find by_arr a.w.a_arr with Not_found -> [])))
      group;
    let blocks =
      List.sort_uniq compare
        [ (0, 0); (launch.grid_x - 1, launch.grid_y - 1) ]
    in
    let l = lane_env launch ~depth:(max_depth group) in
    Hashtbl.iter
      (fun arr accs ->
        let accs = List.rev accs in
        if List.exists (fun a -> a.w.a_store) accs then
          match Layout.find layouts arr with
          | None -> ()
          | Some lay -> (
              let space = (List.hd accs).w.a_space in
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
                             ( (if acc.w.a_store then foreign reads else None),
                               foreign writes )
                           with
                          | Some (l2, p2), _ ->
                              raise
                                (Conflict
                                   ( lane,
                                     true,
                                     acc.w.a_path,
                                     l2,
                                     false,
                                     p2,
                                     off ))
                          | None, Some (l2, p2) ->
                              raise
                                (Conflict
                                   ( lane,
                                     acc.w.a_store,
                                     acc.w.a_path,
                                     l2,
                                     true,
                                     p2,
                                     off ))
                          | None, None -> ());
                          Offsets.replace
                            (if acc.w.a_store then writes else reads)
                            off (lane, acc.w.a_path)
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

(* affine forms by physical (context, node) *)
module Forms = Hashtbl.Make (struct
  type t = Affine.ctx * Ast.expr

  let equal (c, e) (c', e') = c == c' && e == e'
  let hash (_, e) = Hashtbl.hash e
end)

type renv = {
  r_launch : Ast.launch;
  r_sizes : (string * int) list;
  r_cs : Walk.contexts;  (** the walk's contexts at the launch *)
  r_env : Walk.env;
  r_iters : (int * si) list;  (** loop depth -> range of its variable *)
  r_trips : (string * si) list;  (** loop var -> range of [Affine.Iter] *)
  r_ctx : Affine.ctx;
  r_over : (Affine.var * (int option * int option)) list;
      (** guard-derived bounds per affine variable *)
  r_lets : (int, si option) Hashtbl.t;
      (** each let's own range, once an access that adds no loop or guard
          bounds asked for it: nothing else varies at one launch *)
  r_forms : Affine.t option Forms.t;
      (** the affine forms this environment's narrowings lowered *)
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

(* The affine form of [e] in [env]'s context, each node lowered once:
   narrowing asks for the form of every node its structural recursion
   visits, and [Affine.of_expr] at each would lower every subtree again
   at each of its ancestors. *)
let form (env : renv) (e : Ast.expr) : Affine.t option =
  let rec go e =
    let k = (env.r_ctx, e) in
    match Forms.find_opt env.r_forms k with
    | Some f -> f
    | None ->
        let f = Affine.of_node env.r_ctx go e in
        Forms.add env.r_forms k f;
        f
  in
  go e

let affine_range (env : renv) (e : Ast.expr) : si option =
  Option.bind (form env e) (si_of_affine env)

let rec range_expr (env : renv) (e : Ast.expr) : si option =
  narrow_range env (affine_range env e) e

(* the affine form is exact on correlations (e.g. [idx - tidx]) but
   decomposes a loop variable as init + step·iter, losing the limit
   clamp; the structural walk has the clamp but no correlations — so
   intersect the two *)
and narrow_range (env : renv) (affine : si option) (e : Ast.expr) : si option =
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
      match Walk.find env.r_env v with
      | Some (Loop d) -> List.assoc_opt d env.r_iters
      | Some (Let l) -> (
          let range () =
            range_expr
              { env with r_env = l.l_env; r_ctx = Walk.ctx env.r_cs l.l_ctx }
              l.l_expr
          in
          (* without loop or guard bounds of the access, the range is the
             binding's own *)
          if env.r_iters <> [] || env.r_trips <> [] || env.r_over <> [] then
            range ()
          else
            match Hashtbl.find_opt env.r_lets l.l_id with
            | Some r -> r
            | None ->
                let r = range () in
                Hashtbl.replace env.r_lets l.l_id r;
                r)
      | Some (Unknown | Carried) -> None
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

(** Refine per-variable bounds from one guard condition, lowered in the
    guard's context [ctx]: a constraint whose affine difference has a
    single variable pins that variable. *)
let rec refine_guard (env : renv) ctx (cond : Ast.expr) : renv =
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
  | Binop (And, a, b) -> refine_guard (refine_guard env ctx a) ctx b
  | Unop (Not, Binop (Lt, a, b)) -> refine_guard env ctx (Binop (Ge, a, b))
  | Unop (Not, Binop (Le, a, b)) -> refine_guard env ctx (Binop (Gt, a, b))
  | Unop (Not, Binop (Gt, a, b)) -> refine_guard env ctx (Binop (Le, a, b))
  | Unop (Not, Binop (Ge, a, b)) -> refine_guard env ctx (Binop (Lt, a, b))
  | Binop (((Lt | Le | Gt | Ge | Eq) as op), a, b) -> (
      match (Affine.of_expr ctx a, Affine.of_expr ctx b) with
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

(* --- one launch of a planned kernel text --- *)

(** What a check at one launch derives from the text's walk, each piece
    once: the contexts, the staged accesses, the ranges of each loop
    frame and of each let. *)
type at = {
  launch : Ast.launch;
  sizes : (string * int) list;
  cs : Walk.contexts;
  accs : acc option array;  (** by [a_id], staged on demand *)
  frame_ranges : (int, (int * si) list * (string * si) list) Hashtbl.t;
      (** by [fr_id]: the ranges of the frame's variable and trip
          counter, after those of the frames around it *)
  let_ranges : (int, si option) Hashtbl.t;
}

let at_launch (walk : Walk.t) (launch : Ast.launch) : at =
  {
    launch;
    sizes = walk.sizes;
    cs = Walk.contexts walk launch;
    accs = Array.make (List.length walk.accesses) None;
    frame_ranges = Hashtbl.create 16;
    let_ranges = Hashtbl.create 16;
  }

(* the range environment of a point with no guard bounds yet *)
let renv_at (at : at) (e : Walk.env) ctx (r_iters, r_trips) : renv =
  {
    r_launch = at.launch;
    r_sizes = at.sizes;
    r_cs = at.cs;
    r_env = e;
    r_iters;
    r_trips;
    r_ctx = Walk.ctx at.cs ctx;
    r_over = [];
    r_lets = at.let_ranges;
    r_forms = Forms.create 16;
  }

let acc_of (at : at) (w : Walk.access) : acc =
  match at.accs.(w.a_id) with
  | Some a -> a
  | None ->
      let frames = List.rev w.a_env.frames in
      let a =
        {
          w;
          a_frames = frames;
          a_code = lazy (stage_access at.launch at.sizes w ~frames);
        }
      in
      at.accs.(w.a_id) <- Some a;
      a

(** The ranges of a frame's variable (by depth) and trip counter (by
    name), and of those of the frames around it, innermost first: each
    bound in the frame's own bindings, not an access's, so a name the
    body reassigns before the access does not move the loop's range. *)
let rec frame_ranges (at : at) (fr : Walk.frame) =
  match Hashtbl.find_opt at.frame_ranges fr.fr_id with
  | Some r -> r
  | None ->
      let ((iters, trips) as outer) =
        match fr.fr_entry.frames with
        | [] -> ([], [])
        | o :: _ -> frame_ranges at o
      in
      let init =
        range_expr (renv_at at fr.fr_entry fr.fr_entry_ctx outer) fr.fr_init
      and trip = renv_at at fr.fr_trip fr.fr_trip_ctx outer in
      let limit = range_expr trip fr.fr_limit
      and step = range_expr trip fr.fr_step in
      let r =
        match (init, limit, step) with
        | Some i, Some lim, Some st when st.lo = st.hi && st.lo > 0 ->
            let stv = max 1 (Affine.gcd i.st st.lo) in
            let value =
              si_norm { lo = i.lo; hi = max i.lo (lim.hi - 1); st = stv }
            in
            let trips_hi = max 0 ((lim.hi - 1 - i.lo) / st.lo) in
            ( (List.length fr.fr_entry.frames, value) :: iters,
              (fr.fr_var, si_norm { lo = 0; hi = trips_hi; st = 1 }) :: trips
            )
        | _ -> outer
      in
      Hashtbl.replace at.frame_ranges fr.fr_id r;
      r

(** Build the range environment of one access: its frames' ranges, then
    guard refinement (two rounds, so a bound on one side of a comparison
    can tighten the other). *)
let renv_of_acc (at : at) (acc : acc) : renv =
  let env =
    renv_at at acc.w.a_env acc.w.a_ctx
      (match acc.w.a_env.frames with
      | [] -> ([], [])
      | fr :: _ -> frame_ranges at fr)
  in
  let refine env =
    List.fold_left
      (fun e (g : Walk.guard) ->
        refine_guard e (Walk.ctx at.cs g.g_ctx) g.g_cond)
      env acc.w.a_guards
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
    match acc.w.a_kind with
    | `Sc _ -> lay.Layout.pitches
    | `Vec _ -> [ Layout.size_elems lay ]
  in
  (* the last element each dimension's index touches *)
  let idxs =
    let c = Lazy.force acc.a_code in
    match acc.w.a_kind with
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

(** The index expressions a bounds check ranges, against their extents
    in [lay]: one per dimension, or a vector access's element range
    against the flat size. *)
let bound_exprs : Walk.kind -> Ast.expr list = function
  | `Sc idxs -> idxs
  | `Vec (w, ie) -> [ Binop (Mul, ie, Int_lit w) ]

let bound_dims (lay : Layout.t) (kind : Walk.kind) : (Ast.expr * int) list =
  match kind with
  | `Sc idxs ->
      if List.length idxs <> List.length lay.Layout.pitches then []
      else List.combine idxs lay.Layout.pitches
  | `Vec (w, _) ->
      List.map
        (fun e -> (e, Layout.size_elems lay - (w - 1)))
        (bound_exprs kind)

let fits bound = function Some s -> s.lo >= 0 && s.hi < bound | None -> false

let check_bounds st (at : at) lay (acc : acc) : unit =
  (* the frozen wrap pass duplicates each access; bounds are
     iteration-uniform, so every frame enumerates freely *)
  let env = renv_of_acc at acc in
  (* narrowing keeps an affine range that fits inside it *)
  let unproven =
    List.filter_map
      (fun (e, bound) ->
        let affine = affine_range env e in
        if fits bound affine then None
        else
          let r = narrow_range env affine e in
          if fits bound r then None else Some (e, bound, r))
      (bound_dims lay acc.w.a_kind)
  in
  if unproven <> [] then begin
    let rule_err =
      if acc.w.a_space = `Shared then rule_oob_shared else rule_oob_global
    in
    match find_oob_witness at.launch lay acc with
    | Some (_, v, bound, lane, (bx, by)) ->
        diag st ~rule:rule_err ~path:acc.w.a_path
          (Printf.sprintf
             "%s indexes element %d of %s (extent %d) for thread %d of block \
              (%d,%d)"
             (Walk.show acc.w) v acc.w.a_arr bound lane bx by)
    | None ->
        let e, bound, r = List.hd unproven in
        diag st ~severity:Warning ~rule:rule_oob_unproven ~path:acc.w.a_path
          (Printf.sprintf
             "cannot prove %s in bounds: index %s has %s, extent %d"
             (Walk.show acc.w) (Pp.expr_to_string e)
             (match r with
             | Some s -> Printf.sprintf "range [%d, %d]" s.lo s.hi
             | None -> "no derivable range")
             bound)
  end

(* --- bank conflicts on the first half-warp --- *)

(** How many ways a shared access serializes the first half-warp of
    block (0,0) across banks: the most distinct addresses one bank
    receives, 1 when none conflict. *)
let bank_degree (launch : Ast.launch) lay (acc : acc) : int =
  let n = launch.block_x * launch.block_y in
  let hw = min 16 n in
  if hw <= 1 then 1
  else begin
    (* first iteration of every loop, lenient guards: lanes whose guard
       fails do not participate in the request; a lane's address is its
       first evaluable instance's first element *)
    let off = offset_code lay acc in
    let first v = match acc.w.a_kind with `Sc _ -> v | `Vec (w, _) -> v * w in
    let addrs = ref [] in
    let l = lane_env launch ~depth:(List.length acc.a_frames) in
    set_block l (0, 0);
    (match off with
    | Never -> ()
    | _ ->
        for lane = 0 to hw - 1 do
          set_lane l lane;
          enum_access l ~lane ~lenient:true ~w:1 ~frozen:None acc (fun () ->
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
        if not (List.mem off prev) then Hashtbl.replace banks b (off :: prev))
      !addrs;
    Hashtbl.fold (fun _ offs m -> max m (List.length offs)) banks 1
  end

let bank_message (w : Walk.access) degree =
  Printf.sprintf
    "%s serializes the first half-warp %d-way across shared banks (pad the \
     minor dimension, e.g. [16][17])"
    (Walk.show w) degree

(* --- coalescing lint via Coalesce_check --- *)

let check_coalescing st (accesses : Coalesce_check.access list) : unit =
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
    accesses

(* --- the plan: one walk of a kernel text, for every launch --- *)

(** [e] as a template and an additive constant. Two index expressions
    with one template, read under the same bindings, guards and loops,
    differ by the difference of their constants at every lane: in their
    staged code, their affine form and their strided-interval range,
    since each is exact under a constant shift. Only sums, differences,
    negations and products by a literal are looked through; a constant
    term is left out of the template, whose own [Int_lit 0] stands for a
    constant. *)
let rec split_const (e : Ast.expr) : Ast.expr * int =
  let zero = Ast.Int_lit 0 in
  match e with
  | Int_lit n -> (zero, n)
  | Binop (((Add | Sub) as op), a, b) -> (
      let ta, ca = split_const a and tb, cb = split_const b in
      let c = if op = Add then ca + cb else ca - cb in
      match (ta, tb) with
      | _, Int_lit 0 -> (ta, c)
      | Int_lit 0, _ when op = Add -> (tb, c)
      | _ -> (Binop (op, ta, tb), c))
  | Binop (Mul, a, (Int_lit k as lit)) | Binop (Mul, (Int_lit k as lit), a) ->
      let ta, ca = split_const a in
      ((if ta = zero then zero else Binop (Mul, ta, lit)), k * ca)
  | Unop (Neg, a) ->
      let ta, ca = split_const a in
      ((if ta = zero then zero else Unop (Neg, ta)), -ca)
  | _ -> (e, 0)

(** Distinct accesses to arrays of one space and padded shape that agree
    in path, loop frames, the identities of the names they read and of
    their guards ({!Reads}), and their index templates ({!split_const}):
    a replica group, as thread merging leaves them (each replica under
    its own copy of a guard, often into its own copy of a shared
    array). Its members' ranges are one range shifted by their
    constants, against one extent, and their first-half-warp addresses
    one set shifted alike. *)
type group = {
  g_rep : int;  (** the first member, an index into [p_distinct] *)
  g_size : int;
  g_lo : int list;  (** per bound dimension, the least member constant *)
  g_hi : int list;  (** and the greatest *)
}

type plan = {
  p_name : string;
  p_layouts : Layout.table;
  p_walk : Walk.t;
  p_distinct : (Walk.access * int * int list) array;
      (** the {!Walk.distinct} accesses, each with its group and the
          constants of its bound dimensions *)
  p_groups : group array;
}

(* replica keys: (space, padded shape, access shape, templates, path) *)
module Groups = Hashtbl.Make (struct
  type t =
    [ `Shared | `Global ] * int list option * int * Ast.expr list * string

  let equal = ( = )

  (* deep enough that templates differing past their first operands
     hash apart *)
  let hash x = Hashtbl.hash_param 64 256 x
end)

let plan (k : Ast.kernel) : plan =
  let walk = Walk.run k in
  let layouts = Layout.of_kernel k in
  (* key -> [(a member, its group)]: arrays of one shape share a group,
     as merged threads' private copies of a shared array do *)
  let buckets = Groups.create 64 and ngroups = ref 0 in
  let distinct =
    Array.of_list
      (List.map
         (fun (a : Walk.access) ->
           let templates, consts =
             List.split (List.map split_const (bound_exprs a.a_kind))
           in
           let shape = match a.a_kind with `Sc _ -> 0 | `Vec (w, _) -> w in
           let pitches =
             Option.map
               (fun (l : Layout.t) -> l.pitches)
               (Layout.find layouts a.a_arr)
           in
           let key = (a.a_space, pitches, shape, templates, a.a_path) in
           let candidates =
             Option.value ~default:[] (Groups.find_opt buckets key)
           in
           (* the identities cover the index's names and the guards *)
           let same ((b : Walk.access), _) =
             b.a_env.frames == a.a_env.frames
             && Lazy.force b.a_reads = Lazy.force a.a_reads
           in
           match List.find_opt same candidates with
           | Some (_, gi) -> (a, gi, consts)
           | None ->
               let gi = !ngroups in
               incr ngroups;
               Groups.replace buckets key ((a, gi) :: candidates);
               (a, gi, consts))
         (Lazy.force walk.distinct))
  in
  let groups = Array.make !ngroups None in
  Array.iteri
    (fun i (_, gi, consts) ->
      groups.(gi) <-
        Some
          (match groups.(gi) with
          | None -> { g_rep = i; g_size = 1; g_lo = consts; g_hi = consts }
          | Some g ->
              {
                g with
                g_size = g.g_size + 1;
                g_lo = List.map2 min g.g_lo consts;
                g_hi = List.map2 max g.g_hi consts;
              }))
    distinct;
  {
    p_name = k.k_name;
    p_layouts = layouts;
    p_walk = walk;
    p_distinct = distinct;
    p_groups = Array.map Option.get groups;
  }

let plan_walk p = p.p_walk

let singletons p =
  {
    p with
    p_distinct = Array.mapi (fun i (a, _, c) -> (a, i, c)) p.p_distinct;
    p_groups =
      Array.mapi
        (fun i (_, _, c) -> { g_rep = i; g_size = 1; g_lo = c; g_hi = c })
        p.p_distinct;
  }

(** Do all members of a group fit their extents? Each bound dimension is
    ranged once, at the representative [rep] (constants [consts]), and
    shifted to the group's least and greatest constant: when both fit,
    every member between them does. *)
let group_fits (at : at) lay (g : group) (rep : acc) consts : bool =
  match bound_dims lay rep.w.a_kind with
  | [] -> true
  | dims ->
      let env = renv_of_acc at rep in
      List.for_all2
        (fun ((e, bound), c) (lo, hi) ->
          let fits_shifted = function
            | Some s -> s.lo + lo - c >= 0 && s.hi + hi - c < bound
            | None -> false
          in
          let affine = affine_range env e in
          fits_shifted affine || fits_shifted (narrow_range env affine e))
        (List.combine dims consts)
        (List.combine g.g_lo g.g_hi)

(** Bounds and bank conflicts, per distinct access in walk order, then
    coalescing; returns the access table. A replica group is ranged once
    while its extreme members fit, and member by member otherwise; its
    bank degree is computed once, since a constant shift only permutes
    the banks, and each member conflicting gets its own message. *)
let check_warnings st (at : at) (p : plan) : Coalesce_check.access list =
  let n = Array.length p.p_groups in
  let fit = Array.make n None and degree = Array.make n None in
  let memo tbl gi f =
    match tbl.(gi) with
    | Some v -> v
    | None ->
        let v = f () in
        tbl.(gi) <- Some v;
        v
  in
  Array.iter
    (fun ((w : Walk.access), gi, _) ->
      match Layout.find p.p_layouts w.a_arr with
      | None -> ()
      | Some lay ->
          let g = p.p_groups.(gi) in
          let rep () =
            let r, _, c = p.p_distinct.(g.g_rep) in
            (acc_of at r, c)
          in
          if
            g.g_size = 1
            || not
                 (memo fit gi (fun () ->
                      let r, c = rep () in
                      group_fits at lay g r c))
          then check_bounds st at lay (acc_of at w);
          if w.a_space = `Shared then begin
            let d =
              memo degree gi (fun () ->
                  bank_degree at.launch lay (fst (rep ())))
            in
            if d > 1 then
              diag st ~severity:Warning ~rule:rule_bank_conflict ~path:w.a_path
                (bank_message w d)
          end)
    p.p_distinct;
  let table = Coalesce_check.of_walk p.p_layouts at.cs p.p_walk in
  check_coalescing st table;
  table

(* --- driver --- *)

(** Races interval by interval, after the [verify-incomplete] warning
    when the block has more lanes than the search enumerates. *)
let check_all_races st (at : at) (p : plan) ~max_lanes : unit =
  let launch = at.launch in
  let accs = List.map (acc_of at) p.p_walk.accesses in
  (let n = launch.block_x * launch.block_y in
   if
     n > max_lanes
     && List.exists
          (fun a -> a.w.a_store && Layout.find p.p_layouts a.w.a_arr <> None)
          accs
   then
     diag st ~severity:Warning ~rule:rule_verify_incomplete ~path:""
       (Printf.sprintf
          "race check enumerated only %d of %d lanes; the verdict for this \
           launch is incomplete"
          max_lanes n));
  (* the pair table dedups across intervals *)
  let dedup_pairs = Hashtbl.create 32 in
  let intervals = Hashtbl.create 8 in
  List.iter
    (fun a ->
      Hashtbl.replace intervals a.w.a_interval
        (a :: (try Hashtbl.find intervals a.w.a_interval with Not_found -> [])))
    accs;
  Hashtbl.fold (fun i g acc -> (i, List.rev g) :: acc) intervals []
  |> List.sort (fun (i, _) (j, _) -> Int.compare i j)
  |> List.iter (fun (_, group) ->
         check_races st launch p.p_layouts ~max_lanes ~dedup_pairs group)

(** Dedup, errors first, walk order otherwise. *)
let finish st : diagnostic list =
  let seen = Hashtbl.create 32 in
  List.rev st.diags
  |> List.filter (fun d ->
         let key = (d.severity, d.rule, d.path, d.message) in
         if Hashtbl.mem seen key then false
         else begin
           Hashtbl.replace seen key ();
           true
         end)
  |> List.stable_sort (fun a b ->
         compare
           (match a.severity with Error -> 0 | Warning -> 1)
           (match b.severity with Error -> 0 | Warning -> 1))

(* barrier divergence first, then the race search when [races] gives its
   lane cap, then the warning phase *)
let verify_at (p : plan) ~(launch : Ast.launch) ~races :
    diagnostic list * Coalesce_check.access list =
  let at = at_launch p.p_walk launch in
  let st = { kernel = p.p_name; diags = [] } in
  check_barriers st launch at.sizes p.p_walk.barriers;
  Option.iter (fun max_lanes -> check_all_races st at p ~max_lanes) races;
  let table = check_warnings st at p in
  (finish st, table)

let check_plan ?(max_lanes = 512) p ~launch =
  verify_at p ~launch ~races:(Some max_lanes)

let lint p ~launch = verify_at p ~launch ~races:None

let table p ~launch =
  Coalesce_check.of_walk p.p_layouts (Walk.contexts p.p_walk launch) p.p_walk

let check ?max_lanes ~launch k = fst (check_plan ?max_lanes (plan k) ~launch)

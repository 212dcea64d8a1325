(** SIMT interpreter for kernel thread blocks.

    A whole thread block executes in lockstep, one statement at a time,
    with an active-lane mask for divergence — the same discipline real warps
    follow, coarsened to block granularity (valid because cross-thread
    communication goes through shared memory between statements, and
    [__syncthreads] separates conflicting accesses in well-formed kernels).

    Per-lane values are stored in unboxed arrays ([float array]/[int
    array]) indexed by the linear thread id within the block. While
    executing, the interpreter feeds {!Stats}: dynamic warp instructions,
    per-lane flops, global-memory transactions formed by {!Coalescer},
    shared-memory bank-conflict serialization, syncs and divergence. *)

open Gpcc_ast
open Gpcc_analysis

exception Runtime_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

(** Split a kernel body at top-level [__global_sync] barriers: the
    phases every backend runs grid-wide in order. *)
let phases_of_body (body : Ast.block) : Ast.block list =
  let rec go cur acc = function
    | [] -> List.rev (List.rev cur :: acc)
    | Ast.Global_sync :: rest -> go [] (List.rev cur :: acc) rest
    | s :: rest -> go (s :: cur) acc rest
  in
  go [] [] body

type vals =
  | VI of int array
  | VF of float array
  | VF2 of float array * float array
  | VF4 of float array * float array * float array * float array
  | VB of bool array

type entry =
  | Escalar of vals
  | Eshared of Layout.t * float array
  | Eglobal of Devmem.arr
  | Euniform of int  (** compile-time-bound int parameter *)

type bctx = {
  cfg : Config.t;
  stats : Stats.t;
  launch : Ast.launch;
  n : int;  (** threads per block *)
  warps : float;
  tidx : int array;
  tidy : int array;
  bidx : int;
  bidy : int;
  env : (string, entry) Hashtbl.t;
  record_tx : bool;
  mutable txparts : int array;
      (** partitions of issued transactions in issue order, when
          [record_tx]: the first [txn] slots, grown on demand; consumed
          by the partition-camping model *)
  mutable txn : int;
  check : bool;  (** dynamic race detection (GPCC_CHECK=1) *)
  mutable epoch : int;  (** barrier-interval counter for [check] *)
  shadow : (string, shadow) Hashtbl.t;
      (** per shared array: last write / read per element, as
          [(epoch, lane)]; lane [-2] marks multiple readers *)
}

and shadow = { sh_w : (int * int) array; sh_r : (int * int) array }

let inst (c : bctx) = c.stats.warp_insts <- c.stats.warp_insts +. c.warps

let flops (c : bctx) k =
  c.stats.flops <- c.stats.flops +. float_of_int k

(** Append the memory partition of a transaction at [tx_addr] to the
    block's stream. The stream is a flat buffer because one stream block
    of a large grid records tens of thousands of transactions, and that
    many heap cells would outlive minor collections. *)
let record_part (c : bctx) (tx_addr : int) : unit =
  let p = tx_addr / c.cfg.Config.partition_bytes mod c.cfg.Config.num_partitions in
  let n = c.txn in
  if n = Array.length c.txparts then begin
    let grown = Array.make (max 256 (2 * n)) 0 in
    Array.blit c.txparts 0 grown 0 n;
    c.txparts <- grown
  end;
  Array.unsafe_set c.txparts n p;
  c.txn <- n + 1

(** The block's partition stream so far, in issue order. *)
let tx_stream (c : bctx) : int array = Array.sub c.txparts 0 c.txn


(* --- dynamic race detection (GPCC_CHECK=1) ---

   Shadow state per shared-memory element: the last write and the last
   read, each tagged with the barrier-interval epoch it happened in.
   Two threads touching one element in the same epoch with at least one
   write is a race; reads by two distinct lanes collapse to lane [-2]
   (any same-epoch write to a multi-read element races). This mirrors
   the static verifier's barrier-interval rule at runtime. *)

let check_shared_load (c : bctx) arr lane o =
  match Hashtbl.find_opt c.shadow arr with
  | None -> ()
  | Some sh ->
      let wep, wl = sh.sh_w.(o) in
      if wep = c.epoch && wl <> lane then
        err
          "data race on shared %s[%d]: read by thread %d after write by \
           thread %d in the same barrier interval"
          arr o lane wl;
      let rep, rl = sh.sh_r.(o) in
      if rep <> c.epoch then sh.sh_r.(o) <- (c.epoch, lane)
      else if rl <> lane then sh.sh_r.(o) <- (c.epoch, -2)

let check_shared_store (c : bctx) arr lane o =
  match Hashtbl.find_opt c.shadow arr with
  | None -> ()
  | Some sh ->
      let wep, wl = sh.sh_w.(o) in
      if wep = c.epoch && wl <> lane then
        err
          "data race on shared %s[%d]: threads %d and %d both write in one \
           barrier interval"
          arr o wl lane;
      let rep, rl = sh.sh_r.(o) in
      if rep = c.epoch && (rl = -2 || rl <> lane) then
        err
          "data race on shared %s[%d]: write by thread %d after read by \
           thread %s in the same barrier interval"
          arr o lane
          (if rl = -2 then "(multiple)" else string_of_int rl);
      sh.sh_w.(o) <- (c.epoch, lane)

(* --- value helpers --- *)

let as_int (_c : bctx) = function
  | VI a -> a
  | VB a -> Array.map (fun b -> if b then 1 else 0) a
  | VF _ | VF2 _ | VF4 _ -> err "expected an int value"

let as_float (_c : bctx) = function
  | VF a -> a
  | VI a -> Array.map float_of_int a
  | VB _ | VF2 _ | VF4 _ -> err "expected a float value"

let as_bool = function
  | VB a -> a
  | VI a -> Array.map (fun i -> i <> 0) a
  | VF _ | VF2 _ | VF4 _ -> err "expected a boolean value"

(* --- memory accounting ---

   Every mask is ascending: the full mask, or an order-preserving
   filter of the mask a statement was given. So a mask's half warps are
   contiguous runs of it, and {!Coalescer.half_warps} finds them in one
   scan. *)

(** Account one half-warp global request, whose active lanes are
    [lanes.(off .. off+cnt-1)] at byte addresses [addrs.(off ..)]: form
    its transactions in [sc], append each one's partition to the stream
    when the block records one, and add the request to the statistics.
    The vector backend calls it for the groups it does not batch. *)
let account_group (c : bctx) (sc : Coalescer.scratch) ~(is_store : bool)
    ~(elt_bytes : int) (addrs : int array) ~(lanes : int array) ~(off : int)
    ~(cnt : int) : unit =
  let cfg = c.cfg in
  Coalescer.form cfg.Config.coalesce_rules
    ~min_tx:cfg.Config.min_transaction_bytes ~elt_bytes sc addrs ~lanes ~off
    ~cnt;
  if c.record_tx then
    for q = 0 to sc.Coalescer.ntx - 1 do
      record_part c sc.Coalescer.txs.(2 * q)
    done;
  Stats.add_global c.stats ~is_store ~weff:(Config.width_eff cfg ~elt_bytes)
    sc.Coalescer.ntx sc.Coalescer.bytes

let account_global (c : bctx) ~(is_store : bool) ~(elt_bytes : int)
    (mask : int array) (byte_addr : int -> int) =
  let addrs = Array.map byte_addr mask in
  let sc = Coalescer.scratch () in
  Coalescer.half_warps mask (fun off cnt ->
      account_group c sc ~is_store ~elt_bytes addrs ~lanes:mask ~off ~cnt)

let account_shared (c : bctx) (mask : int array) (word_addr : int -> int) =
  let words = Array.map word_addr mask in
  let banks = c.cfg.Config.shared_banks in
  let counts = Array.make banks 0 in
  Coalescer.half_warps mask (fun off cnt ->
      Stats.add_shared c.stats
        (Coalescer.bank_cost ~banks counts words ~off ~cnt))

(* --- expression evaluation --- *)

let lookup (c : bctx) v =
  match Hashtbl.find_opt c.env v with
  | Some e -> e
  | None -> err "unbound variable %s" v

let rec eval (c : bctx) (mask : int array) (e : Ast.expr) : vals =
  match e with
  | Int_lit k -> VI (Array.make c.n k)
  | Float_lit f -> VF (Array.make c.n f)
  | Builtin b -> eval_builtin c b
  | Var v -> (
      match lookup c v with
      | Escalar vs -> vs
      | Euniform k -> VI (Array.make c.n k)
      | Eshared _ | Eglobal _ -> err "array %s used as scalar" v)
  | Unop (Neg, a) -> (
      inst c;
      match eval c mask a with
      | VI x -> VI (map_mask mask x (fun v -> -v))
      | VF x ->
          flops c (Array.length mask);
          VF (map_mask_f mask x (fun v -> -.v))
      | VF2 (x, y) -> VF2 (map_mask_f mask x (fun v -> -.v), map_mask_f mask y (fun v -> -.v))
      | VF4 (x, y, z, w) ->
          VF4
            ( map_mask_f mask x (fun v -> -.v),
              map_mask_f mask y (fun v -> -.v),
              map_mask_f mask z (fun v -> -.v),
              map_mask_f mask w (fun v -> -.v) )
      | VB _ -> err "negation of a boolean")
  | Unop (Not, a) ->
      inst c;
      VB (map_mask_b mask (as_bool (eval c mask a)) not)
  | Binop (op, a, b) -> eval_binop c mask op a b
  | Index (arr, idxs) -> eval_load c mask arr idxs
  | Vload { v_arr; v_width; v_index } -> eval_vload c mask v_arr v_width v_index
  | Field (a, f) -> (
      match (eval c mask a, f) with
      | VF2 (x, _), FX -> VF x
      | VF2 (_, y), FY -> VF y
      | VF4 (x, _, _, _), FX -> VF x
      | VF4 (_, y, _, _), FY -> VF y
      | VF4 (_, _, z, _), FZ -> VF z
      | VF4 (_, _, _, w), FW -> VF w
      | _ -> err "bad vector field access")
  | Call (f, args) -> eval_call c mask f args
  | Select (cond, a, b) ->
      inst c;
      let bv = as_bool (eval c mask cond) in
      let va = eval c mask a and vb = eval c mask b in
      merge_select c mask bv va vb

and map_mask mask (src : int array) f =
  let out = Array.make (Array.length src) 0 in
  Array.iter (fun l -> out.(l) <- f src.(l)) mask;
  out

and map_mask_f mask (src : float array) f =
  let out = Array.make (Array.length src) 0.0 in
  Array.iter (fun l -> out.(l) <- f src.(l)) mask;
  out

and map_mask_b mask (src : bool array) f =
  let out = Array.make (Array.length src) false in
  Array.iter (fun l -> out.(l) <- f src.(l)) mask;
  out

and eval_builtin (c : bctx) (b : Ast.builtin) : vals =
  let l = c.launch in
  match b with
  | Tidx -> VI c.tidx
  | Tidy -> VI c.tidy
  | Bidx -> VI (Array.make c.n c.bidx)
  | Bidy -> VI (Array.make c.n c.bidy)
  | Bdimx -> VI (Array.make c.n l.block_x)
  | Bdimy -> VI (Array.make c.n l.block_y)
  | Gdimx -> VI (Array.make c.n l.grid_x)
  | Gdimy -> VI (Array.make c.n l.grid_y)
  | Idx ->
      let base = c.bidx * l.block_x in
      VI (Array.map (fun t -> base + t) c.tidx)
  | Idy ->
      let base = c.bidy * l.block_y in
      VI (Array.map (fun t -> base + t) c.tidy)

and eval_binop c mask op a b : vals =
  inst c;
  let va = eval c mask a and vb = eval c mask b in
  let bool_out f =
    let xa = as_float c va and xb = as_float c vb in
    let out = Array.make c.n false in
    Array.iter (fun l -> out.(l) <- f xa.(l) xb.(l)) mask;
    VB out
  in
  match op with
  | Add | Sub | Mul | Div -> (
      match (va, vb) with
      | VI x, VI y ->
          let f =
            match op with
            | Add -> ( + )
            | Sub -> ( - )
            | Mul -> ( * )
            | _ -> fun a b -> if b = 0 then err "division by zero" else a / b
          in
          let out = Array.make c.n 0 in
          Array.iter (fun l -> out.(l) <- f x.(l) y.(l)) mask;
          VI out
      | (VF2 _ | VF4 _), _ | _, (VF2 _ | VF4 _) -> (
          let fop =
            match op with
            | Add -> ( +. )
            | Sub -> ( -. )
            | Mul -> ( *. )
            | _ -> ( /. )
          in
          let comb x y =
            let out = Array.make c.n 0.0 in
            Array.iter (fun l -> out.(l) <- fop x.(l) y.(l)) mask;
            out
          in
          match (va, vb) with
          | VF2 (x1, y1), VF2 (x2, y2) ->
              flops c (2 * Array.length mask);
              VF2 (comb x1 x2, comb y1 y2)
          | VF4 (a1, b1, c1, d1), VF4 (a2, b2, c2, d2) ->
              flops c (4 * Array.length mask);
              VF4 (comb a1 a2, comb b1 b2, comb c1 c2, comb d1 d2)
          | _ -> err "mixed vector/scalar arithmetic")
      | _ ->
          let x = as_float c va and y = as_float c vb in
          let out = Array.make c.n 0.0 in
          flops c (Array.length mask);
          (match op with
          | Add -> Array.iter (fun l -> out.(l) <- x.(l) +. y.(l)) mask
          | Sub -> Array.iter (fun l -> out.(l) <- x.(l) -. y.(l)) mask
          | Mul -> Array.iter (fun l -> out.(l) <- x.(l) *. y.(l)) mask
          | _ -> Array.iter (fun l -> out.(l) <- x.(l) /. y.(l)) mask);
          VF out)
  | Mod -> (
      match (va, vb) with
      | VI x, VI y ->
          let out = Array.make c.n 0 in
          Array.iter
            (fun l ->
              if y.(l) = 0 then err "mod by zero";
              out.(l) <- ((x.(l) mod y.(l)) + y.(l)) mod y.(l))
            mask;
          VI out
      | _ -> err "%% on non-int values")
  | Lt -> bool_out ( < )
  | Le -> bool_out ( <= )
  | Gt -> bool_out ( > )
  | Ge -> bool_out ( >= )
  | Eq -> bool_out ( = )
  | Ne -> bool_out ( <> )
  | And | Or ->
      let xa = as_bool va and xb = as_bool vb in
      let out = Array.make c.n false in
      let f = if op = And then ( && ) else ( || ) in
      Array.iter (fun l -> out.(l) <- f xa.(l) xb.(l)) mask;
      VB out

and flat_offsets (c : bctx) (mask : int array) (strides : int list)
    (idxs : Ast.expr list) : int array =
  let offs = Array.make c.n 0 in
  List.iter2
    (fun idx stride ->
      let iv = as_int c (eval c mask idx) in
      Array.iter (fun l -> offs.(l) <- offs.(l) + (iv.(l) * stride)) mask)
    idxs strides;
  offs

and eval_load (c : bctx) (mask : int array) arr idxs : vals =
  inst c;
  match lookup c arr with
  | Eglobal g ->
      let strides = Layout.strides g.Devmem.lay in
      if List.length idxs <> List.length strides then
        err "rank mismatch accessing %s" arr;
      let offs = flat_offsets c mask strides idxs in
      let data = g.Devmem.data in
      let len = Bigarray.Array1.dim data in
      let out = Array.make c.n 0.0 in
      Array.iter
        (fun l ->
          let o = offs.(l) in
          if o < 0 || o >= len then
            err "out-of-bounds load %s[%d] (size %d)" arr o len;
          out.(l) <- data.{o})
        mask;
      account_global c ~is_store:false ~elt_bytes:4 mask (fun l ->
          g.Devmem.base + (offs.(l) * 4));
      VF out
  | Eshared (lay, data) ->
      let strides = Layout.strides lay in
      if List.length idxs <> List.length strides then
        err "rank mismatch accessing shared %s" arr;
      let offs = flat_offsets c mask strides idxs in
      let len = Array.length data in
      let out = Array.make c.n 0.0 in
      Array.iter
        (fun l ->
          let o = offs.(l) in
          if o < 0 || o >= len then
            err "out-of-bounds shared load %s[%d] (size %d)" arr o len;
          if c.check then check_shared_load c arr l o;
          out.(l) <- data.(o))
        mask;
      account_shared c mask (fun l -> offs.(l));
      VF out
  | Escalar _ | Euniform _ -> err "%s is not an array" arr

and eval_vload (c : bctx) (mask : int array) arr width idx : vals =
  inst c;
  match lookup c arr with
  | Eglobal g ->
      let iv = as_int c (eval c mask idx) in
      let data = g.Devmem.data in
      let len = Bigarray.Array1.dim data in
      let get l k =
        let o = (iv.(l) * width) + k in
        if o < 0 || o >= len then
          err "out-of-bounds vector load %s[%d] (size %d)" arr o len;
        data.{o}
      in
      let comp k =
        let out = Array.make c.n 0.0 in
        Array.iter (fun l -> out.(l) <- get l k) mask;
        out
      in
      account_global c ~is_store:false ~elt_bytes:(4 * width) mask (fun l ->
          g.Devmem.base + (iv.(l) * width * 4));
      (* components in order, so that an out-of-bounds load reports its
         first bad element (constructor arguments evaluate right to left) *)
      let c0 = comp 0 in
      let c1 = comp 1 in
      if width = 2 then VF2 (c0, c1)
      else
        let c2 = comp 2 in
        let c3 = comp 3 in
        VF4 (c0, c1, c2, c3)
  | _ -> err "vector load from non-global array %s" arr

and eval_call (c : bctx) (mask : int array) f args : vals =
  inst c;
  let unary g =
    match args with
    | [ a ] ->
        flops c (Array.length mask);
        VF (map_mask_f mask (as_float c (eval c mask a)) g)
    | _ -> err "%s expects one argument" f
  in
  let binary_f g =
    match args with
    | [ a; b ] ->
        flops c (Array.length mask);
        let x = as_float c (eval c mask a) and y = as_float c (eval c mask b) in
        let out = Array.make c.n 0.0 in
        Array.iter (fun l -> out.(l) <- g x.(l) y.(l)) mask;
        VF out
    | _ -> err "%s expects two arguments" f
  in
  match f with
  | "sqrtf" -> unary sqrt
  | "fabsf" -> unary Float.abs
  | "expf" -> unary exp
  | "logf" -> unary log
  | "sinf" -> unary sin
  | "cosf" -> unary cos
  | "fmaxf" -> binary_f Float.max
  | "fminf" -> binary_f Float.min
  | "min" | "max" -> (
      match args with
      | [ a; b ] ->
          let x = as_int c (eval c mask a) and y = as_int c (eval c mask b) in
          let g = if f = "min" then min else max in
          let out = Array.make c.n 0 in
          Array.iter (fun l -> out.(l) <- g x.(l) y.(l)) mask;
          VI out
      | _ -> err "%s expects two arguments" f)
  | "make_float2" -> (
      match args with
      | [ a; b ] ->
          VF2 (as_float c (eval c mask a), as_float c (eval c mask b))
      | _ -> err "make_float2 expects two arguments")
  | "make_float4" -> (
      match args with
      | [ a; b; d; e ] ->
          VF4
            ( as_float c (eval c mask a),
              as_float c (eval c mask b),
              as_float c (eval c mask d),
              as_float c (eval c mask e) )
      | _ -> err "make_float4 expects four arguments")
  | _ -> err "unknown intrinsic %s" f

and merge_select (c : bctx) mask (bv : bool array) va vb : vals =
  match (va, vb) with
  | VI x, VI y ->
      let out = Array.make c.n 0 in
      Array.iter (fun l -> out.(l) <- (if bv.(l) then x.(l) else y.(l))) mask;
      VI out
  | VB x, VB y ->
      let out = Array.make c.n false in
      Array.iter (fun l -> out.(l) <- (if bv.(l) then x.(l) else y.(l))) mask;
      VB out
  | _ ->
      let x = as_float c va and y = as_float c vb in
      let out = Array.make c.n 0.0 in
      Array.iter (fun l -> out.(l) <- (if bv.(l) then x.(l) else y.(l))) mask;
      VF out

(* --- statements --- *)

let fresh_vals (c : bctx) (s : Ast.scalar) : vals =
  match s with
  | Int -> VI (Array.make c.n 0)
  | Float -> VF (Array.make c.n 0.0)
  | Bool -> VB (Array.make c.n false)
  | Float2 -> VF2 (Array.make c.n 0.0, Array.make c.n 0.0)
  | Float4 ->
      VF4
        ( Array.make c.n 0.0,
          Array.make c.n 0.0,
          Array.make c.n 0.0,
          Array.make c.n 0.0 )

(** Write [src] into [dst] at the masked lanes, with int->float promotion. *)
let store_masked (c : bctx) mask (dst : vals) (src : vals) : unit =
  match (dst, src) with
  | VI d, (VI _ | VB _) ->
      let s = as_int c src in
      Array.iter (fun l -> d.(l) <- s.(l)) mask
  | VF d, _ ->
      let s = as_float c src in
      Array.iter (fun l -> d.(l) <- s.(l)) mask
  | VB d, _ ->
      let s = as_bool src in
      Array.iter (fun l -> d.(l) <- s.(l)) mask
  | VF2 (dx, dy), VF2 (sx, sy) ->
      Array.iter
        (fun l ->
          dx.(l) <- sx.(l);
          dy.(l) <- sy.(l))
        mask
  | VF4 (da, db, dc, dd), VF4 (sa, sb, sc, sd) ->
      Array.iter
        (fun l ->
          da.(l) <- sa.(l);
          db.(l) <- sb.(l);
          dc.(l) <- sc.(l);
          dd.(l) <- sd.(l))
        mask
  | _ -> err "incompatible assignment"

let rec exec_block (c : bctx) (mask : int array) (b : Ast.block) : unit =
  List.iter (exec_stmt c mask) b

and exec_stmt (c : bctx) (mask : int array) (s : Ast.stmt) : unit =
  match s with
  | Comment _ -> ()
  | Sync ->
      c.stats.syncs <- c.stats.syncs +. 1.;
      c.epoch <- c.epoch + 1;
      inst c
  | Global_sync -> ()  (* handled by Launch at grid level *)
  | Decl { d_name; d_ty = Scalar sc; d_init } ->
      let vs = fresh_vals c sc in
      Hashtbl.replace c.env d_name (Escalar vs);
      (match d_init with
      | Some e ->
          inst c;
          store_masked c mask vs (eval c mask e)
      | None -> ())
  | Decl { d_name; d_ty = Array ({ space = Shared; _ } as a); _ } ->
      if not (Hashtbl.mem c.env d_name) then begin
        let lay = Layout.make ~pad:false d_name a in
        let len = max 1 (Layout.size_elems lay) in
        Hashtbl.replace c.env d_name (Eshared (lay, Array.make len 0.0));
        if c.check then
          Hashtbl.replace c.shadow d_name
            {
              sh_w = Array.make len (-1, -1);
              sh_r = Array.make len (-1, -1);
            }
      end
  | Decl { d_name; d_ty = Array _; _ } ->
      err "declaration of non-shared array %s in kernel body" d_name
  | Assign (lv, e) -> exec_assign c mask lv e
  | If (cond, t, f) ->
      inst c;
      let bv = as_bool (eval c mask cond) in
      let tm = Array.of_list (List.filter (fun l -> bv.(l)) (Array.to_list mask)) in
      let fm =
        Array.of_list (List.filter (fun l -> not bv.(l)) (Array.to_list mask))
      in
      if Array.length tm > 0 && Array.length fm > 0 then
        c.stats.divergent_branches <- c.stats.divergent_branches +. 1.;
      if Array.length tm > 0 then exec_block c tm t;
      if Array.length fm > 0 then exec_block c fm f
  | For { l_var; l_init; l_limit; l_step; l_body } ->
      let vs = fresh_vals c Int in
      Hashtbl.replace c.env l_var (Escalar vs);
      inst c;
      store_masked c mask vs (eval c mask l_init);
      let iv = match vs with VI a -> a | _ -> assert false in
      let rec loop active =
        let lim = as_int c (eval c active l_limit) in
        let still =
          Array.of_list
            (List.filter (fun l -> iv.(l) < lim.(l)) (Array.to_list active))
        in
        inst c;
        (* condition test *)
        if Array.length still > 0 then begin
          exec_block c still l_body;
          let st = as_int c (eval c still l_step) in
          Array.iter (fun l -> iv.(l) <- iv.(l) + st.(l)) still;
          inst c;
          (* increment *)
          loop still
        end
      in
      loop mask

and exec_assign (c : bctx) mask (lv : Ast.lvalue) (e : Ast.expr) : unit =
  match lv with
  | Lvar v -> (
      inst c;
      let src = eval c mask e in
      match lookup c v with
      | Escalar dst -> store_masked c mask dst src
      | _ -> err "assignment to non-scalar %s" v)
  | Lfield (Lvar v, f) -> (
      inst c;
      let src = as_float c (eval c mask e) in
      match (lookup c v, f) with
      | Escalar (VF2 (x, _)), FX -> Array.iter (fun l -> x.(l) <- src.(l)) mask
      | Escalar (VF2 (_, y)), FY -> Array.iter (fun l -> y.(l) <- src.(l)) mask
      | Escalar (VF4 (x, _, _, _)), FX ->
          Array.iter (fun l -> x.(l) <- src.(l)) mask
      | Escalar (VF4 (_, y, _, _)), FY ->
          Array.iter (fun l -> y.(l) <- src.(l)) mask
      | Escalar (VF4 (_, _, z, _)), FZ ->
          Array.iter (fun l -> z.(l) <- src.(l)) mask
      | Escalar (VF4 (_, _, _, w)), FW ->
          Array.iter (fun l -> w.(l) <- src.(l)) mask
      | _ -> err "bad vector component assignment to %s" v)
  | Lfield _ -> err "unsupported field assignment"
  | Lvec { v_arr; v_width; v_index } -> (
      inst c;
      let iv = as_int c (eval c mask v_index) in
      match lookup c v_arr with
      | Eglobal g ->
          let data = g.Devmem.data in
          let len = Bigarray.Array1.dim data in
          let comps =
            match eval c mask e with
            | VF2 (x, y) when v_width = 2 -> [| x; y |]
            | VF4 (x, y, z, w) when v_width = 4 -> [| x; y; z; w |]
            | _ -> err "vector store width mismatch on %s" v_arr
          in
          Array.iter
            (fun l ->
              for q = 0 to v_width - 1 do
                let o = (iv.(l) * v_width) + q in
                if o < 0 || o >= len then
                  err "out-of-bounds vector store %s[%d] (size %d)" v_arr o
                    len;
                data.{o} <- comps.(q).(l)
              done)
            mask;
          account_global c ~is_store:true ~elt_bytes:(4 * v_width) mask
            (fun l -> g.Devmem.base + (iv.(l) * v_width * 4))
      | _ -> err "vector store to non-global array %s" v_arr)
  | Lindex (arr, idxs) -> (
      inst c;
      let src = as_float c (eval c mask e) in
      match lookup c arr with
      | Eglobal g ->
          let strides = Layout.strides g.Devmem.lay in
          let offs = flat_offsets c mask strides idxs in
          let data = g.Devmem.data in
          let len = Bigarray.Array1.dim data in
          Array.iter
            (fun l ->
              let o = offs.(l) in
              if o < 0 || o >= len then
                err "out-of-bounds store %s[%d] (size %d)" arr o len;
              data.{o} <- src.(l))
            mask;
          account_global c ~is_store:true ~elt_bytes:4 mask (fun l ->
              g.Devmem.base + (offs.(l) * 4))
      | Eshared (lay, data) ->
          let strides = Layout.strides lay in
          let offs = flat_offsets c mask strides idxs in
          let len = Array.length data in
          Array.iter
            (fun l ->
              let o = offs.(l) in
              if o < 0 || o >= len then
                err "out-of-bounds shared store %s[%d] (size %d)" arr o len;
              if c.check then check_shared_store c arr l o;
              data.(o) <- src.(l))
            mask;
          account_shared c mask (fun l -> offs.(l))
      | Escalar _ | Euniform _ -> err "%s is not an array" arr)

(* --- block-level driver --- *)

(** Build the execution context of one thread block. Thread linearization
    is row-major: lane = tidy*block_x + tidx, so consecutive lanes vary
    [tidx] first — matching CUDA's warp packing. *)
let env_check () =
  match Sys.getenv_opt "GPCC_CHECK" with
  | Some ("1" | "true") -> true
  | _ -> false

let make_bctx ?(record_tx = false) ?check (cfg : Config.t) (stats : Stats.t)
    (k : Ast.kernel) (launch : Ast.launch) (mem : Devmem.t) ~(bidx : int)
    ~(bidy : int) : bctx =
  let check = match check with Some b -> b | None -> env_check () in
  let n = launch.block_x * launch.block_y in
  let tidx = Array.init n (fun l -> l mod launch.block_x) in
  let tidy = Array.init n (fun l -> l / launch.block_x) in
  let env = Hashtbl.create 16 in
  List.iter
    (fun (p : Ast.param) ->
      match p.p_ty with
      | Array { space = Global; _ } ->
          Hashtbl.replace env p.p_name (Eglobal (Devmem.find_exn mem p.p_name))
      | Scalar Int -> (
          match List.assoc_opt p.p_name k.k_sizes with
          | Some v -> Hashtbl.replace env p.p_name (Euniform v)
          | None ->
              err "int parameter %s has no #pragma gpcc dim binding" p.p_name)
      | Scalar _ -> err "unsupported scalar parameter type for %s" p.p_name
      | Array _ -> err "non-global array parameter %s" p.p_name)
    k.k_params;
  {
    cfg;
    stats;
    launch;
    n;
    warps = float_of_int ((n + 31) / 32);
    tidx;
    tidy;
    bidx;
    bidy;
    env;
    record_tx;
    txparts = [||];
    txn = 0;
    check;
    epoch = 1;
    shadow = Hashtbl.create 4;
  }

let full_mask (c : bctx) = Array.init c.n (fun i -> i)

(** Execute one thread block over [body] (which may be a phase of the
    kernel when [__global_sync] is present). *)
let run_block (c : bctx) (body : Ast.block) : unit =
  c.epoch <- c.epoch + 1;
  exec_block c (full_mask c) body

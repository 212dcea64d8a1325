(** Converting non-coalesced accesses into coalesced ones (paper
    Section 3.3).

    Four transformation rules, each staging data through shared memory so
    that the actual off-chip traffic is issued by full half warps:

    - {b loop staging} (paper's [A[m*i+n]] case, as in [a[idy][i]] of mm or
      [b[i]] of mv): the enclosing loop is unrolled 16 times; the 16
      elements the unrolled iterations need form one coalesced segment that
      the half warp loads cooperatively into [shared0[16]]; the unrolled
      body reads [shared0[k]].
    - {b row-loop staging} (the [a[idx][i]] case of mv): each thread walks
      its own row, so the half warp's rows form a 16x16 tile; an introduced
      loop [l] loads row [(idx-tidx)+l] with coalesced column accesses
      [i+tidx] into [shared1[16][17]] (padded against bank conflicts), and
      the body reads [shared1[tidx][k]].
    - {b apron staging} (misaligned neighborhoods, [a[idy+dy][idx+dx]] of
      convolution/stencils): the block's 16 threads need columns
      [16*bidx+lo .. 16*bidx+15+hi]; the enclosing rows are staged from the
      aligned segment boundary into a widened shared buffer by a short
      cooperative loop, and accesses become [sh[tidx + (off - lo')]].
    - {b idx/idy exchange} (the [A[idx][idy]] store of transpose): the
      block is grown to 16x16, values are staged into a padded 16x17 tile,
      and the store is re-issued with [tidx]/[tidy] exchanged so rows
      become columns — both directions coalesced.

    Per the paper's reuse rule (Section 3.4), a conversion whose staged
    data would have no reuse is skipped. *)

open Gpcc_ast
open Ast
open Gpcc_analysis

type note = string

let round_up = Layout.round_up

(* --------------------------------------------------------------------- *)
(* Planning: decide a rule per non-coalesced access                        *)
(* --------------------------------------------------------------------- *)

type plan =
  | Loop_stage of { loop : string }
  | Rowloop_stage of { loop : string }
  | Apron_stage of { loop : string option }
      (** [loop] is the innermost loop appearing in the column offset, if
          any; staging is inserted just outside it *)
  | Strided_stage of { m : int; c : int }
      (** interleaved layouts ([a[2*i]], [a[2*i+1]]): lane stride [m],
          element offset [c]; the half warp destages [16*m] contiguous
          elements through shared memory *)
  | Exchange_store
  | Skip of string

let minor_of indices = List.nth indices (List.length indices - 1)
let rows_of indices = List.filteri (fun i _ -> i < List.length indices - 1) indices

(** Coefficient of [Iter lv] in the affine form of the minor index. *)
let minor_iter_coeff (a : Coalesce_check.access) =
  match Affine.of_expr a.ctx (minor_of a.indices) with
  | None -> None
  | Some f -> (
      match
        List.filter_map
          (function Affine.Iter l, c -> Some (l, c) | _ -> None)
          f.Affine.terms
      with
      | [ (l, c) ] -> Some (l, c, f)
      | _ -> if f.Affine.terms = [] then None else None)

let rows_lane_free (a : Coalesce_check.access) =
  List.for_all
    (fun r ->
      match Affine.of_expr a.ctx r with
      | Some f -> Affine.coeff Affine.Tidx f = 0 && Affine.coeff Affine.Bidx f = 0
      | None -> false)
    (rows_of a.indices)

(** Is the row index exactly the absolute thread position [idx + c]? *)
let row_is_idx (a : Coalesce_check.access) =
  match rows_of a.indices with
  | [ r ] -> (
      match Affine.of_expr a.ctx r with
      | Some f ->
          Affine.coeff Affine.Tidx f = 1
          && Affine.coeff Affine.Tidy f = 0
          && List.for_all
               (function Affine.Iter _, _ -> false | _ -> true)
               f.Affine.terms
      | None -> false)
  | _ -> false

(** Column offset [g] relative to [idx]: minor = idx + g. *)
let minor_minus_idx (a : Coalesce_check.access) : Ast.expr option =
  let minor = minor_of a.indices in
  match Affine.of_expr a.ctx minor with
  | Some f
    when Affine.coeff Affine.Tidx f = 1
         && Affine.coeff Affine.Tidy f = 0 ->
      (* replace idx (and bare tidx) by 0 syntactically to recover g *)
      let g =
        minor
        |> Rewrite.subst_builtin_expr Ast.Idx (Int_lit 0)
        |> Rewrite.subst_builtin_expr Ast.Tidx (Int_lit 0)
      in
      Some (Pass_util.simplify_expr g)
  | _ -> None

(** Range of the column offset [g] over its enclosing loops' full trips. *)
let offset_range (a : Coalesce_check.access) (g : Ast.expr) :
    (int * int * string option) option =
  match Affine.of_expr a.ctx g with
  | None -> None
  | Some f ->
      let base = f.Affine.const in
      List.fold_left
        (fun acc (v, c) ->
          match (acc, v) with
          | None, _ -> None
          | Some (lo, hi, lv), Affine.Iter l -> (
              match List.assoc_opt l a.ctx.Affine.loops with
              | Some { Affine.ld_trips = Some trips; _ } when trips > 0 ->
                  let d = c * (trips - 1) in
                  let lo = min lo (lo + d) and hi = max hi (hi + d) in
                  (* remember the innermost loop involved *)
                  let lv =
                    match lv with
                    | None -> Some l
                    | Some prev ->
                        (* keep the innermost (first in ctx order) *)
                        let pos x =
                          let rec go i = function
                            | [] -> max_int
                            | (n, _) :: r ->
                                if String.equal n x then i else go (i + 1) r
                          in
                          go 0 a.ctx.Affine.loops
                        in
                        if pos l < pos prev then Some l else Some prev
                  in
                  Some (lo, hi, lv)
              | _ -> None)
          | ( Some _,
              ( Affine.Tidx | Affine.Tidy | Affine.Bidx | Affine.Bidy
              | Affine.Param _ | Affine.Mod_of _ | Affine.Div_of _ ) ) ->
              None)
        (Some (base, base, None))
        f.Affine.terms

let plan_access (a : Coalesce_check.access) : plan =
  match a.verdict with
  | Coalesce_check.Coalesced -> Skip "already coalesced"
  | Unknown -> Skip "unresolved index: skipped (paper rule)"
  | Noncoalesced _ when a.vec_width > 1 ->
      Skip "vector access left untouched (NVIDIA rule)"
  | Noncoalesced reason -> (
      if a.is_store then
        (* the A[idx][idy]-style store: exchangeable? *)
        if
          (not a.divergent)
          && List.length a.indices = 2 && row_is_idx a
          &&
          match Affine.of_expr a.ctx (minor_of a.indices) with
          | Some f ->
              Affine.coeff Affine.Tidx f = 0
              && Affine.coeff Affine.Bidy f = a.ctx.Affine.block_y
                 (* minor = idy + c *)
              && Affine.coeff Affine.Tidy f = 1 || (a.ctx.Affine.block_y = 1 && Affine.coeff Affine.Bidy f = 1)
          | None -> false
        then Exchange_store
        else Skip "non-coalesced store with no applicable rule"
      else
        match minor_iter_coeff a with
        | Some (l, 1, f)
          when Affine.coeff Affine.Tidx f = 0
               && rows_lane_free a && List.mem l a.safe_loops ->
            Loop_stage { loop = l }
        | Some (l, 1, f)
          when Affine.coeff Affine.Tidx f = 0
               && row_is_idx a
               && List.length a.indices = 2
               && List.mem l a.safe_loops ->
            Rowloop_stage { loop = l }
        | Some (l, _, f)
          when Affine.coeff Affine.Tidx f = 0
               && not (List.mem l a.safe_loops) ->
            Skip
              (Printf.sprintf
                 "loop %s sits under thread-dependent control flow: staging \
                  would not be cooperative"
                 l)
        | _ when a.divergent ->
            Skip
              "access under thread-dependent control flow: left as is"
        | _ when
            (match a.flat with
            | Some f ->
                let m = Affine.coeff Affine.Tidx f in
                (m = 2 || m = 4)
                && List.length a.indices = 1
                && f.Affine.const >= 0
                && f.Affine.const < m
                && List.for_all
                     (fun (v, cf) ->
                       Affine.equal_var v Affine.Tidx || cf mod 16 = 0)
                     f.Affine.terms
            | None -> false) ->
            let f = Option.get a.flat in
            Strided_stage
              { m = Affine.coeff Affine.Tidx f; c = f.Affine.const }
        | _ -> (
            match reason with
            | Coalesce_check.Misaligned _ -> (
                match minor_minus_idx a with
                | Some g -> (
                    match offset_range a g with
                    | Some (lo, _, lv) when lo >= 0 ->
                        (* the reuse rule is applied per staging group in
                           [apply]: a lone offset has no reuse, but several
                           accesses to the same rows share the buffer *)
                        Apron_stage { loop = lv }
                    | Some _ -> Skip "offset range extends below zero"
                    | None -> Skip "column offset range not compile-time")
                | None -> Skip "misaligned access without idx+offset shape")
            | _ -> Skip "no applicable coalescing rule (left as is)"))

(* --------------------------------------------------------------------- *)
(* Rule bodies                                                            *)
(* --------------------------------------------------------------------- *)

(** Rewrite the loop [lv]: unroll by 16 and stage the planned accesses.
    [members] pairs each access with its plan (Loop_stage or
    Rowloop_stage for this loop). *)
let stage_loop (_k : Ast.kernel) (lv : string)
    (members : (Coalesce_check.access * plan) list) (body : Ast.block)
    ~(fresh : string -> string) : Ast.block * note list =
  let notes = ref [] in
  let rewrite (l : Ast.loop) : Ast.stmt =
    let kvar = fresh "k" in
    let decls = ref [] and stagings = ref [] in
    let inner = ref l.l_body in
    List.iter
      (fun ((a : Coalesce_check.access), plan) ->
        let original = Ast.Index (a.arr, a.indices) in
        let minor = minor_of a.indices in
        match plan with
        | Loop_stage _ ->
            let sh = fresh "shared" in
            decls := Ast.decl_shared sh [ 16 ] :: !decls;
            stagings :=
              Assign
                ( Lindex (sh, [ Ast.tidx ]),
                  Index (a.arr, rows_of a.indices @ [ Ast.( +: ) minor Ast.tidx ]) )
              :: !stagings;
            inner := Pass_util.replace_expr original (Index (sh, [ Var kvar ])) !inner;
            notes :=
              Printf.sprintf
                "%s: unrolled loop %s by 16 and staged through %s[16]"
                (Pp.expr_to_string original) lv sh
              :: !notes
        | Rowloop_stage _ ->
            let sh = fresh "shared" in
            let lrow = fresh "l" in
            decls := Ast.decl_shared sh [ 16; 17 ] :: !decls;
            let row = List.hd (rows_of a.indices) in
            let row' =
              Rewrite.subst_builtin_expr Ast.Idx
                (Ast.( +: ) (Ast.( -: ) Ast.idx Ast.tidx) (Var lrow))
                row
            in
            stagings :=
              Ast.for_ lrow ~from:(Int_lit 0) ~limit:(Int_lit 16)
                ~step:(Int_lit 1)
                [
                  Assign
                    ( Lindex (sh, [ Var lrow; Ast.tidx ]),
                      Index (a.arr, [ row'; Ast.( +: ) minor Ast.tidx ]) );
                ]
              :: !stagings;
            inner :=
              Pass_util.replace_expr original
                (Index (sh, [ Ast.tidx; Var kvar ]))
                !inner;
            notes :=
              Printf.sprintf
                "%s: introduced row loop %s, staged 16x16 tile through %s[16][17]"
                (Pp.expr_to_string original) lrow sh
              :: !notes
        | _ -> ())
      members;
    let inner =
      Rewrite.subst_var lv
        (Ast.( +: ) (Var lv) (Ast.( *: ) (Var kvar) l.l_step))
        !inner
    in
    let new_body =
      List.rev !decls @ List.rev !stagings
      @ [ Ast.Sync ]
      @ [
          Ast.for_ kvar ~from:(Int_lit 0) ~limit:(Int_lit 16)
            ~step:(Int_lit 1) inner;
        ]
      @ [ Ast.Sync ]
    in
    For
      {
        l with
        l_step = Ast.( *: ) l.l_step (Int_lit 16);
        l_body = Pass_util.simplify_block new_body;
      }
  in
  let found = ref false in
  let body' =
    Rewrite.map_stmts
      (function
        | For l when String.equal l.l_var lv && not !found ->
            found := true;
            [ rewrite l ]
        | s -> [ s ])
      body
  in
  (body', !notes)

(** Apron staging for a group of accesses to the same array with the same
    row indices: one widened shared row buffer, loaded cooperatively. *)
let stage_apron (k : Ast.kernel)
    (group : (Coalesce_check.access * Ast.expr (* g *) * int * int) list)
    (insert_loop : string option) (body : Ast.block)
    ~(fresh : string -> string) : (Ast.block * note list) option =
  ignore k;
  match group with
  | [] -> None
  | ((a0 : Coalesce_check.access), _, _, _) :: _ ->
      let lo = List.fold_left (fun m (_, _, l, _) -> min m l) max_int group in
      let hi = List.fold_left (fun m (_, _, _, h) -> max m h) min_int group in
      let lo' = lo / 16 * 16 in
      let width = round_up (16 + hi - lo') 16 in
      let sh = fresh "apron" in
      let tvar = fresh "t" in
      let rows = rows_of a0.indices in
      let staging =
        [
          Ast.decl_shared sh [ width ];
          Ast.for_ tvar ~from:Ast.tidx ~limit:(Int_lit width)
            ~step:(Int_lit 16)
            [
              Assign
                ( Lindex (sh, [ Var tvar ]),
                  Index
                    ( a0.arr,
                      rows
                      @ [
                          Ast.( +: )
                            (Ast.( +: ) (Ast.( -: ) Ast.idx Ast.tidx)
                               (Int_lit lo'))
                            (Var tvar);
                        ] ) );
            ];
          Ast.Sync;
        ]
      in
      let replace_all b =
        List.fold_left
          (fun b ((a : Coalesce_check.access), g, _, _) ->
            let original = Ast.Index (a.arr, a.indices) in
            let repl =
              Ast.Index
                ( sh,
                  [
                    Pass_util.simplify_expr
                      (Ast.( +: ) Ast.tidx (Ast.( -: ) g (Int_lit lo')));
                  ] )
            in
            Pass_util.replace_expr original repl b)
          b group
      in
      let note =
        Printf.sprintf
          "%s: staged %d-column apron (offsets %d..%d) through %s[%d]"
          a0.arr width lo hi sh width
      in
      let result =
        match insert_loop with
        | Some lv ->
            let found = ref false in
            let body' =
              Rewrite.map_stmts
                (function
                  | For l when String.equal l.l_var lv && not !found ->
                      found := true;
                      staging
                      @ [ For { l with l_body = replace_all l.l_body } ]
                      @ [ Ast.Sync ]
                  | s -> [ s ])
                body
            in
            if !found then Some body' else None
        | None -> Some (staging @ replace_all body)
      in
      Option.map (fun b -> (Pass_util.simplify_block b, [ note ])) result

(** Destage an interleaved (lane-strided) access group through shared
    memory: the half warp's [m]-strided accesses cover [16*m] contiguous
    elements, which [m] coalesced loads bring into [sh]; each access
    [a[m*e + c]] becomes [sh[m*tidx + c]]. Used for complex-number layouts
    when vectorization is off (the paper's optimized_wo_vec variant). *)
let stage_strided (group : (Coalesce_check.access * int * int) list)
    (body : Ast.block) ~(fresh : string -> string) :
    (Ast.block * note list) option =
  match group with
  | [] -> None
  | ((a0 : Coalesce_check.access), m, c0) :: _ ->
      let sh = fresh "shared" in
      let minor0 = minor_of a0.indices in
      let base =
        Pass_util.simplify_expr
          (Ast.( -: ) minor0
             (Ast.( +: ) (Ast.( *: ) (Int_lit m) Ast.tidx) (Int_lit c0)))
      in
      let staging =
        Ast.decl_shared sh [ 16 * m ]
        :: List.init m (fun j ->
               Assign
                 ( Lindex (sh, [ Ast.( +: ) Ast.tidx (Int_lit (16 * j)) ]),
                   Index
                     ( a0.arr,
                       [
                         Ast.( +: )
                           (Ast.( +: ) base (Int_lit (16 * j)))
                           Ast.tidx;
                       ] ) ))
        @ [ Ast.Sync ]
      in
      let originals =
        List.map
          (fun ((a : Coalesce_check.access), m, c) ->
            ( Ast.Index (a.arr, a.indices),
              Ast.Index
                ( sh,
                  [ Ast.( +: ) (Ast.( *: ) (Int_lit m) Ast.tidx) (Int_lit c) ]
                ) ))
          group
      in
      let shallow_uses (s : Ast.stmt) =
        let probe =
          match s with
          | If (c, _, _) -> [ Assign (Lvar "_c", c) ]
          | For _ | Sync | Global_sync | Comment _ -> []
          | s -> [ s ]
        in
        List.exists
          (fun (orig, _) ->
            Rewrite.fold_exprs_block
              (fun acc e ->
                acc || Rewrite.exists_expr (Ast.equal_expr orig) e)
              false probe)
          originals
      in
      let replace_stmt s =
        List.fold_left
          (fun s (orig, repl) ->
            match Pass_util.replace_expr orig repl [ s ] with
            | [ s' ] -> s'
            | _ -> s)
          s originals
      in
      let done_ = ref false in
      let rec rewrite_block (b : Ast.block) : Ast.block =
        if !done_ then b
        else if List.exists shallow_uses b then begin
          done_ := true;
          let first =
            List.mapi (fun i s -> (i, shallow_uses s)) b
            |> List.filter (fun (_, u) -> u)
            |> List.map fst
          in
          let lo = List.fold_left min max_int first in
          let hi = List.fold_left max 0 first in
          List.concat
            (List.mapi
               (fun i s ->
                 let s = replace_stmt s in
                 if i = lo && i = hi then staging @ [ s; Ast.Sync ]
                 else if i = lo then staging @ [ s ]
                 else if i = hi then [ s; Ast.Sync ]
                 else [ s ])
               b)
        end
        else
          List.map
            (fun s ->
              match s with
              | For l -> For { l with l_body = rewrite_block l.l_body }
              | If (c, t, f) -> If (c, rewrite_block t, rewrite_block f)
              | s -> s)
            b
      in
      let body' = rewrite_block body in
      if !done_ then
        Some
          ( Pass_util.simplify_block body',
            [
              Printf.sprintf
                "%s: destaged %d-strided accesses through %s[%d] (%d \
                 coalesced loads per half warp)"
                a0.arr m sh (16 * m) m;
            ] )
      else None

(** The idx/idy-exchanged store for transpose-like kernels; grows the
    block to 16x16. *)
let stage_exchange (a : Coalesce_check.access) (body : Ast.block)
    ~(fresh : string -> string) : (Ast.block * note list) option =
  match a.indices with
  | [ e1; e2 ] ->
      let tile = fresh "tile" in
      let found = ref false in
      let body' =
        Rewrite.map_stmts
          (function
            | Assign (Lindex (arr, [ e1'; e2' ]), v)
              when String.equal arr a.arr && Ast.equal_expr e1 e1'
                   && Ast.equal_expr e2 e2' && not !found ->
                found := true;
                [
                  Ast.decl_shared tile [ 16; 17 ];
                  Assign (Lindex (tile, [ Ast.tidy; Ast.tidx ]), v);
                  Ast.Sync;
                  Assign
                    ( Lindex
                        ( arr,
                          [
                            Ast.( +: ) (Ast.( -: ) e1 Ast.tidx) Ast.tidy;
                            Ast.( +: ) (Ast.( -: ) e2 Ast.tidy) Ast.tidx;
                          ] ),
                      Index (tile, [ Ast.tidx; Ast.tidy ]) );
                ]
            | s -> [ s ])
          body
      in
      if !found then
        Some
          ( Pass_util.simplify_block body',
            [
              Printf.sprintf
                "%s: exchanged idx/idy through a padded 16x17 tile (block \
                 grown to 16x16)"
                (Pp.expr_to_string (Ast.Index (a.arr, a.indices)));
            ] )
      else None
  | _ -> None

(* --------------------------------------------------------------------- *)
(* The pass                                                               *)
(* --------------------------------------------------------------------- *)

let apply (k : Ast.kernel) (launch : Ast.launch) : Pass_util.outcome =
  let accesses = Analysis_cache.(accesses (domain ()) ~launch k) in
  let planned = List.map (fun a -> (a, plan_access a)) accesses in
  let actionable =
    List.filter
      (fun (_, p) -> match p with Skip _ -> false | _ -> true)
      planned
  in
  if actionable = [] then
    Pass_util.unchanged
      ~notes:
        (List.filter_map
           (fun ((a : Coalesce_check.access), p) ->
             match (a.verdict, p) with
             | Coalesce_check.Noncoalesced _, Skip why ->
                 Some
                   (Printf.sprintf "%s: %s"
                      (Pp.expr_to_string (Index (a.arr, a.indices)))
                      why)
             | _ -> None)
           planned
        @ [ "all global accesses already coalesced" ])
      k launch
  else begin
    let fresh = Fresh.name (Fresh.of_kernel k) in
    let notes = ref [] in
    let body = ref k.k_body in
    let launch = ref launch in
    (* 1. exchangeable stores (grow block to 16x16 once) *)
    let exchanges =
      List.filter (fun (_, p) -> p = Exchange_store) actionable
    in
    if exchanges <> [] then begin
      if !launch.block_y = 1 && !launch.grid_y mod 16 = 0 then begin
        launch :=
          { !launch with block_y = 16; grid_y = !launch.grid_y / 16 };
        List.iter
          (fun ((a : Coalesce_check.access), _) ->
            match stage_exchange a !body ~fresh with
            | Some (b, ns) ->
                body := b;
                notes := !notes @ ns
            | None ->
                notes :=
                  !notes
                  @ [
                      Printf.sprintf "%s: exchange store rule did not match"
                        a.arr;
                    ])
          exchanges
      end
      else
        notes := !notes @ [ "exchange store skipped: grid not divisible" ]
    end;
    (* 2. apron-staged loads, grouped by (array, row indices, loop).
       Applied before loop staging: loop staging rewrites index
       expressions (i -> i+k), which would defeat the apron's syntactic
       replacement. *)
    let aprons =
      List.filter_map
        (fun ((a : Coalesce_check.access), p) ->
          match p with
          | Apron_stage { loop } -> (
              match minor_minus_idx a with
              | Some g -> (
                  match offset_range a g with
                  | Some (lo, hi, _) -> Some (a, g, lo, hi, loop)
                  | None -> None)
              | None -> None)
          | _ -> None)
        actionable
    in
    let keys =
      List.sort_uniq compare
        (List.map
           (fun ((a : Coalesce_check.access), _, _, _, lp) ->
             ( a.arr,
               List.map Pp.expr_to_string (rows_of a.indices),
               lp ))
           aprons)
    in
    List.iter
      (fun (arr, rows_key, lp) ->
        let group =
          List.filter_map
            (fun ((a : Coalesce_check.access), g, lo, hi, lp') ->
              if
                String.equal a.arr arr
                && List.map Pp.expr_to_string (rows_of a.indices) = rows_key
                && lp' = lp
              then Some (a, g, lo, hi)
              else None)
            aprons
        in
        (* per-group reuse rule (paper Section 3.4): a single offset with
           no sweeping loop means every staged element is read once *)
        let lo = List.fold_left (fun m (_, _, l, _) -> min m l) max_int group in
        let hi = List.fold_left (fun m (_, _, _, h) -> max m h) min_int group in
        if hi = lo && lp = None && List.length group <= 1 then
          notes :=
            !notes
            @ [
                Printf.sprintf
                  "%s: staged data would have no reuse: not converted" arr;
              ]
        else
          match stage_apron k group lp !body ~fresh with
          | Some (b, ns) ->
              body := b;
              notes := !notes @ ns
          | None ->
              notes := !notes @ [ Printf.sprintf "%s: apron staging failed" arr ])
      keys;
    (* 3. lane-strided (interleaved) loads, grouped by segment base *)
    let strided =
      List.filter_map
        (fun ((a : Coalesce_check.access), p) ->
          match (p, a.flat) with
          | Strided_stage { m; c }, Some f ->
              let key = Affine.drop Affine.Tidx { f with Affine.const = f.Affine.const - c } in
              Some (key, (a, m, c))
          | _ -> None)
        actionable
    in
    let strided_keys =
      List.fold_left
        (fun acc (key, _) ->
          if List.exists (Affine.equal key) acc then acc else key :: acc)
        [] strided
      |> List.rev
    in
    List.iter
      (fun key ->
        let group =
          List.filter_map
            (fun (k', m) -> if Affine.equal key k' then Some m else None)
            strided
        in
        match stage_strided group !body ~fresh with
        | Some (b, ns) ->
            body := b;
            notes := !notes @ ns
        | None ->
            notes := !notes @ [ "strided destaging found no insertion point" ])
      strided_keys;
    (* 4. loop-staged loads, grouped per enclosing loop *)
    let loop_members =
      List.filter_map
        (fun (a, p) ->
          match p with
          | Loop_stage { loop } | Rowloop_stage { loop } -> Some (loop, (a, p))
          | _ -> None)
        actionable
    in
    let loops = List.sort_uniq String.compare (List.map fst loop_members) in
    List.iter
      (fun lv ->
        let members =
          List.filter_map
            (fun (l, m) -> if String.equal l lv then Some m else None)
            loop_members
        in
        let b, ns = stage_loop k lv members !body ~fresh in
        body := b;
        notes := !notes @ ns)
      loops;
    (* skipped accesses still worth reporting *)
    List.iter
      (fun ((a : Coalesce_check.access), p) ->
        match (a.verdict, p) with
        | Coalesce_check.Noncoalesced _, Skip why ->
            notes :=
              !notes
              @ [
                  Printf.sprintf "%s: %s"
                    (Pp.expr_to_string (Index (a.arr, a.indices)))
                    why;
                ]
        | _ -> ())
      planned;
    Pass_util.changed ~notes:!notes { k with k_body = !body } !launch
  end

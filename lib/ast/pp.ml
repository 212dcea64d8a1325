(** Pretty-printer: emits kernels as CUDA-style C source.

    Understandability of the optimized code is one of the paper's selling
    points, so the printer works hard to produce idiomatic CUDA: [+=] for
    accumulations, minimal parentheses driven by C precedence, CUDA spellings
    for builtins ([blockIdx.x * blockDim.x + threadIdx.x] for [idx] is kept
    as the short alias [idx], declared in a preamble), [__shared__]
    qualifiers, and [#pragma] lines for the size bindings. *)

open Ast

let scalar_to_string = function
  | Int -> "int"
  | Float -> "float"
  | Float2 -> "float2"
  | Float4 -> "float4"
  | Bool -> "bool"

let binop_to_string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Eq -> "=="
  | Ne -> "!="
  | And -> "&&"
  | Or -> "||"

(* C operator precedence, higher binds tighter. *)
let prec_of = function
  | Mul | Div | Mod -> 10
  | Add | Sub -> 9
  | Lt | Le | Gt | Ge -> 8
  | Eq | Ne -> 7
  | And -> 5
  | Or -> 4

let float_lit f =
  if Float.is_integer f && Float.abs f < 1e16 then
    Printf.sprintf "%.1ff" f
  else Printf.sprintf "%gf" f

let rec expr_prec buf prec e =
  let paren p body =
    if p < prec then (
      Buffer.add_char buf '(';
      body ();
      Buffer.add_char buf ')')
    else body ()
  in
  match e with
  | Int_lit n ->
      if n < 0 then paren 11 (fun () -> Buffer.add_string buf (string_of_int n))
      else Buffer.add_string buf (string_of_int n)
  | Float_lit f -> Buffer.add_string buf (float_lit f)
  | Var v -> Buffer.add_string buf v
  | Builtin b -> Buffer.add_string buf (builtin_name b)
  | Unop (Neg, e) ->
      paren 11 (fun () ->
          Buffer.add_char buf '-';
          expr_prec buf 12 e)
  | Unop (Not, e) ->
      paren 11 (fun () ->
          Buffer.add_char buf '!';
          expr_prec buf 12 e)
  | Binop (op, a, b) ->
      let p = prec_of op in
      paren p (fun () ->
          expr_prec buf p a;
          Buffer.add_char buf ' ';
          Buffer.add_string buf (binop_to_string op);
          Buffer.add_char buf ' ';
          (* left-assoc: right operand needs one more level *)
          expr_prec buf (p + 1) b)
  | Index (a, es) ->
      Buffer.add_string buf a;
      List.iter
        (fun e ->
          Buffer.add_char buf '[';
          expr_prec buf 0 e;
          Buffer.add_char buf ']')
        es
  | Vload { v_arr; v_width; v_index } ->
      Buffer.add_string buf
        (Printf.sprintf "((float%d*)%s)[" v_width v_arr);
      expr_prec buf 0 v_index;
      Buffer.add_char buf ']'
  | Field (e, f) ->
      expr_prec buf 12 e;
      Buffer.add_char buf '.';
      Buffer.add_string buf (field_name f)
  | Call (f, args) ->
      Buffer.add_string buf f;
      Buffer.add_char buf '(';
      List.iteri
        (fun i a ->
          if i > 0 then Buffer.add_string buf ", ";
          expr_prec buf 0 a)
        args;
      Buffer.add_char buf ')'
  | Select (c, a, b) ->
      paren 3 (fun () ->
          expr_prec buf 4 c;
          Buffer.add_string buf " ? ";
          expr_prec buf 4 a;
          Buffer.add_string buf " : ";
          expr_prec buf 4 b)

let expr_to_string e =
  let buf = Buffer.create 64 in
  expr_prec buf 0 e;
  Buffer.contents buf

let lvalue_to_string lv =
  let rec go = function
    | Lvar v -> v
    | Lindex (a, es) ->
        a ^ String.concat "" (List.map (fun e -> "[" ^ expr_to_string e ^ "]") es)
    | Lfield (lv, f) -> go lv ^ "." ^ field_name f
    | Lvec { v_arr; v_width; v_index } ->
        Printf.sprintf "((float%d*)%s)[%s]" v_width v_arr
          (expr_to_string v_index)
  in
  go lv

let ty_prefix = function
  | Scalar s -> scalar_to_string s
  | Array { elt; space; _ } ->
      let q = match space with Shared -> "__shared__ " | Global | Register -> "" in
      q ^ scalar_to_string elt

let ty_suffix = function
  | Scalar _ -> ""
  | Array { dims; _ } ->
      String.concat "" (List.map (fun d -> Printf.sprintf "[%d]" d) dims)

(* Detect [lv = lv op e] so we can print the compound-assignment form. *)
let compound_form lv e =
  let lv_as_expr = function
    | Lvar v -> Some (Var v)
    | Lindex (v, es) -> Some (Index (v, es))
    | Lfield (Lvar v, f) -> Some (Field (Var v, f))
    | Lfield (Lindex (v, es), f) -> Some (Field (Index (v, es), f))
    | Lvec vl -> Some (Vload vl)
    | Lfield ((Lfield _ | Lvec _), _) -> None
  in
  match (lv_as_expr lv, e) with
  | Some le, Binop ((Add | Sub | Mul | Div) as op, a, b) when equal_expr le a ->
      Some (op, b)
  | _ -> None

let rec stmt buf indent s =
  let pad () = Buffer.add_string buf (String.make indent ' ') in
  match s with
  | Comment c ->
      pad ();
      Buffer.add_string buf ("/* " ^ c ^ " */\n")
  | Decl { d_name; d_ty; d_init } ->
      pad ();
      Buffer.add_string buf (ty_prefix d_ty);
      Buffer.add_char buf ' ';
      Buffer.add_string buf d_name;
      Buffer.add_string buf (ty_suffix d_ty);
      (match d_init with
      | None -> ()
      | Some e ->
          Buffer.add_string buf " = ";
          expr_prec buf 0 e);
      Buffer.add_string buf ";\n"
  | Assign (lv, e) -> (
      pad ();
      match compound_form lv e with
      | Some (op, rhs) ->
          Buffer.add_string buf (lvalue_to_string lv);
          Buffer.add_string buf (" " ^ binop_to_string op ^ "= ");
          expr_prec buf 0 rhs;
          Buffer.add_string buf ";\n"
      | None ->
          Buffer.add_string buf (lvalue_to_string lv);
          Buffer.add_string buf " = ";
          expr_prec buf 0 e;
          Buffer.add_string buf ";\n")
  | If (c, t, []) ->
      pad ();
      Buffer.add_string buf "if (";
      expr_prec buf 0 c;
      Buffer.add_string buf ") {\n";
      block buf (indent + 2) t;
      pad ();
      Buffer.add_string buf "}\n"
  | If (c, t, f) ->
      pad ();
      Buffer.add_string buf "if (";
      expr_prec buf 0 c;
      Buffer.add_string buf ") {\n";
      block buf (indent + 2) t;
      pad ();
      Buffer.add_string buf "} else {\n";
      block buf (indent + 2) f;
      pad ();
      Buffer.add_string buf "}\n"
  | For { l_var; l_init; l_limit; l_step; l_body } ->
      pad ();
      Buffer.add_string buf (Printf.sprintf "for (int %s = " l_var);
      expr_prec buf 0 l_init;
      Buffer.add_string buf (Printf.sprintf "; %s < " l_var);
      expr_prec buf 0 l_limit;
      (match l_step with
      | Int_lit 1 -> Buffer.add_string buf (Printf.sprintf "; %s++" l_var)
      | _ ->
          Buffer.add_string buf (Printf.sprintf "; %s += " l_var);
          expr_prec buf 0 l_step);
      Buffer.add_string buf ") {\n";
      block buf (indent + 2) l_body;
      pad ();
      Buffer.add_string buf "}\n"
  | Sync ->
      pad ();
      Buffer.add_string buf "__syncthreads();\n"
  | Global_sync ->
      pad ();
      Buffer.add_string buf "__global_sync();\n"

and block buf indent b = List.iter (stmt buf indent) b

let param_to_string p =
  match p.p_ty with
  | Scalar s -> scalar_to_string s ^ " " ^ p.p_name
  | Array { elt; dims; _ } ->
      scalar_to_string elt ^ " " ^ p.p_name
      ^ String.concat "" (List.map (fun d -> Printf.sprintf "[%d]" d) dims)

let launch_comment (l : launch) =
  Printf.sprintf "/* launch: grid (%d, %d), block (%d, %d) */\n" l.grid_x
    l.grid_y l.block_x l.block_y

let kernel_to_string ?(launch : launch option) (k : kernel) =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (n, v) ->
      Buffer.add_string buf (Printf.sprintf "#pragma gpcc dim %s %d\n" n v))
    k.k_sizes;
  if k.k_output <> [] then
    Buffer.add_string buf
      ("#pragma gpcc output " ^ String.concat " " k.k_output ^ "\n");
  Option.iter (fun l -> Buffer.add_string buf (launch_comment l)) launch;
  Buffer.add_string buf ("__kernel void " ^ k.k_name ^ "(");
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf (param_to_string p))
    k.k_params;
  Buffer.add_string buf ") {\n";
  block buf 2 k.k_body;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* the launch comment follows the pragma lines: one per size binding,
   and one for the outputs *)
let with_launch (k : kernel) text (l : launch) =
  let rec after_lines pos n =
    if n = 0 then pos
    else after_lines (String.index_from text pos '\n' + 1) (n - 1)
  in
  let at =
    after_lines 0 (List.length k.k_sizes + if k.k_output <> [] then 1 else 0)
  in
  String.concat ""
    [
      String.sub text 0 at;
      launch_comment l;
      String.sub text at (String.length text - at);
    ]

let stmt_to_string s =
  let buf = Buffer.create 128 in
  stmt buf 0 s;
  Buffer.contents buf

let block_to_string b =
  let buf = Buffer.create 256 in
  block buf 0 b;
  Buffer.contents buf

(** Non-blank source lines, used to regenerate Table 1's LOC column. *)
let loc_count src =
  String.split_on_char '\n' src
  |> List.filter (fun l -> String.trim l <> "")
  |> List.length

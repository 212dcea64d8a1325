(** Shared helpers for the optimization passes. *)

(** Outcome of one pass: the (possibly) transformed kernel and launch,
    plus a human-readable trace — the paper's understandable optimization
    process. *)
type outcome = {
  kernel : Gpcc_ast.Ast.kernel;
  launch : Gpcc_ast.Ast.launch;
  fired : bool;
  notes : string list;
}

val unchanged :
  ?notes:string list -> Gpcc_ast.Ast.kernel -> Gpcc_ast.Ast.launch -> outcome

val changed :
  ?notes:string list -> Gpcc_ast.Ast.kernel -> Gpcc_ast.Ast.launch -> outcome

val global_arrays : Gpcc_ast.Ast.kernel -> string list
val shared_arrays : Gpcc_ast.Ast.block -> string list

(** Replace syntactic occurrences of one expression by another. *)
val replace_expr :
  Gpcc_ast.Ast.expr -> Gpcc_ast.Ast.expr -> Gpcc_ast.Ast.block ->
  Gpcc_ast.Ast.block

val replace_expr_in :
  Gpcc_ast.Ast.expr -> Gpcc_ast.Ast.expr -> Gpcc_ast.Ast.expr ->
  Gpcc_ast.Ast.expr

(** Light constant folding / algebraic cleanup (sound and idempotent,
    property-tested) so emitted kernels read like the paper's examples. *)
val simplify_expr : Gpcc_ast.Ast.expr -> Gpcc_ast.Ast.expr

val simplify_block : Gpcc_ast.Ast.block -> Gpcc_ast.Ast.block

(** The thread domain the kernel's fine-grain work items cover, from the
    first output array's shape or the [__threads_x]/[__threads_y]
    pragmas. *)
val thread_domain : Gpcc_ast.Ast.kernel -> (int * int) option

(** The pipeline's starting launch: one half warp per block. *)
val initial_launch : Gpcc_ast.Ast.kernel -> Gpcc_ast.Ast.launch option

(** A typical hand-written launch for the naive kernel (the Figure 11
    baseline): 16x16 blocks for 2-D domains, 256-wide for 1-D. *)
val naive_launch : Gpcc_ast.Ast.kernel -> Gpcc_ast.Ast.launch option

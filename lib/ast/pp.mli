(** Pretty-printer: emits kernels as CUDA-style C source.

    Understandability of the optimized code is one of the paper's
    distinguishing features; the printer produces idiomatic CUDA with
    compound assignments and minimal parentheses, and its output parses
    back to an equal AST (property-tested). *)

val expr_to_string : Ast.expr -> string
val lvalue_to_string : Ast.lvalue -> string
val stmt_to_string : Ast.stmt -> string
val block_to_string : Ast.block -> string

(** Print a whole kernel (pragmas first); [launch] adds the grid/block
    comment the compiler reports alongside the optimized code. *)
val kernel_to_string : ?launch:Ast.launch -> Ast.kernel -> string

(** [with_launch k (kernel_to_string k) l] is [kernel_to_string ~launch:l k]:
    the launch comment spliced into the printed kernel, which is not
    printed again. *)
val with_launch : Ast.kernel -> string -> Ast.launch -> string

(** Non-blank source lines — regenerates Table 1's LOC column. *)
val loc_count : string -> int

(** Type and shape checker for kernels: declaration-before-use, unique
    parameter names, array ranks, operand types (with C-style
    int-to-float promotion), vector fields, pragma validity, and
    structural rules such as [__global_sync] only at top level. *)

exception Type_error of string

(** Signatures of the supported intrinsics ([sqrtf], [fmaxf],
    [make_float2], ...). *)
val intrinsics : (string * (Ast.scalar list * Ast.scalar)) list

(** Check a whole kernel; raises {!Type_error} on the first violation. *)
val check : Ast.kernel -> unit

val check_result : Ast.kernel -> (unit, string) result

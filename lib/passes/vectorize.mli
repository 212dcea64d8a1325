(** Vectorization of memory accesses (paper Section 3.1): pairs of loads
    [a[2*e + N]] / [a[2*e + N + 1]] (N even) become one [float2] load with
    [.x]/[.y] uses. Each index is read in the affine context of its own
    statement, and a paired register is only reused up to the next store
    to the array, barrier, or assignment to a name either index reads. *)

(** Syntactically halve an even index expression ([2*e] -> [e]). *)
val halve : Gpcc_ast.Ast.expr -> Gpcc_ast.Ast.expr option

val apply : Gpcc_ast.Ast.kernel -> Gpcc_ast.Ast.launch -> Pass_util.outcome

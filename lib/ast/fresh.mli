(** A supply of fresh identifiers for one kernel rewrite.

    Every pass that introduces names (replicas, hoisted registers,
    staging buffers, prefetch temporaries) draws them from one supply,
    seeded with the kernel's parameters and declarations. Drawing
    reserves the name, so no two draws from a supply ever collide. *)

type t

val create : string list -> t
(** A supply that treats the given names as taken. *)

val of_kernel : Ast.kernel -> t
(** A supply seeded with the kernel's parameter and declared names. *)

val name : t -> string -> string
(** [name t base] is [base] if it is free, and otherwise the first of
    [base_0], [base_1], ... that is; the result is reserved. *)

(** What an access reads, for checking each distinct access once.

    Both verifiers check bounds (and {!Verify} bank conflicts) once per
    distinct access: the frozen wrap pass records every access of a
    barrier loop twice. One index text can still read different
    elements, through a local reassigned between two reads, through one
    loop variable name in two sibling loops, or under two guards that
    a diagnostic path prints alike, so an access is told apart by its
    text, by what each of its names is bound to and by its guards.

    A binding's identity stands for its definition (a let's right-hand
    side, or a loop's header) together with the identities of the names
    that definition reads; a guard's stands for its condition likewise.
    Identities are hash-consed per check: equal definitions over equal
    bindings share one, which merges the wrap pass's duplicates. *)

type t
(** The identities and the accesses seen by one check. *)

val create : unit -> t

val unbound : int
(** The identity of a name with no binding: a size or a parameter,
    which its name identifies. *)

val unknown : int
(** A name whose value the walk does not know. *)

val carried : int
(** A name a loop body reassigns, read on a later trip. *)

val names : (string -> int) -> Gpcc_ast.Ast.expr -> int list
(** The identities of the names an expression reads, in order of
    occurrence, given each name's identity. *)

val define : t -> Gpcc_ast.Ast.expr -> int list -> int
(** The identity of a definition whose names have these identities. *)

val first :
  t ->
  path:string ->
  arr:string ->
  store:bool ->
  [ `Sc of Gpcc_ast.Ast.expr list | `Vec of int * Gpcc_ast.Ast.expr ] ->
  int list Lazy.t ->
  bool
(** [true] the first time an access with this path, array, direction,
    index and identities (of the index's names, then of its guards) is
    seen. The identities are forced only when the rest repeats. *)

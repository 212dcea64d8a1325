(** Inter-thread-block data-sharing analysis (paper Section 3.4): which
    arrays' repeated loads touch the same data in the neighboring block
    along X or Y, and whether each load feeds shared memory (G2S) or a
    register (G2R) — the inputs to the Section 3.5.3 merge selection. *)

type role =
  | G2S
  | G2R

val equal_role : role -> role -> bool

type direction =
  | Along_x
  | Along_y

type array_sharing = {
  arr : string;
  role : role;
  share_x : bool;
  share_y : bool;
  loads : int;  (** number of load sites *)
}

val show_array_sharing : array_sharing -> string

(** Global arrays loaded directly into a shared array. *)
val g2s_arrays : Gpcc_ast.Ast.kernel -> string list

(** The summary over a kernel's access table
    ({!Coalesce_check.analyze_kernel}). *)
val of_accesses :
  Gpcc_ast.Ast.kernel -> Coalesce_check.access list -> array_sharing list

(** [of_accesses] over the kernel's table at [launch]. *)
val analyze :
  ?launch:Gpcc_ast.Ast.launch -> Gpcc_ast.Ast.kernel -> array_sharing list

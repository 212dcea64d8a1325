(** Memory-coalescing analysis (paper Section 3.2): compute each global
    access's half-warp addresses from its flattened affine form and decide
    whether they form one coalesced segment. *)

(** The paper's four index categories. *)
type index_kind =
  | Constant
  | Predefined  (** built from thread-position builtins only *)
  | Loop_index  (** involves an enclosing loop iterator *)
  | Unresolved

val equal_index_kind : index_kind -> index_kind -> bool
val show_index_kind : index_kind -> string

type reason =
  | Uniform  (** all 16 lanes read the same address *)
  | Strided of int  (** lane-to-lane stride in elements, <> 1 *)
  | Misaligned of string  (** base not always a multiple of 16 words *)

val equal_reason : reason -> reason -> bool
val show_reason : reason -> string

type verdict =
  | Coalesced
  | Noncoalesced of reason
  | Unknown  (** unresolved index: the paper's compiler skips these *)

val equal_verdict : verdict -> verdict -> bool
val show_verdict : verdict -> string

(** One global-memory access site with everything later passes need. *)
type access = {
  arr : string;
  indices : Gpcc_ast.Ast.expr list;
  is_store : bool;
  vec_width : int;  (** 1 for scalar, 2/4 for vector loads *)
  flat : Affine.t option;  (** flattened element offset *)
  enclosing : string list;  (** loop variables, innermost first *)
  verdict : verdict;
  ctx : Affine.ctx;  (** analysis context at the access site *)
  divergent : bool;
      (** under thread-dependent control flow: cooperative staging cannot
          be inserted here *)
  safe_loops : string list;
      (** enclosing loops every thread of the block enters — valid
          staging insertion points *)
}

val classify_index : Affine.ctx -> Gpcc_ast.Ast.expr -> index_kind

(** Coalescing decision for a flattened affine element offset. *)
val verdict_of_flat : Affine.t option -> verdict

(** The global accesses of a walk record in its contexts at one launch
    ({!Walk.contexts}), in walk order, with their verdicts: each site
    once (the wrap passes are left out), [divergent] when a
    thread-dependent guard ({!Walk.guarded}) encloses it. *)
val of_walk : Layout.table -> Walk.contexts -> Walk.t -> access list

(** [of_walk] over the kernel's walk at [launch]. Defaults to the
    pipeline's half-warp launch when none is given. *)
val analyze_kernel :
  ?launch:Gpcc_ast.Ast.launch -> Gpcc_ast.Ast.kernel -> access list

val all_coalesced : access list -> bool
val noncoalesced : access list -> access list
val to_string : access -> string

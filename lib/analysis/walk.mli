(** The access walk (paper Section 3.2): one pass over a kernel body that
    records its barrier sites, loop frames and memory accesses under one
    binding rule. {!Verify} stages the record per launch, {!Symverify}
    lowers it to symbolic forms and {!Coalesce_check} reads the affine
    forms of its global accesses; [Vectorize] and [Prefetch] reuse the
    statement-level rule ({!assigned_vars}, {!after_stmt}).

    The binding rule:
    - a scalar declaration with an initializer, or an assignment to a
      name, binds the name to the expression ({!Let});
    - a declaration without an initializer, or a field assignment
      [v.x = e], leaves the name {!Unknown};
    - after an [if] or a loop, every name its blocks assign
      ({!assigned_vars}, the loop variable included) is {!Unknown};
    - for a loop's body, limit and step, the names the body assigns are
      {!Carried}: later trips read them at values the walk does not
      know. The init runs once, with the entry bindings.

    A loop whose body holds a barrier is {e frozen}. At frozen depth
    below 2 its body is walked twice: the second walk (the {e wrap
    pass}, offset 1) models iteration [k + 1], so its accesses before
    the first barrier share the interval opened by the last barrier of
    iteration [k]. Only a barrier outside every guard opens a new
    interval: a guarded barrier may not execute.

    Affine contexts exist only in a walk given a launch: they are
    [None] in a walk without one, so a reader that needs none does not
    pay for them. *)

module Smap : Map.S with type key = string

type binding =
  | Let of let_
  | Loop of int
      (** the variable of the enclosing loop at depth [d] (outermost 0),
          bound at loop entry *)
  | Unknown  (** forgotten after an [if] or a loop, or declared bare *)
  | Carried
      (** assigned in the loop body, as its body, limit and step read it *)

and let_ = {
  l_id : int;  (** distinct per binding made by one walk *)
  l_expr : Gpcc_ast.Ast.expr;
  l_env : env;  (** the bindings the definition reads *)
  l_ctx : Affine.ctx option;  (** the affine context of its definition *)
  l_tdep : bool Lazy.t;  (** the definition depends on the thread position *)
  l_reads : int Lazy.t;  (** the definition's identity ({!Reads}) *)
}

(** The bindings ({!find}) and the enclosing loop frames (innermost
    first) at one program point. *)
and env = {
  binds : binding Smap.t;
  frames : frame list;
}

(** One walk of a loop body. *)
and frame = {
  fr_id : int;  (** creation order: the index in [frames] of {!t} *)
  fr_loop : int;  (** the first pass's [fr_id]: both passes share it *)
  fr_var : string;
  fr_init : Gpcc_ast.Ast.expr;
  fr_limit : Gpcc_ast.Ast.expr;
  fr_step : Gpcc_ast.Ast.expr;
  fr_assigned : string list;  (** {!assigned_vars} of the body *)
  fr_entry : env;  (** at loop entry, where the init runs once *)
  fr_entry_ctx : Affine.ctx option;
  fr_trip : env;
      (** [fr_entry] with [fr_assigned] {!Carried}: where every trip
          evaluates the limit and the step *)
  fr_trip_ctx : Affine.ctx option;  (** [fr_entry_ctx] without [fr_assigned] *)
  fr_frozen : bool;  (** the body contains a barrier *)
  fr_offset : int;  (** 0, or 1 for the wrap pass *)
  fr_tdep : bool Lazy.t;  (** a bound is thread-dependent *)
  fr_reads : int Lazy.t;  (** the header's identity ({!Reads}) *)
  fr_guarded : bool Lazy.t;  (** a thread-dependent guard encloses the loop *)
}

type guard = {
  g_cond : Gpcc_ast.Ast.expr;  (** must hold for the code under it to run *)
  g_env : env;
  g_ctx : Affine.ctx option;
  g_tdep : bool Lazy.t;
  g_reads : int Lazy.t;
}

type kind = [ `Sc of Gpcc_ast.Ast.expr list | `Vec of int * Gpcc_ast.Ast.expr ]

(** The index expressions: one per dimension, or the vector index. *)
val indices : kind -> Gpcc_ast.Ast.expr list

type access = {
  a_arr : string;
  a_space : [ `Shared | `Global ];
  a_kind : kind;  (** the indices, or a vector width and index *)
  a_store : bool;
  a_interval : int;  (** barrier interval *)
  a_env : env;
  a_guards : guard list;  (** innermost first *)
  a_ctx : Affine.ctx option;
  a_path : string;  (** e.g. ["for(i)/if(tidx < 16)"] *)
  a_reads : int list Lazy.t;
      (** identities of the index's names, then of its guards *)
}

(** The access as written, e.g. ["s[tidx + 1]"]. *)
val show : access -> string

type barrier = {
  b_kind : [ `Sync | `Global_sync ];
  b_path : string;
      (** ending in the barrier, e.g. ["for(i)/__syncthreads()"] *)
  b_top : bool;  (** at kernel top level: under no loop and no guard *)
  b_guarded : bool;  (** a thread-dependent guard encloses the barrier *)
  b_loops : frame list;  (** the thread-dependent loops around it *)
}

type t = {
  accesses : access list;
      (** walk order; within a statement an assignment's store, the loads
          in its indices, then those of its right-hand side *)
  barriers : barrier list;  (** walk order *)
  frames : frame list;  (** creation order *)
  reads : Reads.t;  (** the identities of this walk's bindings and guards *)
}

(** Walk a kernel. Affine contexts describe [launch], and are [None]
    without one. *)
val run : ?launch:Gpcc_ast.Ast.launch -> Gpcc_ast.Ast.kernel -> t

(** The frame at depth [d] (outermost 0) of an innermost-first list. *)
val frame_at : frame list -> int -> frame

(** The binding of a name at a program point; [None] for a size, a
    parameter or an undeclared name. *)
val find : env -> string -> binding option

(** Does a thread-dependent guard appear among these? A value depends on
    the thread position when it reads a thread coordinate, an array, an
    {!Unknown} or {!Carried} name, a let whose definition does, or the
    variable of a loop one of whose bounds does. *)
val guarded : guard list -> bool

(** The scalar names a block declares or assigns anywhere, nested loop
    variables included. *)
val assigned_vars : Gpcc_ast.Ast.block -> string list

(** The affine context after a statement, under the binding rule. *)
val after_stmt : Affine.ctx -> Gpcc_ast.Ast.stmt -> Affine.ctx

(** The affine context of a loop's body, entered at [ctx]. *)
val body_ctx : Affine.ctx -> Gpcc_ast.Ast.loop -> Affine.ctx

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

    A walk does not depend on a launch. Each program point names its
    affine context by the step that makes it from an earlier point's
    (the binding rule's {!after_stmt}, a loop's trip context and its
    body's, {!body_ctx}), and {!contexts} replays those steps once at a
    launch, so one walk of a kernel text serves every launch. *)

module Smap : Map.S with type key = string

(** A program point: the index of its context step in [steps] of {!t}. *)
type point = int

type step =
  | Start  (** the kernel's sizes and the launch, before any statement *)
  | Bind of point * string * Gpcc_ast.Ast.expr
      (** {!Affine.enter_let}: a binding whose value may be affine *)
  | Forget of point * string list
      (** {!Affine.forget}: after a statement that forgets names or binds
          one to a value never affine ({!after_stmt}), and a loop's trip
          context, the body's assigned names forgotten. Only names an
          earlier [Bind] binds are forgotten by a step: forgetting any
          other leaves the context as it is, so the point stays. *)
  | Body of point * Gpcc_ast.Ast.loop
      (** the loop's header (its body left out) pushed onto its trip
          context ({!body_ctx}) *)

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
  l_ctx : point;  (** the affine context of its definition *)
  l_tdep : bool Lazy.t;  (** the definition depends on the thread position *)
  l_reads : int Lazy.t;  (** the definition's identity ({!Reads}) *)
}

(** The bindings ({!find}) and the enclosing loop frames (innermost
    first) at one program point. A record keeps the bindings of the
    names its own expressions read, and no others: a let those of its
    definition, a guard those of its condition, an access those of its
    indices, a frame's entry those of the init and its trip those of
    the limit and the step. So a walk kept for later launches does not
    hold every version of the binding map. *)
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
  fr_entry_ctx : point;
  fr_trip : env;
      (** [fr_entry] with [fr_assigned] {!Carried}: where every trip
          evaluates the limit and the step *)
  fr_trip_ctx : point;  (** [fr_entry_ctx] without [fr_assigned] *)
  fr_frozen : bool;  (** the body contains a barrier *)
  fr_offset : int;  (** 0, or 1 for the wrap pass *)
  fr_tdep : bool Lazy.t;  (** a bound is thread-dependent *)
  fr_reads : int Lazy.t;  (** the header's identity ({!Reads}) *)
  fr_guarded : bool Lazy.t;  (** a thread-dependent guard encloses the loop *)
}

type guard = {
  g_cond : Gpcc_ast.Ast.expr;  (** must hold for the code under it to run *)
  g_env : env;
  g_ctx : point;
  g_tdep : bool Lazy.t;
  g_reads : int Lazy.t;
}

type kind = [ `Sc of Gpcc_ast.Ast.expr list | `Vec of int * Gpcc_ast.Ast.expr ]

(** The index expressions: one per dimension, or the vector index. *)
val indices : kind -> Gpcc_ast.Ast.expr list

type access = {
  a_id : int;  (** its index in [accesses] of {!t} *)
  a_arr : string;
  a_space : [ `Shared | `Global ];
  a_kind : kind;  (** the indices, or a vector width and index *)
  a_store : bool;
  a_interval : int;  (** barrier interval *)
  a_env : env;
  a_guards : guard list;  (** innermost first *)
  a_ctx : point;
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
  distinct : access list Lazy.t;
      (** each distinct access once, in walk order: the first with its
          path, array, direction, index and identities ({!Reads.first});
          the wrap pass repeats an access of a barrier loop *)
  sizes : (string * int) list;  (** the kernel's [#pragma gpcc dim] sizes *)
  steps : step array;  (** by point, in creation order *)
}

(** Walk a kernel. *)
val run : Gpcc_ast.Ast.kernel -> t

(** The affine contexts of a walk's points at a launch. *)
type contexts

(** Derive every point's context at a launch, replaying the steps in
    creation order: each is one {!Affine} operation. *)
val contexts : t -> Gpcc_ast.Ast.launch -> contexts

val ctx : contexts -> point -> Affine.ctx

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

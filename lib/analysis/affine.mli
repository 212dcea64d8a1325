(** Linear (affine) forms over thread-position variables, loop iterators
    and unbound size parameters — the machinery behind the paper's
    Section 3.2 index analysis. [idx]/[idy] are canonicalized to
    [bidx*block_x + tidx] using the current launch configuration, and each
    in-scope loop variable becomes [init + Iter*step]. *)

type var =
  | Tidx
  | Tidy
  | Bidx
  | Bidy
  | Iter of string  (** iteration counter of the named loop *)
  | Param of string  (** unbound scalar [int] parameter *)
  | Mod_of of var * int
      (** [v mod c] — opaque but bounded; introduced by sub-block
          privatization ([tidx %% 16]) *)
  | Div_of of var * int  (** [v / c] *)

val equal_var : var -> var -> bool
val compare_var : var -> var -> int
val show_var : var -> string

type t = {
  const : int;
  terms : (var * int) list;  (** sorted by [compare_var], coefficients <> 0 *)
}

val equal : t -> t -> bool
val show : t -> string
val to_string : t -> string

val const : int -> t
val zero : t
val of_var : var -> t
val add : t -> t -> t
val sub : t -> t -> t
val scale : int -> t -> t
val coeff : var -> t -> int

(** Drop the term for a variable (set its coefficient to zero). *)
val drop : var -> t -> t

val vars : t -> var list
val is_const : t -> bool

(** Exact division by a positive constant, when every coefficient and the
    constant are divisible. *)
val div_exact : t -> int -> t option

(** [mod_const f k] when it is compile-time constant (every coefficient
    divisible by [k]). *)
val mod_const : t -> int -> int option

(** The nonnegative greatest common divisor ([gcd 0 0 = 0]). *)
val gcd : int -> int -> int

val eval : (var -> int) -> t -> int

(** The affine-valued local [int] bindings of a context, by name. *)
type lets

(** Analysis context: the compile-time knowledge the compiler has at an
    access site — specialized sizes, the launch configuration, enclosing
    loops, and affine-valued local [int] bindings. Read-only outside this
    module: contexts are built by {!ctx_of_launch} and extended by
    {!enter_loop}, {!enter_let} and {!forget}. *)
type ctx = private {
  sizes : (string * int) list;
  block_x : int;
  block_y : int;
  grid_x : int;
  grid_y : int;
  loops : (string * loop_desc) list;  (** innermost first *)
  lets : lets;
}

and loop_desc = {
  ld_init : t;
  ld_step : int;
  ld_trips : int option;  (** trip count when the bounds are compile-time *)
}

val ctx_of_launch : ?sizes:(string * int) list -> Gpcc_ast.Ast.launch -> ctx

(** Lower an expression to an affine form, or [None] when it is not
    affine (products of variables, comparisons, loads, ...). *)
val of_expr : ctx -> Gpcc_ast.Ast.expr -> t option

(** One step of {!of_expr}: the form of an expression from its
    children's forms, as [child] gives them ([of_expr ctx e] is the
    fixpoint [of_node ctx (of_expr ctx) e]). A caller that visits every
    node can pass memoized forms and lower each node once. *)
val of_node :
  ctx -> (Gpcc_ast.Ast.expr -> t option) -> Gpcc_ast.Ast.expr -> t option

(** Evaluate an [int] expression to a compile-time constant under the
    context's bindings. *)
val eval_const : ctx -> Gpcc_ast.Ast.expr -> int option

(** Trip count of a loop, when its bounds are compile-time. *)
val loop_trips : ctx -> Gpcc_ast.Ast.loop -> int option

(** Push a loop onto the context (for analyses descending into bodies);
    [None] when its step is not a positive compile-time constant. *)
val enter_loop : ctx -> Gpcc_ast.Ast.loop -> ctx option

(** Record an affine-valued local [int] binding ([int t = idx * 2;]);
    a non-affine right-hand side forgets the name, so no earlier binding
    of it shows through. *)
val enter_let : ctx -> string -> Gpcc_ast.Ast.expr -> ctx

(** Forget every binding of the names: afterwards each reads as an
    unbound [Param]. *)
val forget : ctx -> string list -> ctx

(** Launch-parametric symbolic verifier.

    Verifies race-freedom, array bounds, and barrier uniformity for a
    kernel {e once}, producing a verdict parametric in the launch
    configuration instead of one verdict per [(kernel, launch)] pair.
    The abstraction tracks two symbolic threads [s <> t] of the same
    block with symbolic block dims [(bx, by)]; races are refuted by
    affine disequality over the thread-index difference, bounds by
    interval/guard reasoning, and barrier uniformity by the same
    thread-dependence test the concrete verifier uses.

    Soundness contract (directional): whenever {!decide} answers
    [`Clean] for a launch, the concrete {!Verify.check} reports no
    error-severity diagnostic for that launch. Anything the symbolic
    tier cannot prove degrades to [`Unknown], and callers fall back to
    the concrete verifier — precision can regress, soundness cannot.
    Certain violations (guard-free races, divergent barriers) are
    additionally reported as {!type:violation}s so explore-style
    callers can exclude entire launch families without compiling
    them. *)

(** Launch regions: conjunctions of obligations, each a disjunction of
    inequalities [p <= k] over launch polynomials — polynomials in the
    launch dimensions [bx, by, gx, gy] and in floors of such polynomials
    by constants — evaluated exactly at a concrete launch. *)
module Constraint : sig
  type t

  (** The trivial constraint, true at every launch. *)
  val tt : t

  val holds : Gpcc_ast.Ast.launch -> t -> bool

  (** [holds_at_threads ~threads c] decides [c] when every obligation
      is one inequality over the [bx*by] monomial, substituting
      [threads]; [false] when any mentions another term. *)
  val holds_at_threads : threads:int -> t -> bool

  (** Each obligation once, as [lhs <= k] (or [lhs >= k] when every
      coefficient is negative), joined by [&&]; a disjunction is
      parenthesized and joined by [||]. *)
  val to_string : t -> string
end

type violation = {
  v_when : Constraint.t;  (** fires at launches satisfying this *)
  v_rule : string;  (** a {!Verify} rule id, e.g. [race-shared] *)
  v_path : string;
  v_message : string;
}

type verdict =
  | Proved  (** clean at every launch configuration *)
  | Proved_when of Constraint.t  (** clean where the constraint holds *)
  | Unknown of string  (** could not prove; fall back to {!Verify.check} *)

type result = {
  res_kernel : string;
  verdict : verdict;
  violations : violation list;
}

(** Analyse a kernel once, for all launches, from its {!Walk} ([walk],
    when the caller has made it; it must be the kernel's). Never
    raises: internal failures collapse to [Unknown]. *)
val check : ?walk:Walk.t -> Gpcc_ast.Ast.kernel -> result

(** Decide a concrete launch against a parametric result. [`Errors]
    carries error-severity diagnostics for violations that provably
    fire at this launch; [`Unknown] means the caller must run the
    concrete verifier, and says why: the proof's reason for giving up,
    or the region obligation the launch misses with its value there
    (e.g. [img\[inv + 7 + j\]\[inv_0 + t\]: 255 > 159]). *)
val decide :
  result ->
  Gpcc_ast.Ast.launch ->
  [ `Clean | `Errors of Verify.diagnostic list | `Unknown of string ]

(** [excludes_threads r ~threads] returns the rule id of a violation
    that provably fires at every launch with [block_x * block_y =
    threads], if any — usable to prune explore candidates before
    compilation. *)
val excludes_threads : result -> threads:int -> string option

val verdict_to_string : verdict -> string

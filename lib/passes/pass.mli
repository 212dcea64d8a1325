(** First-class optimization passes: each Figure-1 pipeline stage as a
    record — name, paper section, [applies]/[transform], declared
    analysis dependencies and invalidations — consumed generically by
    the {!Gpcc_core.Pipeline} driver. *)

module Cache = Gpcc_analysis.Analysis_cache

(** Per-compilation context a pass sees. *)
type ctx = {
  cfg : Gpcc_sim.Config.t;  (** target machine description *)
  target_block_threads : int;  (** 128 / 256 / 512 (Section 4.1) *)
  merge_degree : int;  (** threads merged into one: 4 / 8 / 16 / 32 *)
  cache : Cache.t;  (** memoized analyses *)
}

(** Outcome of [applies]: run the transform, or skip with a recorded
    reason. *)
type decision =
  | Applies
  | Declined of string

(** Provided by the pipeline driver: [emit label k l f] runs [f k l] as
    one recorded sub-step (timed, translation-validated when it fires,
    analysis-cache bookkeeping applied) and returns its outcome.

    The driver keeps the outcome and serves it again, without calling
    [f], to a later step of the same pass, label and machine on the same
    input state ([k] and [l] as printed). So [label] must name every
    parameter [f] reads besides [k], [l] and the machine, as in
    ["thread-block merge X x16"] and ["thread merge X x8 (1-D)"]. *)
type emit =
  string ->
  Gpcc_ast.Ast.kernel ->
  Gpcc_ast.Ast.launch ->
  (Gpcc_ast.Ast.kernel -> Gpcc_ast.Ast.launch -> Pass_util.outcome) ->
  Pass_util.outcome

type t = {
  name : string;  (** stable registry id, e.g. ["merge"] *)
  label : string;  (** default human step label *)
  section : string;  (** paper section implemented *)
  summary : string;  (** one line for [--print-pipeline] *)
  uses : Cache.kind list;  (** analyses consulted (served from the cache) *)
  invalidates : Cache.kind list;
      (** analyses a fired transform may change; the rest are carried
          forward to the transformed kernel by the driver *)
  applies : ctx -> Gpcc_ast.Ast.kernel -> Gpcc_ast.Ast.launch -> decision;
  transform :
    ctx ->
    emit ->
    Gpcc_ast.Ast.kernel ->
    Gpcc_ast.Ast.launch ->
    Gpcc_ast.Ast.kernel * Gpcc_ast.Ast.launch;
}

val preserved : t -> Cache.kind list
(** The complement of [invalidates]: analyses carried forward when the
    pass fires. *)

(** The individual passes (see each one's [summary]). *)

val vectorize_wide : t
val vectorize : t
val coalesce : t
val merge : t
val licm : t
val partition_camp : t
val prefetch : t

val registry : t list
(** The Figure-1 pipeline in execution order. The [merge] record
    implements both of Section 3.5's transforms (thread-block merge and
    thread merge). *)

val find : string -> t option
val names : unit -> string list

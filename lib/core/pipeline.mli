(** The declarative pass pipeline: an ordered list of
    {!Gpcc_passes.Pass.t} specs plus the target machine and the
    Section-4 knobs, consumed by one generic driver. Every entry point —
    the library API, [gpcc compile], {!Explore}, the bench harness and
    the staged Figure-12 instrumentation — runs the same {!t} value. *)

open Gpcc_ast

type spec = {
  sp_pass : Gpcc_passes.Pass.t;
  sp_enabled : bool;
}

type t = {
  cfg : Gpcc_sim.Config.t;
  target_block_threads : int;  (** 128 / 256 / 512 (Section 4.1) *)
  merge_degree : int;  (** threads merged into one: 4 / 8 / 16 / 32 *)
  verify : bool;  (** translation validation after every fired pass *)
  specs : spec list;
}

val default :
  ?cfg:Gpcc_sim.Config.t ->
  ?target_block_threads:int ->
  ?merge_degree:int ->
  ?verify:bool ->
  unit ->
  t
(** The full Figure-1 pipeline (every registered pass enabled) for the
    given target. *)

val pass_names : t -> string list
val enabled_names : t -> string list

val disable : string list -> t -> t
(** Disable the named passes, order unchanged. Raises [Invalid_argument]
    on an unknown name, listing the registry. *)

val with_passes : string list -> t -> t
(** Replace the spec list with exactly the named passes, in the given
    order ([gpcc compile --passes]). Raises [Invalid_argument] on an
    unknown name. *)

val describe : t -> string
(** Human-readable pipeline listing ([gpcc compile --print-pipeline]):
    per pass, enablement, paper section and summary. *)

(** One recorded sub-step of a compilation. *)
type step = {
  step_name : string;  (** instance label, e.g. ["thread-block merge X x16"] *)
  pass : string;  (** registry name of the pass that produced it *)
  fired : bool;
  remark : Remark.t;  (** structured remark (reason, metrics, timing) *)
  kernel_after : Ast.kernel;
  launch_after : Ast.launch;
  diagnostics : Gpcc_analysis.Verify.diagnostic list;
}

type result = {
  kernel : Ast.kernel;
  launch : Ast.launch;
  steps : step list;
}

exception Compile_error of string

val validation_prefix : string

val verifier_rejected : exn -> bool
(** Whether an exception is a {!Compile_error} raised by translation
    validation (as opposed to a front-end or internal error). *)

val diagnostics : result -> Gpcc_analysis.Verify.diagnostic list
(** All verifier diagnostics accumulated across the steps. *)

val notes : step -> string list
(** The step's human-readable notes (from its remark). *)

val remarks : result -> Remark.t list

val run : ?pipeline:t -> Ast.kernel -> result
(** Run the pipeline on a parsed naive kernel. Raises {!Compile_error}
    when the thread domain cannot be derived, when translation
    validation rejects a pass result, or when the optimized kernel fails
    the final type check.

    Each domain keeps the outcomes of the sub-steps it computed, the
    most recently used 128 of them, keyed by pass, step label, the whole
    machine description and the input state's
    {!Gpcc_analysis.Analysis_cache.key}. A step found there is not
    transformed again: its outcome (the same physical kernel) is
    validated, recorded and measured as a computed one is, so a result
    does not depend on which steps were served. The input and the final
    kernel are type-checked once per physical state per domain
    ({!Gpcc_analysis.Analysis_cache.typecheck}). *)

val stage_labels : string list

val staged :
  ?cfg:Gpcc_sim.Config.t ->
  ?target_block_threads:int ->
  ?merge_degree:int ->
  Ast.kernel ->
  (string * Ast.kernel * Ast.launch) list
(** Cumulative pipeline prefixes for the paper's Figure 12, derived from
    the step records of a single instrumented {!run} (plus one extra
    prefetch application for the "+prefetching" stage — see the
    implementation notes) instead of six recompiles. *)

val report : result -> string
(** Human-readable compilation report (one line per step, notes
    indented, final launch configuration). *)

val remarks_json : result -> string
(** The whole compilation as one JSON document
    ([gpcc compile --remarks-json]). *)

val pass_timings : unit -> (string * (int * float)) list
(** Cumulative (runs, total wall-clock ms) per pass across every domain
    since start or the last {!reset_pass_timings}. A run is a transform
    the driver executed; a step served from the step table (see {!run})
    is counted by {!served_steps} instead. *)

val reset_pass_timings : unit -> unit

val served_steps : unit -> int
(** Sub-steps served from the step table instead of executed, across
    every domain since start. *)

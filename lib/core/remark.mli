(** Structured per-pass optimization remarks: fired/declined reason,
    before/after kernel-shape metrics, per-pass wall-clock, and the
    pass's human-readable notes. Emitted as JSON by
    [gpcc compile --remarks-json] and folded into the bench output. *)

(** Kernel-shape metrics at a pipeline point. *)
type metrics = {
  regs : int;  (** estimated registers per thread *)
  shared_bytes : int;  (** shared memory per block *)
  threads_per_block : int;
  grid : int * int;
  block : int * int;
}

type t = {
  pass : string;  (** registry pass name, e.g. ["merge"] *)
  step : string;  (** instance label, e.g. ["thread-block merge X x16"] *)
  section : string;  (** paper section the pass implements *)
  fired : bool;
  reason : string;  (** what the pass did, or why it declined *)
  notes : string list;  (** the pass's full human-readable trace *)
  before_m : metrics;
  after_m : metrics;  (** equals [before_m] when the pass did not fire *)
  duration_ms : float;
}

val metrics :
  Gpcc_analysis.Analysis_cache.t ->
  Gpcc_ast.Ast.kernel ->
  Gpcc_ast.Ast.launch ->
  metrics
(** Measure a pipeline point (register/shared estimates served from the
    analysis cache). *)

val json_of_metrics : metrics -> string
val json_of : t -> string
val json_of_list : t list -> string

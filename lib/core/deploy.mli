(** Per-hardware deployment (paper Section 4.2): one empirically selected
    kernel version per machine description. *)

type entry = {
  gpu : Gpcc_sim.Config.t;
  chosen : Explore.candidate;
  alternatives : int;  (** distinct versions considered for this GPU *)
}

type bundle = {
  kernel_name : string;
  entries : entry list;
}

exception No_version of string

val build :
  ?gpus:Gpcc_sim.Config.t list ->
  measure:
    (Gpcc_sim.Config.t -> Gpcc_ast.Ast.kernel -> Gpcc_ast.Ast.launch -> float) ->
  Gpcc_ast.Ast.kernel ->
  bundle

val build_cached :
  ?store:Gpcc_util.Store.t ->
  prefix:string ->
  ?gpus:Gpcc_sim.Config.t list ->
  measure:
    (Gpcc_sim.Config.t -> Gpcc_ast.Ast.kernel -> Gpcc_ast.Ast.launch -> float) ->
  Gpcc_ast.Ast.kernel ->
  bundle
(** [build] memoized through {!Gpcc_util.Store} (the ["bundle"] kind):
    a warm run skips the whole per-hardware search. [prefix] must name
    the measurement context (workload, problem size) — the key also
    embeds the GPU list and the naive kernel text, so any change to
    the kernel or target set invalidates implicitly. [store] defaults
    to the store at {!Gpcc_util.Store.default_root}. *)

val save :
  ?store:Gpcc_util.Store.t ->
  prefix:string ->
  gpus:Gpcc_sim.Config.t list ->
  Gpcc_ast.Ast.kernel ->
  bundle ->
  unit
(** Persist a bundle under the same key [build_cached] would use. *)

val load :
  ?store:Gpcc_util.Store.t ->
  prefix:string ->
  gpus:Gpcc_sim.Config.t list ->
  Gpcc_ast.Ast.kernel ->
  bundle option

(** The version selected for a GPU (by config name); raises
    {!No_version}. *)
val pick : bundle -> string -> Pipeline.result

val describe : bundle -> string

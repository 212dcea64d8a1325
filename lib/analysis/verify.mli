(** Static kernel verifier: translation validation for the pipeline.

    [check] analyzes one kernel at one launch configuration and reports
    diagnostics. Each thread's execution is split into {e barrier
    intervals} at [__syncthreads()] / [__global_sync()]; within one
    interval the per-thread access sets of every shared (and, per block,
    global) array are intersected by concretely enumerating the block's
    lanes over the affine/index machinery of {!Affine}, so two distinct
    threads touching one element with at least one store is a data race.
    Loops whose body contains no barrier contribute a free iteration
    window per access; loops that do contain a barrier keep a frozen
    iteration shared by the whole block, and the wrap-around interval
    (last sub-interval of iteration [k] joined with the first of
    [k+1]) is modeled so a missing trailing barrier is caught.

    Rules reported (severity in parentheses):
    - [race-shared] (error): two threads of a block touch the same
      shared-memory element in one barrier interval, at least one write;
    - [race-global] (error): same, for a global array within one block;
    - [barrier-divergence] (error): [__syncthreads] under
      thread-dependent control flow, or [__global_sync] not at kernel
      top level;
    - [oob-shared] / [oob-global] (error): an enumerated thread
      provably indexes outside the declared (padded) array shape;
    - [oob-unproven] (warning): an index could be neither proven
      in-bounds by the strided-interval analysis nor refuted by a
      concrete witness;
    - [bank-conflict] (warning): a shared access serializes the first
      half-warp across banks;
    - [noncoalesced] (warning): a global access fails the
      {!Coalesce_check} coalescing rules.

    Known limits (lint-grade, by design): races between threads of
    different blocks are not checked, iteration windows are capped (the
    paper's period-16 argument makes small windows representative), and
    accesses whose index cannot be evaluated are skipped by the race
    check (the bounds check still reports them as [oob-unproven]). *)

type severity =
  | Error
  | Warning

type diagnostic = {
  severity : severity;
  rule : string;  (** rule id, e.g. ["race-shared"] *)
  kernel : string;  (** kernel name *)
  path : string;  (** statement path, e.g. ["for(i)/if(tidx < 16)"] *)
  message : string;
}

val rule_race_shared : string
val rule_race_global : string
val rule_barrier_divergence : string
val rule_oob_shared : string
val rule_oob_global : string
val rule_oob_unproven : string
val rule_bank_conflict : string
val rule_noncoalesced : string

(** Warning emitted when the race check truncated the lane enumeration
    ([block_x * block_y > max_lanes]) and the verdict for this launch
    is therefore incomplete. *)
val rule_verify_incomplete : string

(** The [barrier-divergence] message for a barrier of this kind. *)
val barrier_message : [ `Sync | `Global_sync ] -> string

(** Verify a kernel at a launch configuration. [max_lanes] caps the
    per-block thread enumeration (default 512). Diagnostics are
    deduplicated and sorted errors-first. *)
val check :
  ?max_lanes:int -> launch:Gpcc_ast.Ast.launch -> Gpcc_ast.Ast.kernel -> diagnostic list

(** {1 One walk per kernel text}

    A plan is one kernel text's {!Walk}, prepared once for checking it
    at any launch: its distinct accesses, grouped into replicas (same
    path, guards, loop frames and bindings, indices equal up to
    constants, as thread merging leaves them). At a launch, the
    contexts are derived from the walk ({!Walk.contexts}) and each loop
    frame is ranged once; a replica group's bounds are ranged once
    while its extreme members fit, and its bank degree once, since a
    constant shift only permutes the banks. The results are those of
    checking every member on its own. *)

type plan

(** Walk and plan a kernel text. *)
val plan : Gpcc_ast.Ast.kernel -> plan

val plan_walk : plan -> Walk.t

(** The plan with every distinct access a replica group of its own, so
    that each is ranged and bank-checked on its own: the reference the
    grouped evaluation must equal. *)
val singletons : plan -> plan

(** {!check} from a plan, with the kernel's access table at the launch
    ({!Coalesce_check.analyze_kernel}'s value), read off the same walk. *)
val check_plan :
  ?max_lanes:int ->
  plan ->
  launch:Gpcc_ast.Ast.launch ->
  diagnostic list * Coalesce_check.access list

(** What a check adds to a launch the race search need not visit: the
    barrier diagnostics and the warning phase (bounds, bank conflicts,
    coalescing) of {!check_plan}, without the race search and its
    [verify-incomplete] warning. Equal to [check ~max_lanes:1] without
    that warning. *)
val lint :
  plan ->
  launch:Gpcc_ast.Ast.launch ->
  diagnostic list * Coalesce_check.access list

(** The access table at a launch ({!Coalesce_check.analyze_kernel}'s
    value) from a plan's walk. *)
val table : plan -> launch:Gpcc_ast.Ast.launch -> Coalesce_check.access list

val errors : diagnostic list -> diagnostic list
val warnings : diagnostic list -> diagnostic list

(** No error-severity diagnostics ([warnings] are fine). *)
val is_clean : diagnostic list -> bool

val severity_to_string : severity -> string
val to_string : diagnostic -> string

(** One diagnostic as a JSON object (keys [severity], [rule], [kernel],
    [path], [message]). *)
val json_escape : string -> string
(** Escape a string for embedding in a JSON string literal. *)

val json_of_diagnostic : diagnostic -> string

(** A JSON array of diagnostics. *)
val json_of_diagnostics : diagnostic list -> string

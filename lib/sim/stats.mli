(** Execution statistics gathered by the interpreter (float-valued so
    sampled-block scaling stays exact). *)

type t = {
  mutable warp_insts : float;  (** dynamic instructions, per warp *)
  mutable flops : float;  (** per-lane floating-point operations *)
  mutable gld_tx : float;  (** global load transactions *)
  mutable gst_tx : float;
  mutable gld_bytes : float;
  mutable gst_bytes : float;
  mutable cost_bytes : float;
      (** bytes derated by width-dependent bandwidth efficiency *)
  mutable gld_requests : float;  (** half-warp load requests *)
  mutable gst_requests : float;
  mutable shared_ops : float;
  mutable bank_extra : float;  (** extra cycles from bank conflicts *)
  mutable syncs : float;
  mutable divergent_branches : float;
  mutable loads_in_flight : float;  (** memory-level-parallelism proxy *)
}

val create : unit -> t
val global_bytes : t -> float

val add_global : t -> is_store:bool -> weff:float -> int -> int -> unit
(** [add_global t ~is_store ~weff ntx bytes] adds one half-warp global
    request of [ntx] transactions and [bytes] bytes, charging
    [bytes /. weff] to [cost_bytes]. *)

val add_shared : t -> int -> unit
(** Adds one half-warp shared request of the given serialized cost. *)
val scale : float -> t -> t
val add : t -> t -> unit

val fields : t -> (string * float) list
(** Every counter as a (name, value) pair, in declaration order — the
    canonical enumeration used by differential tests and bench output. *)

val to_string : t -> string

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
val scale : float -> t -> t
val add : t -> t -> unit

val fields : t -> (string * float) list
(** Every counter as a (name, value) pair, in declaration order — the
    canonical enumeration used by differential tests and bench output. *)

val to_string : t -> string

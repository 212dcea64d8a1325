(** Execution statistics gathered by the interpreter.

    Counters are floats so that scaled (sampled-block) statistics do not
    overflow and average cleanly. *)

type t = {
  mutable warp_insts : float;  (** dynamic instructions, per warp *)
  mutable flops : float;  (** per-lane floating-point operations *)
  mutable gld_tx : float;  (** global load transactions *)
  mutable gst_tx : float;
  mutable gld_bytes : float;
  mutable gst_bytes : float;
  mutable cost_bytes : float;
      (** bytes derated by the width-dependent sustained-bandwidth
          efficiency: what the memory system effectively charges *)
  mutable gld_requests : float;  (** half-warp load requests *)
  mutable gst_requests : float;
  mutable shared_ops : float;  (** shared accesses after conflict serialization *)
  mutable bank_extra : float;  (** extra cycles from bank conflicts *)
  mutable syncs : float;
  mutable divergent_branches : float;
  mutable loads_in_flight : float;
      (** distinct global-load sites in the innermost loops; proxy for
          memory-level parallelism *)
}

let create () =
  {
    warp_insts = 0.;
    flops = 0.;
    gld_tx = 0.;
    gst_tx = 0.;
    gld_bytes = 0.;
    gst_bytes = 0.;
    cost_bytes = 0.;
    gld_requests = 0.;
    gst_requests = 0.;
    shared_ops = 0.;
    bank_extra = 0.;
    syncs = 0.;
    divergent_branches = 0.;
    loads_in_flight = 1.;
  }

let global_bytes t = t.gld_bytes +. t.gst_bytes

let scale k t =
  {
    warp_insts = t.warp_insts *. k;
    flops = t.flops *. k;
    gld_tx = t.gld_tx *. k;
    gst_tx = t.gst_tx *. k;
    gld_bytes = t.gld_bytes *. k;
    gst_bytes = t.gst_bytes *. k;
    cost_bytes = t.cost_bytes *. k;
    gld_requests = t.gld_requests *. k;
    gst_requests = t.gst_requests *. k;
    shared_ops = t.shared_ops *. k;
    bank_extra = t.bank_extra *. k;
    syncs = t.syncs *. k;
    divergent_branches = t.divergent_branches *. k;
    loads_in_flight = t.loads_in_flight;
  }

let add into t =
  into.warp_insts <- into.warp_insts +. t.warp_insts;
  into.flops <- into.flops +. t.flops;
  into.gld_tx <- into.gld_tx +. t.gld_tx;
  into.gst_tx <- into.gst_tx +. t.gst_tx;
  into.gld_bytes <- into.gld_bytes +. t.gld_bytes;
  into.gst_bytes <- into.gst_bytes +. t.gst_bytes;
  into.cost_bytes <- into.cost_bytes +. t.cost_bytes;
  into.gld_requests <- into.gld_requests +. t.gld_requests;
  into.gst_requests <- into.gst_requests +. t.gst_requests;
  into.shared_ops <- into.shared_ops +. t.shared_ops;
  into.bank_extra <- into.bank_extra +. t.bank_extra;
  into.syncs <- into.syncs +. t.syncs;
  into.divergent_branches <- into.divergent_branches +. t.divergent_branches;
  into.loads_in_flight <- Float.max into.loads_in_flight t.loads_in_flight

(* the canonical field enumeration: differential tests compare backends
   field by field, and bench tooling prints from the same list so a new
   counter cannot be added to [t] without showing up everywhere *)
let fields t =
  [
    ("warp_insts", t.warp_insts);
    ("flops", t.flops);
    ("gld_tx", t.gld_tx);
    ("gst_tx", t.gst_tx);
    ("gld_bytes", t.gld_bytes);
    ("gst_bytes", t.gst_bytes);
    ("cost_bytes", t.cost_bytes);
    ("gld_requests", t.gld_requests);
    ("gst_requests", t.gst_requests);
    ("shared_ops", t.shared_ops);
    ("bank_extra", t.bank_extra);
    ("syncs", t.syncs);
    ("divergent_branches", t.divergent_branches);
    ("loads_in_flight", t.loads_in_flight);
  ]

let to_string t =
  Printf.sprintf
    "insts=%.0f flops=%.0f gld(tx=%.0f B=%.0f) gst(tx=%.0f B=%.0f) shared=%.0f+%.0f syncs=%.0f div=%.0f"
    t.warp_insts t.flops t.gld_tx t.gld_bytes t.gst_tx t.gst_bytes t.shared_ops
    t.bank_extra t.syncs t.divergent_branches

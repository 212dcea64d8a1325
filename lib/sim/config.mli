(** GPU machine descriptions: exactly the parameters the paper's
    optimizations react to (register file, shared memory and its banks,
    warp widths, coalescing rules, memory partitions, clocks and
    bandwidth). *)

type coalesce_rules =
  | Strict_g80  (** thread k must access word k of an aligned segment *)
  | Relaxed_gt200  (** one transaction per distinct aligned segment *)

val equal_coalesce_rules : coalesce_rules -> coalesce_rules -> bool

type t = {
  name : string;
  num_sms : int;
  sps_per_sm : int;
  registers_per_sm : int;  (** 32-bit registers *)
  shared_bytes_per_sm : int;
  max_threads_per_sm : int;
  max_blocks_per_sm : int;
  max_threads_per_block : int;
  warp_size : int;
      (** threads per warp, for occupancy and issue rate; every model
          forms its global and shared requests per 16-lane half warp
          ([Coalescer.form], [Coalescer.bank_cost]), the HD 5870's
          64-wide warps included *)
  shared_banks : int;
  num_partitions : int;
  partition_bytes : int;
  mem_latency_cycles : int;
  core_clock_ghz : float;
  mem_bandwidth_gbs : float;
  coalesce_rules : coalesce_rules;
  min_transaction_bytes : int;
  bw_efficiency_8b : float;
      (** sustained-bandwidth ratio of 8-byte accesses vs 4-byte ones *)
  bw_efficiency_16b : float;
  prefer_wide_vectors : bool;
      (** AMD-style target: vectorize aggressively (paper Section 3.1) *)
}

val show : t -> string

(** NVIDIA GeForce 8800 GTX (G80): 16 SMs, 32 kB registers/SM, 6
    partitions, strict coalescing. *)
val gtx8800 : t

(** NVIDIA GeForce GTX 280 (GT200): 30 SMs, 64 kB registers/SM, 8
    partitions, relaxed coalescing. *)
val gtx280 : t

(** ATI/AMD Radeon HD 5870: wide vector accesses pay (71/98/101 GB/s for
    float/float2/float4); compute modeled coarsely. *)
val hd5870 : t

val width_eff : t -> elt_bytes:int -> float
(** The sustained-bandwidth ratio of an [elt_bytes]-wide access: its
    bytes are charged to [Stats.cost_bytes] divided by this. *)

val by_name : string -> t option

(** GPU machine descriptions.

    The paper tunes per hardware generation ("the compiler generates
    different versions of optimized code based on different machine
    descriptions"); these records carry exactly the parameters its
    optimizations react to: register file and shared-memory capacities
    (occupancy), warp/half-warp widths and coalescing rules (Section 2a),
    shared-memory banks (2b), resource limits (2c), and the number and
    width of off-chip memory partitions (2d). *)

type coalesce_rules =
  | Strict_g80  (** base aligned to 16 words, thread k must access word k *)
  | Relaxed_gt200  (** one transaction per distinct aligned segment *)
[@@deriving show { with_path = false }, eq]

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
  shared_banks : int;
  num_partitions : int;
  partition_bytes : int;
  mem_latency_cycles : int;
  core_clock_ghz : float;  (** SP (shader) clock *)
  mem_bandwidth_gbs : float;  (** peak off-chip bandwidth *)
  coalesce_rules : coalesce_rules;
  min_transaction_bytes : int;
      (** smallest off-chip transaction; uncoalesced accesses each pay this *)
  bw_efficiency_8b : float;
      (** sustained-bandwidth ratio of 8-byte (float2) accesses relative to
          4-byte ones (paper Section 2a: 101/98 on GTX 280, 98/71 on the
          HD 5870) *)
  bw_efficiency_16b : float;  (** likewise for 16-byte (float4) accesses *)
  prefer_wide_vectors : bool;
      (** AMD-style target: vectorize aggressively, grouping neighboring
          work items into float2/float4 accesses (paper Section 3.1) *)
}
[@@deriving show { with_path = false }]

(** NVIDIA GeForce 8800 GTX (G80): 16 SMs, 32 kB register file per SM,
    6 memory partitions. *)
let gtx8800 =
  {
    name = "GTX8800";
    num_sms = 16;
    sps_per_sm = 8;
    registers_per_sm = 8192;
    shared_bytes_per_sm = 16 * 1024;
    max_threads_per_sm = 768;
    max_blocks_per_sm = 8;
    max_threads_per_block = 512;
    warp_size = 32;
    shared_banks = 16;
    num_partitions = 6;
    partition_bytes = 256;
    mem_latency_cycles = 500;
    core_clock_ghz = 1.35;
    mem_bandwidth_gbs = 86.4;
    coalesce_rules = Strict_g80;
    min_transaction_bytes = 32;
    bw_efficiency_8b = 1.0;
    bw_efficiency_16b = 0.8;
    prefer_wide_vectors = false;
  }

(** NVIDIA GeForce GTX 280 (GT200): 30 SMs, 64 kB register file per SM,
    8 memory partitions, relaxed coalescing. *)
let gtx280 =
  {
    name = "GTX280";
    num_sms = 30;
    sps_per_sm = 8;
    registers_per_sm = 16384;
    shared_bytes_per_sm = 16 * 1024;
    max_threads_per_sm = 1024;
    max_blocks_per_sm = 8;
    max_threads_per_block = 512;
    warp_size = 32;
    shared_banks = 16;
    num_partitions = 8;
    partition_bytes = 256;
    mem_latency_cycles = 450;
    core_clock_ghz = 1.296;
    mem_bandwidth_gbs = 141.7;
    coalesce_rules = Relaxed_gt200;
    min_transaction_bytes = 32;
    bw_efficiency_8b = 101.0 /. 98.0;
    bw_efficiency_16b = 79.0 /. 98.0;
    prefer_wide_vectors = false;
  }

(** ATI/AMD Radeon HD 5870 (Cypress), the paper's Section 2a example of a
    GPU whose sustained bandwidth rewards wide vector accesses (71, 98 and
    101 GB/s for float, float2, float4). VLIW compute is approximated
    coarsely — this model is used for the bandwidth-shape experiments the
    paper motivates, not for compute-bound kernels. *)
let hd5870 =
  {
    name = "HD5870";
    num_sms = 20;
    sps_per_sm = 16;
    registers_per_sm = 16384;
    shared_bytes_per_sm = 32 * 1024;
    max_threads_per_sm = 1024;
    max_blocks_per_sm = 8;
    max_threads_per_block = 256;
    warp_size = 64;
    shared_banks = 32;
    num_partitions = 8;
    partition_bytes = 256;
    mem_latency_cycles = 500;
    core_clock_ghz = 0.85;
    mem_bandwidth_gbs = 71.0;
    coalesce_rules = Relaxed_gt200;
    min_transaction_bytes = 32;
    bw_efficiency_8b = 98.0 /. 71.0;
    bw_efficiency_16b = 101.0 /. 71.0;
    prefer_wide_vectors = true;
  }

let width_eff (t : t) ~(elt_bytes : int) =
  if elt_bytes >= 16 then t.bw_efficiency_16b
  else if elt_bytes >= 8 then t.bw_efficiency_8b
  else 1.0

let by_name = function
  | "GTX8800" | "gtx8800" | "8800" -> Some gtx8800
  | "GTX280" | "gtx280" | "280" -> Some gtx280
  | "HD5870" | "hd5870" | "5870" -> Some hd5870
  | _ -> None

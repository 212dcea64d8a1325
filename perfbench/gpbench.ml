(* The gpcc benchmark's measuring process. [run.py] starts one process per
   phase and aggregates their result files; see README.md for the
   workloads, metrics and layer attribution.

     gpbench record                      exhaustive jobs=1 winners (TSV)
     gpbench compile  --seed N --out F   one cold 360-compile sweep
     gpbench explore  --seed N --out F --phase cold|warm
     gpbench simulate --seed N --out F --seconds S

   [--trace-out F] turns on span recording and writes Chrome trace JSON.
   Every mode refuses to run without GPCC_CACHE_DIR, so the repository's
   own artifact store is never touched. *)

open Gpcc_ast
open Gpcc_workloads
module L = Gpcc_sim.Launch
module AC = Gpcc_analysis.Analysis_cache
module Pipeline = Gpcc_core.Pipeline
module Explore = Gpcc_core.Explore
module Store = Gpcc_util.Store

let t_start = Unix.gettimeofday ()
let now = Unix.gettimeofday
let cfg = Gpcc_sim.Config.gtx280

(* compile-cold is serial by design; explore and simulate ask for two
   busy domains, capped at one less than the machine has: on a two-vCPU
   VM, keeping both vCPUs busy for minutes gets the VM throttled by its
   host (up to 90% of the time stolen), and every figure with it *)
let jobs_requested = ref 2
let jobs = ref 1

(* ------------------------------------------------------------------ *)
(* Kernels and sizes                                                   *)
(* ------------------------------------------------------------------ *)

let all_kernels = List.map (fun (w : Workload.t) -> w.name) (Registry.all @ Registry.extras)

let explore_kernels =
  [ "mm"; "conv"; "strsm"; "tmv"; "mv"; "tp"; "demosaic"; "imregionmax"; "rd"; "fft" ]

(* problem sizes for [record]; the other modes read them back from the
   recorded winners file so sizes and winners cannot drift apart *)
let default_sizes =
  [
    ("tmv", 128); ("mm", 128); ("mv", 128); ("vv", 4096); ("rd", 131072);
    ("strsm", 128); ("conv", 128); ("tp", 128); ("demosaic", 128);
    ("imregionmax", 128); ("rd-complex", 131072); ("fft", 2048);
  ]

type recorded = { r_n : int; r_target : int; r_degree : int }

let read_winners path : (string * recorded) list =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | exception End_of_file ->
        close_in ic;
        List.rev acc
    | line when String.length line = 0 || line.[0] = '#' -> go acc
    | line ->
        Scanf.sscanf line "%s %d %d %d %_f" (fun name n t d ->
            go ((name, { r_n = n; r_target = t; r_degree = d }) :: acc))
  in
  go []

(* A fixed permutation of [xs] drawn from the seed: the seed decides the
   order kernels and kernel versions are submitted in. *)
let shuffle seed xs =
  let st = Random.State.make [| seed; 0x9e3779b9 |] in
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Input arrays with the names and lengths of [Workload.inputs], drawn
   from the seed instead of the workload's fixed seeds. *)
let seeded_inputs seed (w : Workload.t) n =
  List.mapi
    (fun i (name, a) ->
      (name, Workload.gen ~seed:((seed * 7919) + (i * 104729) + Hashtbl.hash w.name) (Array.length a)))
    (w.inputs n)

(* ------------------------------------------------------------------ *)
(* Counters                                                             *)
(* ------------------------------------------------------------------ *)

let lock = Mutex.create ()

let passes_busy () =
  List.fold_left
    (fun acc (_, (_, ms)) -> acc +. (ms /. 1000.0))
    0.0 (Pipeline.pass_timings ())

let lib_counters () =
  [ ("passes", passes_busy ()); ("verify", AC.global_verify_wall_clock_s ()) ]

let predict_calls = Atomic.make 0
let predict_s = ref 0.0
let measure_partial_s = ref 0.0
let measure_full_s = ref 0.0
let sim_blocks = Atomic.make 0
let sim_launches = Atomic.make 0
let rejected = Atomic.make 0
let distinct = ref 0
let pruned = ref 0
let partial = ref 0
let measured = ref 0
let fired : (string, int) Hashtbl.t = Hashtbl.create 8
let failures : string list ref = ref []
let attempted = ref 0
let fail msg = Mutex.protect lock (fun () -> failures := msg :: !failures)

let count_fired (r : Pipeline.result) =
  List.iter
    (fun (s : Pipeline.step) ->
      if s.fired then
        Hashtbl.replace fired s.pass
          (1 + Option.value ~default:0 (Hashtbl.find_opt fired s.pass)))
    r.steps

(* ------------------------------------------------------------------ *)
(* Host-speed meter                                                     *)
(* ------------------------------------------------------------------ *)

(* A vCPU of a shared host is slowed in two ways. The host deschedules
   it: stolen time, which grows the work's wall time but not its CPU
   time (a cold explore phase took 17.1 s or 20.2 s of wall time for the
   same 17.3 s of CPU). And while it runs, its speed flips between two
   values about 1.6x apart many times a second (a fixed loop takes 16 ms
   or 27 ms), how often changing over minutes. Raw wall times of
   identical work spread by a third between runs. The meter therefore
   counts the work's CPU seconds, summed over domains, and samples the
   host's speed with a fixed probe: before the work, every [interval]
   seconds at points where only the main domain is busy, and after it.
   A metered time is the work's CPU seconds times [probe_ref_s] over the
   mean CPU time of all the process's probes: CPU seconds at the host
   speed at which the probe takes [probe_ref_s]. The mean, because the
   probes' CPU times are a mix of the two speeds in the share of time
   the host ran at each, which is what the work's CPU time is too (the
   median jumps from one speed to the other when the shares are near
   even); all the probes, not those next to one round of work, because a
   round's few probes spread more than the host's speed moves within one
   process. Probe time is not work time. *)

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let probe_ref_s = 0.015
let interval = 0.25
let probe_data = lazy (Array.init 2_048 (fun i -> float_of_int (i land 1023)))

module SM = Map.Make (String)

(* Fixed work that uses nothing of gpcc, so no change to the library
   moves it. Half of it is what the compiler does most (a string-keyed
   map and hash table, a list sort: allocation and pointer chasing), half
   what the simulator does most (a float loop). The loop walks a 16 KiB
   array in order: a strided walk over a larger one ran up to 35% faster
   or slower from one process to the next with the host steady, most
   likely with the cache sets its pages mapped to. The probe starts on an empty minor heap, so
   collections inside it only ever see the probe's own young data. *)
let probe () =
  let acc = ref 0 in
  for _ = 1 to 4 do
    let n = 700 in
    let h = Hashtbl.create 64 and m = ref SM.empty in
    for i = 0 to n - 1 do
      let k = "k" ^ string_of_int (i * 7919 mod 1_999) in
      Hashtbl.replace h k i;
      m := SM.add k i !m
    done;
    for i = 0 to (2 * n) - 1 do
      let k = "k" ^ string_of_int i in
      (match Hashtbl.find_opt h k with Some v -> acc := !acc + v | None -> ());
      match SM.find_opt k !m with Some v -> acc := !acc - v | None -> incr acc
    done;
    let l = List.init 1_500 (fun i -> (i * 48271) mod 65_537) in
    acc := !acc + List.hd (List.sort compare l)
  done;
  let a = Lazy.force probe_data and x = ref 0.0 in
  for r = 1 to 1_000 do
    for i = 0 to Array.length a - 1 do
      x := !x +. (a.(i) *. 1.0000001) +. float_of_int r
    done
  done;
  ignore (Sys.opaque_identity (!acc, !x))

(* process CPU seconds, all domains (getrusage: precise, and excluding
   the time the host stole) *)
let cpu () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime

type meter = {
  mutable on : bool;
  mutable since : float;  (** wall start of the open stretch of work *)
  mutable since_cpu : float;  (** its CPU start *)
  mutable wall : float;  (** wall seconds of the closed stretches *)
  mutable busy : float;  (** their CPU seconds *)
  mutable probes : float list;  (** CPU seconds of every probe of the process *)
}

let meter = { on = false; since = 0.0; since_cpu = 0.0; wall = 0.0; busy = 0.0; probes = [] }

let open_stretch () =
  meter.since <- now ();
  meter.since_cpu <- cpu ()

let timed_probe () =
  Spans.with_span ~layer:"bench" "probe" (fun () ->
      Gc.minor ();
      let c0 = cpu () in
      probe ();
      let d = cpu () -. c0 in
      meter.probes <- d :: meter.probes)

let meter_start () =
  timed_probe ();
  meter.wall <- 0.0;
  meter.busy <- 0.0;
  meter.on <- true;
  open_stretch ()

let close_stretch () =
  meter.wall <- meter.wall +. (now () -. meter.since);
  meter.busy <- meter.busy +. (cpu () -. meter.since_cpu);
  timed_probe ();
  open_stretch ()

(* Called between operations; probes only on the main domain, which is
   then the only busy one (with more effective jobs, the funnel's closures
   run on worker domains and never probe). *)
let checkpoint () =
  if meter.on && Domain.is_main_domain () && now () -. meter.since >= interval then
    close_stretch ()

(* The wall and the CPU seconds since [meter_start]. *)
let meter_stop () =
  close_stretch ();
  meter.on <- false;
  (meter.wall, meter.busy)

let metered f =
  meter_start ();
  let v = f () in
  (v, snd (meter_stop ()))

let mean_probe () =
  List.fold_left ( +. ) 0.0 meter.probes /. float_of_int (List.length meter.probes)

(* CPU seconds to metered seconds; once the process's work is done *)
let scale busy = busy *. probe_ref_s /. mean_probe ()

(* ------------------------------------------------------------------ *)
(* Calls into the layers, each bracketed by a span                      *)
(* ------------------------------------------------------------------ *)

let parsed = Atomic.make 0

let parse (w : Workload.t) n =
  Atomic.incr parsed;
  Spans.with_span ~layer:"ast" "parse" (fun () -> Workload.parse w n)

let compile ~target ~degree k =
  Spans.with_span ~layer:"passes" ~counters:lib_counters "compile" (fun () ->
      Pipeline.run
        ~pipeline:
          (Pipeline.default ~cfg ~target_block_threads:target
             ~merge_degree:degree ())
        k)

let upload k inputs =
  Spans.with_span ~layer:"sim.devmem" "upload" (fun () ->
      let mem = Gpcc_sim.Devmem.of_kernel k in
      List.iter
        (fun (name, data) ->
          if Gpcc_sim.Devmem.find mem name <> None then
            Gpcc_sim.Devmem.write mem name data)
        inputs;
      mem)

let launch ?(lanes = 1) ?jobs ?block_budget ~mode ?streams name k l mem =
  let r =
    Spans.with_span ~layer:"sim" ~lanes name (fun () ->
        L.run ~mode ?streams ?jobs ?block_budget cfg k l mem)
  in
  Atomic.incr sim_launches;
  ignore (Atomic.fetch_and_add sim_blocks r.sampled_blocks);
  r

let ops : float list ref = ref []

(* Time one operation, from any domain: its wall milliseconds become an
   [op_ms] sample and its seconds are added to [into], when given. *)
let op ?into f =
  let t0 = now () in
  let v = f () in
  let dt = now () -. t0 in
  Mutex.protect lock (fun () ->
      ops := (dt *. 1000.0) :: !ops;
      Option.iter (fun r -> r := !r +. dt) into);
  v

(* the funnel's stage-1 probe: one block through the cost model *)
let predict inputs k l =
  checkpoint ();
  Atomic.incr predict_calls;
  op ~into:predict_s @@ fun () ->
    Spans.with_span ~layer:"cost_model" "predict" (fun () ->
        let mem = upload k inputs in
        let r =
          Spans.with_span ~layer:"sim" "run_block" (fun () ->
              L.run_block cfg k l mem)
        in
        Atomic.incr sim_launches;
        ignore (Atomic.fetch_and_add sim_blocks r.sampled_blocks);
        let t = r.timing in
        let occ = t.occupancy in
        (Gpcc_analysis.Cost_model.predict
           {
             p_gflops = t.gflops;
             p_bound = t.bound;
             p_active_warps = occ.active_warps;
             p_blocks_per_sm = occ.blocks_per_sm;
             p_reg_spill = occ.reg_spill;
             p_waves = t.waves;
             p_total_blocks = Ast.total_blocks l;
           })
          .score)

(* the funnel's measurement, with nested simulation kept serial
   ([~jobs:1]) so busy domains never exceed the funnel's own jobs *)
let measure inputs ?blocks k l =
  checkpoint ();
  let into = if blocks = None then measure_full_s else measure_partial_s in
  let r =
    op ~into @@ fun () ->
    Spans.with_span ~layer:"sim" "measure" (fun () ->
        let mem = upload k inputs in
        L.run ~mode:(L.Sampled 1) ~streams:3 ~jobs:1 ?block_budget:blocks cfg k l mem)
  in
  Atomic.incr sim_launches;
  ignore (Atomic.fetch_and_add sim_blocks r.sampled_blocks);
  r.timing.gflops

(* ------------------------------------------------------------------ *)
(* Lazy set-up, finished on the main domain                             *)
(* ------------------------------------------------------------------ *)

(* Forces, on the main domain, the module-level lazy values that worker
   domains would otherwise race to force first: [Launch.shared_pool]
   (one parallel run), [Analysis_cache.symverify_enabled] and
   [store_handle] (one verification) and [Store.random_suffix] (one
   store write, into a throwaway root under the temp directory). Forcing
   them concurrently from two domains raises [CamlinternalLazy.Undefined]
   in the library. *)
let finish_lazy_setup () =
  let src =
    "#pragma gpcc output b\n\
     __kernel void perfbench_warmup(float a[1024], float b[1024]) {\n\
    \  b[idx] = a[idx] + 1.0;\n\
     }\n"
  in
  let k = Parser.kernel_of_string src in
  Typecheck.check k;
  let l = Option.get (Gpcc_passes.Pass_util.naive_launch k) in
  ignore (L.run ~mode:L.Full cfg k l (Gpcc_sim.Devmem.of_kernel k));
  ignore (AC.verify_sym (AC.domain ()) ~launch:l k);
  let kind =
    Store.make_kind ~name:"warmup" ~version:"1" ~encode:Fun.id
      ~decode:Option.some
  in
  let root = Filename.concat (Filename.get_temp_dir_name ()) "perfbench-warmup" in
  Store.store (Store.open_root ~root ~auto_gc:false ()) kind ~key:"warmup" "warmup"

(* ------------------------------------------------------------------ *)
(* Output checks                                                        *)
(* ------------------------------------------------------------------ *)

let reference (w : Workload.t) n inputs =
  Spans.with_span ~layer:"bench" "reference" (fun () ->
      w.reference n (fun name -> List.assoc name inputs))

(* Compare device outputs with the CPU reference, with the tolerance
   rule of [Workload.check]; a mismatch is a failure. *)
let outputs_match ~what (w : Workload.t) expected mem =
  Spans.with_span ~layer:"bench" "compare" (fun () ->
      List.iter
        (fun (name, want) ->
          let got = Gpcc_sim.Devmem.read mem name in
          let close i wi =
            Float.abs (got.(i) -. wi) <= w.tolerance *. Float.max 1.0 (Float.abs wi)
          in
          let ok = ref (Array.length got = Array.length want) in
          if !ok then Array.iteri (fun i wi -> if not (close i wi) then ok := false) want;
          if not !ok then
            fail (Printf.sprintf "%s: output %s differs from the CPU reference" what name))
        expected)

let geomean xs =
  match List.filter (fun x -> x > 0.0) xs with
  | [] -> 0.0
  | xs ->
      exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int (List.length xs))

(* The repeatable part of set-up, run [reps] times: its median CPU
   time is the reported set-up time, so one slow repetition does not
   move it. *)
let repeated_setup ?(reps = 5) f =
  let runs = List.init reps (fun _ -> metered f) in
  (fst (List.hd runs), median (List.map snd runs))

(* ------------------------------------------------------------------ *)
(* Direct verifier calls (traced runs): the symbolic/concrete split      *)
(* ------------------------------------------------------------------ *)

let verify_targets : (string, Ast.kernel * Ast.launch) Hashtbl.t = Hashtbl.create 256

let note_verify_targets (naive : Ast.kernel) (r : Pipeline.result) =
  if !Spans.enabled then begin
    let add k l = Hashtbl.replace verify_targets (AC.key k l) (k, l) in
    (match Gpcc_passes.Pass_util.initial_launch naive with
    | Some l -> add naive l
    | None -> ());
    List.iter
      (fun (s : Pipeline.step) -> if s.fired then add s.kernel_after s.launch_after)
      r.steps
  end

(* Re-verify every distinct (kernel, launch) the run validated, calling
   [Symverify.check] once per kernel text and [Verify.check] wherever the
   symbolic verdict does not decide the launch. Runs after the
   attributed wall, so it does not count against it. *)
let split_verify () =
  let sym_s = ref 0.0 and conc_s = ref 0.0 in
  let sym = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ (k, l) ->
      let text = Pp.kernel_to_string k in
      let res =
        match Hashtbl.find_opt sym text with
        | Some r -> r
        | None ->
            let t0 = now () in
            let r = Gpcc_analysis.Symverify.check k in
            sym_s := !sym_s +. (now () -. t0);
            Hashtbl.replace sym text r;
            r
      in
      match Gpcc_analysis.Symverify.decide res l with
      | `Clean -> ()
      | `Errors _ | `Unknown _ ->
          let t0 = now () in
          ignore (Gpcc_analysis.Verify.check ~launch:l k);
          conc_s := !conc_s +. (now () -. t0))
    verify_targets;
  (!sym_s, !conc_s)

(* ------------------------------------------------------------------ *)
(* Result file                                                          *)
(* ------------------------------------------------------------------ *)

type j = F of float | I of int | S of string | L of j list | O of (string * j) list

let rec to_json = function
  | F f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | F _ -> "null"
  | I i -> string_of_int i
  | S s -> Spans.json_string s
  | L xs -> "[" ^ String.concat "," (List.map to_json xs) ^ "]"
  | O kv ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Spans.json_string k ^ ":" ^ to_json v) kv)
      ^ "}"

type snapshot = {
  s_pc : L.perf_counters;
  s_ac_hits : int;
  s_ac_misses : int;
  s_proofs : int;
  s_fallbacks : int;
  s_store_hits : int;
  s_store_misses : int;
  s_contention : int;
}

let snapshot () =
  {
    s_pc = L.perf_counters ();
    s_ac_hits = AC.global_hits ();
    s_ac_misses = AC.global_misses ();
    s_proofs = AC.global_symbolic_proofs ();
    s_fallbacks = AC.global_concrete_fallbacks ();
    s_store_hits = Store.global_hits ();
    s_store_misses = Store.global_misses ();
    s_contention = Store.global_lock_contention ();
  }

(* Per-layer counters accrued since [s0], and the span-derived busy
   seconds per layer (all 0 unless tracing). *)
let layer_fields ~s0 ~wall =
  let s1 = snapshot () in
  let pc0 = s0.s_pc and pc1 = s1.s_pc in
  let passes =
    List.concat_map
      (fun (p : Gpcc_passes.Pass.t) ->
        let runs, ms =
          Option.value ~default:(0, 0.0)
            (List.assoc_opt p.name (Pipeline.pass_timings ()))
        in
        [
          (Printf.sprintf "passes.%s.s" p.name, F (ms /. 1000.0));
          (Printf.sprintf "passes.%s.runs" p.name, I runs);
          ( Printf.sprintf "passes.%s.fired" p.name,
            I (Option.value ~default:0 (Hashtbl.find_opt fired p.name)) );
        ])
      Gpcc_passes.Pass.registry
  in
  let disk = Store.disk_stats (Store.open_root ~auto_gc:false ()) in
  let proofs = s1.s_proofs - s0.s_proofs
  and fallbacks = s1.s_fallbacks - s0.s_fallbacks in
  let self = Spans.self_times () in
  let self_of l = Option.value ~default:0.0 (List.assoc_opt l self) in
  let budget = wall *. float_of_int !jobs in
  (* the partition of wall x effective jobs: every busy second lands in
     exactly one of these, and unattributed_s takes the rest (idle lanes
     during serial stretches, process start, time outside any span) *)
  let partition =
    List.map
      (fun (metric, layer) -> (metric, self_of layer))
      [
        ("ast.parse_s", "ast"); ("passes.s", "passes"); ("verify.s", "verify");
        ("cost_model.s", "cost_model"); ("explore.s", "explore");
        ("sim.run_s", "sim"); ("sim.devmem_s", "sim.devmem"); ("bench.s", "bench");
      ]
  in
  let attributed = List.fold_left (fun a (_, v) -> a +. v) 0.0 partition in
  passes
  @ [
      ("passes.rejected", I (Atomic.get rejected));
      ("verify.symbolic_proofs", I proofs);
      ("verify.concrete_fallbacks", I fallbacks);
      ("analysis_cache.hits", I (s1.s_ac_hits - s0.s_ac_hits));
      ("analysis_cache.misses", I (s1.s_ac_misses - s0.s_ac_misses));
      ("cost_model.predict_calls", I (Atomic.get predict_calls));
      ("cost_model.predict_s", F !predict_s);
      ("explore.distinct", I !distinct);
      ("explore.pruned", I !pruned);
      ("explore.partial_runs", I !partial);
      ("explore.fully_measured", I !measured);
      ("explore.measure_partial_s", F !measure_partial_s);
      ("explore.measure_full_s", F !measure_full_s);
      ("sim.launches", I (Atomic.get sim_launches));
      ("sim.blocks", I (Atomic.get sim_blocks));
      ("sim.memo_hits", I (pc1.pc_memo_hits - pc0.pc_memo_hits));
      ("sim.memo_misses", I (pc1.pc_memo_misses - pc0.pc_memo_misses));
      ("sim.plane_hits", I (pc1.pc_plane_hits - pc0.pc_plane_hits));
      ("sim.plane_misses", I (pc1.pc_plane_misses - pc0.pc_plane_misses));
      ("sim.closed_form_credits", I (pc1.pc_closed_form - pc0.pc_closed_form));
      ("store.hits", I (s1.s_store_hits - s0.s_store_hits));
      ("store.misses", I (s1.s_store_misses - s0.s_store_misses));
      ("store.entries", I disk.ds_entries);
      ("store.bytes", I disk.ds_bytes);
      ("store.lock_contention", I (s1.s_contention - s0.s_contention));
      ("wall_s", F wall);
      ("jobs.requested", I !jobs_requested);
      ("jobs.effective", I !jobs);
      ("ast.kernels", I (Atomic.get parsed));
      ("busy_budget_s", F budget);
      ("unattributed_s", F (budget -. attributed));
    ]
  @ List.map (fun (m, v) -> (m, F v)) partition

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

type args = {
  mutable mode : string;
  mutable seed : int;
  mutable seconds : float;
  mutable phase : string;
  mutable out : string;
  mutable trace_out : string option;
}

let args =
  {
    mode = "";
    seed = 1;
    seconds = 10.0;
    phase = "cold";
    out = "";
    trace_out = None;
  }

type common = {
  setup_s : float;  (** CPU seconds, like [work_cpu_s] *)
  work_s : float list;  (** wall seconds of each round of the fixed work *)
  work_cpu_s : float list;  (** their CPU seconds *)
  gflops : float list;
}

let workload_of name = Registry.find_exn name

type prepared = {
  p_name : string;
  p_work : Workload.t;
  p_rec : recorded;
  p_kernel : Ast.kernel;  (** the naive kernel *)
  p_inputs : (string * float array) list;
  p_expected : (string * float array) list;  (** CPU reference outputs *)
}

(* The repeatable set-up every workload shares: parse each kernel, draw
   its inputs from the seed and compute the CPU reference on them. *)
let prepare winners names =
  repeated_setup (fun () ->
      List.map
        (fun name ->
          let w = workload_of name and r = List.assoc name winners in
          let inputs = seeded_inputs args.seed w r.r_n in
          {
            p_name = name;
            p_work = w;
            p_rec = r;
            p_kernel = parse w r.r_n;
            p_inputs = inputs;
            p_expected = reference w r.r_n inputs;
          })
        names)

(* A full serial run of a kernel version checked against the CPU
   reference; counts one attempted operation. *)
let check ~what p k l =
  incr attempted;
  try
    let mem = upload k p.p_inputs in
    ignore (launch ~jobs:1 ~mode:L.Full "check" k l mem);
    outputs_match ~what p.p_work p.p_expected mem
  with e -> fail (Printf.sprintf "%s: %s" what (Printexc.to_string e))

(* compile-cold: every kernel x the Section-4 grid through the pipeline
   with translation validation, serially, on the run's empty store *)
let run_compile winners =
  let kernels, rep_s = prepare winners all_kernels in
  let (), once_s = metered finish_lazy_setup in
  let setup_s = rep_s +. once_s in
  (* the seed orders the kernels; each kernel's grid points go in the
     Section-4 order Explore uses. Shuffling the points too would move
     which compile pays for a kernel's shared proofs, and with it
     compile_ms_p95 by a third between seeds, with no change in work. *)
  let grid =
    List.concat_map
      (fun p ->
        List.concat_map
          (fun t -> List.map (fun d -> (p, t, d)) Explore.default_merge_degrees)
          Explore.default_block_targets)
      (shuffle args.seed kernels)
  in
  let chosen = Hashtbl.create 16 in
  meter_start ();
  List.iter
    (fun (p, t, d) ->
      incr attempted;
      (op @@ fun () ->
       match compile ~target:t ~degree:d p.p_kernel with
       | res ->
           count_fired res;
           note_verify_targets p.p_kernel res;
           if t = p.p_rec.r_target && d = p.p_rec.r_degree then
             Hashtbl.replace chosen p.p_name res
       | exception e when Pipeline.verifier_rejected e -> Atomic.incr rejected
       | exception e ->
           fail (Printf.sprintf "compile %s (%d,%d): %s" p.p_name t d (Printexc.to_string e)));
      checkpoint ())
    grid;
  let work_s, work_cpu_s = meter_stop () in
  (* the generated code at each kernel's recorded configuration: checked
     against the CPU reference, and its simulated GFLOPS reported *)
  let gflops =
    List.filter_map
      (fun p ->
        match Hashtbl.find_opt chosen p.p_name with
        | None ->
            incr attempted;
            fail (Printf.sprintf "%s: recorded configuration did not compile" p.p_name);
            None
        | Some (res : Pipeline.result) ->
            check ~what:p.p_name p res.kernel res.launch;
            let mem = upload res.kernel p.p_inputs in
            Some
              (launch ~jobs:1 ~mode:(L.Sampled 1) ~streams:3 "quality" res.kernel
                 res.launch mem)
                .timing
                .gflops)
      kernels
  in
  {
    setup_s;
    work_s = [ work_s ];
    work_cpu_s = [ work_cpu_s ];
    gflops;
  }

(* explore: the funnel, one search per kernel, on the run's
   store (empty in the cold phase, populated in the warm phase) *)
let run_explore winners =
  let kernels, rep_s = prepare winners explore_kernels in
  let (), once_s = metered finish_lazy_setup in
  let setup_s = rep_s +. once_s in
  let cache = Gpcc_core.Explore_cache.open_dir () in
  let won = ref [] in
  meter_start ();
  List.iter
    (fun p ->
      incr attempted;
      checkpoint ();
      let r = p.p_rec in
      match
         Spans.with_span ~layer:"explore" ~lanes:!jobs ~ambient:true
           ~counters:lib_counters "funnel" (fun () ->
             Explore.search_funnel ~cfg ~jobs:!jobs ~cache
               ~cache_prefix:
                 (Printf.sprintf "perfbench/seed%d/%s/%s/%d" args.seed cfg.name p.p_name r.r_n)
               ~budget_sensitive:(Workload.budget_sensitive p.p_work r.r_n)
               p.p_kernel ~predict:(predict p.p_inputs) ~measure:(measure p.p_inputs))
       with
      | cands, fails, st ->
          List.iter (fun (c : Explore.candidate) -> count_fired c.result) cands;
          if args.phase = "cold" then
            List.iter
              (fun (c : Explore.candidate) -> note_verify_targets p.p_kernel c.result)
              cands;
          distinct := !distinct + st.f_distinct;
          pruned := !pruned + st.f_pruned;
          partial := !partial + st.f_partial_runs;
          measured := !measured + st.f_measured;
          List.iter
            (fun (f : Explore.failure) ->
              match f.failed_stage with
              | `Verify -> Atomic.incr rejected
              | `Compile | `Predict | `Measure ->
                  fail
                    (Printf.sprintf "funnel %s (%d,%d): %s" p.p_name f.failed_target
                       f.failed_degree f.reason))
            fails;
          (match Explore.best_measured cands with
          | Some b when b.score > Float.neg_infinity ->
              if b.target_block_threads <> r.r_target || b.merge_degree <> r.r_degree then
                fail
                  (Printf.sprintf "funnel %s picked (%d,%d), exhaustive winner is (%d,%d)"
                     p.p_name b.target_block_threads b.merge_degree r.r_target r.r_degree);
              won := (p, b) :: !won
          | _ -> fail (Printf.sprintf "funnel %s: no measured winner" p.p_name))
      | exception e -> fail (Printf.sprintf "funnel %s: %s" p.p_name (Printexc.to_string e)))
    (shuffle args.seed kernels);
  let work_s, work_cpu_s = meter_stop () in
  let won = List.rev !won in
  List.iter
    (fun (p, (b : Explore.candidate)) ->
      check ~what:(p.p_name ^ " winner") p b.result.kernel b.result.launch)
    won;
  {
    setup_s;
    work_s = [ work_s ];
    work_cpu_s = [ work_cpu_s ];
    gflops = List.map (fun (_, (b : Explore.candidate)) -> b.score) won;
  }

(* simulate: fixed kernel versions through Launch.run — Full on the
   shared pool with outputs checked, then Sampled as the funnel runs
   them — round after round until the time is up *)
let run_simulate winners =
  let kernels, rep_s = prepare winners all_kernels in
  let versions, once_s =
    metered @@ fun () ->
    let versions =
    List.concat_map
      (fun p ->
        let name = p.p_name and n = p.p_rec.r_n in
        let naive = (name ^ "/naive", p, p.p_kernel, Option.get (Gpcc_passes.Pass_util.naive_launch p.p_kernel)) in
        let opt =
          match compile ~target:p.p_rec.r_target ~degree:p.p_rec.r_degree p.p_kernel with
          | res ->
              note_verify_targets p.p_kernel res;
              [ (name ^ "/opt", p, res.kernel, res.launch) ]
          | exception e ->
              fail (Printf.sprintf "compile %s: %s" name (Printexc.to_string e));
              []
        in
        checkpoint ();
        let cublas =
          match Cublas_sim.find name with
          | Some c -> [ ("cublas_" ^ name, p, Cublas_sim.kernel c n, c.c_launch n) ]
          | None -> []
        in
        let sdk =
          if name = "tp" then
            let kp, lp = Sdk_transpose.prev n and kn, ln = Sdk_transpose.new_ n in
            [ ("sdk_prev", p, kp, lp); ("sdk_new", p, kn, ln) ]
          else []
        in
        (naive :: opt) @ cublas @ sdk)
      kernels
    in
    finish_lazy_setup ();
    versions
  in
  let setup_s = rep_s +. once_s in
  let order = shuffle args.seed versions in
  let rounds = ref [] and gflops = ref [] in
  let w0 = now () in
  while !rounds = [] || now () -. w0 < args.seconds do
    meter_start ();
    let first = !rounds = [] in
    List.iter
      (fun (vname, p, k, l) ->
        attempted := !attempted + 2;
        (try
           let mem =
             op (fun () ->
                 let mem = upload k p.p_inputs in
                 ignore (launch ~lanes:!jobs ~mode:L.Full "full" k l mem);
                 mem)
           in
           outputs_match ~what:vname p.p_work p.p_expected mem;
           let r =
             op (fun () ->
                 launch ~lanes:!jobs ~mode:(L.Sampled 4) "sampled" k l
                   (upload k p.p_inputs))
           in
           if first then gflops := r.timing.gflops :: !gflops
         with e -> fail (Printf.sprintf "%s: %s" vname (Printexc.to_string e)));
        checkpoint ())
      order;
    rounds := meter_stop () :: !rounds
  done;
  {
    setup_s;
    work_s = List.rev_map fst !rounds;
    work_cpu_s = List.rev_map snd !rounds;
    gflops = List.rev !gflops;
  }

(* ------------------------------------------------------------------ *)
(* record: the jobs = 1 exhaustive winners the funnel is checked against *)
(* ------------------------------------------------------------------ *)

let run_record () =
  finish_lazy_setup ();
  print_string
    "# kernel size threads_per_block merge_degree gflops\n\
     # exhaustive Section-4 sweep at jobs=1 (gpbench record); the funnel's\n\
     # winner must equal this, and simulate runs the optimized version here\n";
  List.iter
    (fun (name, n) ->
      let w = workload_of name in
      let k = Workload.parse w n in
      let cands, _ =
        Explore.search_with_failures ~cfg ~jobs:1 k
          ~measure:(fun k l -> measure (w.inputs n) k l)
      in
      match Explore.best cands with
      | Some b ->
          Printf.printf "%s %d %d %d %.17g\n%!" name n b.target_block_threads b.merge_degree
            b.score
      | None -> failwith ("no winner for " ^ name))
    default_sizes

(* ------------------------------------------------------------------ *)

let () =
  let rec parse_args = function
    | [] -> ()
    | "--seed" :: v :: rest -> args.seed <- int_of_string v; parse_args rest
    | "--seconds" :: v :: rest -> args.seconds <- float_of_string v; parse_args rest
    | "--phase" :: v :: rest -> args.phase <- v; parse_args rest
    | "--out" :: v :: rest -> args.out <- v; parse_args rest
    | "--trace-out" :: v :: rest -> args.trace_out <- Some v; parse_args rest
    | m :: rest when args.mode = "" -> args.mode <- m; parse_args rest
    | a :: _ -> failwith ("unexpected argument " ^ a)
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  if Sys.getenv_opt "GPCC_CACHE_DIR" = None then begin
    prerr_endline "gpbench: set GPCC_CACHE_DIR to a scratch store";
    exit 2
  end;
  if args.mode = "compile" then jobs_requested := 1;
  jobs := max 1 (min !jobs_requested (Domain.recommended_domain_count () - 1));
  Unix.putenv "GPCC_JOBS" (string_of_int !jobs);
  Spans.enabled := args.trace_out <> None;
  if args.mode = "record" then run_record ()
  else begin
    let winners = read_winners "perfbench/winners.tsv" in
    let s0 = snapshot () in
    let c =
      match args.mode with
      | "compile" -> run_compile winners
      | "explore" -> run_explore winners
      | "simulate" -> run_simulate winners
      | m -> failwith ("unknown mode " ^ m)
    in
    let wall = now () -. t_start in
    let layers = layer_fields ~s0 ~wall in
    let heap_mb =
      float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.0
    in
    let sym_s, conc_s = split_verify () in
    Option.iter (fun p -> Spans.write_chrome ~origin:t_start p) args.trace_out;
    let fails = List.rev !failures in
    let doc =
      O
        ([
           ("mode", S args.mode);
           ("phase", S args.phase);
           ("seed", I args.seed);
           ("setup_s", F (scale c.setup_s));
           ("work_s", L (List.map (fun x -> F x) c.work_s));
           ("work_ref_s", L (List.map (fun x -> F (scale x)) c.work_cpu_s));
           ("probe_ms", F (1000.0 *. mean_probe ()));
           ("op_ms", L (List.rev_map (fun x -> F x) !ops));
           ("gflops", L (List.map (fun x -> F x) c.gflops));
           ("gflops_geomean", F (geomean c.gflops));
           ("peak_heap_mb", F heap_mb);
           ("attempted", I !attempted);
           ("failed", I (List.length fails));
           ("failures", L (List.map (fun s -> S s) fails));
           ("verify.symbolic_s", F sym_s);
           ("verify.concrete_s", F conc_s);
         ]
        @ layers)
    in
    let oc = open_out args.out in
    output_string oc (to_json doc);
    output_char oc '\n';
    close_out oc
  end

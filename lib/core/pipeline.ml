(** The declarative pass pipeline: the paper's Figure 1 as data.

    naive kernel
    -> vectorization of memory accesses          (Section 3.1)
    -> coalescing check & conversion             (Sections 3.2-3.3)
    -> data-sharing analysis                     (Section 3.4)
    -> thread-block merge / thread merge         (Section 3.5)
    -> partition-camping elimination             (Section 3.7)
    -> data prefetching                          (Section 3.6)
    -> optimized kernel + launch configuration

    A {!t} is an ordered list of {!Gpcc_passes.Pass.t} specs plus the
    target machine and the two Section-4 knobs; every driver — the
    library API, [gpcc compile --passes/--disable-pass], the staged
    Figure-12 instrumentation, the design-space exploration and the
    bench harness — consumes the same value instead of re-plumbing
    boolean options. The driver is generic over the pass records: it
    times each sub-step, runs translation validation after every fired
    transform, records a structured {!Remark.t} per step, and carries
    the analyses a pass declares preserved forward in the per-domain
    {!Gpcc_analysis.Analysis_cache}.

    Note on ordering: the paper runs prefetching before partition-camping
    elimination; we run camping elimination first because the 1-D
    address-offset rotation introduces a computed index that prefetching
    must not advance past the array end. Prefetching decisions are
    unaffected (its occupancy rule fires on register pressure, which the
    rotation does not change). {!staged} compensates when deriving the
    paper's cumulative prefixes. *)

open Gpcc_ast
open Gpcc_passes
module Cache = Gpcc_analysis.Analysis_cache

type spec = {
  sp_pass : Pass.t;
  sp_enabled : bool;
}

type t = {
  cfg : Gpcc_sim.Config.t;
  target_block_threads : int;  (** 128 / 256 / 512 (Section 4.1) *)
  merge_degree : int;  (** threads merged into one: 4 / 8 / 16 / 32 *)
  verify : bool;  (** translation validation after every fired pass *)
  specs : spec list;
}

let default ?(cfg = Gpcc_sim.Config.gtx280) ?(target_block_threads = 256)
    ?(merge_degree = 16) ?(verify = true) () : t =
  {
    cfg;
    target_block_threads;
    merge_degree;
    verify;
    specs =
      List.map (fun p -> { sp_pass = p; sp_enabled = true }) Pass.registry;
  }

let pass_names (t : t) : string list =
  List.map (fun s -> s.sp_pass.Pass.name) t.specs

let enabled_names (t : t) : string list =
  List.filter_map
    (fun s -> if s.sp_enabled then Some s.sp_pass.Pass.name else None)
    t.specs

let check_known (names : string list) : unit =
  List.iter
    (fun n ->
      if Pass.find n = None then
        invalid_arg
          (Printf.sprintf "unknown pass %S (known: %s)" n
             (String.concat ", " (Pass.names ()))))
    names

(** Disable the named passes (order unchanged). Unknown names raise
    [Invalid_argument] listing the registry. *)
let disable (names : string list) (t : t) : t =
  check_known names;
  {
    t with
    specs =
      List.map
        (fun s ->
          if List.mem s.sp_pass.Pass.name names then
            { s with sp_enabled = false }
          else s)
        t.specs;
  }

(** Replace the spec list with exactly the named passes, in the given
    order ([gpcc compile --passes]). Unknown names raise
    [Invalid_argument]. *)
let with_passes (names : string list) (t : t) : t =
  check_known names;
  {
    t with
    specs =
      List.map
        (fun n -> { sp_pass = Option.get (Pass.find n); sp_enabled = true })
        names;
  }

let describe (t : t) : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "pipeline for %s: %d threads/block target, %d-way thread merge, \
        verify %s\n"
       t.cfg.Gpcc_sim.Config.name t.target_block_threads t.merge_degree
       (if t.verify then "on" else "off"));
  List.iter
    (fun s ->
      let p = s.sp_pass in
      Buffer.add_string buf
        (Printf.sprintf "  [%c] %-18s §%-8s %s\n"
           (if s.sp_enabled then 'x' else ' ')
           p.Pass.name p.Pass.section p.Pass.summary);
      let kinds ks = String.concat "," (List.map Cache.kind_name ks) in
      if p.Pass.uses <> [] || p.Pass.invalidates <> [] then
        Buffer.add_string buf
          (Printf.sprintf "      uses: %-28s invalidates: %s\n"
             (if p.Pass.uses = [] then "-" else kinds p.Pass.uses)
             (if p.Pass.invalidates = [] then "-"
              else kinds p.Pass.invalidates)))
    t.specs;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

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

let diagnostics (r : result) : Gpcc_analysis.Verify.diagnostic list =
  List.concat_map (fun s -> s.diagnostics) r.steps

let notes (s : step) : string list = s.remark.Remark.notes

let remarks (r : result) : Remark.t list =
  List.map (fun s -> s.remark) r.steps

let validation_prefix = "translation validation"

let verifier_rejected = function
  | Compile_error m ->
      String.length m >= String.length validation_prefix
      && String.sub m 0 (String.length validation_prefix) = validation_prefix
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Per-pass wall-clock accounting (process-wide, across domains)       *)
(* ------------------------------------------------------------------ *)

let timing_mutex = Mutex.create ()
let timing_tbl : (string, int * float) Hashtbl.t = Hashtbl.create 16

let note_timing pass ms =
  Mutex.lock timing_mutex;
  let n, total =
    Option.value (Hashtbl.find_opt timing_tbl pass) ~default:(0, 0.0)
  in
  Hashtbl.replace timing_tbl pass (n + 1, total +. ms);
  Mutex.unlock timing_mutex

(** Cumulative (runs, total wall-clock ms) per pass since start or the
    last {!reset_pass_timings}, across every domain: transforms the
    driver executed, not the steps its table served. *)
let pass_timings () : (string * (int * float)) list =
  Mutex.lock timing_mutex;
  let xs = Hashtbl.fold (fun k v acc -> (k, v) :: acc) timing_tbl [] in
  Mutex.unlock timing_mutex;
  List.sort (fun (a, _) (b, _) -> String.compare a b) xs

let reset_pass_timings () =
  Mutex.lock timing_mutex;
  Hashtbl.reset timing_tbl;
  Mutex.unlock timing_mutex

(* ------------------------------------------------------------------ *)
(* Computed steps (per domain)                                         *)
(* ------------------------------------------------------------------ *)

(* Section 4 compiles a kernel once per grid point, and those pipelines
   mostly repeat each other's steps: every point vectorizes and
   coalesces the same naive kernel, every degree repeats its target's
   block merge, and points whose merged texts coincide repeat everything
   after. A step's outcome is a function of its pass, its label (which
   names every other parameter the step reads, see {!Pass.emit}), the
   machine and its input state, so each domain keeps the outcomes it
   computed. 128 entries hold one kernel's grid (vv's 30 points compute
   109 distinct steps, fft's 85). *)
let step_capacity = 128

let steps_instance : Pass_util.outcome Gpcc_util.Lru.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Gpcc_util.Lru.create step_capacity)

let served = Atomic.make 0

(** Steps whose outcome the table served instead of running the
    transform, across every domain since start. *)
let served_steps () = Atomic.get served

(* ------------------------------------------------------------------ *)
(* The driver                                                          *)
(* ------------------------------------------------------------------ *)

(** Validate a kernel; errors blame [name]. Returns the full diagnostic
    list (warnings included) for the step record. Verification is
    symbolic-first: one launch-parametric proof per kernel text covers
    every launch it is consulted at, and anything unproven falls back
    to the concrete verifier. Results are memoized in the per-domain
    analysis cache. *)
let validate ~(verify : bool) (cache : Cache.t) (name : string)
    (k : Ast.kernel) (launch : Ast.launch) :
    Gpcc_analysis.Verify.diagnostic list =
  if not verify then []
  else begin
    let ds = Cache.verify_sym cache ~launch k in
    (match Gpcc_analysis.Verify.errors ds with
    | [] -> ()
    | errs ->
        raise
          (Compile_error
             (Printf.sprintf "%s failed after pass %S: %s" validation_prefix
                name
                (String.concat "; "
                   (List.map Gpcc_analysis.Verify.to_string errs)))));
    ds
  end

let run ?(pipeline = default ()) (naive : Ast.kernel) : result =
  Cache.typecheck naive;
  let launch =
    match Pass_util.initial_launch naive with
    | Some l -> l
    | None ->
        raise
          (Compile_error
             "cannot derive the thread domain: give an output array or \
              #pragma gpcc dim __threads_x/__threads_y")
  in
  let cache = Cache.domain () in
  ignore (validate ~verify:pipeline.verify cache "input" naive launch);
  let ctx =
    {
      Pass.cfg = pipeline.cfg;
      target_block_threads = pipeline.target_block_threads;
      merge_degree = pipeline.merge_degree;
      cache;
    }
  in
  let table = Domain.DLS.get steps_instance
  and machine =
    Digest.string (Marshal.to_string pipeline.cfg [ Marshal.No_sharing ])
  in
  let steps = ref [] in
  let record (p : Pass.t) label ~fired ~reason ~notes ~before_m ~after_m
      ~duration_ms ~kernel ~launch ~diagnostics =
    steps :=
      {
        step_name = label;
        pass = p.Pass.name;
        fired;
        remark =
          {
            Remark.pass = p.Pass.name;
            step = label;
            section = p.Pass.section;
            fired;
            reason;
            notes;
            before_m;
            after_m;
            duration_ms;
          };
        kernel_after = kernel;
        launch_after = launch;
        diagnostics;
      }
      :: !steps
  in
  let k = ref naive and l = ref launch in
  List.iter
    (fun spec ->
      if spec.sp_enabled then begin
        let p = spec.sp_pass in
        (* one recorded, timed, validated sub-step; [k0]/[l0] is the
           sub-step's input state (multi-step passes thread their own).
           A step this domain computed before is served from the table:
           the same physical kernel, validated and recorded as ever. *)
        let emit label k0 l0 f =
          let before_m = Remark.metrics cache k0 l0 in
          let key =
            String.concat "\000"
              [ p.Pass.name; label; machine; Cache.key k0 l0 ]
          in
          let t0 = Unix.gettimeofday () in
          let kept = Gpcc_util.Lru.find table key in
          let o : Pass_util.outcome =
            match kept with Some o -> o | None -> f k0 l0
          in
          let duration_ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
          (match kept with
          | Some _ -> Atomic.incr served
          | None ->
              note_timing p.Pass.name duration_ms;
              Gpcc_util.Lru.add table key o);
          let diagnostics =
            if o.fired then
              validate ~verify:pipeline.verify cache label o.kernel o.launch
            else []
          in
          if o.fired then
            Cache.preserve cache ~kinds:(Pass.preserved p) ~from_:(k0, l0)
              ~to_:(o.kernel, o.launch);
          let after_m =
            if o.fired then Remark.metrics cache o.kernel o.launch
            else before_m
          in
          let reason =
            match o.notes with
            | n :: _ -> n
            | [] -> if o.fired then "applied" else "nothing to do"
          in
          record p label ~fired:o.fired ~reason ~notes:o.notes ~before_m
            ~after_m ~duration_ms ~kernel:o.kernel ~launch:o.launch
            ~diagnostics;
          o
        in
        match p.Pass.applies ctx !k !l with
        | Pass.Declined reason ->
            let m = Remark.metrics cache !k !l in
            record p p.Pass.label ~fired:false ~reason ~notes:[ reason ]
              ~before_m:m ~after_m:m ~duration_ms:0.0 ~kernel:!k ~launch:!l
              ~diagnostics:[]
        | Pass.Applies ->
            let k', l' = p.Pass.transform ctx emit !k !l in
            k := k';
            l := l'
      end)
    pipeline.specs;
  (match Cache.typecheck !k with
  | () -> ()
  | exception Typecheck.Type_error m ->
      raise (Compile_error ("internal: optimized kernel ill-typed: " ^ m)));
  { kernel = !k; launch = !l; steps = List.rev !steps }

(* ------------------------------------------------------------------ *)
(* Figure 12: cumulative prefixes from one instrumented run            *)
(* ------------------------------------------------------------------ *)

let stage_labels =
  [
    "naive"; "+vectorization"; "+coalescing"; "+thread/block merge";
    "+prefetching"; "+partition camping elim.";
  ]

(** Cumulative pipeline prefixes, for the paper's Figure 12 (the effect
    of each optimization step): [(label, kernel, launch)] per stage,
    starting from the naive kernel with its natural hand-written launch.

    Derived from the step records of a {e single} instrumented pipeline
    run — every prefix boundary is an intermediate state of that run —
    instead of six full recompiles. The one exception is the
    "+prefetching" prefix: the pipeline orders camping elimination
    before prefetching (see the module doc), so that stage is the
    prefetch pass applied once to the recorded pre-camping state — one
    extra pass application, still no recompile. *)
let staged ?(cfg = Gpcc_sim.Config.gtx280) ?(target_block_threads = 256)
    ?(merge_degree = 16) (naive : Ast.kernel) :
    (string * Ast.kernel * Ast.launch) list =
  let pipeline = default ~cfg ~target_block_threads ~merge_degree () in
  let r = run ~pipeline naive in
  let initial = Option.get (Pass_util.initial_launch naive) in
  (* state after the last recorded step of the named pass (every enabled
     pass records at least one step, declined included) *)
  let after pass_name ~(fallback : Ast.kernel * Ast.launch) =
    match
      List.filter (fun s -> String.equal s.pass pass_name) r.steps
      |> List.rev
    with
    | s :: _ -> (s.kernel_after, s.launch_after)
    | [] -> fallback
  in
  let s0 = (naive, initial) in
  let s1 = after "vectorize" ~fallback:s0 in
  let s2 = after "coalesce" ~fallback:s1 in
  let s3 = after "licm" ~fallback:s2 in
  let s4 =
    let k3, l3 = s3 in
    let o = Prefetch.apply ~cfg k3 l3 in
    if o.fired then
      ignore
        (validate ~verify:pipeline.verify (Cache.domain ()) "data prefetching"
           o.kernel o.launch);
    (o.kernel, o.launch)
  in
  let s5 = (r.kernel, r.launch) in
  List.map2
    (fun label (kernel, launch) ->
      (* a stage whose passes all declined leaves the kernel untouched;
         measure it at the hand-written naive launch, not at the
         pipeline's internal half-warp starting shape *)
      let launch =
        if Ast.equal_kernel kernel naive then
          Option.value (Pass_util.naive_launch naive) ~default:launch
        else launch
      in
      (label, kernel, launch))
    stage_labels
    [ s0; s1; s2; s3; s4; s5 ]

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let report (r : result) : string =
  let buf = Buffer.create 1024 in
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "[%s] %s\n" (if s.fired then "*" else " ") s.step_name);
      List.iter
        (fun n -> Buffer.add_string buf (Printf.sprintf "      %s\n" n))
        (notes s))
    r.steps;
  Buffer.add_string buf
    (Printf.sprintf "launch: grid (%d, %d), block (%d, %d)\n" r.launch.grid_x
       r.launch.grid_y r.launch.block_x r.launch.block_y);
  Buffer.contents buf

(** The whole compilation as one JSON document
    ([gpcc compile --remarks-json]). *)
let remarks_json (r : result) : string =
  Printf.sprintf
    {|{"schema":"gpcc-remarks-v1","kernel":"%s","launch":{"grid":[%d,%d],"block":[%d,%d]},"remarks":%s}|}
    (Remark.escape r.kernel.k_name) r.launch.grid_x r.launch.grid_y
    r.launch.block_x r.launch.block_y
    (Remark.json_of_list (remarks r))

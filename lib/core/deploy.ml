(** Per-hardware deployment (paper Section 4.2): "an optimized code tuned
    for one GPU generation may not be optimal for the next... our compiler
    generates different versions of optimized code based on different
    machine descriptions so that they can be deployed on different GPU
    platforms."

    [build] runs the empirical search once per machine description and
    bundles the selected version per GPU; [pick] fetches the right kernel
    at "load time". *)

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

(* --- persistence ---------------------------------------------------- *)
(* A bundle is a pure function of (naive kernel, GPU list, measurement
   context), so it persists through the artifact store like any other
   search result: the whole per-hardware selection is skipped on a warm
   run. The caller's key must embed the measurement context (workload,
   problem size); [key_of] appends what the bundle itself determines. *)

module Store = Gpcc_util.Store

let bundle_kind : bundle Store.kind =
  Store.make_kind ~name:"bundle" ~version:"1"
    ~encode:(fun (b : bundle) -> Marshal.to_string b [])
    ~decode:(fun payload ->
      match (Marshal.from_string payload 0 : bundle) with
      | b -> Some b
      | exception _ -> None)

let key_of ~(prefix : string) ~(gpus : Gpcc_sim.Config.t list)
    (naive : Gpcc_ast.Ast.kernel) : string =
  String.concat "\x00"
    (prefix
    :: List.map (fun (g : Gpcc_sim.Config.t) -> g.name) gpus
    @ [ Gpcc_ast.Pp.kernel_to_string naive ])

let save ?store ~(prefix : string) ~(gpus : Gpcc_sim.Config.t list)
    (naive : Gpcc_ast.Ast.kernel) (b : bundle) : unit =
  let store =
    match store with Some s -> s | None -> Store.open_root ()
  in
  Store.store store bundle_kind ~key:(key_of ~prefix ~gpus naive) b

let load ?store ~(prefix : string) ~(gpus : Gpcc_sim.Config.t list)
    (naive : Gpcc_ast.Ast.kernel) : bundle option =
  let store =
    match store with Some s -> s | None -> Store.open_root ()
  in
  Store.find store bundle_kind ~key:(key_of ~prefix ~gpus naive)

(** Compile and empirically select one version per target GPU.
    [measure] scores a candidate on a given machine (typically a
    simulator run with the intended input sizes). *)
let build ?(gpus = [ Gpcc_sim.Config.gtx8800; Gpcc_sim.Config.gtx280 ])
    ~(measure :
       Gpcc_sim.Config.t -> Gpcc_ast.Ast.kernel -> Gpcc_ast.Ast.launch -> float)
    (naive : Gpcc_ast.Ast.kernel) : bundle =
  let entries =
    List.filter_map
      (fun gpu ->
        let cands =
          Explore.search ~cfg:gpu naive ~measure:(measure gpu)
          |> Explore.distinct
        in
        match Explore.best cands with
        | Some chosen -> Some { gpu; chosen; alternatives = List.length cands }
        | None -> None)
      gpus
  in
  { kernel_name = naive.Gpcc_ast.Ast.k_name; entries }

(** [build], memoized through the artifact store: a warm run skips the
    entire per-hardware search. [prefix] must name the measurement
    context (workload, problem size) so two contexts never share a
    bundle. *)
let build_cached ?store ~(prefix : string)
    ?(gpus = [ Gpcc_sim.Config.gtx8800; Gpcc_sim.Config.gtx280 ])
    ~(measure :
       Gpcc_sim.Config.t -> Gpcc_ast.Ast.kernel -> Gpcc_ast.Ast.launch -> float)
    (naive : Gpcc_ast.Ast.kernel) : bundle =
  match load ?store ~prefix ~gpus naive with
  | Some b -> b
  | None ->
      let b = build ~gpus ~measure naive in
      save ?store ~prefix ~gpus naive b;
      b

(** The version selected for a GPU (by config name). *)
let pick (b : bundle) (gpu_name : string) : Pipeline.result =
  match
    List.find_opt
      (fun e -> String.equal e.gpu.Gpcc_sim.Config.name gpu_name)
      b.entries
  with
  | Some e -> e.chosen.result
  | None ->
      raise
        (No_version
           (Printf.sprintf "no version of %s for GPU %s" b.kernel_name
              gpu_name))

let describe (b : bundle) : string =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "kernel %s:\n" b.kernel_name);
  List.iter
    (fun e ->
      let l = e.chosen.result.launch in
      Buffer.add_string buf
        (Printf.sprintf
           "  %-8s -> %d threads/block, %d-way merge, grid (%d,%d) x block \
            (%d,%d)  [%d versions tried, %.1f GFLOPS]\n"
           e.gpu.Gpcc_sim.Config.name e.chosen.target_block_threads
           e.chosen.merge_degree l.grid_x l.grid_y l.block_x l.block_y
           e.alternatives e.chosen.score))
    b.entries;
  Buffer.contents buf

(** Golden pin for the launch-parametric verifier
    {!Gpcc_analysis.Symverify}.

    The other two pins cannot see a symbolic verdict move: a step's
    diagnostics read the same for a [Clean] proof as for a concrete
    fallback that finds nothing. This one runs [Symverify.check] on
    every distinct kernel text of {!Golden_sweep} (the naive inputs and
    every state a step leaves behind, both GPU models), plus the
    negative kernels of the symbolic tests, and compares the MD5 of the
    verdict and of every violation (rule, path, constraint, message)
    with the table in [symverify_golden.tsv].

    A second test walks every (kernel, launch) the sweep validated, and
    its {!Test_symverify.launch_grid} neighbours: a symbolic [Clean]
    must be confirmed by {!Gpcc_analysis.Verify.check}, a symbolic
    [Errors] must name rules the concrete tier reports, and the number
    of targets decided [Clean] at their own launch must not fall below
    a floor.

    After a deliberate change to the symbolic verifier's output,
    regenerate the table from the repository root with
    [dune exec test/test_main.exe -- record-symverify-golden
    test/symverify_golden.tsv]. *)

open Gpcc_ast
module SV = Gpcc_analysis.Symverify
module Pipeline = Gpcc_core.Pipeline
module S = Golden_sweep

type target = {
  t_key : string;  (** hex digest of the kernel text *)
  t_label : string;  (** where the text first appears *)
  t_kernel : Ast.kernel;
}

(* Distinct kernel texts in first-appearance order: the sweep's runs in
   its order (input, then steps in pipeline order), then the negative
   kernels. *)
let targets () : target list =
  let seen = Hashtbl.create 256 and out = ref [] in
  let add label k =
    let key = S.md5 (Pp.kernel_to_string k) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      out := { t_key = key; t_label = label; t_kernel = k } :: !out
    end
  in
  List.iter
    (fun (r : S.run) ->
      add (r.workload ^ " input") r.naive;
      match r.outcome with
      | Ok res ->
          List.iter
            (fun (s : Pipeline.step) ->
              add
                (Printf.sprintf "%s %s %d/%d %s" r.workload r.gpu r.target
                   r.degree s.step_name)
                s.kernel_after)
            res.steps
      | Error e when Pipeline.verifier_rejected e -> ()
      | Error e -> raise e)
    (Lazy.force S.runs);
  List.iter
    (fun (name, _, src) -> add ("negative " ^ name) (Util.parse_kernel src))
    Test_symverify.negative_cases;
  List.iter
    (fun (name, src, _) -> add ("loop reuse " ^ name) (Util.parse_kernel src))
    Util.loop_reuse_cases;
  add "modwrap" (Util.parse_kernel Test_symverify.modwrap_src);
  List.rev !out

let transcript (t : target) =
  let r = SV.check t.t_kernel in
  String.concat "\n"
    (SV.verdict_to_string r.verdict
    :: List.map
         (fun (v : SV.violation) ->
           Printf.sprintf "%s\t%s\t%s\t%s" v.v_rule v.v_path
             (SV.Constraint.to_string v.v_when)
             v.v_message)
         r.violations)

let golden_file = "symverify_golden.tsv"

(* table lines: text key, transcript MD5, first-appearance label *)
let rows ts = List.map (fun t -> (t.t_key, S.md5 (transcript t), t.t_label)) ts
let record path = S.write_table path (rows (targets ()))

let test_golden () =
  let ts = targets () in
  S.check_table golden_file (rows ts) ~show:(fun key ->
      transcript (List.find (fun t -> String.equal t.t_key key) ts))

(* Every distinct (kernel, launch) a sweep step validated, both GPUs:
   each input at its initial launch and each fired step's output at
   its launch, in sweep order. *)
let validated () : (string * Ast.kernel * Ast.launch) list =
  let seen = Hashtbl.create 256 and out = ref [] in
  let add label k (l : Ast.launch) =
    let key = Pp.kernel_to_string ~launch:l k in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      out := (label, k, l) :: !out
    end
  in
  List.iter
    (fun (r : S.run) ->
      Option.iter
        (add (r.workload ^ " input") r.naive)
        (Gpcc_passes.Pass_util.initial_launch r.naive);
      match r.outcome with
      | Ok res ->
          List.iter
            (fun (s : Pipeline.step) ->
              if s.fired then
                add
                  (Printf.sprintf "%s %s %d/%d %s" r.workload r.gpu r.target
                     r.degree s.step_name)
                  s.kernel_after s.launch_after)
            res.steps
      | Error _ -> ())
    (Lazy.force S.runs);
  List.rev !out

(* targets decided [Clean] at their own launch, at least (221 of the
   222; the one left is tp's partition-camping text, whose diagonal
   block order takes [%] by a grid dimension); raise it when the
   symbolic tier decides more *)
let clean_floor = 221

let test_sweep_agreement () =
  let results = Hashtbl.create 256 in
  let check k =
    let key = Pp.kernel_to_string k in
    match Hashtbl.find_opt results key with
    | Some r -> r
    | None ->
        let r = SV.check k in
        Hashtbl.replace results key r;
        r
  in
  let targets = validated () in
  let clean =
    List.fold_left
      (fun n (label, k, l) ->
        let r = check k in
        List.iter (Test_symverify.check_agreement label k r)
          (Test_symverify.launch_grid l);
        if SV.decide r l = `Clean then n + 1 else n)
      0 targets
  in
  if clean < clean_floor then
    Alcotest.failf
      "symbolic tier decided %d of %d validated targets clean (floor %d)" clean
      (List.length targets) clean_floor

let cases =
  [
    Alcotest.test_case "symverify verdicts pinned over the grid" `Slow
      test_golden;
    Alcotest.test_case "symverify agrees with verify over the sweep" `Slow
      test_sweep_agreement;
  ]

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

let cases =
  [
    Alcotest.test_case "symverify verdicts pinned over the grid" `Slow
      test_golden;
  ]

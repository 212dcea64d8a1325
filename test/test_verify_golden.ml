(** Golden pin for the concrete verifier, the oracle of translation
    validation and of {!Gpcc_analysis.Symverify}.

    Every distinct (kernel, launch) the pipeline validates over the
    GTX 280 half of {!Golden_sweep} (the naive input plus every fired
    step) is verified with [Verify.check] directly, whatever the
    symbolic tier would decide, and the MD5 of its JSON diagnostics
    (warnings included) is compared with the table in
    [verify_golden.tsv]. Any change to what the verifier reports on any
    of those targets fails here.

    After a deliberate change to the verifier's output, regenerate the
    table from the repository root with
    [dune exec test/test_main.exe -- record-verify-golden
    test/verify_golden.tsv]. *)

open Gpcc_ast
module V = Gpcc_analysis.Verify
module Pipeline = Gpcc_core.Pipeline
module S = Golden_sweep

type target = {
  t_key : string;  (** hex digest of the kernel text at the launch *)
  t_label : string;  (** where the target first appears *)
  t_kernel : Ast.kernel;
  t_launch : Ast.launch;
}

(* Distinct targets in first-appearance order: kernels in registry
   order, grid points in Explore's order, steps in pipeline order. *)
let targets () : target list =
  let seen = Hashtbl.create 512 and out = ref [] in
  let add label k l =
    let key = S.md5 (Pp.kernel_to_string ~launch:l k) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      out :=
        { t_key = key; t_label = label; t_kernel = k; t_launch = l } :: !out
    end
  in
  List.iter
    (fun (r : S.run) ->
      if String.equal r.gpu "gtx280" then begin
        (* the input is a target once, ahead of its kernel's steps *)
        (match Gpcc_passes.Pass_util.initial_launch r.naive with
        | Some l -> add (r.workload ^ " input") r.naive l
        | None -> ());
        match r.outcome with
        | Ok res ->
            List.iter
              (fun (s : Pipeline.step) ->
                if s.fired then
                  add
                    (Printf.sprintf "%s %d/%d %s" r.workload r.target r.degree
                       s.step_name)
                    s.kernel_after s.launch_after)
              res.steps
        | Error e when Pipeline.verifier_rejected e -> ()
        | Error e -> raise e
      end)
    (Lazy.force S.runs);
  List.rev !out

let diagnostics (t : target) =
  V.json_of_diagnostics (V.check ~launch:t.t_launch t.t_kernel)

let golden_file = "verify_golden.tsv"

(* table lines: target key, diagnostics MD5, first-appearance label *)
let rows ts =
  List.map (fun t -> (t.t_key, S.md5 (diagnostics t), t.t_label)) ts

let record path = S.write_table path (rows (targets ()))

let test_golden () =
  let ts = targets () in
  S.check_table golden_file (rows ts) ~show:(fun key ->
      diagnostics (List.find (fun t -> String.equal t.t_key key) ts))

let cases =
  [
    Alcotest.test_case "verify diagnostics pinned over the grid" `Slow
      test_golden;
  ]

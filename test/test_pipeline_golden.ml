(** Golden pin for the compiler's output.

    Every configuration of {!Golden_sweep} (12 kernels × the 30-point
    grid × GTX 280 and 8800) is reduced to one MD5 over everything the
    pipeline reports except wall-clock: the final kernel and launch
    text and, for every step, its name, pass, fired flag, reason, notes,
    before/after metrics, JSON diagnostics and the kernel and launch it
    left behind — or the exception text when the configuration is
    rejected. The MD5s are compared with [pipeline_golden.tsv], so any
    change to a generated byte fails here.

    After a deliberate change to the compiler's output, regenerate the
    table from the repository root with
    [dune exec test/test_main.exe -- record-pipeline-golden
    test/pipeline_golden.tsv]. *)

open Gpcc_ast
module Pipeline = Gpcc_core.Pipeline
module Remark = Gpcc_core.Remark
module V = Gpcc_analysis.Verify
module S = Golden_sweep

let golden_file = "pipeline_golden.tsv"

let label (r : S.run) =
  Printf.sprintf "%s %s %d/%d" r.workload r.gpu r.target r.degree

let text k l = Pp.kernel_to_string ~launch:l k

(* everything the run reports, durations excluded *)
let transcript (r : S.run) : string =
  match r.outcome with
  | Error e -> "rejected: " ^ Printexc.to_string e ^ "\n"
  | Ok res ->
      let buf = Buffer.create 4096 in
      List.iter
        (fun (s : Pipeline.step) ->
          let m = s.remark in
          Printf.bprintf buf
            "step %s\npass %s\nfired %b\nreason %s\nnotes %s\nbefore %s\n\
             after %s\ndiagnostics %s\n%s\n"
            s.step_name s.pass s.fired m.Remark.reason
            (String.concat "\n      " m.Remark.notes)
            (Remark.json_of_metrics m.Remark.before_m)
            (Remark.json_of_metrics m.Remark.after_m)
            (V.json_of_diagnostics s.diagnostics)
            (text s.kernel_after s.launch_after))
        res.steps;
      Printf.bprintf buf "final\n%s" (text res.kernel res.launch);
      Buffer.contents buf

let summary (r : S.run) =
  match r.outcome with
  | Error _ -> "rejected"
  | Ok res ->
      let fired = List.filter (fun (s : Pipeline.step) -> s.fired) res.steps in
      Printf.sprintf "%d steps fired" (List.length fired)

(* table lines: configuration, transcript MD5, outcome summary *)
let rows () =
  List.map
    (fun r -> (label r, S.md5 (transcript r), summary r))
    (Lazy.force S.runs)

let record path = S.write_table path (rows ())

let test_golden () =
  S.check_table golden_file (rows ()) ~show:(fun _ -> "transcript differs")

let cases =
  [
    Alcotest.test_case "pipeline output pinned over the grid" `Slow
      test_golden;
  ]

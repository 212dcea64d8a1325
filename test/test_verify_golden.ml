(** Golden pin for the concrete verifier, the oracle of translation
    validation and of {!Gpcc_analysis.Symverify}.

    Every distinct (kernel, launch) the pipeline validates over the 12
    registry and extra kernels × the 30-point Section-4 grid (the naive
    input plus every fired step) is verified with [Verify.check]
    directly, whatever the symbolic tier would decide, and the MD5 of
    its JSON diagnostics (warnings included) is compared with the table
    in [verify_golden.tsv]. Any change to what the verifier reports on
    any of those targets fails here.

    Sizes are small so the check stays quick, while fft's thread merge
    still fires and conv/strsm keep their loops. After a deliberate
    change to the verifier's output, regenerate the table from the
    repository root with
    [dune exec test/test_main.exe -- record-verify-golden
    test/verify_golden.tsv]. *)

open Gpcc_ast
open Gpcc_workloads
module V = Gpcc_analysis.Verify
module Pipeline = Gpcc_core.Pipeline
module Explore = Gpcc_core.Explore

let sizes =
  [
    ("tmv", 64);
    ("mm", 64);
    ("mv", 64);
    ("vv", 1024);
    ("rd", 16384);
    ("strsm", 64);
    ("conv", 64);
    ("tp", 64);
    ("demosaic", 64);
    ("imregionmax", 64);
    ("rd-complex", 16384);
    ("fft", 2048);
  ]

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
    let key =
      Digest.to_hex (Digest.string (Pp.kernel_to_string ~launch:l k))
    in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      out :=
        { t_key = key; t_label = label; t_kernel = k; t_launch = l } :: !out
    end
  in
  List.iter
    (fun (w : Workload.t) ->
      let naive = Workload.parse w (List.assoc w.name sizes) in
      (match Gpcc_passes.Pass_util.initial_launch naive with
      | Some l -> add (w.name ^ " input") naive l
      | None -> ());
      List.iter
        (fun t ->
          List.iter
            (fun d ->
              let pipeline =
                Pipeline.default ~cfg:Util.cfg280 ~target_block_threads:t
                  ~merge_degree:d ()
              in
              match Pipeline.run ~pipeline naive with
              | r ->
                  List.iter
                    (fun (s : Pipeline.step) ->
                      if s.fired then
                        add
                          (Printf.sprintf "%s %d/%d %s" w.name t d s.step_name)
                          s.kernel_after s.launch_after)
                    r.steps
              | exception e when Pipeline.verifier_rejected e -> ())
            Explore.default_merge_degrees)
        Explore.default_block_targets)
    (Registry.all @ Registry.extras);
  List.rev !out

let diagnostics (t : target) =
  V.json_of_diagnostics (V.check ~launch:t.t_launch t.t_kernel)

let md5 s = Digest.to_hex (Digest.string s)
let golden_file = "verify_golden.tsv"

(* table lines: target key, diagnostics MD5, first-appearance label *)
let record path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun t ->
          Printf.fprintf oc "%s\t%s\t%s\n" t.t_key
            (md5 (diagnostics t))
            t.t_label)
        (targets ()))

(* called by the test entry point before Alcotest *)
let maybe_record () =
  match Sys.argv with
  | [| _; "record-verify-golden"; path |] ->
      record path;
      exit 0
  | _ -> ()

let read_golden () : (string * (string * string)) list =
  In_channel.with_open_text golden_file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.split_on_char '\t' line with
         | [ key; md5; label ] -> Some (key, (md5, label))
         | _ -> None)

let test_golden () =
  let golden = read_golden () in
  let ts = targets () in
  let mismatches =
    List.filter_map
      (fun t ->
        match List.assoc_opt t.t_key golden with
        | None -> Some (Printf.sprintf "new target %s (%s)" t.t_key t.t_label)
        | Some (pinned, _) ->
            let ds = diagnostics t in
            if String.equal (md5 ds) pinned then None
            else
              Some
                (Printf.sprintf "%s: diagnostics changed (pinned %s): %s"
                   t.t_label pinned ds))
      ts
  in
  let missing =
    List.filter_map
      (fun (key, (_, label)) ->
        if List.exists (fun t -> String.equal t.t_key key) ts then None
        else
          Some
            (Printf.sprintf "pinned target %s (%s) is no longer validated" key
               label))
      golden
  in
  match mismatches @ missing with
  | [] -> ()
  | errs ->
      Alcotest.failf "%d of %d targets differ from %s:\n%s"
        (List.length errs) (List.length golden) golden_file
        (String.concat "\n" (List.filteri (fun i _ -> i < 10) errs))

(* The suite name is no longer than the existing ones: Alcotest sizes
   its name column to the longest suite name and truncates test names
   to fit what is left, so a longer one would change how every other
   test's name is printed. *)
let suite =
  ( "golden",
    [
      Alcotest.test_case "verify diagnostics pinned over the grid" `Slow
        test_golden;
    ] )

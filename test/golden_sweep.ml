(** The compile sweep shared by the golden pins: the 12 registry and
    extra kernels × the 30-point Section-4 grid × both GPU models, each
    configuration run once through {!Gpcc_core.Pipeline.run} with
    translation validation on.

    Sizes are small so the sweep stays quick, while fft's thread merge
    still fires and conv/strsm keep their loops. *)

open Gpcc_workloads
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

let gpus = [ ("gtx280", Util.cfg280); ("gtx8800", Util.cfg8800) ]

type run = {
  workload : string;
  gpu : string;
  target : int;  (** threads per block *)
  degree : int;  (** thread-merge degree *)
  naive : Gpcc_ast.Ast.kernel;
  outcome : (Pipeline.result, exn) result;
}

(* kernels in registry order, then GPU models, then grid points in
   Explore's order *)
let sweep () : run list =
  List.concat_map
    (fun (w : Workload.t) ->
      let naive = Workload.parse w (List.assoc w.name sizes) in
      List.concat_map
        (fun (gpu, cfg) ->
          List.concat_map
            (fun target ->
              List.map
                (fun degree ->
                  let pipeline =
                    Pipeline.default ~cfg ~target_block_threads:target
                      ~merge_degree:degree ()
                  in
                  let outcome =
                    match Pipeline.run ~pipeline naive with
                    | r -> Ok r
                    | exception e -> Error e
                  in
                  { workload = w.name; gpu; target; degree; naive; outcome })
                Explore.default_merge_degrees)
            Explore.default_block_targets)
        gpus)
    (Registry.all @ Registry.extras)

(* one sweep per test process, shared by every pin that needs it *)
let runs : run list Lazy.t = lazy (sweep ())
let md5 s = Digest.to_hex (Digest.string s)

(* Golden tables are tab-separated: a key, an MD5 and a label. *)
let read_table path : (string * (string * string)) list =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.split_on_char '\t' line with
         | [ key; md5; label ] -> Some (key, (md5, label))
         | _ -> None)

let write_table path (rows : (string * string * string) list) =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun (key, md5, label) ->
          Printf.fprintf oc "%s\t%s\t%s\n" key md5 label)
        rows)

(* Compare computed rows with a pinned table; [show] renders a
   mismatching row's full content for the failure message. *)
let check_table path (rows : (string * string * string) list)
    ~(show : string -> string) =
  let golden = read_table path in
  let mismatches =
    List.filter_map
      (fun (key, md5, label) ->
        match List.assoc_opt key golden with
        | None -> Some (Printf.sprintf "new entry %s (%s)" key label)
        | Some (pinned, _) ->
            if String.equal md5 pinned then None
            else
              Some
                (Printf.sprintf "%s: changed (pinned %s): %s" label pinned
                   (show key)))
      rows
  in
  let missing =
    List.filter_map
      (fun (key, (_, label)) ->
        if List.exists (fun (k, _, _) -> String.equal k key) rows then None
        else Some (Printf.sprintf "pinned entry %s (%s) is gone" key label))
      golden
  in
  match mismatches @ missing with
  | [] -> ()
  | errs ->
      Alcotest.failf "%d of %d entries differ from %s:\n%s" (List.length errs)
        (List.length golden) path
        (String.concat "\n" (List.filteri (fun i _ -> i < 10) errs))

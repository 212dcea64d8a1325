(** Minimal JSON emission for the bench harness's machine-readable
    results (no external dependency; the repo deliberately avoids adding
    one for a writer this small). Output is RFC 8259: strings are
    escaped, non-finite floats become [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape = Gpcc_analysis.Verify.json_escape

let rec write (buf : Buffer.t) (indent : int) (v : t) : unit =
  let pad n = String.make (2 * n) ' ' in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_finite f then
        (* %.17g round-trips; trim to something readable but faithful *)
        Buffer.add_string buf (Printf.sprintf "%.6g" f)
      else Buffer.add_string buf "null"
  | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf (pad (indent + 1));
          write buf (indent + 1) item)
        items;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (pad indent);
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf (pad (indent + 1));
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\": ";
          write buf (indent + 1) item)
        fields;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (pad indent);
      Buffer.add_char buf '}'

let to_string (v : t) : string =
  let buf = Buffer.create 1024 in
  write buf 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let to_file (path : string) (v : t) : unit =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc (to_string v);
  close_out oc;
  Sys.rename tmp path

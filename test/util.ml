(** Shared helpers for the test suites. *)

open Gpcc_ast

let cfg280 = Gpcc_sim.Config.gtx280
let cfg8800 = Gpcc_sim.Config.gtx8800

let parse_kernel src =
  let k = Parser.kernel_of_string src in
  Typecheck.check k;
  k

let expr = Parser.expr_of_string

(** Alcotest testable for expressions (structural equality). *)
let expr_t = Alcotest.testable (Fmt.of_to_string Pp.expr_to_string) Ast.equal_expr

let check_expr = Alcotest.check expr_t

(** Run a kernel over the full grid and read one output array. *)
let run_full ?(cfg = cfg280) (k : Ast.kernel) (launch : Ast.launch)
    (inputs : (string * float array) list) (out : string) :
    float array * Gpcc_sim.Launch.result =
  let mem = Gpcc_sim.Devmem.of_kernel k in
  List.iter (fun (n, d) -> Gpcc_sim.Devmem.write mem n d) inputs;
  let r = Gpcc_sim.Launch.run ~mode:Gpcc_sim.Launch.Full cfg k launch mem in
  (Gpcc_sim.Devmem.read mem out, r)

let floats_close ?(eps = 1e-4) a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Float.abs (x -. y) <= eps *. Float.max 1.0 (Float.abs y))
       a b

let check_floats ?eps msg want got =
  if not (floats_close ?eps got want) then begin
    let diffs = ref [] in
    Array.iteri
      (fun i w ->
        if
          i < Array.length got
          && Float.abs (got.(i) -. w) > 1e-4 *. Float.max 1.0 (Float.abs w)
        then diffs := i :: !diffs)
      want;
    Alcotest.failf "%s: %d mismatches (first at %s)" msg
      (List.length !diffs)
      (match List.rev !diffs with
      | i :: _ -> Printf.sprintf "[%d] got %f want %f" i got.(i) want.(i)
      | [] -> "length")
  end

(** Compile a naive kernel with the given knobs. [disable] names
    registry passes to leave out. *)
let compile ?(cfg = cfg280) ?(target = 128) ?(degree = 4) ?(disable = [])
    ?(verify = true) k =
  let pipeline =
    Gpcc_core.Pipeline.disable disable
      (Gpcc_core.Pipeline.default ~cfg ~target_block_threads:target
         ~merge_degree:degree ~verify ())
  in
  Gpcc_core.Pipeline.run ~pipeline k

(** Check one workload's optimized kernel against its CPU reference. *)
let check_workload ?(cfg = cfg280) ?target ?degree name n =
  let w = Gpcc_workloads.Registry.find_exn name in
  let k = Gpcc_workloads.Workload.parse w n in
  let r = compile ~cfg ?target ?degree k in
  Gpcc_workloads.Workload.check cfg w n r.kernel r.launch;
  r

(** Body of the step named [name] in a compile result. *)
let step_after (r : Gpcc_core.Pipeline.result) name =
  match
    List.find_opt
      (fun (s : Gpcc_core.Pipeline.step) -> String.equal s.step_name name)
      r.steps
  with
  | Some s -> s
  | None -> Alcotest.failf "no pipeline step named %s" name

let kernel_text (k : Ast.kernel) = Pp.kernel_to_string k

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let assert_contains msg hay needle =
  if not (contains ~needle hay) then
    Alcotest.failf "%s: expected to find %S in:\n%s" msg needle hay

(** {1 Artifact-store records on disk}

    The store appends records to [<root>/*.pack] files. These helpers
    locate and damage records the way a test needs, reading the
    envelope without the store's code: a header line
    ["gpcc-store-v1 <kind> <version> <key bytes> <payload bytes>"], the
    key, the payload, records back to back. *)

type store_record = {
  sr_pack : string;  (** the pack's path *)
  sr_off : int;
  sr_len : int;
  sr_kind : string;
  sr_version : string;
  sr_key : string;
}

let read_file p =
  let ic = open_in_bin p in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let pack_files root =
  (if Sys.file_exists root then Sys.readdir root else [||])
  |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".pack")
  |> List.sort compare
  |> List.map (Filename.concat root)

(** The complete records of a pack, in order, as the store reads them:
    a damaged stretch is skipped up to the next header. *)
let pack_records (pack : string) : store_record list =
  let data = read_file pack in
  let n = String.length data and marker = "gpcc-store-v1 " in
  let at pos =
    match String.index_from_opt data pos '\n' with
    | None -> None
    | Some nl -> (
        match String.split_on_char ' ' (String.sub data pos (nl - pos)) with
        | [ "gpcc-store-v1"; kind; version; klen; plen ] -> (
            match (int_of_string_opt klen, int_of_string_opt plen) with
            | Some k, Some p when k >= 0 && p >= 0 && nl + 1 + k + p <= n ->
                Some
                  {
                    sr_pack = pack;
                    sr_off = pos;
                    sr_len = nl + 1 + k + p - pos;
                    sr_kind = kind;
                    sr_version = version;
                    sr_key = String.sub data (nl + 1) k;
                  }
            | _ -> None)
        | _ -> None)
  in
  let m = String.length marker in
  let rec next i =
    if i + m > n then None
    else if String.sub data i m = marker then Some i
    else next (i + 1)
  in
  (* a record is taken when a header, or the start of one, follows it *)
  let followed e =
    let k = min m (n - e) in
    String.sub data e k = String.sub marker 0 k
  in
  let rec go pos acc =
    if pos >= n then List.rev acc
    else
      match at pos with
      | Some r when followed (pos + r.sr_len) -> go (pos + r.sr_len) (r :: acc)
      | _ -> (
          match next (pos + 1) with Some q -> go q acc | None -> List.rev acc)
  in
  go 0 []

(** Every complete record of [kind] whose key contains [needle], in the
    store at [root] (default: the default store). *)
let store_records ?root ~kind needle : store_record list =
  let root =
    match root with Some r -> r | None -> Gpcc_util.Store.default_root ()
  in
  pack_files root
  |> List.concat_map pack_records
  |> List.filter (fun r -> r.sr_kind = kind && contains ~needle r.sr_key)

(** Whether a pack's bytes are exactly its complete records. *)
let pack_is_records pack =
  List.fold_left (fun a r -> a + r.sr_len) 0 (pack_records pack)
  = String.length (read_file pack)

let write_at path off content ~truncate =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      ignore (Unix.write_substring fd content 0 (String.length content));
      if truncate then Unix.ftruncate fd (off + String.length content))

(** Relabel a record's kind in place (its first letter becomes ['_']),
    so no reader of the kind takes it; the records around it stay as
    they were. *)
let drop_record (r : store_record) =
  write_at r.sr_pack
    (r.sr_off + String.length "gpcc-store-v1 ")
    "_" ~truncate:false

(** Replace the last record of its pack with [content], as a writer
    that died or a damaged disk would leave it. *)
let overwrite_record (r : store_record) content =
  if r.sr_off + r.sr_len <> String.length (read_file r.sr_pack) then
    Alcotest.failf "record at %d of %s is not its pack's last" r.sr_off
      r.sr_pack;
  write_at r.sr_pack r.sr_off content ~truncate:true

(** A well-formed record in [r]'s place whose payload is [payload]. *)
let envelope (r : store_record) payload =
  Printf.sprintf "gpcc-store-v1 %s %s %d %d\n%s%s" r.sr_kind r.sr_version
    (String.length r.sr_key) (String.length payload) r.sr_key payload

(** Kernels whose second loop reuses (or renames) the first loop's
    variable, with the exact error rule ids both verifiers must report:
    a loop variable is bound at loop entry, so a reused name sees the
    second loop's iterations, not the value the first loop left behind. *)
let loop_reuse_cases : (string * string * string list) list =
  let src name first body =
    Printf.sprintf
      {|#pragma gpcc output b
__kernel void %s(float a[256], float b[256]) {
  __shared__ float s[256];
  for (int %s = 0; %s < 2; %s++) { s[tidx] = a[idx]; }
  __syncthreads();
  for (int i = 0; i < 2; i++) { %s }
  __syncthreads();
  b[idx] = s[tidx];
}|}
      name first first first body
  in
  let race = "s[i] = a[idx];" and sync = "if (i < 1) { __syncthreads(); }" in
  [
    ("race_i", src "race_i" "i" race, [ "race-shared" ]);
    ("race_j", src "race_j" "j" race, [ "race-shared" ]);
    ("sync_i", src "sync_i" "i" sync, []);
    ("sync_j", src "sync_j" "j" sync, []);
  ]

(** Kernels whose loop body reassigns a local that an index or the loop
    limit reads, with the access that later trips take out of bounds:
    [a] walks past [x[63]] from the second trip on, the limit reads
    [c = 100] on every trip after the first, and a limit the body sets
    back before the next trip must not be ranged at the value it holds
    at the access. *)
let loop_carried_cases : (string * string * string) list =
  [
    ( "carried_index",
      {|#pragma gpcc output out
__kernel void carried_index(float x[64], float out[16]) {
  int a = tidx;
  for (int i = 0; i < 8; i++) {
    out[tidx] = x[a];
    a = a + 16;
  }
}|},
      "x[a]" );
    ( "carried_limit",
      {|#pragma gpcc output out
__kernel void carried_limit(float x[16], float out[16]) {
  int c = 4;
  for (int i = 0; i < c; i++) {
    out[tidx] = x[i];
    c = 100;
  }
}|},
      "x[i]" );
    ( "carried_rebound",
      {|#pragma gpcc output out
__kernel void carried_rebound(float x[16], float out[16]) {
  int c = 100;
  for (int i = 0; i < c; i++) {
    c = 4;
    out[tidx] = x[i];
    c = 100;
  }
}|},
      "x[i]" );
  ]

(** Kernels that read one array twice through the same index text, the
    second time out of bounds, with the message of the error both
    verifiers must not miss: a local reassigned between the reads, one
    loop variable name in two sibling loops, and two guards whose text
    differs only past the 28 characters a diagnostic path keeps. *)
let rebound_cases : (string * string * string) list =
  [
    ( "reassigned_local",
      {|#pragma gpcc output out
__kernel void reassigned_local(float x[64], float out[64]) {
  int b = tidx;
  out[tidx] = x[b];
  b = tidx + 100;
  out[tidx] = x[b];
}|},
      "x[b] indexes element 100 of x" );
    ( "sibling_loops",
      {|#pragma gpcc output out
__kernel void sibling_loops(float x[64], float out[64]) {
  for (int i = 0; i < 4; i++) {
    out[tidx] = x[i];
  }
  for (int i = 0; i < 100; i++) {
    out[tidx] = x[i];
  }
}|},
      "x[i] indexes element 99 of x" );
    ( "long_guards",
      {|#pragma gpcc output out
__kernel void long_guards(float x[64], float out[64]) {
  if (tidx < 1000000000 && tidx + 0 < 4) {
    out[tidx] = x[tidx + 60];
  }
  if (tidx < 1000000000 && tidx + 0 < 64) {
    out[tidx] = x[tidx + 60];
  }
}|},
      "x[tidx + 60] indexes element 64 of x" );
  ]

(** Block-reduction kernels in the shape of exaregex's
    [block_reduce_aligned] and [block_reduce_limit] (SNIPPETS.md):
    guarded reads of [storage\[tidx - i\]] between paired barriers in a
    loop, with the error diagnostics (rule, path) the concrete verifier
    reports at the pipeline's starting launch, (4,1)x(16,1). Dropping the
    middle barrier races the store with the reads of its own trip,
    dropping the trailing one races it with the next trip's reads. The
    step is constant, or doubles ([i += i], exaregex's own shape): a step
    that reads the loop variable is evaluated trip by trip. *)
let reduce_cases : (string * string * (string * string) list) list =
  let src name guard step ~mid ~trail =
    let sync b = if b then "__syncthreads();" else "" in
    Printf.sprintf
      {|#pragma gpcc dim n 16
#pragma gpcc output out
__kernel void %s(float x[64], float out[64], int n) {
  __shared__ float storage[16];
  storage[tidx] = x[idx];
  __syncthreads();
  float r = storage[tidx];
  for (int i = 1; i < 16; i += %s) {
    if (%s) {
      r = r + storage[tidx - i];
    }
    %s
    storage[tidx] = r;
    %s
  }
  out[idx] = r;
}|}
      name step guard (sync mid) (sync trail)
  in
  List.concat_map
    (fun (name, guard, step) ->
      [
        (name, src name guard step ~mid:true ~trail:true, []);
        ( name ^ "_mid",
          src (name ^ "_mid") guard step ~mid:false ~trail:true,
          [ ("race-shared", "for(i)") ] );
        ( name ^ "_trail",
          src (name ^ "_trail") guard step ~mid:true ~trail:false,
          [ ("race-shared", Printf.sprintf "for(i)/if(%s)" guard) ] );
      ])
    [
      ("reduce_limit", "tidx < n && tidx >= i", "4");
      ("reduce_aligned", "tidx >= i", "4");
      ("reduce_doubling", "tidx >= i", "i");
    ]

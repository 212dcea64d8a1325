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

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

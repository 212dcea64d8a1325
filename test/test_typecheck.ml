(** Type-checker tests: accepted programs and each rejection class. *)

open Gpcc_ast
open Util

let accepts src =
  match Typecheck.check (Parser.kernel_of_string src) with
  | () -> ()
  | exception Typecheck.Type_error m -> Alcotest.failf "rejected: %s" m

let rejects ~reason src =
  match Typecheck.check (Parser.kernel_of_string src) with
  | () -> Alcotest.failf "accepted ill-typed program (%s)" reason
  | exception Typecheck.Type_error _ -> ()

let test_accepts_basics () =
  accepts
    {|__kernel void f(float a[32], float o[32]) {
      float x = a[idx] * 2 + 1;
      int i = idx % 4;
      o[idx] = i > 2 ? x : -x;
    }|};
  accepts
    {|__kernel void f(float o[32]) {
      float2 v = make_float2(1.0, 2.0);
      v.x = v.y + 1;
      o[idx] = v.x;
    }|};
  accepts
    {|__kernel void f(float a[4][8][16], float o[16]) {
      o[idx] = a[1][2][idx];
    }|}

let test_rejects_unbound () =
  rejects ~reason:"unbound variable"
    "__kernel void f(float o[16]) { o[idx] = nope; }";
  rejects ~reason:"unbound array"
    "__kernel void f(float o[16]) { o[idx] = a[idx]; }"

let test_rejects_rank () =
  rejects ~reason:"rank mismatch"
    "__kernel void f(float a[4][4], float o[16]) { o[idx] = a[idx]; }";
  rejects ~reason:"scalar indexed"
    "__kernel void f(float o[16]) { float x = 0; o[idx] = x[0]; }"

let test_rejects_types () =
  rejects ~reason:"float index"
    "__kernel void f(float a[16], float o[16]) { float x = 1; o[idx] = a[x]; }";
  rejects ~reason:"mod on float"
    "__kernel void f(float o[16]) { float x = 1; o[idx] = x % 2; }";
  rejects ~reason:"condition not boolean"
    "__kernel void f(float o[16]) { float x = 1; if (x) { o[idx] = 1; } }";
  rejects ~reason:"field on float"
    "__kernel void f(float o[16]) { float x = 1; o[idx] = x.y; }";
  rejects ~reason:".z on float2"
    "__kernel void f(float o[16]) { float2 v = make_float2(1.0, 2.0); o[idx] = v.z; }"

let test_rejects_structure () =
  rejects ~reason:"redeclaration"
    "__kernel void f(float o[16]) { float x = 1; float x = 2; o[idx] = x; }";
  rejects ~reason:"loop shadowing"
    "__kernel void f(float o[16]) { int i = 0; for (int i = 0; i < 4; i++) o[idx] = 1; }";
  rejects ~reason:"shared with init"
    "__kernel void f(float o[16]) { __shared__ float s[4] = 1; o[idx] = s[0]; }";
  rejects ~reason:"global sync in loop"
    "__kernel void f(float o[16]) { for (int i = 0; i < 4; i++) __global_sync(); o[idx] = 1; }";
  rejects ~reason:"assign to array"
    "__kernel void f(float a[16], float o[16]) { a = o; }"

let test_rejects_calls () =
  rejects ~reason:"unknown intrinsic"
    "__kernel void f(float o[16]) { o[idx] = frobnicate(1.0); }";
  rejects ~reason:"arity"
    "__kernel void f(float o[16]) { o[idx] = sqrtf(1.0, 2.0); }"

let test_rejects_pragmas () =
  rejects ~reason:"dim on unknown param"
    "#pragma gpcc dim q 4\n__kernel void f(float o[16]) { o[idx] = 1; }";
  rejects ~reason:"dim on array param"
    "#pragma gpcc dim o 4\n__kernel void f(float o[16]) { o[idx] = 1; }";
  rejects ~reason:"output on scalar"
    "#pragma gpcc output w\n__kernel void f(float o[16], int w) { o[idx] = 1; }";
  (* __-prefixed pragma names are compiler directives, not parameters *)
  accepts
    "#pragma gpcc dim __threads_x 64\n__kernel void f(float o[16]) { o[idx] = 1; }"

let test_int_float_promotion () =
  accepts
    {|__kernel void f(float o[16]) {
      float x = 1;
      x = x + 2;
      o[idx] = x * idx;
    }|};
  rejects ~reason:"int var from float"
    "__kernel void f(float o[16]) { int i = 1.5; o[idx] = i; }"

let test_generated_kernels_typecheck () =
  (* every optimized kernel must pass the same checker *)
  List.iter
    (fun (w : Gpcc_workloads.Workload.t) ->
      let k = Gpcc_workloads.Workload.parse w w.test_size in
      let r = compile k in
      match Typecheck.check_result r.kernel with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s optimized kernel ill-typed: %s" w.name m)
    Gpcc_workloads.Registry.all

(* a map-based scope would silently merge the two bindings *)
let test_rejects_duplicate_params () =
  match
    Typecheck.check
      (Parser.kernel_of_string
         "__kernel void dup(float a[256], float b[256], float a[256]) { \
          b[idx] = a[idx]; }")
  with
  | () -> Alcotest.fail "accepted a duplicate parameter"
  | exception Typecheck.Type_error m ->
      Alcotest.(check string) "message" "duplicate parameter a" m

let suite =
  let t n f = Alcotest.test_case n `Quick f in
  ( "typecheck",
    [
      t "accepts basics" test_accepts_basics;
      t "rejects unbound" test_rejects_unbound;
      t "rejects rank errors" test_rejects_rank;
      t "rejects type errors" test_rejects_types;
      t "rejects structure errors" test_rejects_structure;
      t "rejects bad calls" test_rejects_calls;
      t "pragma validation" test_rejects_pragmas;
      t "rejects duplicate parameters" test_rejects_duplicate_params;
      t "int/float promotion" test_int_float_promotion;
      Alcotest.test_case "optimized kernels typecheck" `Slow
        test_generated_kernels_typecheck;
    ] )

(** Quickstart: compile a naive kernel you wrote yourself, read the
    optimized kernel the compiler produces, and run both on the simulator.

    Run with:  dune exec examples/quickstart.exe *)

let naive_source =
  {|#pragma gpcc dim w 256
#pragma gpcc output c
__kernel void my_mm(float a[256][256], float b[256][256], float c[256][256], int w) {
  float sum = 0;
  for (int i = 0; i < w; i++)
    sum += a[idy][i] * b[i][idx];
  c[idy][idx] = sum;
}
|}

let () =
  (* 1. parse and type-check the naive kernel *)
  let naive = Gpcc_ast.Parser.kernel_of_string naive_source in
  Gpcc_ast.Typecheck.check naive;
  print_endline "=== input: naive kernel (one thread per output element) ===";
  print_string naive_source;

  (* 2. run the optimizing pipeline (vectorization, coalescing,
     thread/thread-block merge, prefetching, partition-camping
     elimination) for a GTX 280 *)
  let pipeline =
    Gpcc_core.Pipeline.default ~cfg:Gpcc_sim.Config.gtx280
      ~target_block_threads:128 ~merge_degree:8 ()
  in
  let r = Gpcc_core.Pipeline.run ~pipeline naive in

  print_endline "\n=== what the compiler did ===";
  print_string (Gpcc_core.Pipeline.report r);

  print_endline "\n=== output: optimized kernel + launch configuration ===";
  print_string (Gpcc_ast.Pp.kernel_to_string ~launch:r.launch r.kernel);

  (* 3. run both versions on the simulated GTX 280 and compare *)
  let run label kernel launch =
    let mem = Gpcc_sim.Devmem.of_kernel kernel in
    Gpcc_sim.Devmem.fill mem "a" (fun i -> float_of_int (i mod 17) /. 16.0);
    Gpcc_sim.Devmem.fill mem "b" (fun i -> float_of_int (i mod 13) /. 12.0);
    let res =
      Gpcc_sim.Launch.run ~mode:(Gpcc_sim.Launch.Sampled 4)
        Gpcc_sim.Config.gtx280 kernel launch mem
    in
    Printf.printf "%-10s %8.2f GFLOPS  (%s-bound, %d blocks/SM)\n" label
      res.timing.gflops res.timing.bound res.timing.occupancy.blocks_per_sm;
    res.timing.gflops
  in
  print_endline "\n=== simulated performance (GTX 280) ===";
  let naive_launch = Option.get (Gpcc_passes.Pass_util.naive_launch naive) in
  let g0 = run "naive" naive naive_launch in
  let g1 = run "optimized" r.kernel r.launch in
  Printf.printf "speedup: %.1fx\n" (g1 /. g0)

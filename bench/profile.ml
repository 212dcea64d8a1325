(* Single-workload profiling driver for backend work: run one workload's
   naive kernel repeatedly on one backend, serially, so `perf` / OCaml's
   own profilers see a steady hot loop without the bench harness around
   it. Usage: profile.exe <workload> <vector|ref> <reps> *)
module W = Gpcc_workloads.Workload

let () =
  let wname = Sys.argv.(1) in
  let backend =
    match Sys.argv.(2) with
    | "vector" -> Gpcc_sim.Launch.Vector
    | _ -> Gpcc_sim.Launch.Reference
  in
  let reps = int_of_string Sys.argv.(3) in
  let w = Gpcc_workloads.Registry.find_exn wname in
  let n = w.W.test_size in
  let k = W.parse w n in
  let launch = Option.get (Gpcc_passes.Pass_util.naive_launch k) in
  let cfg = Gpcc_sim.Config.gtx280 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    let mem = Gpcc_sim.Devmem.of_kernel k in
    List.iter
      (fun (nm, data) -> Gpcc_sim.Devmem.write mem nm data)
      (w.W.inputs n);
    ignore
      (Gpcc_sim.Launch.run ~mode:Gpcc_sim.Launch.Full ~backend ~jobs:1 cfg k
         launch mem)
  done;
  Printf.printf "%s %s: %.3f s for %d reps\n" wname Sys.argv.(2)
    (Unix.gettimeofday () -. t0)
    reps;
  let pc = Gpcc_sim.Launch.perf_counters () in
  Printf.printf
    "  plane memo %d hits / %d misses, closed-form credits %d\n"
    pc.Gpcc_sim.Launch.pc_plane_hits pc.Gpcc_sim.Launch.pc_plane_misses
    pc.Gpcc_sim.Launch.pc_closed_form

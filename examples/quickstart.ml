(* Quickstart: take the paper's first example (loop L1), derive its
   communication-free allocation, look at the partition, transform the
   loop, and run it on a simulated 4-node multicomputer.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* 1. Write the loop in the DSL (or build it with Cf_loop directly). *)
  let nest =
    Cf_loop.Parse.nest
      {|
for i = 1 to 4
  for j = 1 to 4
    S1: A[2*i, j] := C[i, j] * 7;
    S2: B[j, i+1] := A[2*i-2, j-1] + C[i-1, j-1];
  end
end
|}
  in
  Format.printf "@[<v>Input nest:@,%a@]@." Cf_loop.Nest.pp nest;

  (* 2. Plan: reference spaces -> partitioning space -> partition ->
     transformed forall nest.  Nonduplicate keeps one copy per array
     element (Theorem 1). *)
  let plan =
    Cf_pipeline.Pipeline.plan ~strategy:Cf_core.Strategy.Nonduplicate nest
  in
  Format.printf "%a@." Cf_pipeline.Pipeline.describe plan;

  (* 3. The partition in pictures: 7 diagonal blocks, exactly Fig. 3. *)
  let partition =
    Cf_core.Iter_partition.make nest plan.Cf_pipeline.Pipeline.space
  in
  print_string (Cf_report.Figures.iteration_partition partition);
  print_string (Cf_report.Figures.data_partition nest partition "A");

  (* 4. Execute on a simulated machine.  Every array element access is
     checked against the owning processor's local memory, and the final
     values are compared with a sequential run. *)
  let sim = Cf_pipeline.Pipeline.simulate ~procs:4 plan in
  Format.printf "@[<v>%a@]@." Cf_exec.Parexec.pp_report
    sim.Cf_pipeline.Pipeline.report;
  Format.printf "load balance: %a@." Cf_exec.Balance.pp
    sim.Cf_pipeline.Pipeline.balance;
  Format.printf "simulated makespan: %.6f s@." sim.Cf_pipeline.Pipeline.makespan;
  if
    Cf_exec.Parexec.ok sim.Cf_pipeline.Pipeline.report
    && Cf_pipeline.Pipeline.verified plan
  then print_endline "OK: communication-free and correct."
  else (print_endline "FAILED"; exit 1)

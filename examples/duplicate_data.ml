(* Loop L2 (Sec. III.B): the nonduplicate strategy is stuck - the
   reference space of A spans the whole plane - but both arrays are
   fully duplicable (no flow dependences), so replicating data lets
   every iteration run on its own processor (Figs. 4-5).

   Run with: dune exec examples/duplicate_data.exe *)

let () =
  let nest =
    Cf_loop.Parse.nest
      {|
for i = 1 to 4
  for j = 1 to 4
    S1: A[i+j, i+j] := B[2*i, j] * A[i+j-1, i+j];
    S2: A[i+j-1, i+j-1] := B[2*i-1, j-1] / 3;
  end
end
|}
  in
  Format.printf "@[<v>Loop L2:@,%a@]@." Cf_loop.Nest.pp nest;

  (* Definition 5: both arrays carry no flow dependence. *)
  List.iter
    (fun a ->
      Format.printf "  %s: %a@." a Cf_dep.Analysis.pp_duplicability
        (Cf_dep.Analysis.duplicability nest a))
    (Cf_loop.Nest.arrays nest);

  (* Theorem 1 vs Theorem 2. *)
  let nondup =
    Cf_pipeline.Pipeline.plan ~strategy:Cf_core.Strategy.Nonduplicate nest
  in
  let dup =
    Cf_pipeline.Pipeline.plan ~strategy:Cf_core.Strategy.Duplicate nest
  in
  Format.printf "nonduplicate: Psi = %a -> %d block(s)@." Cf_linalg.Subspace.pp
    nondup.Cf_pipeline.Pipeline.space
    (Cf_pipeline.Pipeline.block_count nondup);
  Format.printf "duplicate:    Psi = %a -> %d singleton blocks@."
    Cf_linalg.Subspace.pp dup.Cf_pipeline.Pipeline.space
    (Cf_pipeline.Pipeline.block_count dup);

  (* How much data gets replicated (Fig. 4). *)
  let partition =
    Cf_core.Iter_partition.make nest dup.Cf_pipeline.Pipeline.space
  in
  let dp = Cf_core.Data_partition.make nest partition "A" in
  Format.printf
    "array A: %d distinct elements touched, %d stored copies after \
     replication@."
    (List.length (Cf_core.Data_partition.elements dp))
    (Cf_core.Data_partition.total_copy_count dp);
  print_string (Cf_report.Figures.data_partition nest partition "A");

  (* All 16 iterations in parallel on 8 processors, 2 each. *)
  let sim = Cf_pipeline.Pipeline.simulate ~procs:8 dup in
  Format.printf "balance on 8 processors: %a@." Cf_exec.Balance.pp
    sim.Cf_pipeline.Pipeline.balance;
  if Cf_exec.Parexec.ok sim.Cf_pipeline.Pipeline.report then
    print_endline "OK: duplication turned a sequential loop fully parallel."
  else (print_endline "FAILED"; exit 1)

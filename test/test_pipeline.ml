open Cf_pipeline
open Testutil

let pipeline_cases =
  [
    Alcotest.test_case "L1 end-to-end plan" `Quick (fun () ->
        let plan = Pipeline.plan l1 in
        check_int "parallelism" 1 (Pipeline.parallelism plan);
        check_int "blocks" 7 (Pipeline.block_count plan);
        check_bool "verified" true (Pipeline.verified plan));
    Alcotest.test_case "strategy selection changes the plan" `Quick (fun () ->
        let nondup = Pipeline.plan ~strategy:Cf_core.Strategy.Nonduplicate l2 in
        let dup = Pipeline.plan ~strategy:Cf_core.Strategy.Duplicate l2 in
        check_int "nondup sequential" 0 (Pipeline.parallelism nondup);
        check_int "dup fully parallel" 2 (Pipeline.parallelism dup);
        check_int "dup blocks" 16 (Pipeline.block_count dup));
    Alcotest.test_case "minimal strategies populate exact analysis" `Quick
      (fun () ->
        let plan = Pipeline.plan ~strategy:Cf_core.Strategy.Min_duplicate l3 in
        check_bool "exact present" true (plan.Pipeline.exact <> None);
        check_int "parallelism" 1 (Pipeline.parallelism plan);
        let plain = Pipeline.plan l3 in
        check_bool "exact absent" true (plain.Pipeline.exact = None));
    Alcotest.test_case "simulate validates and balances" `Quick (fun () ->
        let plan = Pipeline.plan l1 in
        let sim = Pipeline.simulate ~procs:4 plan in
        check_bool "ok" true (Cf_exec.Parexec.ok sim.Pipeline.report);
        check_int "work conserved" 16
          (Array.fold_left ( + ) 0 sim.Pipeline.balance.Cf_exec.Balance.per_pe);
        check_bool "positive makespan" true (sim.Pipeline.makespan > 0.));
    Alcotest.test_case "charged distribution shows in the makespan" `Quick
      (fun () ->
        let plan = Pipeline.plan l1 in
        let free = Pipeline.simulate ~procs:4 plan in
        let charged =
          Pipeline.simulate ~procs:4 ~with_distribution:true plan
        in
        check_bool "both correct" true
          (Cf_exec.Parexec.ok free.Pipeline.report
           && Cf_exec.Parexec.ok charged.Pipeline.report);
        check_bool "distribution costs time" true
          (charged.Pipeline.makespan > free.Pipeline.makespan);
        check_bool "messages were issued" true
          (Cf_machine.Machine.message_count
             charged.Pipeline.report.Cf_exec.Parexec.machine
           > 0));
    Alcotest.test_case "custom basis is honoured" `Quick (fun () ->
        let plan =
          Pipeline.plan ~basis:[ [| 1; 1; 0 |]; [| -1; 0; 1 |] ] l4
        in
        Alcotest.check
          Alcotest.(array string)
          "paper's variable names" [| "i1'"; "i2'"; "i1" |]
          (Cf_transform.Parloop.names plan.Pipeline.parloop));
    Alcotest.test_case "describe renders everything" `Quick (fun () ->
        let plan = Pipeline.plan l1 in
        let s = Format.asprintf "%a" Pipeline.describe plan in
        let contains needle =
          let nl = String.length needle and hl = String.length s in
          let rec go i =
            i + nl <= hl && (String.sub s i nl = needle || go (i + 1))
          in
          go 0
        in
        check_bool "strategy" true (contains "nonduplicate");
        check_bool "per-array spaces" true (contains "Psi_A");
        check_bool "transformed loop" true (contains "forall"));
  ]

let diagnose_cases =
  [
    Alcotest.test_case "clean loops pass" `Quick (fun () ->
        let issues = Diagnose.check l1 in
        check_bool "usable" true (Diagnose.usable issues);
        check_bool "no errors or warnings" true
          (List.for_all
             (fun (i : Diagnose.issue) -> i.severity = Diagnose.Info)
             issues));
    Alcotest.test_case "non-uniform references are an error" `Quick (fun () ->
        let bad =
          Cf_loop.Parse.nest "for i = 1 to 3\nA[2*i] := A[i] + 1;\nend"
        in
        let issues = Diagnose.check bad in
        check_bool "not usable" false (Diagnose.usable issues);
        check_bool "right code" true
          (List.exists
             (fun (i : Diagnose.issue) -> i.code = "nonuniform-references")
             issues));
    Alcotest.test_case "empty spaces and large spaces flagged" `Quick
      (fun () ->
        let empty = Cf_loop.Parse.nest "for i = 1 to 0\nA[i] := 1;\nend" in
        check_bool "empty is error" false (Diagnose.usable (Diagnose.check empty));
        let big =
          Cf_loop.Parse.nest "for i = 1 to 600\nfor j = 1 to 600\nA[i, j] := 1;\nend\nend"
        in
        check_bool "large is warning" true
          (List.exists
             (fun (i : Diagnose.issue) ->
               i.code = "large-iteration-space"
               && i.severity = Diagnose.Warning)
             (Diagnose.check big)));
    Alcotest.test_case "informational notes" `Quick (fun () ->
        check_bool "L2 singular H_A" true
          (List.exists
             (fun (i : Diagnose.issue) -> i.code = "singular-reference-matrix")
             (Diagnose.check l2));
        check_bool "L2 integer division" true
          (List.exists
             (fun (i : Diagnose.issue) -> i.code = "integer-division")
             (Diagnose.check l2));
        let tri = Cf_workloads.Workloads.triangular_rank1.build ~size:4 in
        check_bool "triangular note" true
          (List.exists
             (fun (i : Diagnose.issue) -> i.code = "non-rectangular")
             (Diagnose.check tri)));
    Alcotest.test_case "out-of-declared-bounds warning" `Quick (fun () ->
        let t =
          Cf_loop.Parse.nest
            "array A[1:4, 1:4];\nfor i = 1 to 4\nfor j = 1 to 4\nA[i, j] := A[i-1, j-1] + 1;\nend\nend"
        in
        check_bool "flagged" true
          (List.exists
             (fun (i : Diagnose.issue) ->
               i.code = "out-of-declared-bounds"
               && i.severity = Diagnose.Warning)
             (Diagnose.check t)));
    Alcotest.test_case "errors sort first" `Quick (fun () ->
        let bad =
          Cf_loop.Parse.nest
            "for i = 1 to 3\nA[2*i] := A[i] / 3;\nend"
        in
        match Diagnose.check bad with
        | { severity = Diagnose.Error; _ } :: _ -> ()
        | _ -> Alcotest.fail "expected error first");
  ]

let properties =
  [
    qtest "plan + simulate is communication-free and correct" ~count:30
      (fun nest ->
        let plan = Pipeline.plan ~strategy:Cf_core.Strategy.Duplicate nest in
        Pipeline.verified plan
        &&
        let sim = Pipeline.simulate ~procs:3 plan in
        Cf_exec.Parexec.ok sim.Pipeline.report)
      arbitrary_nest;
    qtest "parallelism consistent between space and parloop" ~count:40
      (fun nest ->
        let plan = Pipeline.plan nest in
        Pipeline.parallelism plan
        = plan.Pipeline.parloop.Cf_transform.Parloop.n_forall)
      arbitrary_nest;
  ]

(* {1 The product path against the materialized oracle}

   [Pipeline.simulate] runs the indexed engine on the plan's Coset;
   [Parexec.execute] on a materialized [Iter_partition] is the
   reference.  Counters must agree exactly; makespans may differ in the
   last ulp because the two engines sum host sends in different
   orders. *)

module Machine = Cf_machine.Machine

let counters (r : Cf_exec.Parexec.report) =
  ( r.Cf_exec.Parexec.per_pe_iterations,
    Machine.message_count r.Cf_exec.Parexec.machine,
    Machine.message_volume r.Cf_exec.Parexec.machine )

let close_makespans tag a b =
  if Float.abs (a -. b) > 1e-12 *. Float.max (Float.abs a) (Float.abs b)
  then Alcotest.failf "%s: makespan %.17g vs %.17g" tag a b

let procs = 4

let oracle_run (plan : Pipeline.t) =
  let machine =
    Machine.create (Cf_machine.Topology.linear procs) Cf_machine.Cost.transputer
  in
  let report =
    Cf_exec.Parexec.execute ?exact:plan.Pipeline.exact
      ~charge_distribution:true ~machine
      ~placement:(Cf_exec.Parexec.cyclic ~nprocs:procs)
      ~strategy:plan.Pipeline.strategy
      (Cf_core.Iter_partition.make plan.Pipeline.nest plan.Pipeline.space)
  in
  (report, Machine.makespan machine)

let same_as_oracle tag (plan : Pipeline.t) (sim : Pipeline.simulation) =
  let report, makespan = oracle_run plan in
  check_bool (tag ^ ": simulation ok") true
    (Cf_exec.Parexec.ok sim.Pipeline.report);
  check_bool (tag ^ ": oracle ok") true (Cf_exec.Parexec.ok report);
  check_bool (tag ^ ": per-PE iterations, message count and volume") true
    (counters sim.Pipeline.report = counters report);
  close_makespans tag sim.Pipeline.makespan makespan

let engine_cases =
  [
    Alcotest.test_case "simulate matches the materialized engine on kernels"
      `Quick (fun () ->
        List.iter
          (fun (k : Cf_workloads.Workloads.kernel) ->
            let nest = k.Cf_workloads.Workloads.build ~size:5 in
            List.iter
              (fun strategy ->
                let tag =
                  Printf.sprintf "%s/%s" k.Cf_workloads.Workloads.name
                    (Cf_core.Strategy.to_string strategy)
                in
                let plan = Pipeline.plan ~strategy nest in
                same_as_oracle tag plan
                  (Pipeline.simulate ~procs ~with_distribution:true plan))
              Cf_core.Strategy.all)
          Cf_workloads.Workloads.all);
    Alcotest.test_case "relabeled plan simulates like a direct plan" `Quick
      (fun () ->
        let renamed nest =
          Cf_cache.Canon.rename
            ~index:(fun v -> "r_" ^ v)
            ~array:(fun a -> "R" ^ a)
            ~scalar:(fun s -> "r_" ^ s)
            nest
        in
        List.iter
          (fun (name, nest) ->
            List.iter
              (fun strategy ->
                let tag =
                  Printf.sprintf "%s/%s" name
                    (Cf_core.Strategy.to_string strategy)
                in
                let other = renamed nest in
                let hit = Pipeline.relabel (Pipeline.plan ~strategy nest) other in
                let direct = Pipeline.plan ~strategy other in
                let simulate p =
                  Pipeline.simulate ~procs ~with_distribution:true p
                in
                let a = simulate hit and b = simulate direct in
                check_bool (tag ^ ": relabeled ok") true
                  (Cf_exec.Parexec.ok a.Pipeline.report);
                check_bool (tag ^ ": same counters") true
                  (counters a.Pipeline.report = counters b.Pipeline.report);
                check_bool (tag ^ ": same makespan") true
                  (a.Pipeline.makespan = b.Pipeline.makespan))
              Cf_core.Strategy.all)
          all_paper_loops);
  ]

let suites =
  [ ("pipeline", pipeline_cases);
    ("pipeline-engine", engine_cases);
    ("diagnose", diagnose_cases);
    ("pipeline-properties", properties) ]

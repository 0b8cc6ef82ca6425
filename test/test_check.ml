(* Tests for the differential fuzzing subsystem (lib/check): the seeded
   generator, the oracle registry, the greedy shrinker, the regression
   corpus, the fuzz driver — plus destructive-minimality coverage for
   Verify on fuzz-generated nests and output stability of
   [Verify.pp_violation]. *)

open Cf_loop
open Cf_core
open Cf_check
open Testutil

let render nest = Format.asprintf "@[<v>%a@]" Nest.pp nest

(* {2 Generator} *)

let h_rank nest array =
  let h = Nest.h_matrix nest array in
  let n = Nest.depth nest in
  Cf_linalg.Subspace.dim
    (Cf_linalg.Subspace.span n
       (Array.to_list h |> List.map Cf_linalg.Vec.of_int_array))

let gen_tests =
  [
    ( "generate is a pure function of (seed, index, params)",
      `Quick,
      fun () ->
        let p = Gen.default ~depth:2 in
        let a = Gen.generate ~index:3 ~seed:7 p in
        let b = Gen.generate ~index:3 ~seed:7 p in
        check_string "same case twice" (render a) (render b) );
    ( "distinct indices give distinct cases",
      `Quick,
      fun () ->
        let p = Gen.default ~depth:2 in
        let base = render (Gen.generate ~index:0 ~seed:7 p) in
        let differs = ref false in
        for index = 1 to 9 do
          if render (Gen.generate ~index ~seed:7 p) <> base then
            differs := true
        done;
        check_bool "some later case differs from case 0" true !differs );
    ( "generated nests have the requested depth",
      `Quick,
      fun () ->
        List.iter
          (fun depth ->
            let p = Gen.default ~depth in
            for index = 0 to 19 do
              check_int
                (Printf.sprintf "depth %d case %d" depth index)
                depth
                (Nest.depth (Gen.generate ~index ~seed:11 p))
            done)
          [ 1; 2; 3 ] );
    ( "default params reject unsupported depths",
      `Quick,
      fun () ->
        let raises d =
          match Gen.default ~depth:d with
          | exception Invalid_argument _ -> true
          | _ -> false
        in
        check_bool "depth 0" true (raises 0);
        check_bool "depth 4" true (raises 4) );
    ( "forced rank deficiency yields rank <= 1 reference matrices",
      `Quick,
      fun () ->
        let p =
          { (Gen.default ~depth:3) with Gen.rank_deficient_permil = 1000 }
        in
        for index = 0 to 29 do
          let nest = Gen.generate ~index ~seed:5 p in
          List.iter
            (fun a ->
              check_bool
                (Printf.sprintf "case %d array %s" index a)
                true
                (h_rank nest a <= 1))
            (Nest.arrays nest)
        done );
    qtest "generated nests stay in the paper's model" ~count:60
      (fun nest ->
        Nest.all_uniformly_generated nest
        && Nest.cardinal nest > 0
        && nest.Nest.body <> [])
      (QCheck.make ~print:render (Gen.nest (Gen.default ~depth:2)));
    qtest "generated nests pp/reparse" ~count:60
      (fun nest ->
        let nest' = Parse.nest (render nest) in
        Nest.cardinal nest = Nest.cardinal nest'
        && Nest.arrays nest = Nest.arrays nest')
      (QCheck.make ~print:render (Gen.nest (Gen.default ~depth:1)));
  ]

(* {2 Oracle registry} *)

let expected_names =
  [
    "plan-vs-verify";
    "coset-parity";
    "parexec-vs-seq";
    "fault-recovery-identical";
    "delta-checkpoint-identical";
    "compiled-vs-interpreted";
    "canon-relabel-roundtrip";
    "cgen-roundtrip";
    "fallback-vs-seq";
    "normalize-roundtrip";
  ]

let no_fail oracle nest =
  match Oracle.check oracle nest with
  | Oracle.Pass | Oracle.Skip _ -> true
  | Oracle.Fail _ -> false

let oracle_tests =
  [
    ( "registry lists the ten documented oracles",
      `Quick,
      fun () ->
        check_int "count" 10 (List.length Oracle.all);
        List.iter
          (fun n -> check_bool n true (List.mem n Oracle.names))
          expected_names );
    ( "find resolves known names and rejects unknown ones",
      `Quick,
      fun () ->
        (match Oracle.find "coset-parity" with
        | Some o -> check_string "found name" "coset-parity" o.Oracle.name
        | None -> Alcotest.fail "coset-parity not found");
        check_bool "unknown name" true (Oracle.find "no-such-oracle" = None)
    );
    ( "every oracle passes on the paper loops",
      `Quick,
      fun () ->
        List.iter
          (fun (loop_name, nest) ->
            List.iter
              (fun o ->
                check_bool
                  (loop_name ^ " under " ^ o.Oracle.name)
                  true (no_fail o nest))
              Oracle.all)
          all_paper_loops );
    ( "every oracle passes on seeded fuzz nests of every depth",
      `Slow,
      fun () ->
        for case = 0 to 23 do
          let nest = Gen.generate ~index:case ~seed:13 (Fuzz.mixed_depths case) in
          List.iter
            (fun o ->
              check_bool
                (Printf.sprintf "case %d under %s" case o.Oracle.name)
                true (no_fail o nest))
            Oracle.all
        done );
    ( "check captures oracle exceptions as failures",
      `Quick,
      fun () ->
        let boom =
          { Oracle.name = "boom"; doc = ""; check = (fun _ -> failwith "kaput") }
        in
        match Oracle.check boom l1 with
        | Oracle.Fail detail ->
            check_bool "mentions the exception" true
              (String.length detail > 0)
        | Oracle.Pass | Oracle.Skip _ ->
            Alcotest.fail "exception not converted to Fail" );
  ]

(* {2 Shrinker} *)

let mentions_array a nest = List.mem a (Nest.arrays nest)

let shrink_tests =
  [
    ( "every candidate strictly decreases the size measure",
      `Quick,
      fun () ->
        List.iter
          (fun (loop_name, nest) ->
            let n = Shrink.size nest in
            List.iter
              (fun c ->
                check_bool
                  (loop_name ^ " candidate smaller")
                  true
                  (Shrink.size c < n))
              (Shrink.candidates nest))
          all_paper_loops );
    ( "minimize reaches a 1-statement local minimum",
      `Quick,
      fun () ->
        (* "Mentions array A" is monotone under statement dropping, so
           the greedy descent must land on a single trivial statement
           that still references A. *)
        let still_fails = mentions_array "A" in
        let minimized, steps = Shrink.minimize ~still_fails l1 in
        check_bool "still fails" true (still_fails minimized);
        check_bool "took steps" true (steps > 0);
        check_int "one statement" 1 (List.length minimized.Nest.body);
        check_bool "local minimum" true
          (List.for_all
             (fun c -> not (still_fails c))
             (Shrink.candidates minimized)) );
    ( "minimize never grows the nest",
      `Quick,
      fun () ->
        List.iter
          (fun (loop_name, nest) ->
            let minimized, _ =
              Shrink.minimize ~still_fails:(fun _ -> true) nest
            in
            check_bool (loop_name ^ " shrank") true
              (Shrink.size minimized <= Shrink.size nest);
            check_bool
              (loop_name ^ " fully minimal")
              true
              (Shrink.candidates minimized = []))
          all_paper_loops );
    ( "max_steps bounds the descent",
      `Quick,
      fun () ->
        let _, steps =
          Shrink.minimize ~max_steps:2 ~still_fails:(fun _ -> true) l1
        in
        check_bool "at most 2 steps" true (steps <= 2) );
  ]

(* {2 Corpus} *)

let temp_dir () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "cf-corpus-%d" (Unix.getpid ()))
  in
  (try
     Array.iter
       (fun f -> Sys.remove (Filename.concat path f))
       (Sys.readdir path)
   with Sys_error _ -> ());
  path

let corpus_tests =
  [
    ( "render emits re-parseable DSL with a comment header",
      `Quick,
      fun () ->
        let text = Corpus.render ~header:[ "oracle: x"; "seed 1" ] l3 in
        check_bool "header first" true
          (String.length text > 1 && text.[0] = '#');
        let nest = Parse.nest text in
        check_int "cardinal" (Nest.cardinal l3) (Nest.cardinal nest);
        check_bool "same result" true
          (Cf_exec.Seqexec.equal_on_written (Cf_exec.Seqexec.run l3)
             (Cf_exec.Seqexec.run nest)) );
    ( "save/load round-trips through the file system",
      `Quick,
      fun () ->
        let dir = temp_dir () in
        let path = Corpus.save ~dir ~name:"roundtrip" ~header:[ "hi" ] l2 in
        check_bool "file exists" true (Sys.file_exists path);
        match Corpus.load dir with
        | [ (file, nest) ] ->
            check_string "file name" "roundtrip.loop" file;
            check_int "cardinal" (Nest.cardinal l2) (Nest.cardinal nest)
        | entries ->
            Alcotest.fail
              (Printf.sprintf "expected 1 corpus entry, got %d"
                 (List.length entries)) );
    ( "checked-in corpus replays clean under every oracle",
      `Slow,
      fun () ->
        let entries = Corpus.load (test_file "corpus") in
        check_bool "at least 5 seeds" true (List.length entries >= 5);
        match Fuzz.replay ~oracles:Oracle.all entries with
        | [] -> ()
        | (file, oracle, detail) :: _ as fails ->
            Alcotest.fail
              (Printf.sprintf "%d corpus failure(s); first: %s under %s: %s"
                 (List.length fails) file oracle detail) );
  ]

(* {2 Fuzz driver} *)

let fuzz_tests =
  [
    ( "a seeded run over all oracles finds no counterexamples",
      `Slow,
      fun () ->
        let stats =
          Fuzz.run
            {
              Fuzz.seed = 42;
              count = 30;
              params = Fuzz.mixed_depths;
              oracles = Oracle.all;
              corpus_dir = None;
              max_shrink_steps = 100;
              unnormalized = false;
            }
        in
        check_int "cases" 30 stats.Fuzz.cases;
        check_int "no failures" 0 (List.length stats.Fuzz.failures);
        check_int "every oracle ran on every case"
          (30 * List.length Oracle.all)
          (stats.Fuzz.checks + stats.Fuzz.skips) );
    ( "an injected failure is caught, shrunk, and persisted",
      `Quick,
      fun () ->
        let dir = temp_dir () in
        let synthetic =
          {
            Oracle.name = "synthetic";
            doc = "fails whenever array A appears";
            check =
              (fun nest ->
                if mentions_array "A" nest then Oracle.Fail "A present"
                else Oracle.Pass);
          }
        in
        let stats =
          Fuzz.run
            {
              Fuzz.seed = 42;
              count = 10;
              params = Fuzz.mixed_depths;
              oracles = [ synthetic ];
              corpus_dir = Some dir;
              max_shrink_steps = 200;
              unnormalized = false;
            }
        in
        check_bool "found failures" true (stats.Fuzz.failures <> []);
        List.iter
          (fun (f : Fuzz.failure) ->
            check_string "oracle name" "synthetic" f.Fuzz.oracle;
            check_bool "shrunk nest still fails" true
              (mentions_array "A" f.Fuzz.shrunk);
            check_int "shrunk to one statement" 1
              (List.length f.Fuzz.shrunk.Nest.body);
            match f.Fuzz.path with
            | None -> Alcotest.fail "counterexample not persisted"
            | Some path ->
                check_bool "corpus file exists" true (Sys.file_exists path))
          stats.Fuzz.failures;
        check_bool "corpus reloads" true (Corpus.load dir <> []) );
    ( "the JSON report carries the configuration and counts",
      `Quick,
      fun () ->
        let config =
          {
            Fuzz.seed = 9;
            count = 3;
            params = Fuzz.mixed_depths;
            oracles = Oracle.all;
            corpus_dir = None;
            max_shrink_steps = 50;
            unnormalized = false;
          }
        in
        let stats = Fuzz.run config in
        match Fuzz.to_json config stats with
        | Cf_obs.Json.Obj fields ->
            let mem k = List.mem_assoc k fields in
            List.iter
              (fun k -> check_bool ("field " ^ k) true (mem k))
              [ "tool"; "seed"; "count"; "oracles"; "cases"; "failures" ];
            check_bool "seed value" true
              (List.assoc "seed" fields = Cf_obs.Json.Num 9.)
        | _ -> Alcotest.fail "report is not a JSON object" );
  ]

(* {2 Verify minimality and violation formatting} *)

let minimality_tests =
  [
    qtest "minimal strategies produce destructively-minimal spaces"
      ~count:40
      (fun nest ->
        List.for_all
          (fun s ->
            Verify.is_minimal s nest (Strategy.partitioning_space s nest))
          [ Strategy.Min_nonduplicate; Strategy.Min_duplicate ])
      arbitrary_nest;
    ( "L3: duplicate space is non-minimal, min-duplicate space is",
      `Quick,
      fun () ->
        (* Theorem 4's point on L3: redundancy elimination drops the
           duplicate space from dim 2 to dim 1, and destructive
           minimality distinguishes the two. *)
        let dup = Strategy.partitioning_space Strategy.Duplicate l3 in
        let min_dup =
          Strategy.partitioning_space Strategy.Min_duplicate l3
        in
        check_int "duplicate dim" 2 (Cf_linalg.Subspace.dim dup);
        check_int "min-duplicate dim" 1 (Cf_linalg.Subspace.dim min_dup);
        check_bool "duplicate space not minimal" false
          (Verify.is_minimal Strategy.Duplicate l3 dup);
        check_bool "min-duplicate space minimal" true
          (Verify.is_minimal Strategy.Min_duplicate l3 min_dup) );
    ( "pp_violation output is stable on a fixed counterexample",
      `Quick,
      fun () ->
        (* Partition the carried-flow nest along the wrong direction:
           psi = span{(0,1)} cuts every flow dependence (i-1,j)->(i,j).
           The formatted first violation is part of the CLI/report
           surface, so its exact text is pinned here. *)
        let nest =
          Parse.nest
            {|
for i = 1 to 4
  for j = 1 to 3
    A[i, j] := A[i-1, j] + 1;
  end
end
|}
        in
        let wrong =
          Cf_linalg.Subspace.span 2 [ Cf_linalg.Vec.of_int_list [ 0; 1 ] ]
        in
        let p = Iter_partition.make nest wrong in
        let vs = Verify.violations Strategy.Nonduplicate p in
        check_int "violation count" 9 (List.length vs);
        match vs with
        | v :: _ ->
            check_string "formatted violation"
              "A(1, 1): (1, 1) (B1) -flow-> (2, 1) (B2)"
              (Format.asprintf "%a" Verify.pp_violation v)
        | [] -> Alcotest.fail "expected violations" );
  ]

let suites =
  [
    ("check-gen", gen_tests);
    ("check-oracles", oracle_tests);
    ("check-shrink", shrink_tests);
    ("check-corpus", corpus_tests);
    ("check-fuzz", fuzz_tests);
    ("check-minimality", minimality_tests);
  ]

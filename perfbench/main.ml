(* The repo benchmark: one workload per process.

     main.exe --workload compile|execute|serve --seed N --seconds S
              --trace 0|1

   --trace 0 measures the end-to-end metrics with tracing off.
   --trace 1 runs the workload untraced for half the time and traced
   for the other half, fails if the two disagree on any deterministic
   value, writes and validates a Chrome trace, and reports the
   per-layer metrics.  The last line of standard output is one JSON
   object: {"correct", "attempted", "failed", "metrics"}.  Any failed
   operation or check makes the exit code 1. *)

let workloads =
  [
    ("compile", Wl_compile.run);
    ("execute", Wl_execute.run);
    ("serve", Wl_serve.run);
  ]

(* Every per-layer metric, in report order: the span-timed layers, then
   the rest.  A workload that does not exercise a layer reports 0 for
   it. *)
let layer_metrics =
  List.map (fun (name, _) -> (name, "ms")) Layers.span_layers
  @ [
      ("plan.nests", "count"); ("plan.exact", "count");
      ("plan.fallback", "count"); ("plan.refused", "count");
      ("plan.blocks", "count"); ("plan.iterations", "count");
      ("coset.ms", "ms"); ("seqexec.golden_ms", "ms");
      ("parexec.compute_ms", "ms"); ("parexec.allocate_ms", "ms");
      ("parexec.validate_ms", "ms"); ("parexec.fallback_ms", "ms");
      ("machine.memory_words", "count"); ("machine.host_words", "count");
      ("machine.serviced_words", "count"); ("service.p50_ms", "ms");
      ("service.p99_ms", "ms"); ("server.overhead_p50_ms", "ms");
      ("server.overhead_p99_ms", "ms"); ("cache.hit_frac", "ratio");
      ("serve.hot_p99_ms", "ms"); ("serve.cold_p50_ms", "ms");
      ("serve.heavy_p50_ms", "ms"); ("serve.fallback_p50_ms", "ms");
      ("server.journal_appends", "count"); ("server.fallback_served", "count");
      ("service.queue_hwm", "count"); ("admission.rejected", "count");
      ("trace.overhead_pct", "%"); ("failed_frac", "ratio");
    ]

let usage () =
  prerr_endline
    "usage: main.exe --workload compile|execute|serve --seed N --seconds S \
     --trace 0|1";
  exit 2

let parse_args () =
  let rec go acc = function
    | flag :: v :: rest
      when String.length flag > 2 && String.sub flag 0 2 = "--" ->
      go ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let args = go [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k args with Some v -> v | None -> usage () in
  let int k =
    match int_of_string_opt (get k) with Some n -> n | None -> usage ()
  in
  let run =
    match List.assoc_opt (get "workload") workloads with
    | Some run -> run
    | None -> usage ()
  in
  let seconds = int "seconds" in
  let trace = int "trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  (get "workload", run, int "seed", float_of_int seconds, trace = 1)

let json_number v = Printf.sprintf "%.17g" v

let print_metrics title ms =
  Printf.printf "%s\n" title;
  List.iter
    (fun (m : Measure.metric) ->
      Printf.printf "  %-24s %18.6f %s\n" m.name m.value m.unit_)
    ms

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload, run, seed, seconds, traced = parse_args () in
  (try Unix.mkdir Layers.out_dir 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Printf.printf "perfbench workload=%s seed=%d seconds=%g trace=%d\n%!" workload
    seed seconds (if traced then 1 else 0);
  let extra_failures = ref [] in
  let outcomes, metrics =
    if not traced then begin
      let o = run ~seed ~seconds ~traced:false in
      ([ o ], o.Measure.e2e)
    end
    else begin
      let plain = run ~seed ~seconds:(seconds /. 2.) ~traced:false in
      let o = run ~seed ~seconds:(seconds /. 2.) ~traced:true in
      List.iter
        (fun (k, v) ->
          match List.assoc_opt k o.Measure.exact with
          | Some v' when v' = v -> ()
          | v' ->
            extra_failures :=
              Printf.sprintf "%s: untraced %s, traced %s" k v
                (Option.value ~default:"missing" v')
              :: !extra_failures)
        plain.Measure.exact;
      let file =
        Filename.concat Layers.out_dir
          (Printf.sprintf "trace-%s-%d.json" workload seed)
      in
      (match Layers.write_chrome ~file o.events with
      | Ok n -> Printf.printf "chrome trace: %s, %d events, valid\n" file n
      | Error e -> extra_failures := ("chrome trace: " ^ e) :: !extra_failures);
      Layers.print_table o.events;
      let wall (o : Measure.outcome) = Measure.median o.walls in
      let overhead = 100. *. (wall o -. wall plain) /. wall plain in
      let measured =
        Measure.metric "trace.overhead_pct" "%" overhead :: o.Measure.layers
      in
      let layers =
        List.map
          (fun (name, unit_) ->
            match
              List.find_opt (fun (m : Measure.metric) -> m.name = name) measured
            with
            | Some m -> m
            | None -> Measure.metric name unit_ 0.)
          layer_metrics
      in
      ([ plain; o ], layers)
    end
  in
  let attempted =
    List.fold_left (fun a o -> a + o.Measure.attempted) 0 outcomes
  in
  let failures =
    List.concat_map (fun o -> o.Measure.failures) outcomes @ !extra_failures
  in
  let failed = List.length failures in
  let failed_frac = float_of_int failed /. float_of_int (max 1 attempted) in
  let metrics =
    List.map
      (fun (m : Measure.metric) ->
        if m.name = "failed_frac" then { m with value = failed_frac } else m)
      metrics
  in
  let nonfinite =
    List.filter
      (fun (m : Measure.metric) -> not (Float.is_finite m.value))
      metrics
  in
  let failures =
    failures
    @ List.map (fun (m : Measure.metric) -> m.name ^ ": not measured") nonfinite
  in
  let row floats = String.concat "" (List.map (Printf.sprintf " %.3f") floats) in
  List.iter
    (fun o ->
      Printf.printf "host-speed scale per pass:%s\n" (row o.Measure.scales);
      Printf.printf "pass time at the reference speed (s):%s\n"
        (row o.Measure.walls))
    outcomes;
  print_metrics "metrics:" metrics;
  if not traced then
    print_metrics "per-layer figures measured without tracing:"
      (List.hd outcomes).Measure.layers;
  Printf.printf "deterministic values (must repeat exactly):\n";
  List.iter
    (fun (k, v) -> Printf.printf "  %-24s %s\n" k v)
    (List.hd (List.rev outcomes)).Measure.exact;
  Printf.printf "attempted %d, failed %d, failed_frac %g\n" attempted
    (List.length failures) failed_frac;
  List.iteri
    (fun i line -> if i < 20 then Printf.printf "FAIL %s\n" line)
    failures;
  let correct = failures = [] in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted (List.length failures)
    (String.concat ", "
       (List.map
          (fun (m : Measure.metric) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
              (Cf_obs.Json.escape_string m.name)
              (json_number (if Float.is_finite m.value then m.value else 0.))
              (Cf_obs.Json.escape_string m.unit_))
          metrics));
  exit (if correct then 0 else 1)

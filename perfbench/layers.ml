(* Per-layer host timing: a wall-clock Cf_obs trace injected into the
   library's [?obs] parameters, plus spans the benchmark records around
   its own calls into each layer. *)

module Trace = Cf_obs.Trace

(* Run-time files (Chrome traces, the server's socket and journal),
   relative to the checkout root the benchmark runs from. *)
let out_dir = Filename.concat "perfbench" "_out"

(* One pass's trace, or [Trace.null] when the run is untraced (every
   span then costs one branch).  The ring holds a whole pass; a drop is
   reported by [check_dropped], never silently summed. *)
let make ~traced =
  if not traced then Trace.null
  else
    let t0 = Unix.gettimeofday () in
    Trace.make
      ~clock:(fun () -> Unix.gettimeofday () -. t0)
      (Trace.ring ~capacity:400_000)

let span obs name f = Trace.span obs ~cat:"bench" name f

let check_dropped obs =
  if Trace.dropped obs > 0 then
    failwith
      (Printf.sprintf "trace ring dropped %d events in one pass"
         (Trace.dropped obs))

(* Inclusive seconds per span name. *)
let totals (events : Trace.event list) =
  let h = Hashtbl.create 32 in
  List.iter
    (fun (e : Trace.event) ->
      match e.dur with
      | Some d ->
        Hashtbl.replace h e.name
          (d +. Option.value ~default:0. (Hashtbl.find_opt h e.name))
      | None -> ())
    events;
  h

let total_ms h name =
  Measure.ms (Option.value ~default:0. (Hashtbl.find_opt h name))

(* Per-layer metric name and the span that measures it: the Pipeline's
   own planning phases, plus the benchmark's spans around Parse.nest and
   Pipeline.simulate_serve. *)
let span_layers =
  [
    ("parse.ms", "parse");
    ("normalize.ms", "normalize");
    ("psi.ms", "partitioning-space");
    ("transform.ms", "transform");
    ("exact.ms", "exact-analysis");
    ("mincomm.ms", "fallback-plan");
    ("iter_partition.ms", "iter-partition");
    ("simulate.ms", "simulate");
  ]

(* Each layer's median over passes of its per-pass inclusive
   milliseconds, from the per-pass [totals]. *)
let span_metrics per_pass =
  List.map
    (fun (metric, span) ->
      Measure.metric metric "ms"
        (Measure.median (List.map (fun h -> total_ms h span) per_pass)))
    span_layers

type row = { count : int; incl : float; self : float }

(* Self time is a span's duration minus the part its direct children
   cover.  Children are found by interval nesting within one lane, which
   is exact where a lane is written by one thread at a time (the
   compile and execute workloads) and approximate where threads share a
   lane (the server's planner lane). *)
let self_times (events : Trace.event list) =
  let spans =
    List.filter_map
      (fun (e : Trace.event) ->
        Option.map (fun d -> (e.lane, e.ts, d, e.name)) e.dur)
      events
    |> List.sort (fun (l1, t1, d1, _) (l2, t2, d2, _) ->
           compare (l1, t1, -.d1) (l2, t2, -.d2))
    |> Array.of_list
  in
  let self = Array.map (fun (_, _, d, _) -> d) spans in
  (* Open spans of the current lane, innermost first: (index, end). *)
  let stack = ref [] in
  let eps = 1e-9 in
  let lane_of i = match spans.(i) with l, _, _, _ -> l in
  Array.iteri
    (fun i (lane, ts, d, _) ->
      if i > 0 && lane_of (i - 1) <> lane then stack := [];
      stack := List.filter (fun (_, stop) -> stop > ts +. eps) !stack;
      (match !stack with
      | (parent, stop) :: _ when ts +. d <= stop +. eps ->
        self.(parent) <- self.(parent) -. d
      | _ -> ());
      stack := (i, ts +. d) :: !stack)
    spans;
  let rows = Hashtbl.create 32 in
  Array.iteri
    (fun i (_, _, d, name) ->
      let r =
        Option.value ~default:{ count = 0; incl = 0.; self = 0. }
          (Hashtbl.find_opt rows name)
      in
      Hashtbl.replace rows name
        { count = r.count + 1; incl = r.incl +. d; self = r.self +. self.(i) })
    spans;
  Hashtbl.fold (fun name r acc -> (name, r) :: acc) rows []
  |> List.sort (fun (_, a) (_, b) -> Float.compare b.incl a.incl)

let print_table events =
  Printf.printf "%-22s %8s %12s %12s\n" "span (last traced pass)" "count"
    "total_ms" "self_ms";
  List.iter
    (fun (name, r) ->
      Printf.printf "%-22s %8d %12.3f %12.3f\n" name r.count
        (Measure.ms r.incl) (Measure.ms r.self))
    (self_times events)

(* Writes the Chrome trace and checks it with the library's validator;
   [Error] carries the validator's complaint. *)
let write_chrome ~file events =
  let doc = Trace.to_chrome ~process_name:"perfbench" events in
  let oc = open_out_bin file in
  output_string oc doc;
  close_out oc;
  Trace.validate_chrome doc

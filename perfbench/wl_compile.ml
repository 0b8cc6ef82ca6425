(* compile: plan a seeded program of DSL sources one nest at a time —
   Parse.nest, then Pipeline.plan_normalized on 16 processors — and
   execute nothing.  Only the planning layers are loaded: the 1,000
   small generated nests set the per-nest p50, the 44 size-24 kernels
   set p99 and the pass time. *)

open Cf_core
module P = Cf_pipeline.Pipeline
module Norm = Cf_normalize.Normalize

let nprocs = 16
let kernel_size = 24
(* With 2,000, the p99 band moved from the 6th–16th to the 11th–32nd
   slowest nest, and p99's IQR/median over ten seeds rose from 0.19 to
   0.38. *)
let generated = 1000

type input = {
  src : string;
  strategy : Strategy.t;
  kernel : bool;  (** one of the fixed size-24 kernels, not generated *)
}

type answer =
  | Refused  (** a typed [Error]: an answer, not a failure *)
  | Planned of { exact : bool; parallelism : int; blocks : int }

let source nest = Format.asprintf "@[<v>%a@]" Cf_loop.Nest.pp nest

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* Generated nests with no canonical repeats, in equal shares per
   generator (Gen.generate, Gen.generate_unnormalized), depth (1–3) and
   strategy; then every kernel under every strategy; shuffled.  Fixing
   the shares leaves the seed to draw the nests themselves and the
   order. *)
let inputs ~seed =
  let rng = Random.State.make [| seed |] in
  let strategies = Array.of_list Strategy.all in
  let seen = Hashtbl.create 2048 in
  let acc = ref [] and count = ref 0 and index = ref 0 in
  while !count < generated do
    if !index > 50 * generated then
      failwith "compile: too many repeated generated nests";
    let params = Cf_check.Gen.default ~depth:(1 + (!count / 2 mod 3)) in
    let gen =
      if !count mod 2 = 0 then Cf_check.Gen.generate
      else Cf_check.Gen.generate_unnormalized
    in
    let nest = gen ~index:!index ~seed params in
    incr index;
    let key = (Cf_cache.Canon.canonicalize nest).Cf_cache.Canon.key in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      acc :=
        {
          src = source nest;
          strategy = strategies.(!count / 6 mod 4);
          kernel = false;
        }
        :: !acc;
      incr count
    end
  done;
  let kernels =
    List.concat_map
      (fun (k : Cf_workloads.Workloads.kernel) ->
        let src = source (k.build ~size:kernel_size) in
        List.map (fun strategy -> { src; strategy; kernel = true }) Strategy.all)
      Cf_workloads.Workloads.all
  in
  let a = Array.of_list (List.rev_append !acc kernels) in
  shuffle rng a;
  a

let plan obs inp =
  let nest = Layers.span obs "parse" (fun () -> Cf_loop.Parse.nest inp.src) in
  Layers.span obs "plan" (fun () ->
      P.plan_normalized ~obs ~nprocs ~strategy:inp.strategy nest)

let answer_of = function
  | Error _ -> Refused
  | Ok (_, planned) ->
    let t = P.pipeline_of planned in
    Planned
      {
        exact = (match planned with P.Exact _ -> true | P.Fallback _ -> false);
        parallelism = P.parallelism t;
        blocks = P.block_count t;
      }

(* Compute makespan of a plan's forall code on [procs] simulated
   processors under cyclic block placement (most-loaded processor's
   iterations × t_comp), from the closed-form block index — the
   run-time figure a compile-only workload can state without executing. *)
let cyclic_makespan ~procs (t : P.t) =
  let c = Coset.make t.P.nest t.P.space in
  let load = Array.make procs 0 in
  List.iter
    (fun (b : Coset.block) ->
      let pe = (b.Coset.id - 1) mod procs in
      load.(pe) <- load.(pe) + b.Coset.size)
    (Coset.blocks c);
  Cf_machine.Cost.compute Cf_machine.Cost.transputer
    ~iterations:(Array.fold_left max 0 load)

type verdicts = {
  answers : answer option array;  (** [None]: the operation failed *)
  exact : int;
  fallback : int;
  refused : int;
  blocks : int;
  iterations : int;
  messages : int;  (** predicted messages of the kernels' fallback plans *)
  makespans : float list;  (** the kernels' cyclic makespans *)
}

(* The untimed verification pass: every Exact plan passes
   Pipeline.verified, every normalization passes Normalize.check, no
   exception escapes.  Its answers are the reference the timed passes
   are compared with.  The simulated figures cover the kernels only:
   they do not move with the seed, so their bounds can be tight, while
   over the generated nests they moved 2–4% between seeds. *)
let verify inputs fails =
  let answers = Array.make (Array.length inputs) None in
  let exact = ref 0 and fallback = ref 0 and refused = ref 0 in
  let blocks = ref 0 and iterations = ref 0 and messages = ref 0 in
  let makespans = ref [] in
  let fail i msg = Measure.fail fails (Printf.sprintf "nest %d: %s" i msg) in
  let check_norm i r =
    match Norm.check r with Ok () -> () | Error e -> fail i ("normalize: " ^ e)
  in
  Array.iteri
    (fun i inp ->
      match plan Cf_obs.Trace.null inp with
      | exception e -> fail i (Printexc.to_string e)
      | Error (r, _) as res ->
        check_norm i r;
        answers.(i) <- Some (answer_of res);
        incr refused
      | Ok (r, planned) as res ->
        check_norm i r;
        answers.(i) <- Some (answer_of res);
        let t = P.pipeline_of planned in
        (match planned with
        | P.Exact t ->
          incr exact;
          if not (P.verified t) then fail i "exact plan not verified"
        | P.Fallback (_, mc) ->
          incr fallback;
          if inp.kernel then
            messages := !messages + mc.Cf_mincomm.Mincomm.estimate.messages);
        blocks := !blocks + P.block_count t;
        iterations := !iterations + Cf_loop.Nest.cardinal t.P.nest;
        if inp.kernel then
          makespans := cyclic_makespan ~procs:nprocs t :: !makespans)
    inputs;
  {
    answers;
    exact = !exact;
    fallback = !fallback;
    refused = !refused;
    blocks = !blocks;
    iterations = !iterations;
    messages = !messages;
    makespans = !makespans;
  }

(* One timed pass; answers are compared with the verification pass
   after each operation's clock has stopped. *)
let pass ~traced inputs (v : verdicts) fails =
  let obs = Layers.make ~traced in
  let lat =
    Array.mapi
      (fun i inp ->
        let t0 = Measure.cpu () in
        let res = try Ok (plan obs inp) with e -> Error e in
        let dt = Measure.cpu () -. t0 in
        (match res with
        | Error e ->
          Measure.fail fails
            (Printf.sprintf "nest %d: %s" i (Printexc.to_string e))
        | Ok r ->
          if Some (answer_of r) <> v.answers.(i) then
            Measure.fail fails
              (Printf.sprintf "nest %d: answer differs from verification pass"
                 i));
        dt)
      inputs
  in
  Layers.check_dropped obs;
  (lat, Cf_obs.Trace.events obs)

let run ~seed ~seconds ~traced =
  let inputs, setup = Measure.setup (fun () -> inputs ~seed) in
  let fails = Measure.failures () in
  let v = verify inputs fails in
  let scaled, peak_mb =
    Measure.repeat ~setup ~seconds (fun _ -> pass ~traced inputs v fails)
  in
  let passes =
    List.map (fun (k, (lat, ev)) -> (Measure.scale_times k lat, ev)) scaled
  in
  let setup_time = Measure.setup_s setup in
  let n = Array.length inputs in
  let walls = List.map (fun (lat, _) -> Measure.sum lat) passes in
  let lats = Measure.per_op (List.map fst passes) in
  let spans = List.map (fun (_, ev) -> Layers.totals ev) passes in
  let makespan = Measure.geomean v.makespans in
  let open Measure in
  {
    attempted = n * (1 + List.length passes);
    failures = failed_lines fails;
    walls;
    scales = List.map fst scaled;
    e2e =
      e2e ~setup_s:setup_time ~walls ~latencies:lats ~n ~peak_mb ~exact:v.exact ~makespan
        ~messages:v.messages;
    layers =
      (if traced then Layers.span_metrics spans else [])
      @ [
          metric "plan.nests" "count" (float_of_int n);
          metric "plan.exact" "count" (float_of_int v.exact);
          metric "plan.fallback" "count" (float_of_int v.fallback);
          metric "plan.refused" "count" (float_of_int v.refused);
          metric "plan.blocks" "count" (float_of_int v.blocks);
          metric "plan.iterations" "count" (float_of_int v.iterations);
        ];
    exact =
      [
        ("exact_frac", Printf.sprintf "%d/%d" v.exact n);
        ("sim_makespan_s", Printf.sprintf "%.17g" makespan);
        ("sim_messages", string_of_int v.messages);
        ("plan.fallback", string_of_int v.fallback);
        ("plan.refused", string_of_int v.refused);
        ("plan.blocks", string_of_int v.blocks);
        ("plan.iterations", string_of_int v.iterations);
      ];
    events = (match List.rev passes with (_, ev) :: _ -> ev | [] -> []);
  }

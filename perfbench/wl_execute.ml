(* execute: plan plus validated simulation (plan_serve, then
   simulate_serve on 16 processors with distribution charged) of three
   nests.  matmul-48 (2,304 blocks of 48 iterations) is compute-heavy;
   stencil3d-32 (32,768 one-iteration blocks) is dominated by
   per-block allocation and bind; sor-128 is rejected by the theorems
   and runs on the fallback tier in sequential-order dispatch with
   16,256 serviced remote accesses. *)

open Cf_core
module P = Cf_pipeline.Pipeline
module M = Cf_machine.Machine

let procs = 16
let strategy = Strategy.Duplicate

type input = { name : string; nest : Cf_loop.Nest.t }

(* The seed renames identifiers: it changes the text the compiler sees,
   never the problem, so every deterministic metric is the same on every
   seed.  Names keep a fixed width and the nests a fixed order, so the
   seed does not move the heap's high-water mark either. *)
let inputs ~seed =
  let rng = Random.State.make [| seed |] in
  let rename nest =
    let tag () = Random.State.int rng 1_000_000 in
    let it = tag () in
    let at = tag () in
    Cf_cache.Canon.rename
      ~index:(fun v -> Printf.sprintf "%s%06d" v it)
      ~array:(fun a -> Printf.sprintf "%s%06d" a at)
      nest
  in
  let open Cf_workloads.Workloads in
  Array.map
    (fun (k, size) ->
      let name = Printf.sprintf "%s-%d" k.name size in
      { name; nest = rename (k.build ~size) })
    [| (matmul, 48); (stencil_3d, 32); (sor, 128) |]

type summary = {
  exact : bool;
  blocks : int;
  iterations : int;
  makespan : float;
  messages : int;  (** host messages plus serviced ones *)
  memory_words : int;
  host_words : int;
  serviced_words : int;
}

let summary planned (sim : P.simulation) =
  let m = sim.P.report.Cf_exec.Parexec.machine in
  let memory = ref 0 in
  for pe = 0 to procs - 1 do
    memory := !memory + M.memory_words m ~pe
  done;
  let t = P.pipeline_of planned in
  {
    exact = (match planned with P.Exact _ -> true | P.Fallback _ -> false);
    blocks = P.block_count t;
    iterations = Cf_loop.Nest.cardinal t.P.nest;
    makespan = sim.P.makespan;
    messages = M.message_count m + M.serviced_messages m;
    memory_words = !memory;
    host_words = M.message_volume m;
    serviced_words = M.serviced_words m;
  }

let plan_and_simulate obs inp =
  let planned =
    Layers.span obs "plan" (fun () ->
        P.plan_serve ~obs ~strategy ~nprocs:procs inp.nest)
  in
  let sim =
    Layers.span obs "simulate" (fun () ->
        P.simulate_serve ~procs ~with_distribution:true planned)
  in
  (planned, sim)

(* Output checks: the run is communication-free (or serviced) and
   matches the sequential result; on the fallback nest the predicted
   message count equals the serviced one. *)
let check inp planned (sim : P.simulation) =
  let report = sim.P.report in
  if not (Cf_exec.Parexec.ok report) then
    Some (Format.asprintf "%s: %a" inp.name Cf_exec.Parexec.pp_report report)
  else
    match P.fallback_of planned with
    | Some mc
      when mc.Cf_mincomm.Mincomm.estimate.messages
           <> M.serviced_messages report.Cf_exec.Parexec.machine ->
      Some
        (Printf.sprintf "%s: predicted %d messages, serviced %d" inp.name
           mc.Cf_mincomm.Mincomm.estimate.messages
           (M.serviced_messages report.Cf_exec.Parexec.machine))
    | _ -> None

let pass ~traced inputs fails reference =
  let obs = Layers.make ~traced in
  let lat =
    Array.map
      (fun inp ->
        let t0 = Measure.cpu () in
        match plan_and_simulate obs inp with
        | exception e ->
          Measure.fail fails (inp.name ^ ": " ^ Printexc.to_string e);
          nan
        | planned, sim ->
          let dt = Measure.cpu () -. t0 in
          Option.iter (Measure.fail fails) (check inp planned sim);
          let s = summary planned sim in
          (match Hashtbl.find_opt reference inp.name with
          | None -> Hashtbl.replace reference inp.name s
          | Some s0 when s0 <> s ->
            Measure.fail fails (inp.name ^ ": results differ between passes")
          | Some _ -> ());
          dt)
      inputs
  in
  Layers.check_dropped obs;
  (lat, Cf_obs.Trace.events obs)

(* Every element any reference of any block touches, stored on the
   block's processor under its plain array name: the surface the
   allocator builds, so [~allocate:false] runs compute alone. *)
let pre_place machine nest coset placement =
  let idx = Cf_loop.Nest.indices nest in
  let iter = ref [||] in
  let env v =
    let rec find k = if idx.(k) = v then !iter.(k) else find (k + 1) in
    find 0
  in
  let refs =
    List.concat_map
      (fun (s : Cf_loop.Stmt.t) -> s.lhs :: Cf_loop.Stmt.reads s)
      nest.Cf_loop.Nest.body
  in
  List.iter
    (fun (b : Coset.block) ->
      let pe = placement b.Coset.id in
      Coset.iter_block ~reuse:true coset ~id:b.Coset.id (fun x ->
          iter := x;
          List.iter
            (fun (r : Cf_loop.Aref.t) ->
              let el = Cf_loop.Aref.eval env r in
              if not (M.holds machine ~pe r.array el) then
                M.store machine ~pe r.array el
                  (Cf_exec.Seqexec.default_init r.array el))
            refs))
    (Coset.blocks coset);
  M.compact machine

type decomposition = {
  coset : float;
  golden : float;
  compute : float;
  allocate : float;  (** derived: unvalidated run minus compute *)
  validate : float;  (** derived: validated run minus unvalidated run *)
  fallback : float;
}

(* Times each execution layer through its own public entry point, once
   per nest, outside the timed passes.  The indexed engine runs on one
   domain so the derived differences compare like with like. *)
let decompose inputs fails =
  let machine () =
    M.create (Cf_machine.Topology.linear procs) Cf_machine.Cost.transputer
  in
  let placement = Cf_exec.Parexec.cyclic ~nprocs:procs in
  let zero =
    {
      coset = 0.;
      golden = 0.;
      compute = 0.;
      allocate = 0.;
      validate = 0.;
      fallback = 0.;
    }
  in
  Array.fold_left
    (fun d inp ->
      let planned = P.plan_serve ~strategy ~nprocs:procs inp.nest in
      let t = P.pipeline_of planned in
      let _, golden = Measure.time (fun () -> Cf_exec.Seqexec.run t.P.nest) in
      match planned with
      | P.Fallback _ ->
        let _, fallback =
          Measure.time (fun () ->
              P.simulate_serve ~procs ~with_distribution:true planned)
        in
        {
          d with
          golden = d.golden +. golden;
          fallback = d.fallback +. fallback;
        }
      | P.Exact _ ->
        let coset, coset_s =
          Measure.time (fun () -> Coset.make t.P.nest t.P.space)
        in
        let run ?allocate ?validate m =
          let report, s =
            Measure.time (fun () ->
                Cf_exec.Parexec.execute_indexed ?allocate ?validate ~domains:1
                  ~machine:m ~placement ~strategy coset)
          in
          if not (Cf_exec.Parexec.ok report) then
            Measure.fail fails (inp.name ^ ": execute_indexed run not ok");
          s
        in
        let m0 = machine () in
        pre_place m0 t.P.nest coset placement;
        let compute = run ~allocate:false ~validate:false m0 in
        let unvalidated = run ~validate:false (machine ()) in
        let validated = run (machine ()) in
        {
          d with
          coset = d.coset +. coset_s;
          golden = d.golden +. golden;
          compute = d.compute +. compute;
          allocate = d.allocate +. (unvalidated -. compute);
          validate = d.validate +. (validated -. unvalidated);
        })
    zero inputs

let run ~seed ~seconds ~traced =
  let inputs, setup = Measure.setup (fun () -> inputs ~seed) in
  let fails = Measure.failures () in
  let reference = Hashtbl.create 3 in
  let scaled, peak_mb =
    Measure.repeat ~setup ~warmup:true ~seconds (fun _ ->
        pass ~traced inputs fails reference)
  in
  let passes =
    List.map (fun (k, (lat, ev)) -> (Measure.scale_times k lat, ev)) scaled
  in
  let setup_s = Measure.setup_s setup in
  let n = Array.length inputs in
  let walls = List.map (fun (lat, _) -> Measure.sum lat) passes in
  let lats = Measure.per_op (List.map fst passes) in
  let spans = List.map (fun (_, ev) -> Layers.totals ev) passes in
  let sums = Hashtbl.fold (fun _ s acc -> s :: acc) reference [] in
  let total f = List.fold_left (fun acc s -> acc + f s) 0 sums in
  let exact = total (fun s -> if s.exact then 1 else 0) in
  let messages = total (fun s -> s.messages) in
  let makespan = Measure.geomean (List.map (fun s -> s.makespan) sums) in
  let count name v = Measure.metric name "count" (float_of_int v) in
  let ms name v = Measure.metric name "ms" (Measure.ms v) in
  let layers =
    (if traced then begin
       let d = decompose inputs fails in
       Layers.span_metrics spans
       @ [
           ms "coset.ms" d.coset;
           ms "seqexec.golden_ms" d.golden;
           ms "parexec.compute_ms" d.compute;
           ms "parexec.allocate_ms" d.allocate;
           ms "parexec.validate_ms" d.validate;
           ms "parexec.fallback_ms" d.fallback;
         ]
     end
     else [])
    @ [
        count "plan.nests" n;
        count "plan.exact" exact;
        count "plan.fallback" (n - exact);
        count "plan.blocks" (total (fun s -> s.blocks));
        count "plan.iterations" (total (fun s -> s.iterations));
        count "machine.memory_words" (total (fun s -> s.memory_words));
        count "machine.host_words" (total (fun s -> s.host_words));
        count "machine.serviced_words" (total (fun s -> s.serviced_words));
      ]
  in
  {
    Measure.attempted = n * List.length passes;
    failures = Measure.failed_lines fails;
    walls;
    scales = List.map fst scaled;
    e2e =
      Measure.e2e ~setup_s ~walls ~latencies:lats ~n ~peak_mb ~exact ~makespan
        ~messages;
    layers;
    exact =
      [
        ("exact_frac", Printf.sprintf "%d/%d" exact n);
        ("sim_makespan_s", Printf.sprintf "%.17g" makespan);
        ("sim_messages", string_of_int messages);
        ( "machine.memory_words",
          string_of_int (total (fun s -> s.memory_words)) );
        ("machine.host_words", string_of_int (total (fun s -> s.host_words)));
        ( "machine.serviced_words",
          string_of_int (total (fun s -> s.serviced_words)) );
      ];
    events = (match List.rev passes with (_, ev) :: _ -> ev | [] -> []);
  }

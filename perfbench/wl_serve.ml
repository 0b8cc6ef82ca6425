(* serve: an in-process planning server on a Unix socket (journal on,
   one worker domain) and two closed-loop clients replaying a seeded
   request list — closed loop because each compiler invocation waits
   for its plan.  The mix loads the wire, canonicalization, cache,
   journal and admission layers, with little planning per request:
   - ~70% hot: 16 small kernels under random renamings, which become
     canonical cache hits (reads);
   - ~26% cold: unique generated nests, each a miss that plans and
     appends to the journal (writes);
   - ~4% heavy: matmul/stencil3d at sizes 10–19, which block the queue
     behind the single worker (the tail).
   1,000 requests a pass, so p99 has 10 samples beyond it and a run
   holds enough passes for a steady median.
   A quarter of the hot and cold requests are plan_serve;
   theorem-rejected ones re-run the fallback planner on the connection
   thread, uncached.  Heavy requests are plain plan: a heavy fallback
   holds the main domain for hundreds of milliseconds, and whether two
   overlap made pass time and peak heap swing twofold.
   Each pass boots a fresh server on a fresh journal, so every pass
   replays the same traffic against a cold cache. *)

open Cf_core
module P = Cf_pipeline.Pipeline
module Server = Cf_server.Server
module Client = Cf_server.Client
module Protocol = Cf_server.Protocol
module Json = Cf_obs.Json
module Workloads = Cf_workloads.Workloads

let requests = 1000
let clients = 2

type cls = Hot | Cold | Heavy

type request = {
  cls : cls;
  serve : bool;
  strategy : Strategy.t;
  src : string;
  key : string;  (** canonical key and strategy: indexes [expected] *)
}

type expected = {
  digest : string;
  parallelism : int;
  blocks : int;
  makespan : float;  (** the theorem plan's cyclic compute makespan *)
  fallback : (int * float) option;
      (** theorem-rejected and asked for by some plan_serve request: the
          fallback plan's predicted messages and cyclic makespan *)
}

let key_of nest strategy =
  (Cf_cache.Canon.canonicalize nest).Cf_cache.Canon.key ^ "/"
  ^ Strategy.to_string strategy

(* The plan the server should return, computed in-process after the
   timed passes, so the reference work never sets the heap's high-water
   mark.  Every key is planned with plain [P.plan], as the server plans
   it.  A theorem-rejected key some plan_serve request asks for also
   gets the fallback plan those requests are answered with. *)
let expect ~serve nest strategy =
  let nprocs = Server.default_config.Server.nprocs in
  let makespan = Wl_compile.cyclic_makespan ~procs:nprocs in
  let t = P.plan ~strategy nest in
  let fallback =
    if serve && P.parallelism t = 0 then
      match P.plan_serve ~strategy ~nprocs nest with
      | P.Fallback (f, mc) ->
        Some (mc.Cf_mincomm.Mincomm.estimate.messages, makespan f)
      | P.Exact _ -> None
    else None
  in
  {
    digest = Cf_cache.Canon.digest nest;
    parallelism = P.parallelism t;
    blocks = P.block_count t;
    makespan = makespan t;
    fallback;
  }

(* The mix has a fixed composition and the seed draws everything else.
   70% of requests are hot (each of the 16 hot nests equally often,
   a quarter of them plan_serve), 26% cold and 4% heavy.  Cold requests
   take depths 1–3, the four strategies and plan_serve in equal shares,
   like compile's generated nests.  The seed picks the renamings, the
   cold nests and the order.
   Fixing the composition keeps the shares of cache hits, fallback
   replies and heavy planning the same on every seed.

   Returns the request list and every distinct (nest, strategy) in it,
   by key, with whether some plan_serve request asks for it. *)
let inputs ~seed =
  let rng = Random.State.make [| seed |] in
  let strategies = Array.of_list Strategy.all in
  let distinct = Hashtbl.create 2048 in
  (* [fresh] registers a (nest, strategy) the server has not seen yet. *)
  let fresh nest strategy =
    let key = key_of nest strategy in
    if Hashtbl.mem distinct key then None
    else begin
      Hashtbl.replace distinct key (nest, strategy, ref false);
      Some key
    end
  in
  let request cls serve strategy nest key =
    let _, _, served = Hashtbl.find distinct key in
    if serve then served := true;
    { cls; serve; strategy; src = Wl_compile.source nest; key }
  in
  (* Every kernel under the cheapest strategy reaching its best
     parallelism, plus five under Theorem 1. *)
  let hot =
    let open Workloads in
    List.map (fun k -> (k, 6, k.expected.strategy)) all
    @ List.map
        (fun k -> (k, 5, Strategy.Nonduplicate))
        [ matmul; stencil_2d; rank1_update; convolution; sor ]
  in
  let rename nest =
    let tag = Random.State.int rng 1_000_000 in
    Cf_cache.Canon.rename
      ~index:(fun v -> Printf.sprintf "%s%d" v tag)
      ~array:(fun a -> Printf.sprintf "%s%d" a tag)
      nest
  in
  let per_hot = requests * 70 / 100 / List.length hot in
  let hot_reqs =
    List.concat_map
      (fun ((k : Workloads.kernel), size, s) ->
        let nest = k.build ~size in
        let key = Option.get (fresh nest s) in
        List.init per_hot (fun j ->
            request Hot (j mod 4 = 0) s (rename nest) key))
      hot
  in
  (* matmul and stencil3d at sizes 10–19, each size under both theorem
     strategies: 40 distinct heavy requests, 4% of the mix.  Under the
     Min_* strategies the enumeration made these 40 requests 80% of a
     pass's CPU time, so the pass measured heavy planning, not serving. *)
  let heavy_reqs =
    List.concat_map
      (fun (k : Workloads.kernel) ->
        List.concat_map
          (fun size ->
            let nest = k.build ~size in
            List.map
              (fun s -> request Heavy false s nest (Option.get (fresh nest s)))
              Strategy.[ Nonduplicate; Duplicate ])
          (List.init 10 (fun i -> 10 + i)))
      Workloads.[ matmul; stencil_3d ]
  in
  let cold_count =
    requests - List.length hot_reqs - List.length heavy_reqs
  in
  let rec cold acc count index =
    if count = cold_count then acc
    else
      (* Every 48 requests visit each (depth, strategy) cell four
         times, once as plan_serve. *)
      let params = Cf_check.Gen.default ~depth:(1 + (count mod 3)) in
      let nest = Cf_check.Gen.generate ~index ~seed params in
      let s = strategies.(count / 3 mod 4) in
      let serve = count / 12 mod 4 = 0 in
      match fresh nest s with
      | Some key ->
        cold (request Cold serve s nest key :: acc) (count + 1) (index + 1)
      | None -> cold acc count (index + 1)
  in
  let reqs = Array.of_list (hot_reqs @ heavy_reqs @ cold [] 0 0) in
  Wl_compile.shuffle rng reqs;
  (reqs, distinct)

let check (e : expected) (r : request) reply =
  match reply with
  | Error msg -> Some ("transport: " ^ msg)
  | Ok j when not (Protocol.is_ok j) -> Some (Json.to_string j)
  | Ok j ->
    let num k = Option.bind (Json.member k j) Json.num in
    let str k = Option.bind (Json.member k j) Json.str in
    let int k = Option.map int_of_float (num k) in
    let fallback = r.serve && e.fallback <> None in
    if
      str "digest" = Some e.digest
      && int "parallelism" = Some e.parallelism
      && int "blocks" = Some e.blocks
      && str "tier" = Some (if fallback then "fallback" else "exact")
      && ((not fallback) || int "predicted_messages" = Option.map fst e.fallback)
    then None
    else Some ("reply differs from the direct plan: " ^ Json.to_string j)

(* Latencies are wall-clock scaled by the pass's [share], so that, like
   every host time in the benchmark, they leave out the time the
   hypervisor stole from the pinned CPU. *)
type answer = {
  latency : float;  (** as seen by the client, seconds *)
  service : float;  (** the reply's latency_ms, seconds *)
  cache_hit : bool;
}

type pass = {
  start_s : float;  (** boot the server and connect the clients *)
  busy : float;
      (** the process's CPU time over the replay: with everything on one
          CPU, the pass's wall-clock minus the stolen time *)
  share : float;  (** [busy] over the replay's wall-clock *)
  replies : (float * (Json.t, string) result) option array;
      (** by request index: client latency and reply; [None]: no reply *)
  stats : Json.t option;
  events : Cf_obs.Trace.event list;
}

let remove path = try Sys.remove path with Sys_error _ -> ()

let pass ~traced reqs =
  let obs = Layers.make ~traced in
  let base =
    Filename.concat Layers.out_dir (Printf.sprintf "serve-%d" (Unix.getpid ()))
  in
  let sock = base ^ ".sock" and journal = base ^ ".journal" in
  remove journal;
  let connect () =
    match Client.connect_unix sock with
    | Ok c -> c
    | Error msg -> failwith ("serve: connect: " ^ msg)
  in
  let (srv, conns), start_s =
    Measure.time (fun () ->
        let srv =
          Server.start
            {
              Server.default_config with
              unix_socket = Some sock;
              domains = Some 1;
              journal = Some journal;
              (* Holds one pass's working set, so hot entries are never
                 evicted and every hot request after the first is a hit. *)
              cache = Some 8192;
              trace = obs;
              trace_sample = (if traced then 1.0 else 0.);
            }
        in
        (srv, Array.init clients (fun _ -> connect ())))
  in
  let replies = Array.make (Array.length reqs) None in
  let drive c () =
    Array.iteri
      (fun i r ->
        if i mod clients = c then begin
          let t0 = Measure.now () in
          let reply =
            try Client.plan ~serve:r.serve ~strategy:r.strategy conns.(c) r.src
            with e -> Error (Printexc.to_string e)
          in
          replies.(i) <- Some (Measure.now () -. t0, reply)
        end)
      reqs
  in
  let t0 = Measure.now () in
  let (), busy =
    Measure.time (fun () ->
        List.iter Thread.join
          (List.init clients (fun c -> Thread.create (drive c) ())))
  in
  let share = busy /. (Measure.now () -. t0) in
  let stats = Result.to_option (Client.stats conns.(0)) in
  Array.iter Client.close conns;
  Server.stop srv;
  remove sock;
  remove journal;
  Layers.check_dropped obs;
  { start_s; busy; share; replies; stats; events = Cf_obs.Trace.events obs }

(* One pass's replies checked against the direct plans; [None] marks a
   failed request. *)
let answers reqs expected fails p =
  let answer i reply =
    let r = reqs.(i) in
    let fail msg =
      Measure.fail fails (Printf.sprintf "request %d: %s" i msg);
      None
    in
    match reply with
    | None -> fail "no reply"
    | Some (latency, reply) -> (
      match check (Hashtbl.find expected r.key) r reply with
      | Some msg -> fail msg
      | None ->
        let j = Result.get_ok reply in
        let service =
          Option.value ~default:nan
            (Option.bind (Json.member "latency_ms" j) Json.num)
        in
        let cache_hit = Json.member "cache_hit" j = Some (Json.Bool true) in
        Some
          {
            latency = latency *. p.share;
            service = service /. 1e3 *. p.share;
            cache_hit;
          })
  in
  Array.mapi answer p.replies

let stat j path =
  List.fold_left (fun j k -> Option.bind j (Json.member k)) j path
  |> Fun.flip Option.bind Json.num
  |> Option.fold ~none:0 ~some:int_of_float

(* Requests the server turned away: admission sheds, rate limits and
   saturation per tenant, plus a full service queue. *)
let rejected stats =
  let tenants =
    Option.bind stats (fun j ->
        Option.bind (Json.member "admission" j) (fun a ->
            Option.bind (Json.member "tenants" a) Json.list))
  in
  List.fold_left
    (fun acc t ->
      acc
      + stat (Some t) [ "shed" ]
      + stat (Some t) [ "rate_limited" ]
      + stat (Some t) [ "saturated" ])
    (stat stats [ "service"; "rejected" ])
    (Option.value ~default:[] tenants)

let run ~seed ~seconds ~traced =
  let (reqs, distinct), setup = Measure.setup (fun () -> inputs ~seed) in
  let scaled, peak_mb =
    Measure.repeat ~setup ~seconds (fun _ -> pass ~traced reqs)
  in
  (* At the reference host speed: [share] scales the latencies. *)
  let passes =
    List.map
      (fun (k, p) -> { p with busy = k *. p.busy; share = k *. p.share })
      scaled
  in
  (* The direct in-process plans, computed after the passes so neither
     the passes, set-up nor the peak heap include them. *)
  let expected = Hashtbl.create (Hashtbl.length distinct) in
  Hashtbl.iter
    (fun key (nest, strategy, serve) ->
      Hashtbl.replace expected key (expect ~serve:!serve nest strategy))
    distinct;
  let fails = Measure.failures () in
  let answer_sets = List.map (answers reqs expected fails) passes in
  let n = Array.length reqs in
  let exp r = Hashtbl.find expected r.key in
  (* The [q] percentile of one answer field over the requests [where]
     selects, taken per pass, then the median over passes: a pass that
     a stalled processor slowed moves the figure no more than one pass
     in the middle of the rest would. *)
  let pct ?(where = fun _ -> true) field q =
    Measure.median
      (List.map
         (fun answers ->
           let xs = ref [] in
           Array.iteri
             (fun i a ->
               match a with
               | Some a when where reqs.(i) -> xs := field a :: !xs
               | _ -> ())
             answers;
           Measure.ms (Measure.percentile !xs q))
         answer_sets)
  in
  let latency a = a.latency in
  let fallback r = r.serve && (exp r).fallback <> None in
  let count f =
    Array.fold_left (fun acc r -> if f r then acc + 1 else acc) 0 reqs
  in
  let exact = count (fun r -> (exp r).parallelism >= 1) in
  let fallbacks = count fallback in
  (* The simulated figures leave out the cold requests, whose nests the
     seed draws: over the hot and heavy ones they do not move with the
     seed, so their bounds can be tight. *)
  let fixed r = r.cls <> Cold in
  let messages =
    Array.fold_left
      (fun acc r ->
        match (exp r).fallback with
        | Some (m, _) when r.serve && fixed r -> acc + m
        | _ -> acc)
      0 reqs
  in
  let distinct_keys =
    let h = Hashtbl.create 2048 in
    Array.iter (fun r -> Hashtbl.replace h r.key ()) reqs;
    Hashtbl.length h
  in
  (* Of the plan behind each reply: the fallback plan's for a plan_serve
     request the fallback tier answers, else the theorem plan's. *)
  let makespan =
    Measure.geomean
      (List.filter_map
         (fun r ->
           match (exp r).fallback with
           | _ when not (fixed r) -> None
           | Some (_, m) when r.serve -> Some m
           | _ -> Some (exp r).makespan)
         (Array.to_list reqs))
  in
  let last = List.nth passes (List.length passes - 1) in
  let registry p name = stat p.stats [ "metrics"; name ] in
  let journal_appends p = registry p "server.journal_appends" in
  let fallback_served p = registry p "server.fallback_served" in
  (* Each pass starts cold: one miss per distinct (nest, strategy), and
     every theorem-rejected plan_serve request served by the fallback
     tier. *)
  List.iteri
    (fun i p ->
      let appends = journal_appends p and served = fallback_served p in
      if appends <> distinct_keys || served <> fallbacks then
        Measure.fail fails
          (Printf.sprintf
             "pass %d: %d journal appends for %d distinct requests, %d \
              fallback replies for %d"
             i appends distinct_keys served fallbacks))
    passes;
  let walls = List.map (fun p -> p.busy) passes in
  let spans = List.map (fun p -> Layers.totals p.events) passes in
  let service a = a.service and overhead a = a.latency -. a.service in
  let answered answers =
    Array.fold_left (fun n a -> if a = None then n else n + 1) 0 answers
  in
  (* Pass time and throughput over the whole run, not those of the
     median pass.  The host's speed swings in phases seconds long; the
     median pass sits in whichever phase held most of a run, while the
     run's total moves with the share of time each phase took.  Over
     ten seeds the total's IQR/median was 0.055, the median pass's
     0.084. *)
  let busy = List.fold_left (fun t p -> t +. p.busy) 0. passes in
  let completed =
    List.fold_left (fun n answers -> n + answered answers) 0 answer_sets
  in
  let hits =
    List.fold_left
      (fun n answers ->
        Array.fold_left
          (fun n a ->
            match a with Some { cache_hit = true; _ } -> n + 1 | _ -> n)
          n answers)
      0 answer_sets
  in
  let metric = Measure.metric in
  let counter name v = metric name "count" (float_of_int v) in
  {
    Measure.attempted = n * List.length passes;
    failures = Measure.failed_lines fails;
    walls;
    scales = List.map fst scaled;
    e2e =
      Measure.e2e_of
        ~setup_s:
          (Measure.setup_s setup
          +. Measure.median (List.map (fun p -> p.start_s) passes))
        ~wall_s:(busy /. float_of_int (List.length passes))
        ~p50_ms:(pct latency 0.50) ~p99_ms:(pct latency 0.99)
        ~per_s:(float_of_int completed /. busy)
        ~peak_mb
        ~exact_frac:(float_of_int exact /. float_of_int n)
        ~makespan ~messages;
    layers =
      (if traced then Layers.span_metrics spans else [])
      @ [
          metric "service.p50_ms" "ms" (pct service 0.50);
          metric "service.p99_ms" "ms" (pct service 0.99);
          metric "server.overhead_p50_ms" "ms" (pct overhead 0.50);
          metric "server.overhead_p99_ms" "ms" (pct overhead 0.99);
          metric "cache.hit_frac" "ratio"
            (float_of_int hits /. float_of_int (max 1 completed));
          metric "serve.hot_p99_ms" "ms"
            (pct ~where:(fun r -> r.cls = Hot) latency 0.99);
          metric "serve.cold_p50_ms" "ms"
            (pct ~where:(fun r -> r.cls = Cold) latency 0.50);
          metric "serve.heavy_p50_ms" "ms"
            (pct ~where:(fun r -> r.cls = Heavy) latency 0.50);
          metric "serve.fallback_p50_ms" "ms"
            (pct ~where:fallback latency 0.50);
          counter "plan.nests" n;
          counter "plan.exact" exact;
          counter "plan.fallback" fallbacks;
          counter "server.journal_appends" (journal_appends last);
          counter "server.fallback_served" (fallback_served last);
          counter "service.queue_hwm"
            (stat last.stats [ "service"; "queue_hwm" ]);
          counter "admission.rejected" (rejected last.stats);
        ];
    exact =
      [
        ("exact_frac", Printf.sprintf "%d/%d" exact n);
        ("sim_makespan_s", Printf.sprintf "%.17g" makespan);
        ("sim_messages", string_of_int messages);
        ("server.journal_appends", string_of_int (journal_appends last));
        ("server.fallback_served", string_of_int (fallback_served last));
      ];
    events = last.events;
  }

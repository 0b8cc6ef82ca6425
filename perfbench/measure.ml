(* Timing, order statistics, and the record every workload returns. *)

(* Wall-clock: the run's time budget and serve's client-side latencies. *)
let now = Unix.gettimeofday

(* Host time net of the time the hypervisor steals: the process's CPU
   time, user plus system.  run.sh pins every run to one CPU, so a
   single-threaded stretch of work runs whenever its CPU is not stolen,
   and its CPU time is its wall-clock minus the stolen time.  On a
   2-vCPU VM the hypervisor stole up to 40% of a pass, in phases
   minutes long: raw wall-clock medians of two sets of ten serve runs
   differed by 27%, while a pass's wall-clock minus the stolen time
   (read from /proc/stat) stayed within 5% of its neighbours'. *)
let cpu = Sys.time

let time f =
  let t0 = cpu () in
  let r = f () in
  (r, cpu () -. t0)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* The [q] quantile, [q] in (0, 1), as the mean of the samples whose
   nearest rank lies within half a percentage point of [q] (for p99 on
   1,044 samples, the 6th to 16th largest).  A single order statistic
   jumps whenever two operations near it swap places or one input more
   or less lands in the tail; the band average does not.  nan on no
   samples. *)
let percentile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else begin
    let rank p =
      max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))
    in
    let lo = rank (q -. 0.005) and hi = rank (q +. 0.005) in
    let s = ref 0. in
    for i = lo to hi do
      s := !s +. a.(i)
    done;
    !s /. float_of_int (hi - lo + 1)
  end

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan else (a.((n - 1) / 2) +. a.(n / 2)) /. 2.

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
    (* Summed in sorted order, so the value does not depend on the
       order the samples arrived in. *)
    let logs = List.map log (List.sort Float.compare xs) in
    exp (List.fold_left ( +. ) 0. logs /. float_of_int (List.length xs))

let ms s = 1e3 *. s

let peak_heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* Host speed.  Leaving stolen time out is not enough on a shared VM:
   the speed of the CPU time itself swings, by up to a third, in phases
   from seconds to minutes long, as neighbours contend for the core's
   caches and memory.  Arithmetic alone barely moves (a register-only
   loop: CV 0.03 where planning read 0.09), allocation and memory
   traffic do.  A phase can cover a whole run, so no statistic within
   a run removes it: compile's median pass read 4.7 s in one run and
   6.1–6.7 s in the next seven.  So every pass is bracketed by
   [calibrate], a fixed routine of the benchmark's own (hashing,
   allocation, sorting, random reads over a 32 MB table outside the
   OCaml heap), and the pass's host times are scaled to a host on
   which that routine takes [calibration_ref] seconds.  No change to
   the library can speed the routine up or slow it down.  Alternating
   with planning for a minute, its time correlated 0.78 with the
   planning's, and the scaled planning time's CV was 0.059 against the
   raw 0.088. *)
let calibration_ref = 0.1

let calibration_table =
  lazy
    (Bigarray.Array1.init Bigarray.int Bigarray.c_layout (1 lsl 22) (fun i ->
         i * 7919 land ((1 lsl 22) - 1)))

let calibrate_once () =
  let table = Lazy.force calibration_table in
  let mask = Bigarray.Array1.dim table - 1 in
  snd
    (time (fun () ->
         let h = Hashtbl.create 1024 in
         for i = 0 to 60_000 do
           Hashtbl.replace h (i * 31 land 0xFFFF) [ i; i + 1 ]
         done;
         let a = Array.init 100_000 (fun i -> i * 104729 land 0xFFFFF) in
         Array.sort compare a;
         let l =
           List.rev_map
             (fun i -> (string_of_int (i land 1023), i))
             (List.init 100_000 Fun.id)
         in
         let x = ref (Hashtbl.length h + a.(5) + List.length l) in
         for i = 0 to 400_000 do
           x := !x + table.{(!x + (i * 4099)) land mask}
         done;
         ignore (Sys.opaque_identity !x)))

(* The routine's time per run, repeated until [at_least] seconds have
   gone into it (at least one run).  Compile's passes take 6 s, and one
   0.1 s run on each side of such a pass both sampled the host less
   closely and added its own noise. *)
let calibrate ~at_least =
  let rec go n spent =
    let n = n + 1 and spent = spent +. calibrate_once () in
    if spent >= at_least then spent /. float_of_int n else go n spent
  in
  go 0 0.

(* Set-up time.  One set-up takes from 0.05 ms (execute) to 50 ms
   (compile), shorter than the host's fast and slow phases: back-to-back
   runs of serve's 30 ms set-up read either about 20 or about 33 ms, so
   a median of single runs jumped between the two from one run of the
   benchmark to the next.  So set-up is timed in batches, each repeating
   [f] until it has taken 0.1 s, and a batch's figure is its time per
   call.  [setup f] runs one batch for the result; [repeat ~setup] runs
   one more before every pass and scales it like the pass, by the
   calibration that follows it; [setup_s] is the median of those.  Each
   call's result is dropped before the next call starts, so the copies
   never raise the peak heap. *)
type setup = { again : unit -> float; mutable batches : float list }

let batch f =
  let rec go n spent =
    let r, t = time f in
    let n = n + 1 and spent = spent +. t in
    if spent >= 0.1 then (r, spent /. float_of_int n) else go n spent
  in
  go 0 0.

let setup f =
  (fst (batch f), { again = (fun () -> snd (batch f)); batches = [] })

let setup_s s = median s.batches

(* [repeat ~seconds f] calls [f 0], [f 1], ... while the next call is
   expected to end within [seconds] (judged by the last one), at least
   once.  It returns each result with its host-speed scale: multiply
   the pass's host times by it.  The scale is [calibration_ref] over the
   mean of the calibrations just before and just after the pass, each
   given at least a twentieth of the last pass's time.  It
   also returns the peak heap (MB) at the end of the first pass.  With
   [~setup] one more set-up batch runs before every pass.  With
   [~warmup:true] one untimed call comes first, so the heap has grown
   to its working size before timing starts.  Every pass starts from a
   freshly collected heap, so passes are comparable.  The peak is read
   after the first pass because later passes grow it by the previous
   passes' fragmentation, which would make it depend on how many passes
   fit in the run. *)
let repeat ?setup ?(warmup = false) ~seconds f =
  if warmup then ignore (f (-1));
  (* The first call pages the table in and warms the caches. *)
  ignore (calibrate_once ());
  let t0 = now () in
  let peak = ref nan in
  let rec go i last acc =
    if i >= 1 && now () -. t0 +. last >= seconds then (List.rev acc, last)
    else begin
      let start = now () in
      let b = Option.map (fun s -> s.again ()) setup in
      Gc.compact ();
      let c = calibrate ~at_least:(last /. 20.) in
      Option.iter
        (fun s ->
          s.batches <- (Option.get b *. calibration_ref /. c) :: s.batches)
        setup;
      Gc.compact ();
      let r = f i in
      if i = 0 then peak := peak_heap_mb ();
      go (i + 1) (now () -. start) ((c, r) :: acc)
    end
  in
  let passes, last_pass = go 0 0. [] in
  Gc.compact ();
  let final = calibrate ~at_least:(last_pass /. 20.) in
  let rec scale = function
    | [] -> []
    | (c, r) :: rest ->
      let after = match rest with (c', _) :: _ -> c' | [] -> final in
      (calibration_ref /. ((c +. after) /. 2.), r) :: scale rest
  in
  (scale passes, !peak)

let scale_times k a = Array.map (fun x -> k *. x) a

(* Each operation's median latency over the passes (one array per pass,
   indexed by operation; [nan] marks an operation that failed in that
   pass).  Percentiles are taken over these, so a GC slice landing in
   one pass does not move an operation's figure. *)
let per_op passes =
  let ok x = not (Float.is_nan x) in
  match passes with
  | [] -> []
  | first :: _ ->
    List.init (Array.length first) (fun i ->
        median (List.filter ok (List.map (fun a -> a.(i)) passes)))
    |> List.filter ok

let sum a =
  Array.fold_left (fun acc x -> if Float.is_nan x then acc else acc +. x) 0. a

type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value = { name; unit_; value }

(* The end-to-end metrics, in report order. *)
let e2e_of ~setup_s ~wall_s ~p50_ms ~p99_ms ~per_s ~peak_mb ~exact_frac
    ~makespan ~messages =
  [
    metric "setup_s" "s" setup_s;
    metric "wall_s" "s" wall_s;
    metric "latency_p50_ms" "ms" p50_ms;
    metric "latency_p99_ms" "ms" p99_ms;
    metric "requests_per_s" "1/s" per_s;
    metric "peak_heap_mb" "MB" peak_mb;
    metric "exact_frac" "ratio" exact_frac;
    metric "sim_makespan_s" "sim_s" makespan;
    metric "sim_messages" "count" (float_of_int messages);
  ]

(* The end-to-end metrics of a workload whose pass is [n] operations
   run back to back: [walls] per pass, [latencies] per operation. *)
let e2e ~setup_s ~walls ~latencies ~n ~peak_mb ~exact ~makespan ~messages =
  e2e_of ~setup_s ~wall_s:(median walls)
    ~p50_ms:(ms (percentile latencies 0.50))
    ~p99_ms:(ms (percentile latencies 0.99))
    ~per_s:(median (List.map (fun w -> float_of_int n /. w) walls))
    ~peak_mb
    ~exact_frac:(float_of_int exact /. float_of_int n)
    ~makespan ~messages

type outcome = {
  attempted : int;
  failures : string list;  (** one line per failed operation *)
  walls : float list;  (** every pass's host time, in order *)
  scales : float list;  (** every pass's host-speed scale, in order *)
  e2e : metric list;  (** every end-to-end metric *)
  layers : metric list;  (** per-layer metrics this run measured *)
  exact : (string * string) list;
      (** deterministic values, rendered exactly, that the traced and
          untraced runs of one seed must agree on *)
  events : Cf_obs.Trace.event list;  (** the last traced pass *)
}

(* Failure lines, newest first. *)
type failures = string list ref

let failures () : failures = ref []
let fail (f : failures) line = f := line :: !f
let failed_lines (f : failures) = List.rev !f

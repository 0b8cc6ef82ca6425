open Cf_core
open Cf_loop
open Cf_linalg
module Compile = Cf_exec.Compile
module Parexec = Cf_exec.Parexec
module Machine = Cf_machine.Machine

type estimate = {
  messages : int;
  remote_reads : int;
  remote_writes : int;
  per_block : int array;
}

type candidate = { origin : string; space : Subspace.t }
type verdict = { strategy : Strategy.t; parallelism : int option }

type t = {
  nest : Nest.t;
  nprocs : int;
  theorems : verdict list;
  comm_free : bool;
  choice : candidate;
  partition : Coset.t;
  estimate : estimate;
  ranked : (candidate * estimate) list;
}

let theorem_number = function
  | Strategy.Nonduplicate -> 1
  | Strategy.Duplicate -> 2
  | Strategy.Min_nonduplicate -> 3
  | Strategy.Min_duplicate -> 4

(* Mirrors [Diagnose.exact_analysis_limit]: the minimal theorems need
   the enumeration-based analysis, which is only run on spaces small
   enough to enumerate. *)
let exact_analysis_limit = 100_000

(* Every theorem's partitioning space, computed once per plan; [None]
   when exact analysis was skipped or the computation failed.  The
   planner's own [exact] is reused only under the enumeration limit, so
   the verdicts do not depend on whether it was supplied. *)
let theorem_spaces ?search_radius ?exact nest =
  let exact =
    if Nest.cardinal nest > exact_analysis_limit then None
    else
      match exact with
      | Some _ -> exact
      | None -> ( try Some (Cf_dep.Exact.analyze nest) with _ -> None)
  in
  List.map
    (fun strategy ->
      ( strategy,
        if Strategy.uses_exact_analysis strategy && Option.is_none exact then
          None
        else
          try
            Some
              (Strategy.partitioning_space ?search_radius ?exact strategy nest)
          with _ -> None ))
    Strategy.all

(* {2 Candidate subspaces}

   Everything of dimension < n the existing machinery suggests.  The
   theorem spaces come first so that whenever one of them ties on
   predicted volume, ranking (messages, dim, origin) still has a
   deterministic winner; duplicates keep their first origin. *)

let candidates_of ?search_radius ~theorem_1 ~theorem_2 nest =
  let n = Nest.depth nest in
  let arrays = Nest.arrays nest in
  let acc = ref [] in
  let add origin space =
    if
      Subspace.dim space < n
      && not (List.exists (fun c -> Subspace.equal c.space space) !acc)
    then acc := { origin; space } :: !acc
  in
  add "theorem-1" theorem_1;
  add "theorem-2" theorem_2;
  let psi =
    List.map
      (fun a ->
        (a, Strategy.array_space ?search_radius Strategy.Nonduplicate nest a))
      arrays
  in
  List.iter (fun (a, s) -> add (Printf.sprintf "psi[%s]" a) s) psi;
  List.iter
    (fun a ->
      add
        (Printf.sprintf "psi_r[%s]" a)
        (Strategy.array_space ?search_radius Strategy.Duplicate nest a))
    arrays;
  (* Leave-one-out joins: serve all arrays but one locally and let the
     dropped array's accesses pay the messages. *)
  if List.length psi > 1 then
    List.iter
      (fun (dropped, _) ->
        add
          (Printf.sprintf "join-minus[%s]" dropped)
          (Subspace.join_all n
             (List.filter_map
                (fun (a, s) ->
                  if String.equal a dropped then None else Some s)
                psi)))
      psi;
  (* Span of the flow-dependence witnesses: blocks closed under the
     value-carrying differences never ship a flow value. *)
  (let flows =
     List.filter_map
       (fun (d : Cf_dep.Analysis.dep) ->
         match d.kind with
         | Cf_dep.Kind.Flow -> Some (Vec.of_int_array d.witness)
         | _ -> None)
       (Cf_dep.Analysis.deps ?search_radius nest)
   in
   if flows <> [] then add "flow-span" (Subspace.span n flows));
  let unit k = Vec.of_int_array (Array.init n (fun i -> if i = k then 1 else 0)) in
  for k = 0 to n - 1 do
    add (Printf.sprintf "axis[%d]" k) (Subspace.span n [ unit k ])
  done;
  if n > 1 then
    for k = 0 to n - 1 do
      add
        (Printf.sprintf "slab[%d]" k)
        (Subspace.span n
           (List.filter_map
              (fun j -> if j = k then None else Some (unit j))
              (List.init n Fun.id)))
    done;
  add "free" (Subspace.zero n);
  List.rev !acc

let candidates ?search_radius nest =
  let space s = Strategy.partitioning_space ?search_radius s nest in
  candidates_of ?search_radius ~theorem_1:(space Strategy.Nonduplicate)
    ~theorem_2:(space Strategy.Duplicate) nest

(* {2 First-touch volume estimator}

   One pass over the iteration space in execution order.  An element's
   home is the PE of the first iteration touching it (within one
   iteration every site runs on the same PE, so intra-iteration order
   cannot change the home); each later access from another PE is one
   message.  This is exactly [Parexec.fallback_homes]'s placement rule
   followed by [Seqexec.run_placed]'s servicing rule, which is why
   predicted counts equal simulated ones. *)

let estimate_partition ~placement coset =
  let nest = Coset.nest coset in
  let prog = Compile.make nest in
  let stmts = Compile.stmts prog in
  let nstmts = Array.length stmts in
  let homes =
    Array.map
      (fun _ -> (Hashtbl.create 64 : (int, int) Hashtbl.t))
      (Compile.arrays prog)
  in
  let per_block = Array.make (Coset.block_count coset) 0 in
  let rr = ref 0 and rw = ref 0 in
  let scratch =
    Array.map
      (fun (sp : Compile.stmt_sites) ->
        ( Array.make (Compile.Site.rank sp.Compile.lhs) 0,
          Array.map
            (fun s -> Array.make (Compile.Site.rank s) 0)
            sp.Compile.reads ))
      stmts
  in
  Nest.iter_space nest (fun iter ->
      let block = Coset.block_id_of_iteration coset iter in
      let pe = placement block in
      for si = 0 to nstmts - 1 do
        let sp = stmts.(si) in
        let lscr, rscr = scratch.(si) in
        let touch kind (s : Compile.Site.t) scr =
          Compile.Site.eval_into s iter scr;
          let tbl = homes.(s.Compile.Site.slot) in
          let packed = Machine.pack_coords scr in
          match Hashtbl.find_opt tbl packed with
          | None -> Hashtbl.add tbl packed pe
          | Some home ->
            if home <> pe then begin
              (match kind with `R -> incr rr | `W -> incr rw);
              per_block.(block - 1) <- per_block.(block - 1) + 1
            end
        in
        touch `W sp.Compile.lhs lscr;
        Array.iteri (fun k s -> touch `R s rscr.(k)) sp.Compile.reads
      done);
  { messages = !rr + !rw; remote_reads = !rr; remote_writes = !rw; per_block }

let estimate ~nprocs nest space =
  estimate_partition
    ~placement:(Parexec.cyclic ~nprocs)
    (Coset.make nest space)

let plan ?search_radius ?exact ?(nprocs = 4) nest =
  if nprocs < 1 then invalid_arg "Mincomm.plan: nprocs must be positive";
  if Nest.cardinal nest = 0 then
    invalid_arg "Mincomm.plan: empty iteration space";
  if not (Nest.all_uniformly_generated nest) then
    invalid_arg "Mincomm.plan: arrays must be uniformly generated";
  let spaces = theorem_spaces ?search_radius ?exact nest in
  (* Theorems 1 and 2 need no exact analysis, so [None] means their
     computation failed: recomputing re-raises the failure. *)
  let space strategy =
    match List.assoc strategy spaces with
    | Some s -> s
    | None -> Strategy.partitioning_space ?search_radius strategy nest
  in
  let psi_nd = space Strategy.Nonduplicate in
  let comm_free = Strategy.parallelism_degree psi_nd > 0 in
  let cands =
    if comm_free then [ { origin = "theorem-1"; space = psi_nd } ]
    else
      candidates_of ?search_radius ~theorem_1:psi_nd
        ~theorem_2:(space Strategy.Duplicate)
        nest
  in
  let placement = Parexec.cyclic ~nprocs in
  let evaluated =
    List.map
      (fun c ->
        let coset = Coset.make nest c.space in
        (c, coset, estimate_partition ~placement coset))
      cands
  in
  let sorted =
    List.stable_sort
      (fun (c1, _, e1) (c2, _, e2) ->
        let k = compare e1.messages e2.messages in
        if k <> 0 then k
        else
          let k = compare (Subspace.dim c1.space) (Subspace.dim c2.space) in
          if k <> 0 then k else compare c1.origin c2.origin)
      evaluated
  in
  (* A single-block "plan" is sequential execution renamed; prefer any
     candidate that actually spreads work, even at a higher predicted
     volume. *)
  let choice, partition, estimate =
    match
      List.find_opt
        (fun (_, p, _) -> Coset.block_count p >= 2)
        sorted
    with
    | Some best -> best
    | None -> List.hd sorted
  in
  {
    nest;
    nprocs;
    theorems =
      List.map
        (fun (strategy, space) ->
          {
            strategy;
            parallelism = Option.map Strategy.parallelism_degree space;
          })
        spaces;
    comm_free;
    choice;
    partition;
    estimate;
    ranked = List.map (fun (c, _, e) -> (c, e)) sorted;
  }

let servable t = Coset.block_count t.partition >= 2

let describe ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun v ->
      Format.fprintf ppf "Theorem %d (%s): %s@,"
        (theorem_number v.strategy)
        (Strategy.to_string v.strategy)
        (match v.parallelism with
        | Some 0 -> "rejected (dim Psi = n, no parallelism)"
        | Some p -> Printf.sprintf "parallelism %d" p
        | None -> "skipped (iteration space too large for exact analysis)"))
    t.theorems;
  if t.comm_free then
    Format.fprintf ppf "plan: exact (communication-free) via %s@,"
      t.choice.origin
  else
    Format.fprintf ppf "plan: fallback %s = %a@," t.choice.origin Subspace.pp
      t.choice.space;
  Format.fprintf ppf "blocks: %d on %d PE(s), cyclic@,"
    (Coset.block_count t.partition)
    t.nprocs;
  Format.fprintf ppf
    "predicted volume: %d message(s) (%d remote read(s), %d remote write(s))"
    t.estimate.messages t.estimate.remote_reads t.estimate.remote_writes;
  (match t.ranked with
  | [] | [ _ ] -> ()
  | _ ->
    Format.fprintf ppf "@,candidates (best first):";
    List.iter
      (fun (c, e) ->
        Format.fprintf ppf "@,  %-16s dim %d  %d message(s)" c.origin
          (Subspace.dim c.space) e.messages)
      t.ranked);
  Format.fprintf ppf "@]"

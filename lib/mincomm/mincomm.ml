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
  search_radius : int option;
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

(* Every theorem's verdict on the planned nest.  Nothing in planning
   reads them, so they are computed only when a report asks; the
   search radius the plan was made with keeps them identical to what
   planning would have computed. *)
let verdicts t =
  let nest = t.nest and search_radius = t.search_radius in
  let exact =
    if Nest.cardinal nest > exact_analysis_limit then None
    else try Some (Cf_dep.Exact.analyze nest) with _ -> None
  in
  List.map
    (fun strategy ->
      {
        strategy;
        parallelism =
          (if Strategy.uses_exact_analysis strategy && Option.is_none exact
           then None
           else
             try
               Some
                 (Strategy.parallelism_degree
                    (Strategy.partitioning_space ?search_radius ?exact
                       strategy nest))
             with _ -> None);
      })
    Strategy.all

(* {2 Candidate subspaces}

   Everything of dimension < n the existing machinery suggests.  The
   theorem spaces come first so that whenever one of them ties on
   predicted volume, ranking (messages, dim, origin) still has a
   deterministic winner; duplicates keep their first origin.  [psi] and
   [psi_r] are the per-array [Ψ_A] and [Ψ^r_A]; Theorems 1 and 2 are
   their joins ({!Strategy.partitioning_space}). *)

let candidates_of ?search_radius ~psi ~psi_r nest =
  let n = Nest.depth nest in
  let acc = ref [] in
  let add origin space =
    if
      Subspace.dim space < n
      && not (List.exists (fun c -> Subspace.equal c.space space) !acc)
    then acc := { origin; space } :: !acc
  in
  add "theorem-1" (Subspace.join_all n (List.map snd psi));
  add "theorem-2" (Subspace.join_all n (List.map snd psi_r));
  List.iter (fun (a, s) -> add (Printf.sprintf "psi[%s]" a) s) psi;
  List.iter (fun (a, s) -> add (Printf.sprintf "psi_r[%s]" a) s) psi_r;
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

let array_spaces ?search_radius strategy nest =
  List.map
    (fun a -> (a, Strategy.array_space ?search_radius strategy nest a))
    (Nest.arrays nest)

let candidates ?search_radius nest =
  candidates_of ?search_radius
    ~psi:(array_spaces ?search_radius Strategy.Nonduplicate nest)
    ~psi_r:(array_spaces ?search_radius Strategy.Duplicate nest)
    nest

(* {2 First-touch volume estimator}

   One pass over the iteration space in execution order prices every
   candidate at once.  An element's home is the PE of the first
   iteration touching it (within one iteration every site runs on the
   same PE, so intra-iteration order cannot change the home); each
   later access from another PE is one message.  This is exactly
   [Parexec.fallback_homes]'s placement rule followed by
   [Seqexec.run_placed]'s servicing rule, which is why predicted counts
   equal simulated ones.

   The walk hands over every candidate's block id per iteration
   ({!Coset.walk}).  Each access site is evaluated, and its element
   interned to a dense per-array id, once per iteration; per candidate
   the homes and counts are plain int arrays. *)

module Itbl = Hashtbl.Make (Int)

let grow a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let evaluate ~nprocs nest spaces =
  let placement = Parexec.cyclic ~nprocs in
  let prog = Compile.make nest in
  (* Every access site in execution order: per statement the write,
     then the reads. *)
  let sites, is_write =
    Array.split
      (Array.concat
         (List.map
            (fun (sp : Compile.stmt_sites) ->
              Array.append
                [| (sp.Compile.lhs, true) |]
                (Array.map (fun s -> (s, false)) sp.Compile.reads))
            (Array.to_list (Compile.stmts prog))))
  in
  let nsites = Array.length sites in
  let scratch = Array.map (fun s -> Array.make (Compile.Site.rank s) 0) sites in
  let narrays = Array.length (Compile.arrays prog) in
  let ncand = List.length spaces in
  let dense = Array.init narrays (fun _ -> Itbl.create 64) in
  (* homes.(a).(e * ncand + c): candidate c's home PE for element e of
     array a, -1 before the element's first touch. *)
  let homes = Array.init narrays (fun _ -> Array.make (64 * ncand) (-1)) in
  let element = Array.make nsites 0 in
  let pes = Array.make ncand 0 in
  let rr = Array.make ncand 0 and rw = Array.make ncand 0 in
  let per_block = Array.init ncand (fun _ -> Array.make 16 0) in
  let cosets =
    Coset.walk nest spaces (fun iter blocks ->
        for s = 0 to nsites - 1 do
          let site = sites.(s) and el = scratch.(s) in
          Compile.Site.eval_into site iter el;
          let a = site.Compile.Site.slot in
          let packed = Machine.pack_coords el in
          element.(s) <-
            (match Itbl.find dense.(a) packed with
            | e -> e
            | exception Not_found ->
              let e = Itbl.length dense.(a) in
              Itbl.add dense.(a) packed e;
              if (e + 1) * ncand > Array.length homes.(a) then
                homes.(a) <- grow homes.(a) (-1);
              e)
        done;
        for c = 0 to ncand - 1 do
          let b = blocks.(c) in
          pes.(c) <- placement b;
          if b > Array.length per_block.(c) then
            per_block.(c) <- grow per_block.(c) 0
        done;
        for s = 0 to nsites - 1 do
          let h = homes.(sites.(s).Compile.Site.slot)
          and base = element.(s) * ncand in
          for c = 0 to ncand - 1 do
            let pe = pes.(c) and home = h.(base + c) in
            if home < 0 then h.(base + c) <- pe
            else if home <> pe then begin
              if is_write.(s) then rw.(c) <- rw.(c) + 1
              else rr.(c) <- rr.(c) + 1;
              let pb = per_block.(c) and b = blocks.(c) - 1 in
              pb.(b) <- pb.(b) + 1
            end
          done
        done)
  in
  List.mapi
    (fun c coset ->
      ( coset,
        {
          messages = rr.(c) + rw.(c);
          remote_reads = rr.(c);
          remote_writes = rw.(c);
          per_block = Array.sub per_block.(c) 0 (Coset.block_count coset);
        } ))
    cosets

let estimate ~nprocs nest space =
  snd (List.hd (evaluate ~nprocs nest [ space ]))

let plan ?search_radius ?(nprocs = 4) nest =
  if nprocs < 1 then invalid_arg "Mincomm.plan: nprocs must be positive";
  if Nest.cardinal nest = 0 then
    invalid_arg "Mincomm.plan: empty iteration space";
  if not (Nest.all_uniformly_generated nest) then
    invalid_arg "Mincomm.plan: arrays must be uniformly generated";
  let psi = array_spaces ?search_radius Strategy.Nonduplicate nest in
  let psi_nd = Subspace.join_all (Nest.depth nest) (List.map snd psi) in
  let comm_free = Strategy.parallelism_degree psi_nd > 0 in
  let cands =
    if comm_free then [ { origin = "theorem-1"; space = psi_nd } ]
    else
      candidates_of ?search_radius ~psi
        ~psi_r:(array_spaces ?search_radius Strategy.Duplicate nest)
        nest
  in
  let evaluated =
    List.map2
      (fun c (coset, e) -> (c, coset, e))
      cands
      (evaluate ~nprocs nest (List.map (fun c -> c.space) cands))
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
    search_radius;
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
    (verdicts t);
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

open Cf_core
open Cf_loop
open Cf_machine

type placement = int -> int

let cyclic ~nprocs j =
  if nprocs < 1 then invalid_arg "Parexec.cyclic";
  (j - 1) mod nprocs

type recovery = {
  crashed_pes : int list;
  rounds : int;
  replayed_blocks : int;
  redistributed_words : int;
  checkpoints : int;
  checkpoint_words : int;
}

type report = {
  machine : Machine.t;
  remote_access : (int * string * int array) option;
  mismatches : (string * int array * int option * int option) list;
  per_pe_iterations : int array;
  recovery : recovery option;
}

let ok r = r.remote_access = None && r.mismatches = []

(* Accessor target over PE [pe]'s chunks for one block's copy arrays:
   each factory resolves the chunk once ({!Machine.reader} and friends),
   so the compiled kernels touch local memory with no per-access map
   lookup.  Slots whose copy array was never stored anywhere ([None]
   aid) fail lazily with the same {!Machine.Remote_access} the
   interpreted engine raises on its [aid_of] miss. *)
let bind_target machine ~pe ~copy_aids ~name =
  let miss slot el =
    raise (Machine.Remote_access { pe; array = name slot; element = el })
  in
  {
    Compile.reader =
      (fun slot ->
        match copy_aids.(slot) with
        | Some aid -> Machine.reader machine ~pe aid
        | None -> fun el -> miss slot (Array.copy el));
    reader1 =
      (fun slot ->
        match copy_aids.(slot) with
        | Some aid -> Machine.reader1 machine ~pe aid
        | None -> fun x -> miss slot [| x |]);
    reader2 =
      (fun slot ->
        match copy_aids.(slot) with
        | Some aid -> Machine.reader2 machine ~pe aid
        | None -> fun x0 x1 -> miss slot [| x0; x1 |]);
    writer =
      (fun slot ->
        match copy_aids.(slot) with
        | Some aid -> Machine.writer machine ~pe aid
        | None -> fun el _ -> miss slot (Array.copy el));
    writer1 =
      (fun slot ->
        match copy_aids.(slot) with
        | Some aid -> Machine.writer1 machine ~pe aid
        | None -> fun x _ -> miss slot [| x |]);
    writer2 =
      (fun slot ->
        match copy_aids.(slot) with
        | Some aid -> Machine.writer2 machine ~pe aid
        | None -> fun x0 x1 _ -> miss slot [| x0; x1 |]);
    flat =
      (fun slot ->
        match copy_aids.(slot) with
        | Some aid -> (
          match Machine.flat_view machine ~pe aid with
          | Some (lo, extents, data, present, dirty) ->
            Some
              {
                Compile.f_lo = lo;
                f_extents = extents;
                f_data = data;
                f_present = present;
                f_dirty = dirty;
              }
          | None -> None)
        | None -> None);
  }

(* The per-statement list of structurally distinct access sites — what
   allocation must place for one surviving statement instance.  The lhs
   leads; structurally equal references cover the same footprint, so
   each contributes once. *)
let distinct_sites stmts =
  Array.map
    (fun (sp : Compile.stmt_sites) ->
      let sites = ref [ sp.Compile.lhs ] in
      Array.iter
        (fun (s : Compile.Site.t) ->
          if
            not
              (List.exists
                 (fun (s' : Compile.Site.t) ->
                   Aref.equal s'.Compile.Site.aref s.Compile.Site.aref)
                 !sites)
          then sites := s :: !sites)
        sp.Compile.reads;
      Array.of_list (List.rev !sites))
    stmts

let site_scratch sites_per_stmt =
  Array.map
    (Array.map (fun (s : Compile.Site.t) ->
         Array.make (Compile.Site.rank s) 0))
    sites_per_stmt

(* Fallback for a [Read] node not physically shared with the compiled
   sites (never fires in practice: [Stmt.reads] returns the rhs nodes
   themselves). *)
let eval_ref idx (r : Aref.t) iter =
  let h, c = Aref.matrix idx r in
  Array.init (Array.length c) (fun p ->
      let row = h.(p) in
      let acc = ref c.(p) in
      for q = 0 to Array.length row - 1 do
        acc := !acc + (row.(q) * iter.(q))
      done;
      !acc)

let execute ?(backend = `Compiled) ?(init = Seqexec.default_init)
    ?(scalar = Seqexec.default_scalar) ?exact ?(allocate = true)
    ?(charge_distribution = false) ?(validate = true) ~machine ~placement
    ~strategy partition =
  if Machine.faults machine <> None then
    invalid_arg "Parexec.execute: fault plans require execute_indexed";
  let nest = Iter_partition.nest partition in
  let minimal = Strategy.uses_exact_analysis strategy in
  let exact =
    match exact with
    | Some e -> Some e
    | None -> if minimal then Some (Cf_dep.Exact.analyze nest) else None
  in
  let keep_opt =
    match exact with
    | Some e when minimal ->
      Some
        (fun ~stmt_index iter ->
          not (Cf_dep.Exact.is_redundant e ~stmt_index iter))
    | _ -> None
  in
  let keep ~stmt_index iter =
    match keep_opt with Some f -> f ~stmt_index iter | None -> true
  in
  let nprocs = Topology.size (Machine.topology machine) in
  let block_pe j =
    let pe = placement j in
    if pe < 0 || pe >= nprocs then
      invalid_arg "Parexec.execute: placement outside the machine";
    pe
  in
  (* Allocation: walk every (surviving) access and give its element a
     local copy on the accessing block's processor.  Copies are
     block-local (the data blocks B^A_j are separate chunks of local
     memory): two blocks sharing a processor must not share cells, since
     anti/output dependences between them can point both ways and no
     block execution order would then be safe.  When the caller
     distributes data itself ([allocate = false]), plain per-processor
     names are used — the caller guarantees shared elements are
     read-only or block-exclusive (true of the paper's matmul
     distributions). *)
  let key block array =
    if allocate then array ^ "#" ^ string_of_int block else array
  in
  let prog = Compile.make nest in
  let arr_names = Compile.arrays prog in
  let stmts = Compile.stmts prog in
  let nstmts = Array.length stmts in
  let lslots =
    Array.map
      (fun (sp : Compile.stmt_sites) -> sp.Compile.lhs.Compile.Site.slot)
      stmts
  in
  let idx = Nest.indices nest in
  let pos = Hashtbl.create 8 in
  Array.iteri (fun k v -> Hashtbl.replace pos v k) idx;
  let body = Array.of_list nest.Nest.body in
  (* Copy names are per (block, slot), not per access: memoize them so
     the allocation walk builds each string once. *)
  let block_names = Hashtbl.create 64 in
  let names_of block =
    match Hashtbl.find_opt block_names block with
    | Some a -> a
    | None ->
      let a = Array.map (key block) arr_names in
      Hashtbl.replace block_names block a;
      a
  in
  (* Collect the per-(processor, copy) element sets first, then place
     them: either free of charge, or as one pipelined host message per
     copy when the caller wants distribution accounted.  Elements are
     deduplicated by packed coordinates into per-site scratch — the walk
     allocates only for genuinely new elements. *)
  if allocate then begin
    let needed : (int * string, (int, int array * int) Hashtbl.t) Hashtbl.t =
      Hashtbl.create 64
    in
    let alloc_sites = distinct_sites stmts in
    let scratch = site_scratch alloc_sites in
    Nest.iter_space nest (fun iter ->
        let block = Iter_partition.block_id_of_iteration partition iter in
        let pe = block_pe block in
        let names = names_of block in
        for si = 0 to nstmts - 1 do
          if keep ~stmt_index:si iter then begin
            let sites = alloc_sites.(si) in
            let scrs = scratch.(si) in
            for i = 0 to Array.length sites - 1 do
              let s = sites.(i) in
              let scr = scrs.(i) in
              Compile.Site.eval_into s iter scr;
              let packed = Machine.pack_coords scr in
              let slot = s.Compile.Site.slot in
              let tbl =
                match Hashtbl.find_opt needed (pe, names.(slot)) with
                | Some t -> t
                | None ->
                  let t = Hashtbl.create 32 in
                  Hashtbl.replace needed (pe, names.(slot)) t;
                  t
              in
              if not (Hashtbl.mem tbl packed) then begin
                let el = Array.copy scr in
                Hashtbl.add tbl packed (el, init arr_names.(slot) el)
              end
            done
          end
        done);
    Hashtbl.iter
      (fun (pe, name) tbl ->
        if charge_distribution then
          Machine.host_send machine ~pe name
            (Hashtbl.fold (fun _ (el, v) acc -> (el, v) :: acc) tbl [])
        else Hashtbl.iter (fun _ (el, v) -> Machine.store machine ~pe name el v)
            tbl)
      needed;
    Machine.compact machine
  end;
  (* Execution, block by block.  For each element we record the value
     produced by the sequentially-latest write: with duplication, a
     co-located replica of another block may legally overwrite the local
     copy later in wall-clock order (a cross-block output dependence
     absorbed by replication), so reading memories after the fact would
     validate the wrong thing. *)
  let last_writer : (string * int list, (int list * int) * int) Hashtbl.t =
    Hashtbl.create 256
  in
  let note_write a el_list stamp v =
    let k = (a, el_list) in
    match Hashtbl.find_opt last_writer k with
    | Some (stamp', _) when stamp' > stamp -> ()
    | _ -> Hashtbl.replace last_writer k (stamp, v)
  in
  let on_write =
    if validate then
      Some
        (fun ~stmt_index ~iter ~el v ->
          note_write
            arr_names.(lslots.(stmt_index))
            (Array.to_list el)
            (Array.to_list iter, stmt_index)
            v)
    else None
  in
  let iscratch =
    Array.map
      (fun (sp : Compile.stmt_sites) ->
        ( Array.make (Compile.Site.rank sp.Compile.lhs) 0,
          Array.map
            (fun s -> Array.make (Compile.Site.rank s) 0)
            sp.Compile.reads ))
      stmts
  in
  let remote = ref None in
  let blocks = Iter_partition.blocks partition in
  (try
     Array.iter
       (fun (b : Iter_partition.block) ->
         let pe = block_pe b.id in
         let names = names_of b.id in
         let copy_aids = Array.map (Machine.array_id machine) names in
         (match backend with
          | `Compiled ->
            let target =
              bind_target machine ~pe
                ~copy_aids:(Array.map Option.some copy_aids)
                ~name:(fun slot -> names.(slot))
            in
            let kernel =
              Compile.bind ?keep:keep_opt ?on_write ~scalar ~target prog
            in
            List.iter kernel b.iterations
          | `Interpreted ->
            List.iter
              (fun iter ->
                let index v = iter.(Hashtbl.find pos v) in
                Array.iteri
                  (fun si (s : Stmt.t) ->
                    if keep ~stmt_index:si iter then begin
                      let sp = stmts.(si) in
                      let rsites = sp.Compile.reads in
                      let lscr, rscr = iscratch.(si) in
                      let nr = Array.length rsites in
                      let read (r : Aref.t) =
                        (* Expr nodes are physically shared with the
                           compiled sites, so a pointer scan resolves
                           the site without hashing. *)
                        let rec find i =
                          if i >= nr then -1
                          else if rsites.(i).Compile.Site.aref == r then i
                          else find (i + 1)
                        in
                        match find 0 with
                        | -1 ->
                          let el = eval_ref idx r iter in
                          Machine.read_id machine ~pe
                            copy_aids.(Compile.slot_of prog r.Aref.array)
                            el
                        | i ->
                          let site = rsites.(i) in
                          let scr = rscr.(i) in
                          Compile.Site.eval_into site iter scr;
                          Machine.read_id machine ~pe
                            copy_aids.(site.Compile.Site.slot)
                            scr
                      in
                      let v = Expr.eval ~read ~scalar ~index s.rhs in
                      Compile.Site.eval_into sp.Compile.lhs iter lscr;
                      Machine.write_id machine ~pe copy_aids.(lslots.(si)) lscr
                        v;
                      if validate then
                        note_write s.lhs.Aref.array (Array.to_list lscr)
                          (Array.to_list iter, si)
                          v
                    end)
                  body)
              b.iterations);
         Machine.run_iterations machine ~pe (List.length b.iterations))
       blocks
   with Machine.Remote_access { pe; array; element } ->
     remote := Some (pe, array, element));
  (* Merge by sequentially-last writer and validate. *)
  let mismatches =
    match !remote with
    | _ when not validate -> []
    | Some _ -> []
    | None ->
      let golden =
        if minimal then Seqexec.run_filtered ~init ~scalar ~keep nest
        else Seqexec.run ~init ~scalar nest
      in
      List.filter_map
        (fun (a, el, expected) ->
          let got =
            match Hashtbl.find_opt last_writer (a, Array.to_list el) with
            | None -> None
            | Some (_, v) -> Some v
          in
          if got = Some expected then None
          else Some (a, el, Some expected, got))
        (Seqexec.bindings golden)
  in
  let per_pe_iterations =
    Array.init nprocs (fun pe -> Machine.iterations_of machine ~pe)
  in
  { machine; remote_access = !remote; mismatches; per_pe_iterations;
    recovery = None }

(* Scale-out engine: same semantics as [execute], but driven by the
   closed-form {!Coset} index (no materialized partition) over the
   machine's interned fast path, with block execution fanned out over
   OCaml domains.

   Parallel safety rests on partitioning every piece of mutable state by
   processor: a processor's blocks all run on the one domain that owns
   the processor, so local memories, compute clocks and iteration
   counters are touched by a single domain; array interning happens only
   in the sequential allocation phase (execution uses the read-only
   lookup); and each domain accumulates its own last-writer table,
   merged after the join.  Determinism: per-processor state is updated
   in ascending block-id order exactly as the sequential engine does, so
   cost totals and counters are bit-identical; the last-writer merge
   picks the sequentially-latest stamp, which is associative and
   commutative, and a remote-access abort reports the failure with the
   smallest block id — whether an access faults is independent of
   execution order (execution never adds elements to any memory), so
   that is exactly the fault [execute] reports first.

   The compiled backend keeps all of the above: kernels are bound per
   block on the owning domain (chunk bindings never change during a
   round — writes go through the update-only path), and the validation
   hook feeds the same per-domain last-writer tables. *)
let execute_indexed ?(backend = `Compiled) ?(init = Seqexec.default_init)
    ?(scalar = Seqexec.default_scalar) ?exact ?(allocate = true)
    ?(charge_distribution = false) ?(validate = true) ?domains
    ?(checkpoint_every = 0) ?(checkpoint_mode = `Delta) ~machine ~placement
    ~strategy coset =
  let nest = Coset.nest coset in
  let minimal = Strategy.uses_exact_analysis strategy in
  let exact =
    match exact with
    | Some e -> Some e
    | None -> if minimal then Some (Cf_dep.Exact.analyze nest) else None
  in
  let keep_opt =
    match exact with
    | Some e when minimal ->
      Some
        (fun ~stmt_index iter ->
          not (Cf_dep.Exact.is_redundant e ~stmt_index iter))
    | _ -> None
  in
  let keep ~stmt_index iter =
    match keep_opt with Some f -> f ~stmt_index iter | None -> true
  in
  let nprocs = Topology.size (Machine.topology machine) in
  let plan = Machine.faults machine in
  (* One coherent timeline per run: the engine emits its spans into the
     machine's own trace, interleaved with the machine's send/resend/
     crash events.  All timestamps are simulated seconds. *)
  let obs = Machine.obs machine in
  let obs_on = Cf_obs.Trace.enabled obs in
  let backend_arg = Cf_obs.Trace.Str (Compile.backend_name backend) in
  (* Recovery replays lost data from block-local copies; without
     [allocate] the caller owns distribution and copies may be shared,
     so a crash could not be repaired locally. *)
  if plan <> None && not allocate then
    invalid_arg "Parexec.execute_indexed: fault injection requires allocate";
  if checkpoint_every < 0 then
    invalid_arg "Parexec.execute_indexed: checkpoint_every must be >= 0";
  let block_pe j =
    let pe = placement j in
    if pe < 0 || pe >= nprocs then
      invalid_arg "Parexec.execute_indexed: placement outside the machine";
    pe
  in
  let q = Coset.block_count coset in
  let idx = Nest.indices nest in
  let pos = Hashtbl.create 8 in
  Array.iteri (fun k v -> Hashtbl.replace pos v k) idx;
  let body = Array.of_list nest.Nest.body in
  (* Every access site pre-resolved once — array slots, subscript
     matrices — shared by allocation, the interpreted hot loop and the
     compiled kernels. *)
  let prog = Compile.make nest in
  let arr_names = Compile.arrays prog in
  let nslots = Array.length arr_names in
  let stmts = Compile.stmts prog in
  let lslots =
    Array.map
      (fun (sp : Compile.stmt_sites) -> sp.Compile.lhs.Compile.Site.slot)
      stmts
  in
  let base_aids = Array.map (fun a -> Machine.array_id machine a) arr_names in
  let copy_name id slot =
    if allocate then arr_names.(slot) ^ "#" ^ string_of_int id
    else arr_names.(slot)
  in
  let owner = Array.init q (fun i -> block_pe (i + 1)) in
  (* Liveness under the fault plan.  A dead PE's pending blocks move to
     the survivors by the same cyclic rule the original placement used,
     so recovery is itself a communication-free assignment. *)
  let alive = Array.make nprocs true in
  let dist_crashed = ref [] in
  let reassign id =
    let survivors =
      List.filter (fun pe -> alive.(pe)) (List.init nprocs Fun.id)
    in
    match survivors with
    | [] -> invalid_arg "Parexec.execute_indexed: every processor crashed"
    | _ ->
      let s = Array.of_list survivors in
      s.((id - 1) mod Array.length s)
  in
  (* Sequential phase: allocation (and optional distribution charging),
     block by block via closed-form enumeration.  Everything any
     surviving access of the block touches gets a block-local copy on
     the block's processor, exactly as [execute] allocates. *)
  let dist_t0 = Machine.host_now machine in
  if allocate then begin
    if charge_distribution then begin
      (* Charged distribution needs the per-copy element list up front,
         so collect each block's footprint before the single host_send. *)
      let send_block id pe =
        let slots = Array.map (fun _ -> Hashtbl.create 32) arr_names in
        let touch (site : Compile.Site.t) iter =
          let el = Compile.Site.eval site iter in
          let slot = site.Compile.Site.slot in
          let packed = Machine.pack_coords el in
          let tbl = slots.(slot) in
          if not (Hashtbl.mem tbl packed) then
            Hashtbl.add tbl packed (el, init arr_names.(slot) el)
        in
        Coset.iter_block coset ~id (fun iter ->
            Array.iteri
              (fun si (sp : Compile.stmt_sites) ->
                if keep ~stmt_index:si iter then begin
                  touch sp.Compile.lhs iter;
                  Array.iter (fun s -> touch s iter) sp.Compile.reads
                end)
              stmts);
        Array.iteri
          (fun slot tbl ->
            if Hashtbl.length tbl > 0 then
              Machine.host_send machine ~pe (copy_name id slot)
                (Hashtbl.fold (fun _ (el, v) acc -> (el, v) :: acc) tbl []))
          slots
      in
      (* A node dead on arrival is unmasked by the first send to it; the
         host then reassigns every pending block of the dead PE over the
         survivors and resends.  Each pass either drains the pending list
         or unmasks at least one more dead PE, so this terminates. *)
      let pending = ref (List.init q (fun i -> i + 1)) in
      while !pending <> [] do
        let deferred = ref [] in
        List.iter
          (fun id ->
            let pe = owner.(id - 1) in
            if not alive.(pe) then deferred := id :: !deferred
            else
              try send_block id pe
              with Machine.Pe_crashed { pe } ->
                alive.(pe) <- false;
                dist_crashed := pe :: !dist_crashed;
                deferred := id :: !deferred)
          !pending;
        List.iter (fun id -> owner.(id - 1) <- reassign id) !deferred;
        pending := List.rev !deferred
      done
    end
    else begin
      (* Free distribution: build each block copy as a packed-key table
         (deduplicating locally, away from the machine's memory map) and
         install it wholesale.  Subscripts evaluate into per-site
         scratch (this phase is sequential). *)
      let alloc_sites = distinct_sites stmts in
      let scratch = site_scratch alloc_sites in
      let tbls = Array.make nslots None in
      for id = 1 to q do
        let pe = owner.(id - 1) in
        Array.fill tbls 0 nslots None;
        Coset.iter_block ~reuse:true coset ~id (fun iter ->
            Array.iteri
              (fun si _ ->
                if keep ~stmt_index:si iter then begin
                  let sites = alloc_sites.(si) in
                  let scrs = scratch.(si) in
                  for i = 0 to Array.length sites - 1 do
                    let s = sites.(i) in
                    let scr = scrs.(i) in
                    Compile.Site.eval_into s iter scr;
                    let slot = s.Compile.Site.slot in
                    let packed = Machine.pack_coords scr in
                    let tbl =
                      match tbls.(slot) with
                      | Some t -> t
                      | None ->
                        let t = Hashtbl.create 64 in
                        tbls.(slot) <- Some t;
                        t
                    in
                    if not (Hashtbl.mem tbl packed) then
                      Hashtbl.add tbl packed
                        (init arr_names.(slot) (Array.copy scr))
                  done
                end)
              body);
        Array.iteri
          (fun slot tbl ->
            match tbl with
            | None -> ()
            | Some tbl ->
              Machine.install_id machine ~pe
                (Machine.array_id machine (copy_name id slot))
                tbl)
          tbls
      done
    end;
    Machine.compact machine
  end;
  if obs_on then
    Cf_obs.Trace.complete obs ~lane:Cf_obs.Trace.host_lane ~cat:"dist"
      ~ts:dist_t0
      ~dur:(Machine.host_now machine -. dist_t0)
      "distribute"
      ~args:
        [
          ("blocks", Cf_obs.Trace.Int q);
          ("charged", Cf_obs.Trace.Bool charge_distribution);
        ];
  (* Snapshot the distributed state: when a PE crashes mid-run, its
     block-local chunks are replayed from this checkpoint onto the
     survivors.  [ckpt_owner] pins where each block's chunks live in the
     snapshot, immune to later reassignment.  With [checkpoint_every]
     > 0 the snapshot is refreshed every so many rounds (at round
     start, after the previous round's recovery settles), so recovery
     replays from the last completed round instead of from
     post-distribution. *)
  let n_ckpts = ref 0 in
  let ckpt_words_total = ref 0 in
  let take_checkpoint () =
    let c = Machine.checkpoint ~mode:checkpoint_mode machine in
    incr n_ckpts;
    ckpt_words_total := !ckpt_words_total + Machine.checkpoint_words c;
    c
  in
  let ckpt =
    ref (match plan with Some _ -> Some (take_checkpoint ()) | None -> None)
  in
  let ckpt_owner = ref (Array.copy owner) in
  (* Parallel phase: domain [d] owns the processors with [pe mod dcount
     = d] and executes their blocks in ascending id order. *)
  let dcount =
    let requested =
      match domains with
      | Some d when d >= 1 -> d
      | Some _ -> invalid_arg "Parexec.execute_indexed: domains must be >= 1"
      | None -> Domain.recommended_domain_count ()
    in
    max 1 (min requested nprocs)
  in
  let done_blocks = Array.make q false in
  let run_domain d =
    (* aid -> packed element -> (stamp, value); stamps are (iteration,
       statement index), ordered sequentially. *)
    let lw : (int, (int, (int array * int) * int) Hashtbl.t) Hashtbl.t =
      Hashtbl.create 64
    in
    let lw_note baid packed stamp v =
      let tbl =
        match Hashtbl.find_opt lw baid with
        | Some t -> t
        | None ->
          let t = Hashtbl.create 256 in
          Hashtbl.add lw baid t;
          t
      in
      match Hashtbl.find_opt tbl packed with
      | Some (stamp', _) when compare stamp' stamp > 0 -> ()
      | _ -> Hashtbl.replace tbl packed (stamp, v)
    in
    let remote = ref None in
    let dead_here = ref [] in
    let cur_block = ref 0 in
    (* Per-domain scratch for subscript evaluation: elements live only
       for the duration of one access (the machine never retains them,
       and the fault path copies), so each domain reuses its own
       buffers. *)
    let scratch =
      Array.map
        (fun (sp : Compile.stmt_sites) ->
          ( Array.make (Compile.Site.rank sp.Compile.lhs) 0,
            Array.map
              (fun s -> Array.make (Compile.Site.rank s) 0)
              sp.Compile.reads ))
        stmts
    in
    (* Interpreted block body: per-iteration AST walk over the interned
       machine accessors — the differential oracle for the compiled
       kernels. *)
    let exec_interpreted ~id ~pe copy_aids =
      let aid_of slot el =
        match copy_aids.(slot) with
        | Some aid -> aid
        | None ->
          (* Never stored anywhere, so not local either. *)
          raise
            (Machine.Remote_access
               { pe; array = copy_name id slot; element = Array.copy el })
      in
      (* Stamps retain [iter], so reuse only when not validating. *)
      Coset.iter_block ~reuse:(not validate) coset ~id (fun iter ->
          let index v = iter.(Hashtbl.find pos v) in
          Array.iteri
            (fun si (s : Stmt.t) ->
              if keep ~stmt_index:si iter then begin
                let sp = stmts.(si) in
                let rsites = sp.Compile.reads in
                let lscr, rscr = scratch.(si) in
                let nr = Array.length rsites in
                let read (r : Aref.t) =
                  (* Expr nodes are shared with the compiled sites, so a
                     physical scan resolves the site without hashing;
                     the fallback never fires. *)
                  let rec find i =
                    if i >= nr then -1
                    else if rsites.(i).Compile.Site.aref == r then i
                    else find (i + 1)
                  in
                  match find 0 with
                  | -1 ->
                    let el = eval_ref idx r iter in
                    Machine.read_id machine ~pe
                      (aid_of (Compile.slot_of prog r.Aref.array) el)
                      el
                  | i ->
                    let site = rsites.(i) in
                    let scr = rscr.(i) in
                    Compile.Site.eval_into site iter scr;
                    Machine.read_id machine ~pe
                      (aid_of site.Compile.Site.slot scr)
                      scr
                in
                let v = Expr.eval ~read ~scalar ~index s.rhs in
                Compile.Site.eval_into sp.Compile.lhs iter lscr;
                Machine.write_id machine ~pe (aid_of lslots.(si) lscr) lscr v;
                if validate then
                  lw_note base_aids.(lslots.(si))
                    (Machine.pack_coords lscr)
                    (iter, si) v
              end)
            body)
    in
    (* Compiled block body: bind the specialized kernels against this
       block's chunks and run them.  [iter] buffers are fresh when
       validating (the hook's stamps retain them); [el] is hook-local
       scratch, only its packed form is kept. *)
    let on_write =
      if validate then
        Some
          (fun ~stmt_index ~iter ~el v ->
            lw_note
              base_aids.(lslots.(stmt_index))
              (Machine.pack_coords el)
              (iter, stmt_index) v)
      else None
    in
    (* When the caller owns distribution ([allocate = false]) every
       block on a processor binds against the same plain-named chunks,
       so the bound kernel is reusable verbatim; cache it per PE keyed
       by the resolved ids.  Chunk bindings only change between rounds
       (recovery replay), and each round runs a fresh [run_domain], so
       a cached kernel never outlives its chunks.  With per-block
       copies the ids differ block to block and the cache never hits. *)
    let kcache :
        ( int,
          int option array
          * (int array -> unit)
          * (int array -> q:int -> step:int -> count:int -> unit) )
        Hashtbl.t =
      Hashtbl.create 8
    in
    let exec_compiled ~id ~pe copy_aids =
      let kernel, run =
        match Hashtbl.find_opt kcache pe with
        | Some (aids, k, r) when aids = copy_aids -> (k, r)
        | _ ->
          let target =
            bind_target machine ~pe ~copy_aids ~name:(copy_name id)
          in
          let k, r =
            Compile.bind_run ?keep:keep_opt ?on_write ~scalar ~target prog
          in
          Hashtbl.replace kcache pe (copy_aids, k, r);
          (k, r)
      in
      (* Validation stamps retain the iteration vector, so only the
         non-validating path may hand the walker's scratch to batched
         runs. *)
      if validate then Coset.iter_block ~reuse:false coset ~id kernel
      else Coset.iter_block_runs coset ~id ~run kernel
    in
    (* Plain names ([allocate = false]) resolve to the same ids for
       every block, so the lookup is worth one array per round — except
       that a [None] can still flip to [Some] if a chunk is created
       mid-run, so only a fully-resolved vector is cached. *)
    let aids_cache = ref None in
    let copy_aids_for id =
      let resolve () =
        Array.init nslots (fun slot ->
            Machine.find_array_id machine (copy_name id slot))
      in
      if allocate then resolve ()
      else
        match !aids_cache with
        | Some aids -> aids
        | None ->
          let aids = resolve () in
          if Array.for_all Option.is_some aids then aids_cache := Some aids;
          aids
    in
    (try
       for id = 1 to q do
         let pe = owner.(id - 1) in
         if
           pe mod dcount = d && alive.(pe)
           && (not done_blocks.(id - 1))
           && not (List.mem pe !dead_here)
         then begin
           cur_block := id;
           try
             let block_t0 = if obs_on then Machine.pe_now machine pe else 0. in
             let copy_aids = copy_aids_for id in
             (match backend with
              | `Compiled ->
                if obs_on then
                  Cf_obs.Trace.mark obs ~lane:pe ~cat:"compile" ~ts:block_t0
                    "compile"
                    ~args:[ ("block", Cf_obs.Trace.Int id) ];
                exec_compiled ~id ~pe copy_aids
              | `Interpreted -> exec_interpreted ~id ~pe copy_aids);
             let bsize = (Coset.block coset ~id).Coset.size in
             Machine.run_iterations machine ~pe bsize;
             if obs_on then
               Cf_obs.Trace.complete obs ~lane:pe ~cat:"compute" ~ts:block_t0
                 ~dur:(Machine.pe_now machine pe -. block_t0)
                 "block"
                 ~args:
                   [
                     ("block", Cf_obs.Trace.Int id);
                     ("iterations", Cf_obs.Trace.Int bsize);
                     ("backend", backend_arg);
                   ];
             done_blocks.(id - 1) <- true
           with Machine.Pe_crashed { pe } -> dead_here := pe :: !dead_here
         end
       done
     with Machine.Remote_access { pe; array; element } ->
       remote := Some (!cur_block, (pe, array, element)));
    (!remote, lw, !dead_here)
  in
  (* Round loop.  Each round fans the pending blocks out over the
     domains; a crash surfaces as Pe_crashed caught at block granularity
     (the dying block does not count as done).  After the join, dead
     PEs are cleared, their pending blocks replayed from the checkpoint
     onto survivors, and the next round re-executes exactly those
     blocks.  A block's re-execution is deterministic (same iterations,
     same initial chunk values), so last-writer entries left by a
     partially-credited crashed block are overwritten with identical
     stamps and values — the merge is idempotent under replay.  Each PE
     crashes at most once, so the loop ends within nprocs + 1 rounds. *)
  let all_lw = ref [] in
  let remote = ref None in
  let run_crashed = ref [] in
  let rounds = ref 0 in
  let replayed = ref 0 in
  let rewords = ref 0 in
  let running = ref true in
  (* Rounds completed since the live checkpoint was taken; the refresh
     happens at round start so a crashed block's partial writes are
     never captured. *)
  let since = ref 0 in
  while !running do
    if plan <> None && checkpoint_every > 0 && !since >= checkpoint_every
    then begin
      ckpt := Some (take_checkpoint ());
      ckpt_owner := Array.copy owner;
      since := 0
    end;
    incr since;
    incr rounds;
    if obs_on then
      Cf_obs.Trace.mark obs ~lane:Cf_obs.Trace.host_lane ~cat:"exec"
        ~ts:(Machine.host_now machine) "round"
        ~args:[ ("round", Cf_obs.Trace.Int !rounds) ];
    let results = Array.make dcount (None, Hashtbl.create 0, []) in
    let spawned =
      Array.init (dcount - 1) (fun i ->
          Domain.spawn (fun () -> run_domain (i + 1)))
    in
    results.(0) <- run_domain 0;
    Array.iteri (fun i dom -> results.(i + 1) <- Domain.join dom) spawned;
    (* Whether an access faults is schedule-independent (execution never
       adds elements to any memory), and each domain scans its blocks in
       ascending id order, so its report is the first fault among its
       own blocks.  The fault with the globally smallest block id is
       therefore exactly the one the sequential engine hits first. *)
    let round_remote =
      Array.fold_left
        (fun acc (r, _, _) ->
          match (acc, r) with
          | None, r -> r
          | acc, None -> acc
          | Some (id, _), Some (id', _) when id' < id -> r
          | acc, Some _ -> acc)
        None results
    in
    Array.iter (fun (_, lw, _) -> all_lw := lw :: !all_lw) results;
    let new_dead =
      List.sort_uniq compare
        (Array.fold_left (fun acc (_, _, dead) -> dead @ acc) [] results)
    in
    match round_remote with
    | Some (_, fault) ->
      remote := Some fault;
      running := false
    | None ->
      if new_dead = [] then running := false
      else begin
        let ckpt = Option.get !ckpt in
        run_crashed := !run_crashed @ new_dead;
        List.iter
          (fun pe ->
            alive.(pe) <- false;
            Machine.clear_pe machine ~pe)
          new_dead;
        for id = 1 to q do
          if (not done_blocks.(id - 1)) && not alive.(owner.(id - 1)) then begin
            let to_pe = reassign id in
            Array.iteri
              (fun slot _ ->
                match Machine.find_array_id machine (copy_name id slot) with
                | None -> ()
                | Some aid ->
                  rewords :=
                    !rewords
                    + Machine.recover_chunk machine ckpt
                        ~from_pe:(!ckpt_owner).(id - 1) ~to_pe ~aid)
              arr_names;
            owner.(id - 1) <- to_pe;
            incr replayed
          end
        done;
        if obs_on then
          Cf_obs.Trace.mark obs ~lane:Cf_obs.Trace.host_lane ~cat:"fault"
            ~ts:(Machine.host_now machine) "recovery"
            ~args:
              [
                ("round", Cf_obs.Trace.Int !rounds);
                ("crashed", Cf_obs.Trace.Int (List.length new_dead));
                ("replayed_blocks", Cf_obs.Trace.Int !replayed);
                ("words", Cf_obs.Trace.Int !rewords);
              ]
      end
  done;
  let mismatches =
    match !remote with
    | _ when not validate -> []
    | Some _ -> []
    | None ->
      let golden =
        if minimal then Seqexec.run_filtered ~init ~scalar ~keep nest
        else Seqexec.run ~init ~scalar nest
      in
      let merged : (int * int, (int array * int) * int) Hashtbl.t =
        Hashtbl.create 1024
      in
      List.iter
        (fun lw ->
          Hashtbl.iter
            (fun aid tbl ->
              Hashtbl.iter
                (fun packed (stamp, v) ->
                  match Hashtbl.find_opt merged (aid, packed) with
                  | Some (stamp', _) when compare stamp' stamp > 0 -> ()
                  | _ -> Hashtbl.replace merged (aid, packed) (stamp, v))
                tbl)
            lw)
        !all_lw;
      List.filter_map
        (fun (a, el, expected) ->
          let got =
            match Machine.find_array_id machine a with
            | None -> None
            | Some aid -> (
              match
                Hashtbl.find_opt merged (aid, Machine.pack_coords el)
              with
              | None -> None
              | Some (_, v) -> Some v)
          in
          if got = Some expected then None else Some (a, el, Some expected, got))
        (Seqexec.bindings golden)
  in
  let per_pe_iterations =
    Array.init nprocs (fun pe -> Machine.iterations_of machine ~pe)
  in
  let recovery =
    match plan with
    | None -> None
    | Some _ ->
      Some
        {
          crashed_pes = List.sort_uniq compare (!dist_crashed @ !run_crashed);
          rounds = !rounds;
          replayed_blocks = !replayed;
          redistributed_words = !rewords;
          checkpoints = !n_ckpts;
          checkpoint_words = !ckpt_words_total;
        }
  in
  { machine; remote_access = !remote; mismatches; per_pe_iterations; recovery }

(* {2 Fallback execution (communication-minimal plans)}

   When no theorem yields parallelism, the planner falls back to a
   partition that merely {e minimizes} communication; executing it
   cannot rely on block-local copies (cross-block flow dependences can
   point from a lexicographically later base into an earlier block, so
   no block execution order reproduces sequential values).  Instead:
   every element gets one {e home} copy under its plain array name —
   on the PE of the first access in sequential (iteration, statement,
   write-before-reads) order — and the walk itself stays sequential,
   dispatching each iteration to its owning block's PE
   ({!Seqexec.run_placed}).  Values are exactly sequential by
   construction; the machine (in [`Service] mode) charges every access
   that crosses a home boundary as one message.  The same first-touch
   rule drives [Cf_mincomm]'s volume estimator, so predicted and
   simulated message counts agree exactly. *)

let fallback_homes ~placement coset =
  let nest = Coset.nest coset in
  let prog = Compile.make nest in
  let arr_names = Compile.arrays prog in
  let stmts = Compile.stmts prog in
  let nstmts = Array.length stmts in
  let homes =
    Array.map (fun _ -> (Hashtbl.create 64 : (int, int) Hashtbl.t)) arr_names
  in
  let scratch =
    Array.map
      (fun (sp : Compile.stmt_sites) ->
        ( Array.make (Compile.Site.rank sp.Compile.lhs) 0,
          Array.map
            (fun s -> Array.make (Compile.Site.rank s) 0)
            sp.Compile.reads ))
      stmts
  in
  (* The walk re-derives the coset's numbering and hands over each
     iteration's block id: no membership test or key allocation. *)
  let (_ : Coset.t list) =
    Coset.walk nest [ Coset.space coset ] (fun iter ids ->
        let pe = placement ids.(0) in
        for si = 0 to nstmts - 1 do
          let sp = stmts.(si) in
          let lscr, rscr = scratch.(si) in
          let touch (s : Compile.Site.t) scr =
            Compile.Site.eval_into s iter scr;
            let tbl = homes.(s.Compile.Site.slot) in
            let packed = Machine.pack_coords scr in
            if not (Hashtbl.mem tbl packed) then Hashtbl.add tbl packed pe
          in
          touch sp.Compile.lhs lscr;
          Array.iteri (fun k s -> touch s rscr.(k)) sp.Compile.reads
        done)
  in
  Array.mapi (fun slot tbl -> (arr_names.(slot), tbl)) homes

let execute_fallback ?(backend = `Compiled) ?(init = Seqexec.default_init)
    ?(scalar = Seqexec.default_scalar) ?(charge_distribution = false)
    ?(validate = true) ?(checkpoint_every = 0) ~machine ~placement coset =
  if Machine.faults machine <> None then
    invalid_arg "Parexec.execute_fallback: fault plans are unsupported";
  if checkpoint_every < 0 then
    invalid_arg "Parexec.execute_fallback: checkpoint_every must be >= 0";
  let nprocs = Topology.size (Machine.topology machine) in
  let block_pe j =
    let pe = placement j in
    if pe < 0 || pe >= nprocs then
      invalid_arg "Parexec.execute_fallback: placement outside the machine";
    pe
  in
  let nest = Coset.nest coset in
  let homes = fallback_homes ~placement:block_pe coset in
  (* Allocation: one home copy per element, plain array names — either
     free of charge or as one pipelined host message per (PE, array). *)
  Array.iter
    (fun (name, tbl) ->
      if charge_distribution then begin
        let per_pe : (int, (int array * int) list ref) Hashtbl.t =
          Hashtbl.create 8
        in
        Hashtbl.iter
          (fun packed pe ->
            let el = Machine.unpack_coords packed in
            let l =
              match Hashtbl.find_opt per_pe pe with
              | Some l -> l
              | None ->
                let l = ref [] in
                Hashtbl.replace per_pe pe l;
                l
            in
            l := (el, init name el) :: !l)
          tbl;
        for pe = 0 to nprocs - 1 do
          match Hashtbl.find_opt per_pe pe with
          | Some l -> Machine.host_send machine ~pe name !l
          | None -> ()
        done
      end
      else
        Hashtbl.iter
          (fun packed pe ->
            let el = Machine.unpack_coords packed in
            Machine.store machine ~pe name el (init name el))
          tbl)
    homes;
  Machine.compact machine;
  let pe_of iter = block_pe (Coset.block_id_of_iteration coset iter) in
  (* The sequential walk has no rounds, so the cadence is measured in
     iterations: every [checkpoint_every] dispatches a delta checkpoint
     captures the writes since the previous one.  Capture never swaps
     chunks, so the per-PE kernels bound inside [run_placed] stay
     valid.  The checkpoints themselves are dropped (no fault plan can
     reach this path) — what this buys is journal hygiene: the journal
     stays O(writes-per-window) instead of O(total writes). *)
  let pe_of =
    if checkpoint_every = 0 then pe_of
    else begin
      let seen = ref 0 in
      fun iter ->
        incr seen;
        if !seen >= checkpoint_every then begin
          seen := 0;
          ignore (Machine.checkpoint machine)
        end;
        pe_of iter
    end
  in
  let remote = ref None in
  (try Seqexec.run_placed ~backend ~scalar ~machine ~pe_of nest
   with Machine.Remote_access { pe; array; element } ->
     remote := Some (pe, array, element));
  let mismatches =
    if (not validate) || !remote <> None then []
    else begin
      let golden = Seqexec.run ~init ~scalar nest in
      let home_of a packed =
        let rec find i =
          if i >= Array.length homes then None
          else
            let name, tbl = homes.(i) in
            if String.equal name a then Hashtbl.find_opt tbl packed
            else find (i + 1)
        in
        find 0
      in
      List.filter_map
        (fun (a, el, expected) ->
          let got =
            match home_of a (Machine.pack_coords el) with
            | Some pe when Machine.holds machine ~pe a el ->
              Some (Machine.read machine ~pe a el)
            | _ -> None
          in
          if got = Some expected then None
          else Some (a, el, Some expected, got))
        (Seqexec.bindings golden)
    end
  in
  {
    machine;
    remote_access = !remote;
    mismatches;
    per_pe_iterations =
      Array.init nprocs (fun pe -> Machine.iterations_of machine ~pe);
    recovery = None;
  }

let pp_report ppf r =
  (match r.remote_access with
   | Some (pe, a, el) ->
     Format.fprintf ppf "REMOTE ACCESS: PE%d touched %s%a@," pe a
       Cf_linalg.Vec.pp_int el
   | None ->
     let serviced = Machine.serviced_messages r.machine in
     if serviced = 0 then Format.fprintf ppf "communication-free: yes@,"
     else
       Format.fprintf ppf
         "communication: %d serviced message(s) (%d read, %d write)@,"
         serviced
         (Machine.serviced_reads r.machine)
         (Machine.serviced_writes r.machine));
  if r.mismatches = [] then Format.fprintf ppf "results: match sequential@,"
  else
    List.iter
      (fun (a, el, want, got) ->
        let pp_opt ppf = function
          | Some v -> Format.fprintf ppf "%d" v
          | None -> Format.fprintf ppf "-"
        in
        Format.fprintf ppf "MISMATCH %s%a: expected %a, got %a@," a
          Cf_linalg.Vec.pp_int el pp_opt want pp_opt got)
      r.mismatches;
  (match r.recovery with
  | Some { crashed_pes = []; _ } ->
    Format.fprintf ppf "faults: none fired@,"
  | Some rc ->
    Format.fprintf ppf
      "recovered: PE {%s} crashed; %d block(s) replayed over %d round(s), %d word(s) redistributed@,"
      (String.concat "," (List.map string_of_int rc.crashed_pes))
      rc.replayed_blocks rc.rounds rc.redistributed_words;
    Format.fprintf ppf "checkpoints: %d taken, %d word(s) captured@,"
      rc.checkpoints rc.checkpoint_words
  | None -> ());
  Format.fprintf ppf "iterations per PE: %a"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf " ")
       Format.pp_print_int)
    (Array.to_list r.per_pe_iterations)

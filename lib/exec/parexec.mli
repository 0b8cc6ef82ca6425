(** Parallel execution of a partitioned nest on the simulated machine.

    The pipeline follows Section IV: allocate each iteration block and
    its data blocks to a processor, run every block's iterations on its
    processor touching only local memory (a remote access aborts the run
    — the executable form of "communication-free"), then compare every
    element's sequentially-last written value against the sequential
    interpreter.  (Validating values at write time matters under
    duplication: when several blocks share a processor, a replica of a
    sequentially-earlier write may overwrite the local copy later in
    wall-clock order — a cross-block output dependence that replication
    legitimately absorbs.) *)

open Cf_core

type placement = int -> int
(** Block id (1-based) to processor rank. *)

val cyclic : nprocs:int -> placement
(** Round-robin: block [j] on processor [(j − 1) mod nprocs]. *)

type recovery = {
  crashed_pes : int list;  (** every PE that died, in ascending order *)
  rounds : int;  (** parallel execution rounds (1 = no mid-run crash) *)
  replayed_blocks : int;
      (** block re-executions forced by crashes (a block re-lost to a
          second crash counts again) *)
  redistributed_words : int;
      (** words replayed from the checkpoint onto surviving PEs *)
  checkpoints : int;
      (** snapshots taken, counting the mandatory post-distribution one *)
  checkpoint_words : int;
      (** total words captured across all checkpoints — for delta
          checkpoints this is O(writes since the previous one), for full
          copies O(resident memory) each *)
}
(** What fault recovery did during one {!execute_indexed} run. *)

type report = {
  machine : Cf_machine.Machine.t;
  remote_access : (int * string * int array) option;
    (** Some (pe, array, element): the run was NOT communication-free. *)
  mismatches : (string * int array * int option * int option) list;
    (** element, sequential value, merged parallel value; empty = correct *)
  per_pe_iterations : int array;
  recovery : recovery option;
    (** Present iff the machine carries a fault plan (only
        {!execute_indexed}); [crashed_pes = []] means no fault fired. *)
}

val execute :
  ?backend:Compile.backend ->
  ?init:(string -> int array -> int) ->
  ?scalar:(string -> int) ->
  ?exact:Cf_dep.Exact.result ->
  ?allocate:bool ->
  ?charge_distribution:bool ->
  ?validate:bool ->
  machine:Cf_machine.Machine.t ->
  placement:placement ->
  strategy:Strategy.t ->
  Iter_partition.t ->
  report
(** The materialized reference engine.  It stays as the differential
    oracle for {!execute_indexed} (the [parexec-vs-seq] oracle in
    [cf_check]) and for analysis-scale reports; the planner's
    simulation runs {!execute_indexed}.

    Allocates local copies (free of charge — distribution-cost
    experiments pre-place data with the host primitives and pass
    [~allocate:false], making any gap in the distribution surface as a
    remote access), executes, merges, validates.  For the minimal
    strategies, redundant computations are skipped and validation
    restricts to elements the surviving computations write; [exact]
    supplies the redundancy analysis (computed on demand otherwise).
    With [~charge_distribution:true] (and [allocate] left true), the
    initial placement is charged to the machine as one pipelined host
    message per block-local copy — a generic scatter, giving a full
    makespan (distribution + compute) for any plan.  [~validate:false]
    skips the sequential golden run and the last-writer merge —
    [mismatches] is then always empty and the report only certifies
    communication freedom, not value correctness (used for throughput
    measurements).  Raises [Invalid_argument] when the machine carries a
    fault plan — crash recovery lives in {!execute_indexed}.

    [backend] (default [`Compiled]) selects the statement-body engine:
    [`Compiled] partially evaluates each body once per block through
    {!Compile} — subscript strides, operator dispatch, scalar and chunk
    lookups all resolved at bind time — and runs the resulting closures;
    [`Interpreted] walks the expression AST per iteration.  Both engines
    produce bit-for-bit identical reports (values, faulting element,
    counters); the [compiled-vs-interpreted] oracle in [cf_check]
    enforces it. *)

val execute_indexed :
  ?backend:Compile.backend ->
  ?init:(string -> int array -> int) ->
  ?scalar:(string -> int) ->
  ?exact:Cf_dep.Exact.result ->
  ?allocate:bool ->
  ?charge_distribution:bool ->
  ?validate:bool ->
  ?domains:int ->
  ?checkpoint_every:int ->
  ?checkpoint_mode:[ `Delta | `Full ] ->
  machine:Cf_machine.Machine.t ->
  placement:placement ->
  strategy:Strategy.t ->
  Coset.t ->
  report
(** The scale-out engine: semantics of {!execute}, driven by the
    closed-form {!Cf_core.Coset} index instead of a materialized
    partition, storing through the machine's interned fast path (local
    memories are compacted to flat buffers after allocation), and
    running blocks on [domains] OCaml domains (default
    [Domain.recommended_domain_count ()], capped by the machine size).
    Domain [d] owns the processors with [pe mod domains = d], so all
    per-processor state stays single-writer; per-processor cost totals
    and iteration counts are bit-identical to {!execute} for any domain
    count.  On a communication-free run the report matches {!execute}'s
    exactly; on a faulting run [remote_access] is the same fault
    {!execute} reports (smallest block id), but counters reflect each
    domain's progress rather than the sequential abort point.

    {b Crash tolerance}: when the machine carries a
    {!Cf_machine.Machine.faults} plan (requires [allocate:true] —
    [Invalid_argument] otherwise), the engine checkpoints every local
    memory right after distribution and executes in rounds.  A PE dead
    during distribution is unmasked by its first host message; a PE
    crashing mid-run loses exactly its own block-local data
    (communication freedom localizes the damage).  Either way its
    pending blocks are reassigned over the surviving PEs by the same
    cyclic rule, lost chunks are replayed from the checkpoint as charged
    host messages, and the next round re-executes exactly the lost
    blocks.  Replay is deterministic, so the merged result — and hence
    [mismatches] against the sequential golden run — is identical to the
    fault-free run's.  Raises [Invalid_argument] when every processor
    crashes.

    [checkpoint_every] (default 0 = only the post-distribution
    snapshot) refreshes the checkpoint every so many rounds, taken at
    round {e start} — after the previous round's recovery settled, so a
    crashed block's partial writes are never captured — which makes
    recovery replay from the last checkpointed round instead of from
    post-distribution.  [checkpoint_mode] (default [`Delta]) selects
    {!Cf_machine.Machine.checkpoint}'s O(writes) delta capture or the
    full deep copy; the two recover bit-for-bit identically (the
    [delta-checkpoint-identical] oracle in [cf_check] enforces it) and
    differ only in [recovery.checkpoint_words]. *)

(** {1 Fallback execution (communication-minimal plans)} *)

val fallback_homes :
  placement:placement ->
  Coset.t ->
  (string * (int, int) Hashtbl.t) array
(** The home map of a fallback plan: for every array (in
    {!Compile.arrays} order) a table from packed element coordinates
    ({!Cf_machine.Machine.pack_coords}) to the home PE — the processor
    of the block containing the {e first} access in sequential
    (iteration, statement, write-before-reads) order.  This single rule
    is shared by {!execute_fallback}'s allocation and [Cf_mincomm]'s
    volume estimator, which is what makes predicted message counts
    match simulated ones exactly. *)

val execute_fallback :
  ?backend:Compile.backend ->
  ?init:(string -> int array -> int) ->
  ?scalar:(string -> int) ->
  ?charge_distribution:bool ->
  ?validate:bool ->
  ?checkpoint_every:int ->
  machine:Cf_machine.Machine.t ->
  placement:placement ->
  Coset.t ->
  report
(** End-to-end execution of a {e fallback} (not communication-free)
    partition: places one home copy of every accessed element under its
    plain array name per {!fallback_homes}, then walks the iteration
    space in sequential lexicographic order dispatching each iteration
    to its block's PE ({!Seqexec.run_placed}) — block-by-block execution
    cannot reproduce sequential values here, since cross-block flow
    dependences point both ways.  On a [`Service]-mode machine every
    access crossing a home boundary is serviced and charged as one
    message (query the machine's [serviced_*] counters); on a [`Strict]
    machine any such access aborts with [remote_access] set — a
    zero-communication fallback (e.g. of a communication-free nest) runs
    strict cleanly.  Validation compares every home copy against the
    sequential golden run; values are bit-for-bit sequential whenever no
    remote abort occurred, so [ok] holds on any serviced run.  With
    [~charge_distribution:true] the initial placement is charged as one
    pipelined host message per (PE, array).  Raises [Invalid_argument]
    on a machine with a fault plan (crash recovery is not defined for
    serviced runs).

    [checkpoint_every] (default 0 = never) takes a delta checkpoint
    every so many dispatched iterations.  The checkpoints are dropped —
    no recovery runs here — but each capture drains the write journal,
    keeping it O(writes per window), and exercises delta capture
    through both statement-body engines (the
    [delta-checkpoint-identical] oracle leans on this). *)

val ok : report -> bool
(** No remote access and no mismatch. *)

val pp_report : Format.formatter -> report -> unit

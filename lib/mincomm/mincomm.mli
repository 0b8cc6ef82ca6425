(** Communication-minimal fallback planning.

    The paper's theorems are a yes/no gate: when every partitioning
    space [Ψ] is full-dimensional, the nest is declared sequential and
    the pipeline stops.  This module serves exactly those rejected
    nests.  It enumerates candidate partitioning subspaces from the
    same machinery the theorems use (per-array reference spaces,
    leave-one-out joins, dependence spans, axis subspaces), predicts
    the communication volume of each candidate with a first-touch
    volume estimator, and picks the partition minimizing predicted
    messages — a graceful-degradation tier between "communication-free"
    and "sequential".

    A plan costs one walk of the iteration space however many
    candidates it ranks: {!Cf_core.Coset.walk} numbers every
    candidate's blocks in the same pass that prices them, and each
    access is evaluated once per iteration, not once per candidate.
    The per-array [Ψ_A] and [Ψ^r_A] are computed once and joined into
    the Theorem 1 and 2 spaces.  The four theorems' verdicts are not
    part of planning; {!verdicts} computes them when a report asks.

    The volume model matches execution exactly: an element's {e home}
    is the PE of the block containing its first access in sequential
    (iteration, statement, write-before-reads) order, and every later
    access from a different PE is one serviced message.  This is the
    same rule {!Cf_exec.Parexec.fallback_homes} uses to place data, so
    for any plan [predicted messages = simulated serviced messages]
    when executed on a machine of the same size.  In particular a
    communication-free nest always yields a zero-volume plan over its
    exact [Ψ] — the fallback tier degrades to the theorem answer. *)

open Cf_core
open Cf_linalg

type estimate = {
  messages : int;  (** [remote_reads + remote_writes] *)
  remote_reads : int;
  remote_writes : int;
  per_block : int array;
      (** messages {e issued} by each block, indexed [block id − 1] *)
}
(** Predicted communication volume of one candidate partition under a
    cyclic block-to-PE placement. *)

type candidate = {
  origin : string;
      (** where the subspace came from: ["theorem-1"], ["psi[A]"],
          ["psi_r[A]"], ["join-minus[A]"], ["flow-span"], ["axis[k]"],
          ["slab[k]"] or ["free"] *)
  space : Subspace.t;
}

type verdict = {
  strategy : Strategy.t;
  parallelism : int option;
      (** [Some 0] = rejected (dim Ψ = n); [None] = analysis skipped
          (exact analysis on too large a space) *)
}

type t = {
  nest : Cf_loop.Nest.t;
  nprocs : int;
  search_radius : int option;  (** the radius the plan was made with *)
  comm_free : bool;
      (** Theorem 1 grants parallelism — the plan below is exact and
          has zero predicted volume *)
  choice : candidate;
  partition : Coset.t;  (** the closed-form index of [P_Ψ] of [choice] *)
  estimate : estimate;
  ranked : (candidate * estimate) list;
      (** every evaluated candidate, best first (fewest messages, then
          smallest dim, then origin) *)
}

val theorem_number : Strategy.t -> int
(** 1–4, matching the paper. *)

val candidates : ?search_radius:int -> Cf_loop.Nest.t -> candidate list
(** Candidate partitioning subspaces of dimension [< n], deduplicated
    ({!Subspace.equal}, first origin wins): the theorem spaces
    themselves (full-dimensional ones are dropped), per-array [Ψ_A]
    and [Ψ^r_A], leave-one-out joins of the [Ψ_A], the span of the
    flow-dependence witnesses, each axis line and hyperplane slab, and
    the zero space (blockless — every iteration its own block). *)

val estimate : nprocs:int -> Cf_loop.Nest.t -> Subspace.t -> estimate
(** Predicted volume of [P_Ψ] under the cyclic placement on [nprocs]
    PEs, by one pass over the iteration space in execution order
    applying the first-touch home rule — the estimator {!plan} ranks
    its candidates with.  Exact for {!Cf_exec.Parexec.execute_fallback}
    on a [`Service]-mode machine with the same placement.  Raises
    [Invalid_argument] when the subspace's ambient dimension differs
    from the nest depth. *)

val plan : ?search_radius:int -> ?nprocs:int -> Cf_loop.Nest.t -> t
(** The fallback plan ([nprocs] defaults to 4).  When Theorem 1
    grants parallelism the exact [Ψ] is the single candidate (zero
    volume by construction),
    otherwise all {!candidates} are evaluated and ranked.  The choice
    is the best-ranked candidate that yields at least two blocks when
    one exists — a single-block "plan" is just sequential execution
    renamed — and the overall best otherwise.  Requires a non-empty
    iteration space and every array uniformly generated (the theorem
    machinery's own precondition); raises [Invalid_argument]
    otherwise. *)

val verdicts : t -> verdict list
(** One verdict per {!Strategy.all}, in order, for the planned nest
    under the plan's search radius, computed on each call.  Exact
    analysis (Theorems 3 and 4) is skipped on spaces larger than the
    pipeline's enumeration limit. *)

val servable : t -> bool
(** The chosen partition has at least two blocks: executing it spreads
    work over more than one PE, so the plan is worth serving. *)

val describe : Format.formatter -> t -> unit
(** Human-readable report: per-theorem verdicts, the chosen candidate
    with its predicted volume, and the ranked runner-ups. *)

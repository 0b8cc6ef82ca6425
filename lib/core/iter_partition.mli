(** Iteration partitions [P_Ψ(I^n)] (Definition 2).

    Iterations [ī], [ī'] share a block iff [ī − ī' ∈ Ψ].  Blocks are
    materialized by enumerating the iteration space and keying each
    iteration by a canonical label of its coset of [Ψ]; they are numbered
    in lexicographic order of their base points (the paper's [B_1..B_q]).
    Materialization is meant for analysis-scale spaces: verification,
    figures and the differential oracles.  The planner and both
    execution paths use the closed-form {!Coset} index; this module is
    its reference (the [coset-parity] oracle compares the two block for
    block). *)

open Cf_linalg

type block = {
  id : int;             (** 1-based, in base-point order *)
  base : int array;     (** lexicographically smallest member *)
  iterations : int array list;  (** lexicographic order *)
}

type t

val make : Cf_loop.Nest.t -> Subspace.t -> t
(** Raises [Invalid_argument] when [Ψ]'s ambient dimension differs from
    the nest depth. *)

val nest : t -> Cf_loop.Nest.t
val space : t -> Subspace.t
val blocks : t -> block array
val block_count : t -> int

val block_of_iteration : t -> int array -> block
(** Raises [Not_found] for an iteration outside the space. *)

val block_id_of_iteration : t -> int array -> int

val max_block_size : t -> int
val min_block_size : t -> int

val pp : Format.formatter -> t -> unit

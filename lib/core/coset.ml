open Cf_rational
open Cf_linalg
open Cf_lattice
open Cf_loop

module Key = struct
  type t = int array

  let equal (a : int array) b =
    Array.length a = Array.length b
    &&
    let rec go i = i < 0 || (a.(i) = b.(i) && go (i - 1)) in
    go (Array.length a - 1)

  let hash a = Array.fold_left (fun h x -> (h * 31) + x) 17 a land max_int
end

module Ktbl = Hashtbl.Make (Key)

type block = { id : int; base : int array; size : int }

type t = {
  nest : Nest.t;
  space : Subspace.t;
  proj : int array array;
  lattice : int array array;
  nz_cols : int array array;
      (* nonzero columns of each lattice row: the walker's per-member
         translate update touches only entries that move *)
  pivots : int array;
  lo : int array;
  hi : int array;
  rectangular : bool;
  blocks : block array;
  index : int Ktbl.t;
}

let identity n =
  Array.init n (fun i -> Array.init n (fun j -> if i = j then 1 else 0))

(* The coset map φ and a lattice basis of L = Ψ ∩ Z^n.

   Ψ membership of an integer vector is a rational condition: x ∈ Ψ iff
   C·x = 0 where C's rows are a (denominator-cleared) basis of the
   orthogonal complement.  So L is exactly the integer kernel of C, and
   Intlin.kernel returns a basis of it such that every integer solution
   is a unique *integer* combination — i.e. L is saturated (Z^n / L is
   torsion-free).  The Smith normal form U·B·V = D of that basis then
   has all invariant factors 1, so for a row vector x,

     x ∈ L  ⟺  (x·V)_j = 0 for j ≥ rank.

   Hence φ(x) = ((x·V)_rank, ..., (x·V)_{n−1}) is a linear map Z^n → Z^m
   whose kernel on integer vectors is exactly L: two iterations share a
   block iff their φ images are equal.  One query is an m×n product. *)
let coset_map n space =
  let crows =
    List.map Vec.clear_denominators (Subspace.basis (Subspace.complement space))
  in
  match crows with
  | [] -> ([||], identity n)
  | _ -> (
    match Intlin.kernel (Array.of_list crows) with
    | [] -> (identity n, [||])
    | kern ->
      let b = Array.of_list kern in
      let snf = Smith.compute b in
      let k = snf.Smith.rank in
      if List.exists (fun s -> s <> 1) snf.Smith.divisors then
        invalid_arg "Coset.make: integer kernel basis is not saturated";
      let m = n - k in
      let proj =
        Array.init m (fun r ->
            Array.init n (fun c -> snf.Smith.right.(c).(k + r)))
      in
      (proj, b))

(* φ(iter) into the caller's [key]. *)
let key_into proj iter key =
  for r = 0 to Array.length proj - 1 do
    let row = Array.unsafe_get proj r in
    let acc = ref 0 in
    for c = 0 to Array.length row - 1 do
      acc := Oint.add !acc (Oint.mul (Array.unsafe_get row c) iter.(c))
    done;
    key.(r) <- !acc
  done

let key_of_proj proj iter =
  let key = Array.make (Array.length proj) 0 in
  key_into proj iter key;
  key

let key_of t iter = key_of_proj t.proj iter

let nonzero_columns row =
  let l = ref [] in
  Array.iteri (fun j v -> if v <> 0 then l := j :: !l) row;
  Array.of_list (List.rev !l)

(* One space's share of a discovery walk: the index under construction
   (no blocks yet; its [index] fills as blocks are first seen), the
   scratch key φ is evaluated into, and the blocks seen so far.  Keys
   are copied only when a block is first seen. *)
type disco = {
  shape : t;
  key : int array;
  mutable bases : int array array;
  mutable sizes : int array;
  mutable count : int;
}

let disco nest ~lo ~hi ~rectangular space =
  let n = Nest.depth nest in
  if Subspace.ambient_dim space <> n then
    invalid_arg "Coset.make: ambient dimension mismatch";
  let proj, gens = coset_map n space in
  let hnf = Hnf.compute (Array.to_list (Array.map Array.copy gens)) in
  let lattice = hnf.Hnf.basis in
  (* The lattice must be φ's kernel: φ·bᵀ = 0 for every basis row. *)
  Array.iter
    (fun b -> Array.iter (fun k -> assert (k = 0)) (key_of_proj proj b))
    lattice;
  {
    shape =
      {
        nest;
        space;
        proj;
        lattice;
        nz_cols = Array.map nonzero_columns lattice;
        pivots = hnf.Hnf.pivots;
        lo;
        hi;
        rectangular;
        blocks = [||];
        index = Ktbl.create 256;
      };
    key = Array.make (Array.length proj) 0;
    bases = Array.make 16 [||];
    sizes = Array.make 16 0;
    count = 0;
  }

let grow a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* The block id of [iter] under [d], numbering a block the first time
   one of its iterations is seen. *)
let discover d iter =
  let key = d.key in
  key_into d.shape.proj iter key;
  match Ktbl.find d.shape.index key with
  | id ->
    d.sizes.(id - 1) <- d.sizes.(id - 1) + 1;
    id
  | exception Not_found ->
    if d.count = Array.length d.sizes then begin
      d.bases <- grow d.bases [||];
      d.sizes <- grow d.sizes 0
    end;
    d.bases.(d.count) <- Array.copy iter;
    d.sizes.(d.count) <- 1;
    d.count <- d.count + 1;
    Ktbl.add d.shape.index (Array.copy key) d.count;
    d.count

(* One streaming pass discovers the blocks of every space at once.
   Lexicographic enumeration means a block's first-seen iteration is
   its base point, and first-seen order is base-point lexicographic
   order — exactly the oracle's 1-based numbering.  Nothing
   per-iteration is retained; memory is O(#blocks) per space. *)
let walk nest spaces f =
  let n = Nest.depth nest in
  let lo, hi =
    match Nest.bounding_box nest with
    | Some (lo, hi) -> (lo, hi)
    | None -> (Array.make n 0, Array.make n (-1))
  in
  let rectangular = Nest.is_rectangular nest in
  let ds =
    Array.of_list (List.map (disco nest ~lo ~hi ~rectangular) spaces)
  in
  let ids = Array.make (Array.length ds) 0 in
  Nest.iter_space nest (fun iter ->
      for s = 0 to Array.length ds - 1 do
        ids.(s) <- discover ds.(s) iter
      done;
      f iter ids);
  Array.to_list
    (Array.map
       (fun d ->
         {
           d.shape with
           blocks =
             Array.init d.count (fun i ->
                 { id = i + 1; base = d.bases.(i); size = d.sizes.(i) });
         })
       ds)

let make nest space =
  match walk nest [ space ] (fun _ _ -> ()) with
  | [ t ] -> t
  | _ -> assert false

let relabel t nest =
  if Nest.depth nest <> Subspace.ambient_dim t.space then
    invalid_arg "Coset.relabel: nest depth mismatch";
  { t with nest }

let nest t = t.nest
let space t = t.space
let blocks t = Array.to_list t.blocks
let block_count t = Array.length t.blocks

let block t ~id =
  if id < 1 || id > Array.length t.blocks then
    invalid_arg "Coset.block: block id out of range";
  t.blocks.(id - 1)

let block_id_of_iteration t iter =
  if not (Nest.mem t.nest iter) then raise Not_found;
  (* Every in-space iteration was covered by the discovery pass, so the
     lookup cannot miss. *)
  Ktbl.find t.index (key_of t iter)

let block_of_iteration_opt t iter =
  if Nest.mem t.nest iter then Ktbl.find_opt t.index (key_of t iter) else None

(* Walk the lattice translate base + Σ c_j·row_j intersected with the
   bounding box.  Rows are in Hermite (echelon) form, so the columns in
   [pivots.(j), pivots.(j+1)) are final once c_0..c_j are fixed and they
   constrain c_j alone: the feasible c_j form one interval computed with
   exact floor/ceil division.  Because the pivot entry is positive and
   all earlier columns are already equal along the walk, ascending c_j
   yields the block's members in lexicographic order — matching the
   oracle's member ordering without materializing anything. *)
let iter_block ?(reuse = false) t ~id f =
  let b = block t ~id in
  let n = Array.length b.base in
  let k = Array.length t.lattice in
  let x = Array.copy b.base in
  let leaf =
    if reuse && t.rectangular then fun () -> f x
    else
      fun () ->
        if t.rectangular || Nest.mem t.nest x then
          f (if reuse then x else Array.copy x)
  in
  if k = 0 then leaf ()
  else begin
    let nz_cols = t.nz_cols in
    let add_mul j c =
      if c <> 0 then begin
        let row = t.lattice.(j) and cols = nz_cols.(j) in
        for i = 0 to Array.length cols - 1 do
          let col = Array.unsafe_get cols i in
          x.(col) <- x.(col) + (c * Array.unsafe_get row col)
        done
      end
    in
    let stop j = if j + 1 < k then t.pivots.(j + 1) else n in
    let rec go j =
      if j = k then leaf ()
      else begin
        let row = t.lattice.(j) in
        let cmin = ref min_int and cmax = ref max_int in
        let empty = ref false in
        for col = t.pivots.(j) to stop j - 1 do
          let coeff = row.(col) and v = x.(col) in
          if coeff = 0 then begin
            if v < t.lo.(col) || v > t.hi.(col) then empty := true
          end
          else begin
            let a = t.lo.(col) - v and bnd = t.hi.(col) - v in
            let l, h =
              if coeff > 0 then (Oint.cdiv a coeff, Oint.fdiv bnd coeff)
              else (Oint.cdiv bnd coeff, Oint.fdiv a coeff)
            in
            if l > !cmin then cmin := l;
            if h < !cmax then cmax := h
          end
        done;
        (* The pivot column always contributes, so the interval is finite
           whenever it is non-empty. *)
        if (not !empty) && !cmin <= !cmax then begin
          let lo_c = !cmin and hi_c = !cmax in
          add_mul j lo_c;
          for c = lo_c to hi_c do
            go (j + 1);
            if c < hi_c then add_mul j 1
          done;
          add_mul j (-hi_c)
        end
      end
    in
    go 0
  end

(* Same walk with [reuse = true] semantics, except that maximal runs at
   the innermost lattice level whose row has a single nonzero column are
   handed to [run] as one call: the vector sits at the run's first
   iteration and the callee accounts for [count] iterations in which
   logical index [q] advances by [step].  Only rectangular cosets
   qualify (a membership test would have to be per-point otherwise);
   everything else falls back to per-iteration [f]. *)
let iter_block_runs t ~id ~run f =
  let b = block t ~id in
  let n = Array.length b.base in
  let k = Array.length t.lattice in
  let x = Array.copy b.base in
  let leaf =
    if t.rectangular then fun () -> f x
    else fun () -> if Nest.mem t.nest x then f x
  in
  if k = 0 then leaf ()
  else begin
    let nz_cols = t.nz_cols in
    let runnable = t.rectangular && Array.length nz_cols.(k - 1) = 1 in
    let add_mul j c =
      if c <> 0 then begin
        let row = t.lattice.(j) and cols = nz_cols.(j) in
        for i = 0 to Array.length cols - 1 do
          let col = Array.unsafe_get cols i in
          x.(col) <- x.(col) + (c * Array.unsafe_get row col)
        done
      end
    in
    let stop j = if j + 1 < k then t.pivots.(j + 1) else n in
    let rec go j =
      if j = k then leaf ()
      else begin
        let row = t.lattice.(j) in
        let cmin = ref min_int and cmax = ref max_int in
        let empty = ref false in
        for col = t.pivots.(j) to stop j - 1 do
          let coeff = row.(col) and v = x.(col) in
          if coeff = 0 then begin
            if v < t.lo.(col) || v > t.hi.(col) then empty := true
          end
          else begin
            let a = t.lo.(col) - v and bnd = t.hi.(col) - v in
            let l, h =
              if coeff > 0 then (Oint.cdiv a coeff, Oint.fdiv bnd coeff)
              else (Oint.cdiv bnd coeff, Oint.fdiv a coeff)
            in
            if l > !cmin then cmin := l;
            if h < !cmax then cmax := h
          end
        done;
        if (not !empty) && !cmin <= !cmax then begin
          let lo_c = !cmin and hi_c = !cmax in
          if j = k - 1 && runnable then begin
            let q = nz_cols.(j).(0) in
            add_mul j lo_c;
            run x ~q ~step:row.(q) ~count:(hi_c - lo_c + 1);
            add_mul j (-lo_c)
          end
          else begin
            add_mul j lo_c;
            for c = lo_c to hi_c do
              go (j + 1);
              if c < hi_c then add_mul j 1
            done;
            add_mul j (-hi_c)
          end
        end
      end
    in
    go 0
  end

let block_iterations t ~id =
  let acc = ref [] in
  iter_block t ~id (fun i -> acc := i :: !acc);
  List.rev !acc

let lattice_rank t = Array.length t.lattice

open Cf_rational
open Cf_linalg
open Cf_loop

type block = {
  id : int;
  base : int array;
  iterations : int array list;
}

type t = {
  nest : Nest.t;
  space : Subspace.t;
  complement_rows : Vec.t list;
  blocks : block array;
  index : (string, int) Hashtbl.t;  (** coset key -> block array index *)
  members : (int list, int) Hashtbl.t;  (** iteration -> block id *)
}

let coset_key_string complement_rows iter =
  match complement_rows with
  | [] -> "*" (* Ψ is full: a single block *)
  | rows ->
    let v = Vec.of_int_array iter in
    String.concat ";"
      (List.map (fun r -> Rat.to_string (Vec.dot r v)) rows)

let make nest space =
  if Subspace.ambient_dim space <> Nest.depth nest then
    invalid_arg "Iter_partition.make: ambient dimension mismatch";
  let complement_rows = Subspace.basis (Subspace.complement space) in
  let groups : (string, int array list ref) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  Nest.iter_space nest (fun iter ->
      let key = coset_key_string complement_rows iter in
      match Hashtbl.find_opt groups key with
      | Some l -> l := iter :: !l
      | None ->
        Hashtbl.replace groups key (ref [ iter ]);
        order := key :: !order);
  (* Iterations arrive in lexicographic order, so the first iteration of
     each group is its base point and group creation order sorts blocks
     by base point. *)
  let keys = Array.of_list (List.rev !order) in
  let blocks =
    Array.mapi
      (fun k key ->
        let iters = List.rev !(Hashtbl.find groups key) in
        match iters with
        | [] -> assert false
        | base :: _ -> { id = k + 1; base; iterations = iters })
      keys
  in
  let index = Hashtbl.create (Array.length keys) in
  Array.iteri (fun k key -> Hashtbl.replace index key k) keys;
  let members = Hashtbl.create 256 in
  Array.iter
    (fun b ->
      List.iter
        (fun it -> Hashtbl.replace members (Array.to_list it) b.id)
        b.iterations)
    blocks;
  { nest; space; complement_rows; blocks; index; members }

let nest t = t.nest
let space t = t.space
let blocks t = t.blocks
let block_count t = Array.length t.blocks

let block_of_iteration t iter =
  (* Membership, not just coset-key lookup: a key can collide with a
     block whose line merely passes through an out-of-space [iter]. *)
  match Hashtbl.find_opt t.members (Array.to_list iter) with
  | Some id -> t.blocks.(id - 1)
  | None -> raise Not_found

let block_id_of_iteration t iter = (block_of_iteration t iter).id

let max_block_size t =
  Array.fold_left
    (fun m b -> Stdlib.max m (List.length b.iterations))
    0 t.blocks

let min_block_size t =
  Array.fold_left
    (fun m b -> Stdlib.min m (List.length b.iterations))
    max_int t.blocks

let pp ppf t =
  Format.fprintf ppf "@[<v>iteration partition by %a: %d block(s)@," Subspace.pp
    t.space (block_count t);
  Array.iter
    (fun b ->
      Format.fprintf ppf "  B%d (base %a): %a@," b.id Vec.pp_int b.base
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf " ")
           Vec.pp_int)
        b.iterations)
    t.blocks;
  Format.fprintf ppf "@]"

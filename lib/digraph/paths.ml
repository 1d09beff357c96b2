let unreachable = max_int / 4

(* A tiny pairing-heap priority queue specialised to (priority, node).
   The standard library has no priority queue; scheduling graphs are small
   but topology distance precomputation benefits from the right complexity. *)
module Heap = struct
  type t = Leaf | Node of int * int * t list

  let empty = Leaf
  let is_empty h = h = Leaf

  let merge a b =
    match (a, b) with
    | Leaf, h | h, Leaf -> h
    | Node (ka, va, ca), Node (kb, vb, cb) ->
        if ka <= kb then Node (ka, va, b :: ca) else Node (kb, vb, a :: cb)

  let insert h k v = merge h (Node (k, v, []))

  let rec merge_pairs = function
    | [] -> Leaf
    | [ h ] -> h
    | a :: b :: rest -> merge (merge a b) (merge_pairs rest)

  let pop = function
    | Leaf -> None
    | Node (k, v, children) -> Some ((k, v), merge_pairs children)
end

let dijkstra_tree g ~weight ~src =
  let n = Graph.n_nodes g in
  let dist = Array.make n unreachable in
  let parent = Array.make n (-1) in
  let settled = Array.make n false in
  dist.(src) <- 0;
  let heap = ref (Heap.insert Heap.empty 0 src) in
  while not (Heap.is_empty !heap) do
    match Heap.pop !heap with
    | None -> ()
    | Some ((d, v), rest) ->
        heap := rest;
        if not settled.(v) && d = dist.(v) then begin
          settled.(v) <- true;
          let relax e =
            let w = weight e in
            if w < 0 then
              invalid_arg "Digraph.Paths.dijkstra: negative edge weight";
            let u = e.Graph.dst in
            if dist.(v) + w < dist.(u) then begin
              dist.(u) <- dist.(v) + w;
              parent.(u) <- v;
              heap := Heap.insert !heap dist.(u) u
            end
          in
          List.iter relax (Graph.succ g v)
        end
  done;
  (dist, parent)

let dijkstra g ~weight ~src = fst (dijkstra_tree g ~weight ~src)

let path_to ~dist ~parent dst =
  if dst < 0 || dst >= Array.length dist || dist.(dst) >= unreachable then None
  else begin
    let rec build v acc =
      if parent.(v) < 0 then v :: acc else build parent.(v) (v :: acc)
    in
    Some (build dst [])
  end

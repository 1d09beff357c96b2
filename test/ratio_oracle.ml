(* Reference maximum cycle ratio for differential tests: enumerate every
   elementary circuit (one per choice among parallel edges) and keep the
   best [sum num / sum den].  Exponential, so only meant for the small
   graphs the properties draw. *)

module G = Digraph.Graph

let max_cycles = 20_000
let max_variants = 4096

let sum f edges = List.fold_left (fun acc e -> acc + f e) 0 edges

(* [None] when a cap would truncate the enumeration, so properties only
   compare where the oracle is complete; [Some None] for an acyclic graph.
   @raise Invalid_argument on a circuit with denominator sum <= 0. *)
let maximum g ~num ~den =
  let cycles = Digraph.Cycles.elementary ~max_cycles g in
  let hops cyc =
    List.fold_left
      (fun acc (a, b) -> acc * List.length (G.find_edges g ~src:a ~dst:b))
      1
      (List.combine cyc (List.tl cyc @ [ List.hd cyc ]))
  in
  if
    List.length cycles >= max_cycles
    || List.exists (fun cyc -> hops cyc > max_variants) cycles
  then None
  else
    let better (t, d) = function
      | Some (bt, bd) when bt * d >= t * bd -> Some (bt, bd)
      | _ -> Some (t, d)
    in
    Some
      (List.fold_left
         (fun best edges ->
           let d = sum den edges in
           if d <= 0 then invalid_arg "Ratio_oracle.maximum: denominator sum <= 0";
           better (sum num edges, d) best)
         None
         (List.concat_map (Digraph.Cycles.all_cycle_edges g) cycles))

(* A node cycle in the form [Cycles.elementary] returns: distinct nodes,
   starting at the smallest. *)
let is_rotated_cycle = function
  | [] -> false
  | first :: _ as cyc ->
      first = List.fold_left min first cyc
      && List.length (List.sort_uniq compare cyc) = List.length cyc

(* Cycle time counts the *source* node of each edge once, so summing
   t(src) over a cycle's edges counts every node of the cycle exactly
   once. *)
let critical g =
  Digraph.Cycle_ratio.maximum (Csdfg.graph g)
    ~num:(fun e -> Csdfg.time g e.Digraph.Graph.src)
    ~den:Csdfg.delay

let exact g = Option.map fst (critical g)
let exact_ceil g = Option.map (fun (t, d) -> (t + d - 1) / d) (exact g)

let critical_cycle g =
  Option.map
    (fun (_, cycle) -> List.map (fun e -> e.Digraph.Graph.src) cycle)
    (critical g)

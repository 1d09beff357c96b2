(* Unit and property tests for the digraph substrate. *)

module G = Digraph.Graph

let edge src dst label = { G.src; dst; label }

(* A diamond: 0 -> 1 -> 3, 0 -> 2 -> 3. *)
let diamond () =
  G.create ~n:4 [ edge 0 1 "a"; edge 0 2 "b"; edge 1 3 "c"; edge 2 3 "d" ]

(* Two strongly connected components: {0,1,2} and {3,4}, plus a bridge. *)
let two_sccs () =
  G.create ~n:5
    [
      edge 0 1 (); edge 1 2 (); edge 2 0 ();
      edge 2 3 ();
      edge 3 4 (); edge 4 3 ();
    ]

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_list_int = Alcotest.(check (list int))

(* ------------------------------------------------------------------ *)
(* Graph                                                                *)
(* ------------------------------------------------------------------ *)

let test_empty () =
  let g : unit G.t = G.empty 3 in
  check "nodes" 3 (G.n_nodes g);
  check "edges" 0 (G.n_edges g);
  check_list_int "node list" [ 0; 1; 2 ] (G.nodes g)

let test_empty_zero () =
  let g : unit G.t = G.empty 0 in
  check "no nodes" 0 (G.n_nodes g);
  check_list_int "empty node list" [] (G.nodes g)

let test_empty_negative () =
  Alcotest.check_raises "negative size" (Invalid_argument
    "Digraph.Graph.empty: negative node count") (fun () ->
      ignore (G.empty (-1)))

let test_add_edge_out_of_range () =
  let g = G.empty 2 in
  Alcotest.check_raises "bad src"
    (Invalid_argument "Digraph.Graph.add_edge: node 5 out of range [0..1]")
    (fun () -> ignore (G.add_edge g ~src:5 ~dst:0 ()))

let test_succ_pred () =
  let g = diamond () in
  check "succ 0" 2 (List.length (G.succ g 0));
  check "pred 3" 2 (List.length (G.pred g 3));
  check_list_int "succ_nodes 0" [ 1; 2 ] (G.succ_nodes g 0);
  check_list_int "pred_nodes 3" [ 1; 2 ] (G.pred_nodes g 3);
  check "out_degree" 2 (G.out_degree g 0);
  check "in_degree" 0 (G.in_degree g 0)

let test_insertion_order () =
  let g = diamond () in
  let labels = List.map (fun e -> e.G.label) (G.edges g) in
  Alcotest.(check (list string)) "insertion order" [ "a"; "b"; "c"; "d" ] labels

let test_multigraph () =
  let g = G.create ~n:2 [ edge 0 1 "x"; edge 0 1 "y" ] in
  check "two parallel edges" 2 (List.length (G.find_edges g ~src:0 ~dst:1));
  check_bool "mem" true (G.mem_edge g ~src:0 ~dst:1);
  check_bool "not mem" false (G.mem_edge g ~src:1 ~dst:0)

let test_map_labels () =
  let g = diamond () in
  let g' = G.map_labels (fun e -> String.uppercase_ascii e.G.label) g in
  let labels = List.map (fun e -> e.G.label) (G.edges g') in
  Alcotest.(check (list string)) "mapped" [ "A"; "B"; "C"; "D" ] labels

let test_filter_edges () =
  let g = diamond () in
  let g' = G.filter_edges (fun e -> e.G.src = 0) g in
  check "kept" 2 (G.n_edges g');
  check "same nodes" 4 (G.n_nodes g')

let test_transpose () =
  let g = diamond () in
  let t = G.transpose g in
  check_list_int "succ of 3 in transpose" [ 1; 2 ] (G.succ_nodes t 3);
  check "edge count preserved" (G.n_edges g) (G.n_edges t);
  check_bool "double transpose equals original" true
    (G.equal String.equal g (G.transpose t))

let test_self_loops () =
  let g = G.create ~n:2 [ edge 0 0 (); edge 0 1 () ] in
  check "one self loop" 1 (List.length (G.self_loops g))

let test_equal () =
  let a = diamond () in
  let b =
    G.create ~n:4 [ edge 1 3 "c"; edge 0 1 "a"; edge 2 3 "d"; edge 0 2 "b" ]
  in
  check_bool "equal up to order" true (G.equal String.equal a b);
  let c = G.create ~n:4 [ edge 0 1 "a" ] in
  check_bool "different edge counts" false (G.equal String.equal a c)

(* ------------------------------------------------------------------ *)
(* Topo                                                                 *)
(* ------------------------------------------------------------------ *)

let test_topo_sort () =
  let g = diamond () in
  match Digraph.Topo.sort g with
  | None -> Alcotest.fail "diamond is a DAG"
  | Some order ->
      check_list_int "deterministic order" [ 0; 1; 2; 3 ] order

let test_topo_cyclic () =
  let g = G.create ~n:2 [ edge 0 1 (); edge 1 0 () ] in
  Alcotest.(check bool) "cycle detected" true (Digraph.Topo.sort g = None);
  check_bool "is_dag false" false (Digraph.Topo.is_dag g)

let test_topo_respects_edges () =
  let g = two_sccs () in
  check_bool "cyclic graph has no order" true (Digraph.Topo.sort g = None)

let test_layers () =
  let g = diamond () in
  match Digraph.Topo.layers g with
  | None -> Alcotest.fail "diamond is a DAG"
  | Some layers ->
      Alcotest.(check (list (list int))) "asap layers" [ [ 0 ]; [ 1; 2 ]; [ 3 ] ]
        layers

let test_longest_path () =
  let g = diamond () in
  check "unit weights" 3 (Digraph.Topo.longest_path_nodes g ~weight:(fun _ -> 1));
  check "weighted" 6
    (Digraph.Topo.longest_path_nodes g ~weight:(fun v -> if v = 2 then 4 else 1))

let test_longest_path_empty () =
  check "empty graph" 0
    (Digraph.Topo.longest_path_nodes (G.empty 0) ~weight:(fun _ -> 1))

(* ------------------------------------------------------------------ *)
(* Scc                                                                  *)
(* ------------------------------------------------------------------ *)

let test_scc_two_components () =
  let g = two_sccs () in
  let comps = Digraph.Scc.components g in
  Alcotest.(check (list (list int))) "components in reverse topo order"
    [ [ 3; 4 ]; [ 0; 1; 2 ] ]
    comps

let test_scc_dag () =
  let g = diamond () in
  check "all singletons" 4 (List.length (Digraph.Scc.components g));
  check "no nontrivial" 0 (List.length (Digraph.Scc.nontrivial g))

let test_scc_self_loop_nontrivial () =
  let g = G.create ~n:2 [ edge 0 0 () ] in
  Alcotest.(check (list (list int))) "self loop is a cycle" [ [ 0 ] ]
    (Digraph.Scc.nontrivial g)

let test_strongly_connected () =
  let ring = G.create ~n:3 [ edge 0 1 (); edge 1 2 (); edge 2 0 () ] in
  check_bool "ring strongly connected" true
    (Digraph.Scc.is_strongly_connected ring);
  check_bool "diamond not" false
    (Digraph.Scc.is_strongly_connected (G.map_labels (fun _ -> ()) (diamond ())))

let test_condensation () =
  let g = two_sccs () in
  let dag = Digraph.Scc.condensation g in
  check "two meta nodes" 2 (G.n_nodes dag);
  check "one bridge" 1 (G.n_edges dag);
  check_bool "condensation is a DAG" true (Digraph.Topo.is_dag dag)

let test_component_of () =
  let g = two_sccs () in
  let owner = Digraph.Scc.component_of g in
  check_bool "0,1,2 together" true
    (owner.(0) = owner.(1) && owner.(1) = owner.(2));
  check_bool "3,4 together" true (owner.(3) = owner.(4));
  check_bool "separate" true (owner.(0) <> owner.(3))

(* ------------------------------------------------------------------ *)
(* Paths                                                                *)
(* ------------------------------------------------------------------ *)

let weighted () =
  G.create ~n:5
    [
      edge 0 1 4; edge 0 2 1; edge 2 1 2; edge 1 3 1; edge 2 3 5; edge 3 4 3;
    ]

let test_dijkstra () =
  let d = Digraph.Paths.dijkstra (weighted ()) ~weight:(fun e -> e.G.label) ~src:0 in
  Alcotest.(check (array int)) "distances" [| 0; 3; 1; 4; 7 |] d

let test_dijkstra_unreachable () =
  let g = G.create ~n:3 [ edge 0 1 1 ] in
  let d = Digraph.Paths.dijkstra g ~weight:(fun e -> e.G.label) ~src:0 in
  check "unreachable" Digraph.Paths.unreachable d.(2)

let test_dijkstra_negative_rejected () =
  let g = G.create ~n:2 [ edge 0 1 (-1) ] in
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Digraph.Paths.dijkstra: negative edge weight") (fun () ->
      ignore (Digraph.Paths.dijkstra g ~weight:(fun e -> e.G.label) ~src:0))

let test_dijkstra_path () =
  let dist, parent =
    Digraph.Paths.dijkstra_tree (weighted ()) ~weight:(fun e -> e.G.label) ~src:0
  in
  (match Digraph.Paths.path_to ~dist ~parent 4 with
  | Some p -> check_list_int "path 0->4" [ 0; 2; 1; 3; 4 ] p
  | None -> Alcotest.fail "4 is reachable");
  check_bool "unreachable path is None" true
    (Digraph.Paths.path_to ~dist ~parent 99 = None)

(* The difference-constraint solver the retiming oracle builds on. *)
let test_negative_cycle_detected () =
  let g = G.create ~n:2 [ edge 0 1 1; edge 1 0 (-2) ] in
  check_bool "infeasible" true
    (Retiming_oracle.feasible_potentials g ~weight:(fun e -> e.G.label) = None)

let test_feasible_potentials () =
  let g = G.create ~n:3 [ edge 0 1 2; edge 1 2 (-1); edge 2 0 0 ] in
  match Retiming_oracle.feasible_potentials g ~weight:(fun e -> e.G.label) with
  | None -> Alcotest.fail "system is feasible"
  | Some p ->
      G.iter_edges
        (fun e ->
          check_bool "constraint satisfied" true
            (p.(e.G.dst) - p.(e.G.src) <= e.G.label))
        g

(* ------------------------------------------------------------------ *)
(* Cycles                                                               *)
(* ------------------------------------------------------------------ *)

let test_cycles_dag () =
  check "no cycles in a DAG" 0
    (List.length (Digraph.Cycles.elementary (diamond ())));
  check_bool "has_cycle false" false (Digraph.Cycles.has_cycle (diamond ()))

let test_cycles_simple () =
  let g = G.create ~n:3 [ edge 0 1 (); edge 1 2 (); edge 2 0 () ] in
  Alcotest.(check (list (list int))) "one triangle" [ [ 0; 1; 2 ] ]
    (Digraph.Cycles.elementary g)

let test_cycles_two_loops () =
  let g = two_sccs () in
  Alcotest.(check (list (list int))) "two cycles" [ [ 0; 1; 2 ]; [ 3; 4 ] ]
    (Digraph.Cycles.elementary g)

let test_cycles_self_loop () =
  let g = G.create ~n:2 [ edge 0 0 (); edge 0 1 (); edge 1 0 () ] in
  Alcotest.(check (list (list int))) "self loop and 2-cycle"
    [ [ 0 ]; [ 0; 1 ] ]
    (Digraph.Cycles.elementary g)

let test_cycles_complete3 () =
  (* K3 with both directions: cycles are 3 two-cycles and 2 triangles. *)
  let g =
    G.create ~n:3
      [
        edge 0 1 (); edge 1 0 (); edge 1 2 (); edge 2 1 (); edge 0 2 ();
        edge 2 0 ();
      ]
  in
  check "5 elementary cycles" 5 (List.length (Digraph.Cycles.elementary g))

let test_cycles_bounded () =
  let g =
    G.create ~n:3
      [
        edge 0 1 (); edge 1 0 (); edge 1 2 (); edge 2 1 (); edge 0 2 ();
        edge 2 0 ();
      ]
  in
  check "stops at bound" 2
    (List.length (Digraph.Cycles.elementary ~max_cycles:2 g))

let test_cycle_edges () =
  let g = G.create ~n:3 [ edge 0 1 "x"; edge 1 2 "y"; edge 2 0 "z" ] in
  let es = Digraph.Cycles.cycle_edges g [ 0; 1; 2 ] in
  Alcotest.(check (list string)) "edge labels around the cycle"
    [ "x"; "y"; "z" ]
    (List.map (fun e -> e.G.label) es)

let test_fold_cycle_weight () =
  let g = G.create ~n:2 [ edge 0 1 3; edge 1 0 4 ] in
  check "sum" 7
    (Digraph.Cycles.fold_cycle_weight g [ 0; 1 ]
       ~f:(fun acc e -> acc + e.G.label)
       ~init:0)

(* ------------------------------------------------------------------ *)
(* Cycle ratio                                                          *)
(* ------------------------------------------------------------------ *)

let max_ratio g =
  Digraph.Cycle_ratio.maximum g
    ~num:(fun e -> fst e.G.label)
    ~den:(fun e -> snd e.G.label)

let srcs cycle = List.map (fun e -> e.G.src) cycle

let test_max_ratio_acyclic () =
  check_bool "acyclic -> None" true
    (max_ratio (G.map_labels (fun _ -> (1, 1)) (diamond ())) = None)

let test_max_ratio () =
  (* Two cycles: ratio 5/1 and 4/2. *)
  let g =
    G.create ~n:4
      [
        edge 0 1 (5, 1); edge 1 0 (0, 0);
        edge 2 3 (4, 1); edge 3 2 (0, 1);
      ]
  in
  match max_ratio g with
  | None -> Alcotest.fail "has cycles"
  | Some ((t, d), cycle) ->
      check_bool "ratio 5" true (t = 5 * d);
      check_list_int "the 0-1 loop" [ 0; 1 ] (srcs cycle)

let test_max_ratio_parallel_edges () =
  (* Regression: two parallel back-edges with different denominators give
     two distinct circuits over the same node cycle; the maximum must
     consider both (here 5/1, not 5/2). *)
  let g =
    G.create ~n:2 [ edge 0 1 (5, 0); edge 1 0 (0, 2); edge 1 0 (0, 1) ]
  in
  (match max_ratio g with
  | None -> Alcotest.fail "has cycles"
  | Some ((t, d), cycle) ->
      check_bool "picks the 1-delay variant" true (t = 5 * d);
      check_bool "through the 1-delay edge" true
        (List.exists (fun e -> e.G.label = (0, 1)) cycle));
  check "variants enumerated" 2
    (List.length (Digraph.Cycles.all_cycle_edges g [ 0; 1 ]))

let test_all_cycle_edges_cap () =
  let g =
    G.create ~n:2
      [ edge 0 1 "a"; edge 0 1 "b"; edge 0 1 "c"; edge 1 0 "x"; edge 1 0 "y" ]
  in
  check "full product" 6 (List.length (Digraph.Cycles.all_cycle_edges g [ 0; 1 ]));
  check "capped" 4
    (List.length (Digraph.Cycles.all_cycle_edges ~max_variants:4 g [ 0; 1 ]))

let test_max_ratio_forward_rotated () =
  (* The cycle 3 -> 1 -> 4 -> 2 -> 3 comes back in edge order from node 1,
     however its edges were inserted. *)
  let g =
    G.create ~n:5
      [ edge 2 3 (1, 1); edge 4 2 (1, 0); edge 3 1 (1, 0); edge 1 4 (1, 0) ]
  in
  match max_ratio g with
  | None -> Alcotest.fail "has cycles"
  | Some ((t, d), cycle) ->
      check "T" 4 t;
      check "D" 1 d;
      check_list_int "forward from the smallest node" [ 1; 4; 2; 3 ]
        (srcs cycle);
      check_list_int "closed" [ 4; 2; 3; 1 ]
        (List.map (fun e -> e.G.dst) cycle)

let test_max_ratio_bad_denominators () =
  let raises g =
    match max_ratio g with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check_bool "zero-delay cycle" true
    (raises (G.create ~n:2 [ edge 0 1 (1, 0); edge 1 0 (1, 0) ]));
  check_bool "zero-delay self loop" true
    (raises (G.create ~n:1 [ edge 0 0 (1, 0) ]));
  check_bool "zero-sum cycle with non-positive numerators" true
    (raises (G.create ~n:2 [ edge 0 1 (0, 0); edge 1 0 (-1, 0); edge 0 0 (1, 1) ]));
  check_bool "negative denominator" true
    (raises (G.create ~n:2 [ edge 0 1 (1, -1); edge 1 0 (1, 3) ]))

let test_max_ratio_large_weights () =
  (* 10^12-step nodes on a 20-node ring with a chord: exact, no overflow. *)
  let big = 1_000_000_000_000 in
  let ring =
    List.init 20 (fun i -> edge i ((i + 1) mod 20) (big + i, if i = 19 then 3 else 0))
  in
  let g = G.create ~n:20 (edge 9 0 (big + 9, 1) :: ring) in
  (match max_ratio g with
  | None -> Alcotest.fail "has cycles"
  | Some ((t, d), cycle) ->
      check "T of the chorded loop" ((10 * big) + 45) t;
      check "D of the chorded loop" 1 d;
      check "ten nodes" 10 (List.length cycle));
  (* Past the documented bound the engine refuses rather than wraps. *)
  check_bool "huge weights rejected" true
    (match max_ratio (G.create ~n:2 [ edge 0 1 (max_int / 4, 1); edge 1 0 (1, 1) ]) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Dot                                                                  *)
(* ------------------------------------------------------------------ *)

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_dot_output () =
  let g = G.create ~n:2 [ edge 0 1 () ] in
  let dot = Digraph.Dot.to_dot ~name:"t" g in
  check_bool "digraph header" true
    (String.length dot > 0 && String.sub dot 0 11 = "digraph \"t\"");
  check_bool "edge rendered" true (contains dot "n0 -> n1")

let test_dot_escaping () =
  let g = G.create ~n:1 [] in
  let dot =
    Digraph.Dot.to_dot ~node_label:(fun _ -> "say \"hi\"") g
  in
  check_bool "quotes escaped" true (contains dot "say \\\"hi\\\"")

(* ------------------------------------------------------------------ *)
(* Extra edge cases                                                     *)
(* ------------------------------------------------------------------ *)

let test_max_ratio_parallel_self_loops () =
  (* two parallel self-loops: the maximum ratio is the heavier one *)
  let g = G.create ~n:1 [ edge 0 0 (7, 2); edge 0 0 (3, 1) ] in
  match max_ratio g with
  | None -> Alcotest.fail "has cycles"
  | Some ((t, d), cycle) ->
      check_bool "heavier loop" true (t * 2 = 7 * d);
      check "one edge" 1 (List.length cycle)

let test_max_ratio_matches_enumeration =
  (* The engine against the enumeration oracle on random multigraphs with
     self-loops, parallel edges, negative numerators and zero delays. *)
  QCheck_alcotest.to_alcotest ~long:false
    (QCheck.Test.make ~count:300 ~name:"max cycle ratio = enumeration"
       (QCheck.int_range 0 100_000)
       (fun seed ->
         let rng = Random.State.make [| seed; 0x7a71 |] in
         let n = 1 + Random.State.int rng 7 in
         let edges =
           List.init (Random.State.int rng (3 * n)) (fun _ ->
               edge (Random.State.int rng n) (Random.State.int rng n)
                 (Random.State.int rng 12 - 2, Random.State.int rng 4))
         in
         let g = G.create ~n edges in
         let num e = fst e.G.label and den e = snd e.G.label in
         match Ratio_oracle.maximum g ~num ~den with
         | exception Invalid_argument _ -> (
             match max_ratio g with
             | exception Invalid_argument _ -> true
             | _ -> false)
         | None -> QCheck.assume_fail ()
         | Some None -> max_ratio g = None
         | Some (Some (t, d)) -> (
             match max_ratio g with
             | Some ((t', d'), cycle) ->
                 t * d' = t' * d
                 && Ratio_oracle.sum num cycle = t'
                 && Ratio_oracle.sum den cycle = d'
                 && Ratio_oracle.is_rotated_cycle (srcs cycle)
                 && List.for_all2
                      (fun e e' -> e.G.dst = e'.G.src)
                      cycle
                      (List.tl cycle @ [ List.hd cycle ])
             | None -> false)))

let () =
  Alcotest.run "digraph"
    [
      ( "graph",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "empty zero" `Quick test_empty_zero;
          Alcotest.test_case "empty negative" `Quick test_empty_negative;
          Alcotest.test_case "add_edge range" `Quick test_add_edge_out_of_range;
          Alcotest.test_case "succ/pred" `Quick test_succ_pred;
          Alcotest.test_case "insertion order" `Quick test_insertion_order;
          Alcotest.test_case "multigraph" `Quick test_multigraph;
          Alcotest.test_case "map_labels" `Quick test_map_labels;
          Alcotest.test_case "filter_edges" `Quick test_filter_edges;
          Alcotest.test_case "transpose" `Quick test_transpose;
          Alcotest.test_case "self_loops" `Quick test_self_loops;
          Alcotest.test_case "equal" `Quick test_equal;
        ] );
      ( "topo",
        [
          Alcotest.test_case "sort" `Quick test_topo_sort;
          Alcotest.test_case "cyclic" `Quick test_topo_cyclic;
          Alcotest.test_case "cyclic two sccs" `Quick test_topo_respects_edges;
          Alcotest.test_case "layers" `Quick test_layers;
          Alcotest.test_case "longest path" `Quick test_longest_path;
          Alcotest.test_case "longest path empty" `Quick test_longest_path_empty;
        ] );
      ( "scc",
        [
          Alcotest.test_case "two components" `Quick test_scc_two_components;
          Alcotest.test_case "dag" `Quick test_scc_dag;
          Alcotest.test_case "self loop" `Quick test_scc_self_loop_nontrivial;
          Alcotest.test_case "strong connectivity" `Quick test_strongly_connected;
          Alcotest.test_case "condensation" `Quick test_condensation;
          Alcotest.test_case "component_of" `Quick test_component_of;
        ] );
      ( "paths",
        [
          Alcotest.test_case "dijkstra" `Quick test_dijkstra;
          Alcotest.test_case "dijkstra unreachable" `Quick test_dijkstra_unreachable;
          Alcotest.test_case "dijkstra negative" `Quick test_dijkstra_negative_rejected;
          Alcotest.test_case "dijkstra path" `Quick test_dijkstra_path;
          Alcotest.test_case "negative cycle" `Quick test_negative_cycle_detected;
          Alcotest.test_case "feasible potentials" `Quick test_feasible_potentials;
        ] );
      ( "cycles",
        [
          Alcotest.test_case "dag" `Quick test_cycles_dag;
          Alcotest.test_case "triangle" `Quick test_cycles_simple;
          Alcotest.test_case "two loops" `Quick test_cycles_two_loops;
          Alcotest.test_case "self loop" `Quick test_cycles_self_loop;
          Alcotest.test_case "K3" `Quick test_cycles_complete3;
          Alcotest.test_case "bounded" `Quick test_cycles_bounded;
          Alcotest.test_case "cycle edges" `Quick test_cycle_edges;
          Alcotest.test_case "fold weight" `Quick test_fold_cycle_weight;
        ] );
      ( "karp",
        [
          Alcotest.test_case "acyclic" `Quick test_max_ratio_acyclic;
          Alcotest.test_case "max ratio exact" `Quick test_max_ratio;
          Alcotest.test_case "max ratio parallel edges" `Quick
            test_max_ratio_parallel_edges;
          Alcotest.test_case "cycle edge variants cap" `Quick
            test_all_cycle_edges_cap;
          Alcotest.test_case "max ratio forward rotated" `Quick
            test_max_ratio_forward_rotated;
          Alcotest.test_case "max ratio bad denominators" `Quick
            test_max_ratio_bad_denominators;
          Alcotest.test_case "max ratio large weights" `Quick
            test_max_ratio_large_weights;
        ] );
      ( "dot",
        [
          Alcotest.test_case "output" `Quick test_dot_output;
          Alcotest.test_case "escaping" `Quick test_dot_escaping;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "karp parallel self loops" `Quick
            test_max_ratio_parallel_self_loops;
          test_max_ratio_matches_enumeration;
        ] );
    ]

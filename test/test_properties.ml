(* Property-based tests (qcheck, registered via qcheck-alcotest).

   Random legal CSDFGs come from Workloads.Random_gen; random
   architectures are drawn from the standard gallery.  The key oracles:
   - the independent validator accepts every schedule the library emits;
   - the closed-form dependence rule agrees with brute-force simulation,
     including on randomly perturbed schedules;
   - the paper's theorems hold on random inputs. *)

module Csdfg = Dataflow.Csdfg
module Retiming = Dataflow.Retiming
module Schedule = Cyclo.Schedule
module Comm = Cyclo.Comm
module Startup = Cyclo.Startup
module Compaction = Cyclo.Compaction
module Remap = Cyclo.Remap
module Validator = Cyclo.Validator

let architectures =
  [|
    Topology.linear_array 4;
    Topology.ring 5;
    Topology.complete 4;
    Topology.mesh ~rows:2 ~cols:3;
    Topology.hypercube 2;
    Topology.star 4;
    Topology.binary_tree 5;
  |]

let small_params =
  { Workloads.Random_gen.default with nodes = 8; feedback_edges = 2 }

let graph_of_seed ?(params = small_params) seed =
  Workloads.Random_gen.generate_connected ~params ~seed ()

let arch_of_seed seed = architectures.(abs seed mod Array.length architectures)

let seed_arb = QCheck.int_range 0 10_000

let pair_arb = QCheck.pair seed_arb seed_arb

(* ------------------------------------------------------------------ *)
(* Generator sanity                                                     *)
(* ------------------------------------------------------------------ *)

let prop_random_graphs_legal =
  QCheck.Test.make ~count:200 ~name:"random CSDFGs are legal" seed_arb
    (fun seed -> Csdfg.is_legal (graph_of_seed seed))

(* ------------------------------------------------------------------ *)
(* Retiming properties                                                  *)
(* ------------------------------------------------------------------ *)

let cycle_delays g =
  let graph = Csdfg.graph g in
  Digraph.Cycles.elementary ~max_cycles:500 graph
  |> List.map (fun cyc ->
         Digraph.Cycles.fold_cycle_weight graph cyc ~init:0 ~f:(fun acc e ->
             acc + Csdfg.delay e))

let prop_rotation_preserves_cycle_delays =
  QCheck.Test.make ~count:100
    ~name:"rotation preserves every cycle's total delay" seed_arb (fun seed ->
      let g = graph_of_seed seed in
      (* rotate the set of nodes whose in-edges all carry delay, if any *)
      let rotatable =
        List.filter (fun v -> Retiming.can_rotate g [ v ]) (Csdfg.nodes g)
      in
      match rotatable with
      | [] -> QCheck.assume_fail ()
      | v :: _ ->
          let g' = Retiming.rotate_set g [ v ] in
          cycle_delays g = cycle_delays g')

let prop_rotation_keeps_legality =
  QCheck.Test.make ~count:100 ~name:"legal rotations keep the CSDFG legal"
    seed_arb (fun seed ->
      let g = graph_of_seed seed in
      match List.filter (fun v -> Retiming.can_rotate g [ v ]) (Csdfg.nodes g) with
      | [] -> QCheck.assume_fail ()
      | v :: _ -> Csdfg.is_legal (Retiming.rotate_set g [ v ]))

let prop_min_period_witness =
  QCheck.Test.make ~count:60
    ~name:"min_period witness is legal and achieves its period" seed_arb
    (fun seed ->
      let g = graph_of_seed seed in
      let period, r = Retiming.min_period g in
      Retiming.is_legal g r
      && Retiming.clock_period (Retiming.apply g r) <= period)

(* FEAS against the W/D oracle on graphs of 1..14 nodes, some
   disconnected, some acyclic (no feedback edge), node times up to 4. *)
let prop_min_period_matches_oracle =
  QCheck.Test.make ~count:500 ~name:"min_period and feasible = W/D oracle"
    seed_arb (fun seed ->
      let params =
        {
          small_params with
          nodes = 1 + (seed mod 14);
          feedback_edges = seed mod 5;
          max_time = 1 + (seed / 14 mod 4);
        }
      in
      let g = Workloads.Random_gen.generate ~params ~seed () in
      let period, _ = Retiming.min_period g in
      let agrees p =
        match
          (Retiming.feasible g ~period:p, Retiming_oracle.feasible g ~period:p)
        with
        | None, None -> true
        | Some r, Some _ ->
            Retiming.is_legal g r
            && Retiming.clock_period (Retiming.apply g r) <= p
        | _ -> false
      in
      period = fst (Retiming_oracle.min_period g)
      && List.for_all agrees (List.init (Retiming.clock_period g) succ))

let prop_iteration_bound_matches_enumeration =
  (* Graphs of 4..40 nodes; those with more circuits than the oracle
     lists are skipped. *)
  QCheck.Test.make ~count:150 ~name:"iteration bound = enumeration"
    seed_arb (fun seed ->
      let params =
        {
          small_params with
          nodes = 4 + (seed mod 37);
          feedback_edges = 1 + (seed mod 5);
        }
      in
      let g = graph_of_seed ~params seed in
      let graph = Csdfg.graph g in
      let num e = Csdfg.time g e.Digraph.Graph.src in
      let attains (t, d) cycle =
        Ratio_oracle.is_rotated_cycle cycle
        && List.exists
             (fun edges ->
               Ratio_oracle.sum num edges * d = t * Ratio_oracle.sum Csdfg.delay edges)
             (Digraph.Cycles.all_cycle_edges graph cycle)
      in
      match Ratio_oracle.maximum graph ~num ~den:Csdfg.delay with
      | None -> QCheck.assume_fail ()
      | Some want -> (
          match
            ( want,
              Dataflow.Iteration_bound.exact g,
              Dataflow.Iteration_bound.critical_cycle g )
          with
          | None, None, None -> true
          | Some (t, d), Some (t', d'), Some cycle ->
              t * d' = t' * d && attains (t, d) cycle
          | _ -> false))

(* ------------------------------------------------------------------ *)
(* Scheduling properties                                                *)
(* ------------------------------------------------------------------ *)

let prop_startup_always_legal =
  QCheck.Test.make ~count:150 ~name:"start-up schedules pass the validator"
    pair_arb (fun (gseed, aseed) ->
      let s = Startup.run_on (graph_of_seed gseed) (arch_of_seed aseed) in
      Validator.is_legal s)

let prop_startup_matches_simulation =
  QCheck.Test.make ~count:80
    ~name:"closed-form check = simulation on start-up schedules" pair_arb
    (fun (gseed, aseed) ->
      let s = Startup.run_on (graph_of_seed gseed) (arch_of_seed aseed) in
      Validator.simulate s ~iterations:5 = Ok ())

let prop_compaction_never_worse =
  QCheck.Test.make ~count:60 ~name:"compaction best <= start-up" pair_arb
    (fun (gseed, aseed) ->
      let r =
        Compaction.run_on ~passes:12
          (graph_of_seed gseed) (arch_of_seed aseed)
      in
      Schedule.length r.Compaction.best <= Schedule.length r.Compaction.startup)

let prop_theorem_4_4 =
  QCheck.Test.make ~count:60
    ~name:"Theorem 4.4: without relaxation lengths never increase" pair_arb
    (fun (gseed, aseed) ->
      let r =
        Compaction.run_on ~mode:Remap.Without_relaxation ~passes:12
          (graph_of_seed gseed) (arch_of_seed aseed)
      in
      let rec monotone prev = function
        | [] -> true
        | e :: rest ->
            e.Compaction.length <= prev && monotone e.Compaction.length rest
      in
      monotone (Schedule.length r.Compaction.startup) r.Compaction.trace)

let prop_compaction_respects_iteration_bound =
  QCheck.Test.make ~count:60 ~name:"schedules never beat the iteration bound"
    pair_arb (fun (gseed, aseed) ->
      let g = graph_of_seed gseed in
      let r = Compaction.run_on ~passes:12 g (arch_of_seed aseed) in
      match Dataflow.Iteration_bound.exact_ceil g with
      | None -> true
      | Some bound -> Schedule.length r.Compaction.best >= bound)

let prop_every_intermediate_state_legal =
  (* Compaction.run with validate:true asserts internally; surviving the
     call is the property. *)
  QCheck.Test.make ~count:50 ~name:"every intermediate schedule is legal"
    pair_arb (fun (gseed, aseed) ->
      let r =
        Compaction.run_on ~validate:true ~passes:10
          (graph_of_seed gseed) (arch_of_seed aseed)
      in
      Validator.is_legal r.Compaction.final)

(* ------------------------------------------------------------------ *)
(* Perturbation oracle: check = simulate on arbitrary (possibly bad)    *)
(* schedules                                                            *)
(* ------------------------------------------------------------------ *)

let perturb rng s =
  (* Move one random node to a random free slot; the result may or may
     not be legal — both checkers must agree either way. *)
  let dfg = Schedule.dfg s in
  let n = Csdfg.n_nodes dfg in
  if n = 0 then s
  else begin
    let v = Random.State.int rng n in
    let s' = Schedule.unassign s v in
    let pe = Random.State.int rng (Schedule.n_processors s) in
    let cb = 1 + Random.State.int rng (Schedule.length s + 2) in
    let span = Csdfg.time dfg v in
    let cb = Schedule.first_free_slot s' ~pe ~from:cb ~span in
    Schedule.assign s' ~node:v ~cb ~pe
  end

let prop_check_equals_simulate_on_perturbed =
  QCheck.Test.make ~count:120
    ~name:"closed-form check = simulation on perturbed schedules" pair_arb
    (fun (gseed, aseed) ->
      let s = Startup.run_on (graph_of_seed gseed) (arch_of_seed aseed) in
      let rng = Random.State.make [| gseed; aseed |] in
      let s = perturb rng (perturb rng s) in
      let closed = Validator.check s = Ok () in
      let brute = Validator.simulate s ~iterations:6 = Ok () in
      closed = brute)

(* ------------------------------------------------------------------ *)
(* Transform properties                                                 *)
(* ------------------------------------------------------------------ *)

let prop_io_roundtrip =
  QCheck.Test.make ~count:100 ~name:"text format round-trips" seed_arb
    (fun seed ->
      let g = graph_of_seed seed in
      match Dataflow.Io.of_string (Dataflow.Io.to_string g) with
      | Error _ -> false
      | Ok g' -> Dataflow.Io.to_string g = Dataflow.Io.to_string g')

let prop_slowdown_legal_and_scales =
  QCheck.Test.make ~count:80 ~name:"slow-down keeps legality, scales delays"
    (QCheck.pair seed_arb (QCheck.int_range 1 4))
    (fun (seed, k) ->
      let g = graph_of_seed seed in
      let g' = Dataflow.Transform.slowdown g k in
      Csdfg.is_legal g'
      && List.for_all2
           (fun e e' -> Csdfg.delay e' = k * Csdfg.delay e)
           (Csdfg.edges g) (Csdfg.edges g'))

let prop_unfold_legal =
  QCheck.Test.make ~count:60 ~name:"unfolding keeps legality and size"
    (QCheck.pair seed_arb (QCheck.int_range 1 3))
    (fun (seed, f) ->
      let g = graph_of_seed seed in
      let g' = Dataflow.Transform.unfold g f in
      Csdfg.is_legal g'
      && Csdfg.n_nodes g' = f * Csdfg.n_nodes g
      && Csdfg.n_edges g' = f * Csdfg.n_edges g)

let prop_unfold_preserves_iteration_bound =
  (* Parhi's classical result: unfolding by f multiplies the iteration
     bound per unfolded iteration by exactly f (the rate per original
     iteration is invariant).  Checked with exact fractions. *)
  QCheck.Test.make ~count:50 ~name:"unfolding preserves the iteration bound"
    (QCheck.pair seed_arb (QCheck.int_range 1 3))
    (fun (seed, f) ->
      let g = graph_of_seed seed in
      let gu = Dataflow.Transform.unfold g f in
      match
        (Dataflow.Iteration_bound.exact g, Dataflow.Iteration_bound.exact gu)
      with
      | None, None -> true
      | Some (t, d), Some (tu, du) ->
          (* tu/du = f * t/d  <=>  tu * d = f * t * du *)
          tu * d = f * t * du
      | _ -> false)

let random_topology seed =
  (* random connected machine: a spanning tree plus random extra links *)
  let rng = Random.State.make [| seed; 0x70b0 |] in
  let n = 3 + Random.State.int rng 6 in
  let tree =
    List.init (n - 1) (fun i ->
        let child = i + 1 in
        (Random.State.int rng child, child))
  in
  let extras =
    List.concat
      (List.init n (fun a ->
           List.filteri
             (fun b _ -> b > a && Random.State.float rng 1.0 < 0.2)
             (List.init n (fun b -> b))
           |> List.map (fun b -> (a, b))))
  in
  Topology.of_links ~name:(Printf.sprintf "random-topo-%d" seed) ~n
    (tree @ extras)

let prop_random_topologies_well_formed =
  QCheck.Test.make ~count:100 ~name:"random machines: metric + route sanity"
    seed_arb
    (fun seed ->
      let t = random_topology seed in
      let n = Topology.n_processors t in
      let ok = ref true in
      for p = 0 to n - 1 do
        for q = 0 to n - 1 do
          if Topology.hops t p q <> Topology.hops t q p then ok := false;
          if p = q && Topology.hops t p q <> 0 then ok := false;
          let r = Topology.route t ~src:p ~dst:q in
          if List.length r <> Topology.hops t p q + 1 then ok := false
        done
      done;
      !ok)

let prop_scheduling_on_random_topologies =
  QCheck.Test.make ~count:60
    ~name:"cyclo-compaction stays legal on random machines" pair_arb
    (fun (gseed, tseed) ->
      let g = graph_of_seed gseed in
      let t = random_topology tseed in
      let r = Compaction.run_on ~passes:10 g t in
      Validator.is_legal r.Compaction.best)

let prop_repair_preserves_processors =
  QCheck.Test.make ~count:60 ~name:"baseline repair keeps assignments legal"
    pair_arb (fun (gseed, aseed) ->
      let g = graph_of_seed gseed in
      let topo = arch_of_seed aseed in
      let zero = Comm.zero ~n:(Topology.n_processors topo) ~name:"z" in
      let oblivious = Startup.run g zero in
      let repaired = Cyclo.Baseline.repair oblivious (Comm.of_topology topo) in
      Validator.is_legal repaired
      && List.for_all
           (fun v -> Schedule.pe oblivious v = Schedule.pe repaired v)
           (Csdfg.nodes g))

let prop_execution_meets_static_bound =
  QCheck.Test.make ~count:50
    ~name:"event-driven execution never falls behind the static schedule"
    pair_arb
    (fun (gseed, aseed) ->
      let g = graph_of_seed gseed in
      let topo = arch_of_seed aseed in
      let best =
        (Compaction.run_on ~passes:10 ~validate:false g topo).Compaction.best
      in
      let stats = Machine.Simulator.execute best topo ~iterations:8 in
      stats.Machine.Simulator.makespan
      <= Machine.Simulator.static_bound best ~iterations:8)

let prop_wormhole_execution_meets_bound =
  QCheck.Test.make ~count:40
    ~name:"wormhole schedules sustain their static periods too" pair_arb
    (fun (gseed, aseed) ->
      let g = graph_of_seed gseed in
      let topo = arch_of_seed aseed in
      let best =
        (Compaction.run ~passes:10 ~validate:false g (Comm.wormhole topo))
          .Compaction.best
      in
      let stats =
        Machine.Simulator.execute ~transport:Machine.Simulator.Wormhole best
          topo ~iterations:8
      in
      stats.Machine.Simulator.makespan
      <= Machine.Simulator.static_bound best ~iterations:8)

let prop_pipeline_coverage =
  QCheck.Test.make ~count:60
    ~name:"prologue + kernel + epilogue cover every instance exactly once"
    pair_arb
    (fun (gseed, aseed) ->
      let g = graph_of_seed gseed in
      let best =
        (Compaction.run_on ~passes:12 ~validate:false g (arch_of_seed aseed))
          .Compaction.best
      in
      match Cyclo.Pipeline.build ~original:g best with
      | Error _ -> false
      | Ok p ->
          let n = 30 in
          let nodes = Csdfg.n_nodes g in
          Cyclo.Pipeline.prologue_length p
          + (nodes * (n - p.Cyclo.Pipeline.depth))
          + Cyclo.Pipeline.epilogue_length p ~n
          = nodes * n)

let prop_autotune_gap_nonnegative =
  QCheck.Test.make ~count:25
    ~name:"autotune winners have a non-negative exact gap (tiny instances)"
    seed_arb
    (fun seed ->
      let params =
        { Workloads.Random_gen.default with nodes = 5; feedback_edges = 2 }
      in
      let g = Workloads.Random_gen.generate_connected ~params ~seed () in
      let t =
        Cyclo.Portfolio.run_on ~k:4 ~prune:false ~polish:true ~domains:1 g
          (Topology.linear_array 2)
      in
      match Cyclo.Exhaustive.optimality_gap (Cyclo.Portfolio.best t) with
      | None -> true
      | Some gap -> gap >= 0)

let suite name tests =
  (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "properties"
    [
      suite "generator" [ prop_random_graphs_legal ];
      suite "retiming"
        [
          prop_rotation_preserves_cycle_delays;
          prop_rotation_keeps_legality;
          prop_min_period_witness;
          prop_min_period_matches_oracle;
          prop_iteration_bound_matches_enumeration;
        ];
      suite "scheduling"
        [
          prop_startup_always_legal;
          prop_startup_matches_simulation;
          prop_compaction_never_worse;
          prop_theorem_4_4;
          prop_compaction_respects_iteration_bound;
          prop_every_intermediate_state_legal;
        ];
      suite "oracle" [ prop_check_equals_simulate_on_perturbed ];
      suite "transform"
        [
          prop_io_roundtrip;
          prop_slowdown_legal_and_scales;
          prop_unfold_legal;
          prop_unfold_preserves_iteration_bound;
          prop_repair_preserves_processors;
        ];
      suite "random-machines"
        [
          prop_random_topologies_well_formed;
          prop_scheduling_on_random_topologies;
        ];
      suite "execution"
        [
          prop_execution_meets_static_bound;
          prop_wormhole_execution_meets_bound;
        ];
      suite "composition"
        [ prop_pipeline_coverage; prop_autotune_gap_nonnegative ];
    ]

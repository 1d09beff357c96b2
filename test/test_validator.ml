(* Fault-injection tests: the validator must catch every class of
   corruption, and its closed-form rule must agree with brute-force
   simulation. *)

module Csdfg = Dataflow.Csdfg
module Schedule = Cyclo.Schedule
module Comm = Cyclo.Comm
module Startup = Cyclo.Startup
module Validator = Cyclo.Validator

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let fig1b = Workloads.Examples.fig1b

let mesh () =
  Topology.relabel (Topology.mesh ~rows:2 ~cols:2)
    Workloads.Examples.fig1_mesh_permutation

let node l = Csdfg.node_of_label fig1b l
let good () = Startup.run_on fig1b (mesh ())

let has pred = function
  | Ok () -> false
  | Error problems -> List.exists pred problems

let test_good_schedule_passes () =
  check_bool "valid" true (Validator.is_legal (good ()));
  check_bool "assert does not raise" true
    (match Validator.assert_legal (good ()) with
    | () -> true
    | exception Failure _ -> false)

let test_unassigned_detected () =
  let s = Schedule.unassign (good ()) (node "C") in
  check_bool "unassigned flagged" true
    (has (function Validator.Unassigned _ -> true | _ -> false)
       (Validator.check s))

let test_out_of_table_unrepresentable () =
  (* Schedule.assign grows the table to cover a node's CE and set_length
     refuses to cut below the occupied rows, so an out-of-table state
     cannot be built through the public API. *)
  let s = good () in
  let s = Schedule.unassign s (node "F") in
  let s = Schedule.assign s ~node:(node "F") ~cb:8 ~pe:3 in
  check_bool "length grew to cover CE" true (Schedule.length s >= 8);
  check_bool "set_length below rows rejected" true
    (match Schedule.set_length s 7 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_overlap_unrepresentable () =
  (* Overlaps are rejected at assignment time — the validator's Overlap
     case is a belt-and-braces check for internal bugs. *)
  let s = Schedule.empty fig1b (Comm.zero ~n:2 ~name:"z") in
  let s = Schedule.assign s ~node:(node "B") ~cb:1 ~pe:0 in
  check_bool "overlap at assign rejected" true
    (match Schedule.assign s ~node:(node "A") ~cb:2 ~pe:0 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_bool "adjacent slot fine" true
    (match Schedule.assign s ~node:(node "A") ~cb:3 ~pe:0 with
    | _ -> true
    | exception Invalid_argument _ -> false)

let test_dependence_violation_detected () =
  (* Hand-build: A and C both at cs1 on different processors — C needs
     A's data (volume 1, 1 hop): illegal. *)
  let s = Schedule.empty fig1b (Comm.of_topology (mesh ())) in
  let s = Schedule.assign s ~node:(node "A") ~cb:1 ~pe:0 in
  let s = Schedule.assign s ~node:(node "C") ~cb:1 ~pe:1 in
  let s = Schedule.assign s ~node:(node "B") ~cb:2 ~pe:0 in
  let s = Schedule.assign s ~node:(node "D") ~cb:4 ~pe:0 in
  let s = Schedule.assign s ~node:(node "E") ~cb:5 ~pe:0 in
  let s = Schedule.assign s ~node:(node "F") ~cb:7 ~pe:0 in
  let s = Schedule.set_length s 7 in
  check_bool "A->C flagged" true
    (has
       (function
         | Validator.Dependence (e, _) ->
             Csdfg.label fig1b e.Digraph.Graph.src = "A"
             && Csdfg.label fig1b e.Digraph.Graph.dst = "C"
         | _ -> false)
       (Validator.check s))

let test_psl_violation_detected () =
  (* Valid placements but a table too short for the D->A feedback once it
     crosses processors. *)
  let s = Schedule.empty fig1b (Comm.of_topology (mesh ())) in
  let s = Schedule.assign s ~node:(node "A") ~cb:1 ~pe:2 in
  let s = Schedule.assign s ~node:(node "C") ~cb:4 ~pe:2 in
  let s = Schedule.assign s ~node:(node "B") ~cb:3 ~pe:0 in
  let s = Schedule.assign s ~node:(node "D") ~cb:6 ~pe:0 in
  let s = Schedule.assign s ~node:(node "E") ~cb:7 ~pe:0 in
  let s = Schedule.assign s ~node:(node "F") ~cb:9 ~pe:0 in
  (* D (pe1) -> A (pe3): M = 2 hops * 3 = 6; PSL = ceil((6+6-1+1)/3)=4;
     but also zero-delay edges need the long tail — length 9 is legal,
     while cutting to rows-only would not be if rows < PSL.  Here rows=9
     dominate; instead check agreement of check and simulate on several
     lengths. *)
  List.iter
    (fun len ->
      let s = Schedule.set_length s len in
      check_bool
        (Printf.sprintf "check vs simulate at L=%d" len)
        (Validator.check s = Ok ())
        (Validator.simulate s ~iterations:10 = Ok ()))
    [ 9; 10; 12 ]

let test_simulate_agrees_on_good_schedules () =
  List.iter
    (fun (name, g) ->
      let s = Startup.run_on g (Topology.ring 4) in
      Alcotest.(check bool)
        (name ^ ": check = simulate")
        (Validator.check s = Ok ())
        (Validator.simulate s ~iterations:6 = Ok ()))
    (Workloads.Suite.all ())

let test_simulate_catches_tight_feedback () =
  (* Self-loop node (t=2, delay 1) in a table of length 1 is impossible;
     at length 2 it is exact. *)
  let g = Workloads.Examples.self_loop in
  let s = Schedule.empty g (Comm.zero ~n:1 ~name:"z") in
  let s = Schedule.assign s ~node:0 ~cb:1 ~pe:0 in
  (* length grew to 2 = CE; legal *)
  check_bool "length 2 legal" true (Validator.is_legal s);
  check_bool "simulate agrees" true (Validator.simulate s ~iterations:5 = Ok ());
  check "required length" 2 (Cyclo.Timing.required_length s)

let test_violation_pretty_printing () =
  let s = Schedule.unassign (good ()) (node "C") in
  match Validator.check s with
  | Ok () -> Alcotest.fail "must fail"
  | Error (p :: _) ->
      let msg = Fmt.str "%a" (Validator.pp_violation s) p in
      check_bool "message mentions C" true
        (let nl = String.length "C" and hl = String.length msg in
         let rec go i = i + nl <= hl && (String.sub msg i nl = "C" || go (i + 1)) in
         go 0)
  | Error [] -> Alcotest.fail "non-empty"

let test_assert_legal_raises_with_report () =
  let s = Schedule.unassign (good ()) (node "C") in
  check_bool "raises Failure" true
    (match Validator.assert_legal s with
    | () -> false
    | exception Failure _ -> true)

(* Golden violation lists: [Validator.check] (and [check_topology]) on
   fixed broken schedules, rendered with [pp_violation], so a rewrite of
   the check must report the same violations in the same order.  Overlap
   and Out_of_table cannot be built through the public API (the table
   refuses both), so they are covered by the absence of false reports on
   every case here. *)
let render sched = function
  | Ok () -> []
  | Error l -> List.map (Fmt.str "%a" (Validator.pp_violation sched)) l

let checked s = render s (Validator.check s)

let placed comm rows =
  List.fold_left
    (fun s (l, cb, pe) -> Schedule.assign s ~node:(node l) ~cb ~pe)
    (Schedule.empty fig1b comm) rows

let move sched v ~cb ~pe =
  Schedule.assign (Schedule.unassign sched v) ~node:v ~cb ~pe

(* A 30-node layered graph on linear:4 after 12 compaction passes: a
   retimed graph, so inter-iteration rules read retimed delays. *)
let compacted () =
  let g = Workloads.Random_gen.layered ~nodes:30 ~seed:3 () in
  (Cyclo.Compaction.run ~passes:12 g
     (Comm.of_topology (Topology.linear_array 4)))
    .Cyclo.Compaction.final

let golden_cases () =
  let mesh_comm = Comm.of_topology (mesh ()) in
  let hand_built =
    placed mesh_comm
      [ ("A", 1, 0); ("C", 1, 1); ("B", 2, 0); ("D", 4, 0); ("E", 5, 0);
        ("F", 7, 0) ]
  in
  let feedback =
    placed mesh_comm
      [ ("A", 1, 2); ("C", 4, 2); ("B", 3, 0); ("D", 6, 0); ("E", 7, 0);
        ("F", 9, 0) ]
  in
  let c = compacted () in
  (* past the check's counting-sort range, (4n + 1024) rows *)
  let far v = Schedule.cb c v + (4 * Schedule.n_nodes c) + 1100 in
  let x3 s =
    Schedule.with_comm s (Comm.scaled (Topology.linear_array 4) ~factor:3)
  in
  [
    ("good", fun () -> checked (good ()));
    ( "unassigned C",
      fun () -> checked (Schedule.unassign (good ()) (node "C")) );
    ( "unassigned C E",
      fun () ->
        checked (Schedule.unassign_all (good ()) [ node "E"; node "C" ]) );
    ("hand-built", fun () -> checked hand_built);
    ("feedback L=9", fun () -> checked (Schedule.set_length feedback 9));
    ( "wormhole",
      fun () ->
        checked (Schedule.with_comm hand_built (Comm.wormhole (mesh ()))) );
    ("compacted", fun () -> checked c);
    ( "compacted moves",
      fun () ->
        let s = move c 7 ~cb:(Schedule.cb c 7 + 1) ~pe:(Schedule.pe c 7) in
        let s = Schedule.unassign s 12 in
        let span = Schedule.duration s ~node:12 ~pe:0 in
        checked
          (Schedule.assign s ~node:12
             ~cb:(Schedule.first_free_slot s ~pe:0 ~from:1 ~span)
             ~pe:0) );
    ( "compacted far (comparison sort)",
      fun () ->
        let s = move c 3 ~cb:(far 3) ~pe:(Schedule.pe c 3) in
        checked (move s 20 ~cb:(far 20 + 50) ~pe:((Schedule.pe s 20 + 1) mod 4))
    );
    ("compacted x3 links", fun () -> checked (x3 c));
    ( "compacted x3 links, far (comparison sort)",
      fun () -> checked (x3 (move c 3 ~cb:(far 3) ~pe:(Schedule.pe c 3))) );
    ( "topology: failed pe2",
      fun () ->
        render (good ())
          (Validator.check_topology ~alive:[| true; false; true; true |]
             (good ()) (mesh ())) );
    ( "topology: cut pe3",
      fun () ->
        let s =
          placed (Comm.zero ~n:4 ~name:"z")
            [ ("A", 1, 0); ("B", 3, 0); ("C", 2, 3); ("D", 5, 1); ("E", 6, 3);
              ("F", 7, 0) ]
        in
        render s
          (Validator.check_topology ~alive:[| true; true; false; true |] s
             (Topology.linear_array 4)) );
  ]

let golden_violations =
  [
    ("good", []);
    ( "unassigned C",
      [
        "node C is unassigned";
      ] );
    ( "unassigned C E",
      [
        "node C is unassigned";
        "node E is unassigned";
      ] );
    ( "hand-built",
      [
        "edge A -> C (d=0 c=1) is 2 step(s) too tight";
      ] );
    ( "feedback L=9",
      [
        "edge A -> B (d=0 c=1) is 1 step(s) too tight";
      ] );
    ( "wormhole",
      [
        "edge A -> C (d=0 c=1) is 2 step(s) too tight";
      ] );
    ("compacted", []);
    ( "compacted moves",
      [
        "edge n9 -> n12 (d=0 c=2) is 4 step(s) too tight";
        "edge n8 -> n12 (d=0 c=2) is 4 step(s) too tight";
        "edge n5 -> n12 (d=0 c=3) is 5 step(s) too tight";
      ] );
    ("compacted far (comparison sort)", []);
    ( "compacted x3 links",
      [
        "edge n0 -> n5 (d=0 c=1) is 2 step(s) too tight";
        "edge n0 -> n8 (d=0 c=2) is 4 step(s) too tight";
        "edge n0 -> n9 (d=0 c=1) is 4 step(s) too tight";
        "edge n6 -> n10 (d=0 c=2) is 1 step(s) too tight";
        "edge n9 -> n10 (d=0 c=2) is 4 step(s) too tight";
        "edge n5 -> n11 (d=0 c=3) is 6 step(s) too tight";
        "edge n8 -> n12 (d=0 c=2) is 1 step(s) too tight";
        "edge n5 -> n12 (d=0 c=3) is 3 step(s) too tight";
        "edge n5 -> n13 (d=0 c=3) is 12 step(s) too tight";
        "edge n9 -> n13 (d=0 c=2) is 3 step(s) too tight";
        "edge n14 -> n15 (d=0 c=1) is 2 step(s) too tight";
        "edge n10 -> n17 (d=1 c=2) is 5 step(s) too tight";
        "edge n12 -> n19 (d=1 c=3) is 6 step(s) too tight";
        "edge n10 -> n19 (d=1 c=1) is 1 step(s) too tight";
        "edge n19 -> n20 (d=0 c=2) is 7 step(s) too tight";
        "edge n15 -> n21 (d=1 c=1) is 1 step(s) too tight";
        "edge n18 -> n24 (d=1 c=2) is 3 step(s) too tight";
        "edge n16 -> n24 (d=1 c=1) is 2 step(s) too tight";
        "edge n22 -> n25 (d=0 c=2) is 3 step(s) too tight";
        "edge n24 -> n26 (d=0 c=2) is 6 step(s) too tight";
        "edge n22 -> n29 (d=0 c=2) is 4 step(s) too tight";
        "edge n22 -> n3 (d=0 c=3) is 2 step(s) too tight";
        "edge n29 -> n0 (d=0 c=1) is 2 step(s) too tight";
      ] );
    ( "compacted x3 links, far (comparison sort)",
      [
        "edge n0 -> n5 (d=0 c=1) is 2 step(s) too tight";
        "edge n0 -> n8 (d=0 c=2) is 4 step(s) too tight";
        "edge n0 -> n9 (d=0 c=1) is 4 step(s) too tight";
        "edge n6 -> n10 (d=0 c=2) is 1 step(s) too tight";
        "edge n9 -> n10 (d=0 c=2) is 4 step(s) too tight";
        "edge n5 -> n11 (d=0 c=3) is 6 step(s) too tight";
        "edge n8 -> n12 (d=0 c=2) is 1 step(s) too tight";
        "edge n5 -> n12 (d=0 c=3) is 3 step(s) too tight";
        "edge n5 -> n13 (d=0 c=3) is 12 step(s) too tight";
        "edge n9 -> n13 (d=0 c=2) is 3 step(s) too tight";
        "edge n14 -> n15 (d=0 c=1) is 2 step(s) too tight";
        "edge n19 -> n20 (d=0 c=2) is 7 step(s) too tight";
        "edge n22 -> n25 (d=0 c=2) is 3 step(s) too tight";
        "edge n24 -> n26 (d=0 c=2) is 6 step(s) too tight";
        "edge n22 -> n29 (d=0 c=2) is 4 step(s) too tight";
        "edge n29 -> n0 (d=0 c=1) is 2 step(s) too tight";
      ] );
    ( "topology: failed pe2",
      [
        "node C is placed on pe2, which is absent or failed";
      ] );
    ( "topology: cut pe3",
      [
        "edge A -> C has no route (pe1 to pe4 unreachable)";
        "edge A -> E has no route (pe1 to pe4 unreachable)";
        "edge B -> E has no route (pe1 to pe4 unreachable)";
        "edge E -> F has no route (pe4 to pe1 unreachable)";
        "edge F -> E has no route (pe1 to pe4 unreachable)";
      ] );
  ]

let test_golden_violations () =
  List.iter2
    (fun (name, f) (name', want) ->
      Alcotest.(check string) name name' name;
      Alcotest.(check (list string)) name want (f ()))
    (golden_cases ()) golden_violations

(* The closed-form check against brute-force simulation, on random legal
   schedules from the start-up scheduler and from compaction (whose
   graphs are retimed), and on single mutations of them: a start moved by
   one step, a node moved to another processor, and the table cut by one
   row — plus a start moved far enough to take the check's comparison
   sort instead of its counting sort.  Mutations the table itself refuses
   (an occupied slot, cutting an occupied row) are skipped. *)
let oracle_verdicts_agree sched =
  let max_delay =
    List.fold_left
      (fun acc e -> max acc (Csdfg.delay e))
      0
      (Csdfg.edges (Schedule.dfg sched))
  in
  Result.is_ok (Validator.check sched)
  = Result.is_ok (Validator.simulate sched ~iterations:(max_delay + 2))

let mutations sched ~v ~pe =
  let move ~cb ~pe =
    match
      Schedule.assign (Schedule.unassign sched v) ~node:v ~cb ~pe
    with
    | s -> [ s ]
    | exception Invalid_argument _ -> []
  in
  let cb = Schedule.cb sched v and own = Schedule.pe sched v in
  let far = (4 * Schedule.n_nodes sched) + 1100 in
  move ~cb:(cb + 1) ~pe:own
  @ move ~cb:(cb - 1) ~pe:own
  @ move ~cb:(cb + far) ~pe:own
  @ (if pe <> own then move ~cb ~pe else [])
  @
  match Schedule.set_length sched (Schedule.length sched - 1) with
  | s -> [ s ]
  | exception Invalid_argument _ -> []

let prop_check_matches_simulation =
  QCheck.Test.make ~count:150
    ~name:"check and simulate agree on schedules and their mutations"
    QCheck.(
      quad (int_range 2 12) (int_range 0 10_000) (int_range 0 6)
        (int_range 0 1_000))
    (fun (nodes, seed, passes, pick) ->
      let g =
        Workloads.Random_gen.generate
          ~params:{ Workloads.Random_gen.default with nodes }
          ~seed ()
      in
      let np = 1 + (seed mod 4) in
      let comm = Comm.of_topology (Topology.linear_array np) in
      let startup = Startup.run g comm in
      let compacted =
        (Cyclo.Compaction.resume ~passes ~validate:false startup)
          .Cyclo.Compaction.final
      in
      let v = pick mod nodes and pe = pick mod np in
      List.for_all oracle_verdicts_agree
        ([ startup; compacted ]
        @ mutations startup ~v ~pe
        @ mutations compacted ~v ~pe))

let () =
  Alcotest.run "validator"
    [
      ( "detection",
        [
          Alcotest.test_case "good passes" `Quick test_good_schedule_passes;
          Alcotest.test_case "unassigned" `Quick test_unassigned_detected;
          Alcotest.test_case "out of table unrepresentable" `Quick
            test_out_of_table_unrepresentable;
          Alcotest.test_case "overlap unrepresentable" `Quick
            test_overlap_unrepresentable;
          Alcotest.test_case "dependence" `Quick test_dependence_violation_detected;
          Alcotest.test_case "psl / lengths" `Quick test_psl_violation_detected;
          Alcotest.test_case "golden violation lists" `Quick
            test_golden_violations;
        ] );
      ( "simulation",
        [
          Alcotest.test_case "agrees on good" `Quick
            test_simulate_agrees_on_good_schedules;
          Alcotest.test_case "tight self loop" `Quick
            test_simulate_catches_tight_feedback;
          QCheck_alcotest.to_alcotest prop_check_matches_simulation;
        ] );
      ( "reporting",
        [
          Alcotest.test_case "pretty printing" `Quick test_violation_pretty_printing;
          Alcotest.test_case "assert raises" `Quick test_assert_legal_raises_with_report;
        ] );
    ]

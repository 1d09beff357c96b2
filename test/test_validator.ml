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

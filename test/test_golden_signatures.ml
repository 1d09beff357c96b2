(* Golden-signature regression: the schedules produced by [Startup.run]
   and [Compaction.run] on every shipped workload x architecture were
   captured from the pre-occupancy-index implementation; the incremental
   index and the event-driven sweep are pure speedups, so the signatures
   must stay byte-identical. *)

module Schedule = Cyclo.Schedule
module Startup = Cyclo.Startup
module Compaction = Cyclo.Compaction

let topologies () =
  [
    ("linear8", Topology.linear_array 8);
    ("mesh2x4", Topology.mesh ~rows:2 ~cols:4);
    ("cube3", Topology.hypercube 3);
  ]

let startup_golden =
  [
    ("diffeq", "linear8", "10;1@0;1@1;4@0;1@2;3@2;1@3;6@0;7@0;1@4;3@3");
    ("diffeq", "mesh2x4", "10;1@0;1@1;4@0;1@2;3@2;1@3;6@0;7@0;1@4;3@3");
    ("diffeq", "cube3", "9;1@0;1@1;4@0;1@2;3@2;1@3;6@0;7@0;1@4;3@3");
    ("elliptic", "linear8", "42;1@0;2@0;3@0;5@0;6@0;8@0;9@0;11@0;12@0;14@0;15@0;16@0;17@0;19@0;20@0;21@0;22@0;24@0;25@0;26@0;27@0;29@0;30@0;31@0;32@0;34@0;35@0;36@0;37@0;38@0;39@0;40@0;41@0;42@0");
    ("elliptic", "mesh2x4", "42;1@0;2@0;3@0;5@0;6@0;8@0;9@0;11@0;12@0;14@0;15@0;16@0;17@0;19@0;20@0;21@0;22@0;24@0;25@0;26@0;27@0;29@0;30@0;31@0;32@0;34@0;35@0;36@0;37@0;38@0;39@0;40@0;41@0;42@0");
    ("elliptic", "cube3", "42;1@0;2@0;3@0;5@0;6@0;8@0;9@0;11@0;12@0;14@0;15@0;16@0;17@0;19@0;20@0;21@0;22@0;24@0;25@0;26@0;27@0;29@0;30@0;31@0;32@0;34@0;35@0;36@0;37@0;38@0;39@0;40@0;41@0;42@0");
    ("fig1b", "linear8", "7;1@0;2@0;3@1;4@0;5@0;7@0");
    ("fig1b", "mesh2x4", "7;1@0;2@0;3@1;4@0;5@0;7@0");
    ("fig1b", "cube3", "7;1@0;2@0;3@1;4@0;5@0;7@0");
    ("fig7", "linear8", "14;1@0;2@0;3@1;5@0;8@2;7@1;4@0;3@0;6@0;9@1;7@0;11@1;9@2;8@0;9@0;10@0;13@1;10@2;14@1");
    ("fig7", "mesh2x4", "13;1@0;2@0;3@1;4@4;6@5;5@4;4@0;3@0;6@0;7@4;7@0;9@4;7@5;8@0;9@0;10@0;11@4;8@5;13@4");
    ("fig7", "cube3", "13;1@0;2@0;3@1;4@2;6@3;5@2;4@0;3@0;6@0;7@2;7@0;9@2;7@3;8@0;9@0;10@0;11@2;8@3;13@2");
    ("lattice", "linear8", "10;1@1;8@2;1@3;6@1;7@1;9@1;1@2;5@1;7@0;9@0;1@0;3@0;4@0;6@0");
    ("lattice", "mesh2x4", "10;1@1;8@2;1@3;6@1;7@1;9@1;1@2;5@1;7@0;9@0;1@0;3@0;4@0;6@0");
    ("lattice", "cube3", "10;1@1;7@4;1@3;5@0;6@0;8@0;1@2;4@0;6@2;8@2;1@0;3@0;5@1;7@1");
    ("lms4", "linear8", "16;1@0;2@0;1@1;1@2;1@3;4@0;5@0;6@0;7@0;8@0;10@0;9@1;11@1;10@2;12@2;11@0;13@0");
    ("lms4", "mesh2x4", "14;1@0;2@0;1@1;1@2;1@3;4@0;5@0;6@0;7@0;8@0;10@0;9@1;11@1;9@4;11@4;10@2;12@2");
    ("lms4", "cube3", "14;1@0;2@0;1@1;1@2;1@3;4@0;5@0;6@0;7@0;8@0;10@0;9@1;11@1;9@2;11@2;9@4;11@4");
  ]

let best_golden =
  [
    ("diffeq", "linear8", "7;1@2;6@0;2@0;4@1;6@1;1@1;4@0;5@0;1@0;3@1");
    ("diffeq", "mesh2x4", "7;1@4;6@0;2@0;4@1;6@1;1@1;4@0;5@0;1@0;3@1");
    ("diffeq", "cube3", "7;1@2;6@0;2@0;4@1;6@1;1@1;4@0;5@0;1@0;3@1");
    ("elliptic", "linear8", "38;29@0;30@0;31@0;33@0;34@0;36@0;37@0;2@1;3@1;5@1;1@0;2@0;3@0;5@0;6@0;7@0;8@0;10@0;11@0;12@0;13@0;15@0;16@0;17@0;18@0;20@0;21@0;22@0;23@0;24@0;25@0;26@0;27@0;28@0");
    ("elliptic", "mesh2x4", "28;5@4;6@4;7@4;9@4;10@4;12@4;13@4;15@4;1@0;3@0;4@0;5@0;6@0;8@0;9@0;10@0;11@0;13@0;14@0;15@0;16@0;18@0;19@0;20@0;21@0;23@0;24@0;25@0;26@0;27@0;1@4;2@4;3@4;4@4");
    ("elliptic", "cube3", "28;5@2;6@2;7@2;9@2;10@2;12@2;13@2;15@2;1@0;3@0;4@0;5@0;6@0;8@0;9@0;10@0;11@0;13@0;14@0;15@0;16@0;18@0;19@0;20@0;21@0;23@0;24@0;25@0;26@0;27@0;1@2;2@2;3@2;4@2");
    ("fig1b", "linear8", "3;2@2;2@1;3@2;1@1;1@0;3@0");
    ("fig1b", "mesh2x4", "3;3@1;2@2;1@1;2@1;2@0;1@0");
    ("fig1b", "cube3", "3;3@1;2@3;1@1;2@1;2@0;1@0");
    ("fig7", "linear8", "6;6@1;1@1;2@2;3@1;1@4;1@3;4@2;2@1;5@2;3@3;6@2;5@3;2@4;1@2;4@0;5@0;4@1;3@4;5@1");
    ("fig7", "mesh2x4", "6;1@0;3@4;3@1;4@4;5@4;1@5;2@2;6@1;3@2;3@5;4@2;5@5;6@4;5@2;2@0;3@0;2@1;1@4;5@0");
    ("fig7", "cube3", "6;5@2;1@2;2@2;3@0;4@0;5@4;4@3;3@3;5@3;1@4;2@1;3@4;5@0;3@1;4@1;1@0;1@6;1@1;4@2");
    ("lattice", "linear8", "9;1@1;6@2;7@2;4@1;5@1;7@1;8@1;3@1;5@0;7@0;8@0;1@0;2@0;4@0");
    ("lattice", "mesh2x4", "9;1@1;6@2;7@2;4@1;5@1;7@1;8@1;3@1;5@0;7@0;8@0;1@0;2@0;4@0");
    ("lattice", "cube3", "9;1@0;6@4;7@4;4@0;5@0;7@0;8@0;3@0;5@2;7@2;8@2;2@0;4@1;6@1");
    ("lms4", "linear8", "11;1@1;8@2;9@1;9@3;10@0;1@2;2@2;3@2;4@2;5@2;7@2;6@1;8@1;6@3;8@3;7@0;9@0");
    ("lms4", "mesh2x4", "11;1@1;8@0;9@1;9@4;10@2;1@0;2@0;3@0;4@0;5@0;7@0;6@1;8@1;6@4;8@4;7@2;9@2");
    ("lms4", "cube3", "11;1@0;9@0;10@1;10@2;10@4;2@0;3@0;4@0;5@0;6@0;8@0;7@1;9@1;7@2;9@2;7@4;9@4");
  ]

let load name =
  match Dataflow.Io.read_file ~path:("../data/" ^ name ^ ".csdfg") with
  | Ok g -> g
  | Error e -> Alcotest.fail (Dataflow.Io.error_to_string e)

let check_against golden schedule_of =
  List.iter
    (fun (workload, topo_name, expected) ->
      let g = load workload in
      let topo = List.assoc topo_name (topologies ()) in
      Alcotest.(check string)
        (workload ^ " on " ^ topo_name)
        expected
        (Schedule.signature (schedule_of g topo)))
    golden

let test_startup_signatures () =
  check_against startup_golden (fun g topo -> Startup.run_on g topo)

let test_best_signatures () =
  check_against best_golden (fun g topo ->
      (Compaction.run_on ~validate:false g topo).Compaction.best)

(* Whole compaction trajectories on seeded scale-tier graphs, well past
   the sizes of the shipped workloads above.  Per cell: passes run,
   whether the search converged, MD5 of the best and final signatures,
   and MD5 of the trace (rotated labels, length and outcome per pass). *)
let md5 s = Digest.to_hex (Digest.string s)

let trajectory_key (r : Compaction.result) =
  let trace =
    String.concat "\n"
      (List.map
         (fun (e : Compaction.trace_entry) ->
           Fmt.str "%d {%s} %d %a" e.pass
             (String.concat " " (Array.to_list e.rotated))
             e.length Compaction.pp_outcome e.outcome)
         r.trace)
  in
  Printf.sprintf "passes=%d converged=%b best=%d:%s final=%d:%s trace=%s"
    (List.length r.trace) r.converged
    (Schedule.length r.best)
    (md5 (Schedule.signature r.best))
    (Schedule.length r.final)
    (md5 (Schedule.signature r.final))
    (md5 trace)

(* Taken from the map-backed schedule representation. *)
let trajectory_golden =
  [
    ("layered-60 on linear:8 with-relaxation",
     "passes=240 converged=false best=17:9f35cdd7a973292b810a3e0e5512560a final=19:c93d6cff536017eb8d481e09ad3ff926 trace=7611e8d5be7c04cf3dcc0bda1900f750");
    ("layered-60 on linear:8 without-relaxation",
     "passes=12 converged=true best=23:ca42dc7d077d8606d36709b2434d884b final=23:e60b9c6c4feb14708f8a96c7ae887812 trace=ada59e65d2bb539bd8b7df479666ce61");
    ("layered-60 on mesh:4x4 with-relaxation",
     "passes=240 converged=false best=15:27ab0b01a48f69f6e10d677645a8b406 final=18:f364a3afc64085e40faccf3766fcb739 trace=e9535a1da2b1dd7290dcccc1230f0df9");
    ("layered-60 on mesh:4x4 without-relaxation",
     "passes=17 converged=true best=16:d829e1ffb7f6066137daad545ed61817 final=16:d829e1ffb7f6066137daad545ed61817 trace=b3f22a32e2c23fecbaac0a0b9e0ac64b");
    ("layered-120 on linear:8 with-relaxation",
     "passes=480 converged=false best=29:ac60e856cb4ca53df42c1e126fa02abc final=31:3711fd57b636d331818df8d60d99054d trace=c69eccfd4c72f9b992095fdc071093f3");
    ("layered-120 on linear:8 without-relaxation",
     "passes=33 converged=true best=32:7154f3ef566debfdc8a94a6fb13eda28 final=32:7154f3ef566debfdc8a94a6fb13eda28 trace=a522a15801c12e51b4b1b6508c381357");
    ("layered-120 on mesh:4x4 with-relaxation",
     "passes=480 converged=false best=17:20491b486dbae23af129db688278d5dd final=19:ab5d0936e07d036fad746f74670751f5 trace=a415a485e8ecfae06cdddbcc86f2c64e");
    ("layered-120 on mesh:4x4 without-relaxation",
     "passes=27 converged=true best=22:34d4b31f74b81a3ce196e3935071b08d final=22:34d4b31f74b81a3ce196e3935071b08d trace=dfef0f1d6d297fa9de9fea7b914951e2");
  ]

let trajectory_cells =
  List.concat_map
    (fun n ->
      List.concat_map
        (fun arch ->
          List.map (fun mode -> (n, arch, mode))
            [ Cyclo.Remap.With_relaxation; Cyclo.Remap.Without_relaxation ])
        [ "linear:8"; "mesh:4x4" ])
    [ 60; 120 ]

let cell_name (n, arch, mode) =
  Fmt.str "layered-%d on %s %a" n arch Cyclo.Remap.pp_mode mode

let trajectory (n, arch, mode) =
  let g = Workloads.Random_gen.layered ~nodes:n ~seed:(n + 3) () in
  let topo = Result.get_ok (Topology.of_spec arch) in
  trajectory_key (Compaction.run_on ~mode ~validate:false g topo)

let test_trajectories () =
  Alcotest.(check int)
    "one golden entry per cell" (List.length trajectory_cells)
    (List.length trajectory_golden);
  List.iter
    (fun c ->
      Alcotest.(check string) (cell_name c)
        (List.assoc (cell_name c) trajectory_golden)
        (trajectory c))
    trajectory_cells

let () =
  Alcotest.run "golden_signatures"
    [
      ( "golden",
        [
          Alcotest.test_case "startup schedules" `Quick test_startup_signatures;
          Alcotest.test_case "compacted best schedules" `Quick
            test_best_signatures;
          Alcotest.test_case "scale-tier trajectories" `Quick
            test_trajectories;
        ] );
    ]

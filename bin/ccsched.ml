(* ccsched — command-line front end for cyclo-compaction scheduling.

   ccsched list
   ccsched show fig1b
   ccsched schedule fig7 --arch mesh:2x4 --table --trace
   ccsched compare elliptic --slowdown 3
   ccsched export fig1b --dot -o fig1b.dot *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Argument parsing helpers                                             *)
(* ------------------------------------------------------------------ *)

(* Exit-code discipline (also in docs/cli.md): 0 success, 1 internal
   error or failed check, 2 usage error, 3 malformed input file. *)
let die code msg =
  Fmt.epr "ccsched: %s@." msg;
  exit code

(* scale:NODES[:SEED] — generated on demand rather than registered in
   the suite, so daemon start and `ccsched list` never pay for building
   a 10^5-node graph nobody asked for. *)
let parse_scale_spec spec =
  match String.split_on_char ':' spec with
  | "scale" :: rest -> (
      match rest with
      | [ n ] | [ n; _ ] -> (
          let seed =
            match rest with
            | [ _; s ] -> (
                match int_of_string_opt s with
                | Some s -> Some s
                | None -> die 2 (Printf.sprintf "bad scale spec %S" spec))
            | _ -> Some 1
          in
          match int_of_string_opt n with
          | Some n when n >= 1 ->
              Some (Workloads.Random_gen.layered ~nodes:n
                      ~seed:(Option.value ~default:1 seed) ())
          | _ -> die 2 (Printf.sprintf "bad scale spec %S (need scale:NODES[:SEED], NODES >= 1)" spec))
      | _ -> die 2 (Printf.sprintf "bad scale spec %S" spec))
  | _ -> None

let read_graph spec =
  match parse_scale_spec spec with
  | Some g -> g
  | None ->
  match Workloads.Suite.find spec with
  | Some g -> g
  | None ->
      if Sys.file_exists spec then
        match Dataflow.Io.read_file ~path:spec with
        | Ok g -> g
        | Error e -> die 3 (spec ^ ": " ^ Dataflow.Io.error_to_string e)
      else
        die 2
          (Printf.sprintf
             "unknown workload %S (try `ccsched list` or a .csdfg file path)"
             spec)

(* A graph with a zero-delay cycle has no schedule and no iteration
   bound, so every command but [show] refuses it as malformed input. *)
let load_graph spec =
  let g = read_graph spec in
  match Dataflow.Csdfg.validate g with
  | Ok () -> g
  | Error problems ->
      List.iter
        (fun p ->
          Fmt.epr "ccsched: %s: %a@." spec (Dataflow.Csdfg.pp_violation g) p)
        problems;
      exit 3

let load_scenario path =
  match Machine.Faults.read_file ~path with
  | Ok s -> s
  | Error e -> die 3 (path ^ ": " ^ Machine.Faults.error_to_string e)

(* One grammar for every surface: the CLI, the service wire protocol and
   the docs all go through Topology.of_spec. *)
let parse_arch = Topology.of_spec

let graph_arg =
  let doc = "Workload name (see $(b,ccsched list)) or path to a .csdfg file." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"GRAPH" ~doc)

let arch_arg =
  let doc =
    "Target architecture, e.g. complete:8, linear:8, ring:8, mesh:2x4, \
     torus:2x4, hypercube:3, star:8, tree:8."
  in
  Arg.(value & opt string "complete:8" & info [ "a"; "arch" ] ~docv:"ARCH" ~doc)

let mode_arg =
  let doc = "Remapping mode: $(b,relax) (default) or $(b,strict)." in
  Arg.(value & opt (enum [ ("relax", Cyclo.Remap.With_relaxation);
                           ("strict", Cyclo.Remap.Without_relaxation) ])
         Cyclo.Remap.With_relaxation
       & info [ "m"; "mode" ] ~docv:"MODE" ~doc)

let passes_arg =
  let doc = "Compaction pass budget (default scales with the graph)." in
  Arg.(value & opt (some int) None & info [ "p"; "passes" ] ~docv:"N" ~doc)

let slowdown_arg =
  let doc = "Multiply every edge delay by $(docv) before scheduling." in
  Arg.(value & opt int 1 & info [ "slowdown" ] ~docv:"K" ~doc)

let portfolio_arg =
  let doc =
    "Run $(docv) diversified compaction searches as a portfolio (mode, \
     scoring, placement order and target-length ladder) with shared-bound \
     pruning, and report the deterministic winner."
  in
  Arg.(value & opt (some int) None & info [ "portfolio" ] ~docv:"K" ~doc)

let domains_arg =
  let doc = "Domains to spread portfolio searches over (default: all cores)." in
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)

let table_flag =
  Arg.(value & flag & info [ "t"; "table" ] ~doc:"Print the schedule tables.")

let trace_flag =
  Arg.(value & flag & info [ "trace" ] ~doc:"Print the per-pass trace.")

let speeds_arg =
  let doc =
    "Comma-separated per-processor cycle-time multipliers for a      heterogeneous machine, e.g. 1,1,2,2 (default: uniform)."
  in
  Arg.(value & opt (some string) None & info [ "speeds" ] ~docv:"S1,S2,.." ~doc)

let parse_speeds topo = function
  | None -> Ok None
  | Some text ->
      let parts = String.split_on_char ',' text in
      let parsed = List.map int_of_string_opt parts in
      if List.exists Option.is_none parsed then
        Error (Printf.sprintf "bad --speeds %S" text)
      else begin
        let speeds = Array.of_list (List.map Option.get parsed) in
        if Array.length speeds <> Topology.n_processors topo then
          Error
            (Printf.sprintf "--speeds needs %d entries for %s"
               (Topology.n_processors topo) (Topology.name topo))
        else if Array.exists (fun x -> x <= 0) speeds then
          Error "--speeds entries must be positive"
        else Ok (Some speeds)
      end

let or_die = function Ok v -> v | Error msg -> die 2 msg

(* ------------------------------------------------------------------ *)
(* Observability (--profile / --metrics)                                *)
(* ------------------------------------------------------------------ *)

let profile_arg =
  let doc =
    "Record a structured trace of the run and write it to $(docv) as \
     Chrome trace_event JSON (open in chrome://tracing or Perfetto)."
  in
  Arg.(value & opt (some string) None
       & info [ "profile" ] ~docv:"FILE.json" ~doc)

let metrics_flag =
  Arg.(value & flag
       & info [ "metrics" ]
           ~doc:"Print the observability counters registry after the run.")

(* Enable the requested collectors, run, then export: the profile file
   carries the spans plus counters/resources blocks; --metrics prints
   the registries on stdout.  With neither flag every probe stays a
   no-op.  Resource attribution rides the same probes as tracing, so
   both flags turn it on: the profile embeds the per-phase resource
   rollup under "resources", and --metrics prints the same table. *)
let with_observability ~profile ~metrics run =
  if profile <> None then Obs.Trace.enable ();
  if profile <> None || metrics then begin
    Obs.Counters.enable ();
    Obs.Histogram.enable ();
    Obs.Resource.enable ()
  end;
  let result = run () in
  (* final memory reading lands in the counters registry before the
     collectors freeze, so process.*/gc.* rows show up in both exports *)
  Obs.Resource.refresh_process_gauges ();
  Obs.Trace.disable ();
  Obs.Counters.disable ();
  Obs.Histogram.disable ();
  Obs.Resource.disable ();
  (match profile with
  | Some path ->
      let json =
        Obs.Trace.to_chrome_json ~counters:(Obs.Counters.dump ())
          ~histograms:(Obs.Histogram.dump ())
          ~resources:(Obs.Resource.rollup_json ()) ()
      in
      Cyclo.Export.write_file ~path json;
      Fmt.pr "wrote profile %s@." path
  | None -> ());
  if metrics then begin
    Fmt.pr "@.metrics:@.%a" Obs.Counters.pp_summary ();
    if List.exists (fun (_, b) -> b <> []) (Obs.Histogram.dump ()) then
      Fmt.pr "@.histograms:@.%a" Obs.Histogram.pp_summary ();
    if Obs.Resource.spans () <> [] then
      Fmt.pr "@.resources:@.%a" Obs.Resource.pp_summary ()
  end;
  result

let prepared ?(load = load_graph) spec slowdown =
  let g = load spec in
  if slowdown > 1 then Dataflow.Transform.slowdown g slowdown else g

(* ------------------------------------------------------------------ *)
(* Commands                                                             *)
(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    Fmt.pr "built-in workloads:@.";
    List.iter
      (fun (name, g) -> Fmt.pr "  %-16s %a@." name Dataflow.Csdfg.pp_stats g)
      (Workloads.Suite.all ());
    Fmt.pr "@.architecture syntax: linear:N ring:N complete:N mesh:RxC \
            torus:RxC hypercube:D star:N tree:N@."
  in
  Cmd.v (Cmd.info "list" ~doc:"List built-in workloads and architectures.")
    Term.(const run $ const ())

let show_cmd =
  let run spec slowdown =
    let g = prepared ~load:read_graph spec slowdown in
    Fmt.pr "%a@.@." Dataflow.Csdfg.pp g;
    (match Dataflow.Csdfg.validate g with
    | Ok () -> Fmt.pr "legality: ok@."
    | Error problems ->
        Fmt.pr "legality problems:@.";
        List.iter
          (fun p -> Fmt.pr "  %a@." (Dataflow.Csdfg.pp_violation g) p)
          problems;
        die 3 (spec ^ ": illegal CSDFG, no bounds"));
    (match Dataflow.Iteration_bound.exact_ceil g with
    | Some b -> Fmt.pr "iteration bound: %d@." b
    | None -> Fmt.pr "iteration bound: none (acyclic)@.");
    Fmt.pr "zero-delay critical path: %d@." (Dataflow.Retiming.clock_period g);
    let period, _ = Dataflow.Retiming.min_period g in
    Fmt.pr "min clock period under retiming: %d@." period
  in
  Cmd.v (Cmd.info "show" ~doc:"Inspect a workload: legality, bounds, stats.")
    Term.(const run $ graph_arg $ slowdown_arg)

(* Every emitted schedule is re-checked; an illegal one is a scheduler
   bug, reported with exit 1. *)
let exit_if_illegal s =
  match Cyclo.Validator.check s with
  | Ok () -> ()
  | Error problems ->
      Fmt.epr "INTERNAL ERROR: emitted an illegal schedule:@.%a@."
        (Fmt.list (Cyclo.Validator.pp_violation s))
        problems;
      exit 1

let print_portfolio ~table g topo t =
  let best = Cyclo.Portfolio.best t in
  Fmt.pr "workload %s on %s@." (Dataflow.Csdfg.name g) (Topology.name topo);
  Fmt.pr "%a@." Cyclo.Portfolio.pp t;
  Fmt.pr "metrics: %a@." Cyclo.Metrics.pp_summary best;
  if table then Fmt.pr "@.best schedule:@.%a@." Cyclo.Schedule.pp best;
  exit_if_illegal best

let schedule_cmd =
  let startup_only_flag =
    Arg.(value & flag
         & info [ "startup-only" ]
             ~doc:"Stop after start-up scheduling (no compaction) — the \
                   scale-tier mode: linear-ish work, so usable on \
                   $(b,scale:100000) graphs where pass-based compaction \
                   is not.")
  in
  let run spec arch mode passes slowdown speeds portfolio domains table trace
      startup_only profile metrics =
    let g = prepared spec slowdown in
    let topo = or_die (parse_arch arch) in
    let speeds = or_die (parse_speeds topo speeds) in
    with_observability ~profile ~metrics @@ fun () ->
    if startup_only then begin
      let startup = Cyclo.Startup.run_on ?speeds g topo in
      Fmt.pr "workload %s on %s (startup only)@." (Dataflow.Csdfg.name g)
        (Topology.name topo);
      Fmt.pr "start-up length: %d@." (Cyclo.Schedule.length startup);
      Fmt.pr "metrics: %a@." Cyclo.Metrics.pp_summary startup;
      if table then Fmt.pr "@.start-up schedule:@.%a@." Cyclo.Schedule.pp startup;
      exit_if_illegal startup
    end
    else
    match portfolio with
    | Some k ->
        if k < 1 then die 3 "--portfolio needs K >= 1";
        print_portfolio ~table g topo
          (Cyclo.Portfolio.run_on ~k ?domains ?speeds ?passes g topo)
    | None ->
    let r = Cyclo.Compaction.run_on ~mode ?speeds ?passes g topo in
    let startup = r.Cyclo.Compaction.startup and best = r.Cyclo.Compaction.best in
    Fmt.pr "workload %s on %s (%a)@." (Dataflow.Csdfg.name g)
      (Topology.name topo) Cyclo.Remap.pp_mode mode;
    Fmt.pr "start-up length: %d@." (Cyclo.Schedule.length startup);
    Fmt.pr "compacted length: %d (%.0f%% shorter, %d passes%s)@."
      (Cyclo.Schedule.length best)
      (Cyclo.Metrics.improvement ~before:startup ~after:best)
      (List.length r.Cyclo.Compaction.trace)
      (if r.Cyclo.Compaction.converged then ", converged" else "");
    (match Dataflow.Iteration_bound.exact_ceil g with
    | Some b -> Fmt.pr "iteration bound: %d@." b
    | None -> ());
    Fmt.pr "metrics: %a@." Cyclo.Metrics.pp_summary best;
    if trace then
      Fmt.pr "@.trace:@.%a@." Cyclo.Compaction.pp_trace r.Cyclo.Compaction.trace;
    if table then begin
      Fmt.pr "@.start-up schedule:@.%a@." Cyclo.Schedule.pp startup;
      Fmt.pr "@.best schedule:@.%a@." Cyclo.Schedule.pp best
    end;
    exit_if_illegal best
  in
  Cmd.v
    (Cmd.info "schedule"
       ~doc:"Run start-up scheduling plus cyclo-compaction on one architecture.")
    Term.(
      const run $ graph_arg $ arch_arg $ mode_arg $ passes_arg $ slowdown_arg
      $ speeds_arg $ portfolio_arg $ domains_arg $ table_flag $ trace_flag
      $ startup_only_flag $ profile_arg $ metrics_flag)

let compare_cmd =
  let run spec passes slowdown =
    let g = prepared spec slowdown in
    let architectures =
      [
        ("completely connected", Topology.complete 8);
        ("linear array", Topology.linear_array 8);
        ("ring", Topology.ring 8);
        ("2-D mesh", Topology.mesh ~rows:2 ~cols:4);
        ("3-cube", Topology.hypercube 3);
      ]
    in
    Fmt.pr "%-22s %8s %8s %8s %10s@." "architecture" "init" "w/o" "with"
      "oblivious";
    List.iter
      (fun (name, topo) ->
        let strict =
          Cyclo.Compaction.run_on ~mode:Cyclo.Remap.Without_relaxation ?passes g
            topo
        in
        let relax =
          Cyclo.Compaction.run_on ~mode:Cyclo.Remap.With_relaxation ?passes g
            topo
        in
        let oblivious = Cyclo.Baseline.rotation_oblivious ?passes g topo in
        Fmt.pr "%-22s %8d %8d %8d %10d@." name
          (Cyclo.Schedule.length strict.Cyclo.Compaction.startup)
          (Cyclo.Schedule.length strict.Cyclo.Compaction.best)
          (Cyclo.Schedule.length relax.Cyclo.Compaction.best)
          (Cyclo.Schedule.length oblivious))
      architectures
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Compare both remapping modes and the oblivious baseline across \
             the paper's five 8-processor architectures.")
    Term.(const run $ graph_arg $ passes_arg $ slowdown_arg)

let export_cmd =
  let output_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output path (default stdout).")
  in
  let format_arg =
    let doc =
      "Payload: $(b,csdfg) (text graph), $(b,dot) (Graphviz graph), \
       $(b,gantt), $(b,csv), $(b,json) or $(b,svg) (schedule renderings \
       of the compacted schedule on --arch)."
    in
    Arg.(value
         & opt (enum [ ("csdfg", `Csdfg); ("dot", `Dot); ("gantt", `Gantt);
                       ("csv", `Csv); ("json", `Json); ("svg", `Svg);
                       ("c", `C) ])
             `Csdfg
         & info [ "f"; "format" ] ~docv:"FORMAT" ~doc)
  in
  let run spec arch slowdown format output =
    let g = prepared spec slowdown in
    let schedule () =
      let topo = or_die (parse_arch arch) in
      (Cyclo.Compaction.run_on g topo).Cyclo.Compaction.best
    in
    let payload =
      match format with
      | `Csdfg -> Dataflow.Io.to_string g
      | `Dot -> Dataflow.Dot_export.to_dot g
      | `Gantt -> Cyclo.Export.gantt (schedule ())
      | `Csv ->
          (* compaction retimes: record the cumulative retiming so
             `ccsched validate` can rebuild the kernel graph *)
          let best = schedule () in
          let prefix =
            match
              Dataflow.Retiming.infer ~original:g
                ~retimed:(Cyclo.Schedule.dfg best)
            with
            | Some r ->
                Printf.sprintf "# retiming=%s\n"
                  (String.concat ","
                     (List.map string_of_int (Array.to_list r)))
            | None -> ""
          in
          prefix ^ Cyclo.Export.to_csv best
      | `Json -> Cyclo.Export.to_json (schedule ())
      | `Svg -> Cyclo.Export.to_svg (schedule ())
      | `C -> Codegen.C_emitter.emit (schedule ())
    in
    match output with
    | None -> print_string payload
    | Some path ->
        Cyclo.Export.write_file ~path payload;
        Fmt.pr "wrote %s@." path
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Export a workload or its compacted schedule in various formats.")
    Term.(const run $ graph_arg $ arch_arg $ slowdown_arg $ format_arg
          $ output_arg)

let simulate_cmd =
  let iterations_arg =
    Arg.(value & opt int 40
         & info [ "n"; "iterations" ] ~docv:"N" ~doc:"Loop iterations to execute.")
  in
  let contention_flag =
    Arg.(value & flag
         & info [ "contention" ]
             ~doc:"Single-channel FIFO links instead of the paper's \
                   contention-free model.")
  in
  let wormhole_flag =
    Arg.(value & flag
         & info [ "wormhole" ]
             ~doc:"Wormhole transport (hops + volume - 1) for both the \
                   schedule's cost model and the execution.")
  in
  let events_arg =
    Arg.(value & opt (some string) None
         & info [ "events" ] ~docv:"FILE.jsonl"
             ~doc:"Write the typed execution event stream (instance \
                   starts/finishes, message sends, link hops, deliveries, \
                   stalls, faults) as JSONL, schema ccsched-sim-events/2.")
  in
  let timeline_arg =
    Arg.(value & opt (some string) None
         & info [ "timeline" ] ~docv:"FILE.svg"
             ~doc:"Write the executed-run Gantt chart: per-PE lanes, \
                   message arrows, stall markers.")
  in
  let chrome_arg =
    Arg.(value & opt (some string) None
         & info [ "chrome-trace" ] ~docv:"FILE.json"
             ~doc:"Write the run as Chrome trace_event JSON on the \
                   simulator's virtual clock (open in chrome://tracing or \
                   Perfetto).")
  in
  let audit_flag =
    Arg.(value & flag
         & info [ "audit" ]
             ~doc:"Check every measured instance start against the static \
                   promise CB + k*L and attribute each slip to its cause \
                   chain (blocking message, congested link, late upstream \
                   instance), with per-link occupancy.")
  in
  let faults_arg =
    Arg.(value & opt (some string) None
         & info [ "faults" ] ~docv:"FILE.fault"
             ~doc:"Inject the fault scenario in $(docv) (fail-stop \
                   processors, link outages, lossy links — see \
                   docs/robustness.md) into the run.")
  in
  let seed_arg =
    Arg.(value & opt int 0
         & info [ "seed" ] ~docv:"N"
             ~doc:"Fault-scenario seed; a fixed seed replays the exact \
                   same event stream.")
  in
  let run spec arch mode passes slowdown iterations contention wormhole
      faults_path seed events_path timeline_path chrome_path audit profile
      metrics =
    let g = prepared spec slowdown in
    let topo = or_die (parse_arch arch) in
    if faults_path <> None && wormhole then
      die 2 "--faults requires store-and-forward transport (drop --wormhole)";
    let faults =
      Option.map
        (fun path ->
          let scen = load_scenario path in
          (match Machine.Faults.validate scen topo with
          | Ok () -> ()
          | Error m -> die 2 (path ^ ": " ^ m));
          Machine.Faults.arm ~seed scen)
        faults_path
    in
    with_observability ~profile ~metrics @@ fun () ->
    let comm =
      if wormhole then Cyclo.Comm.wormhole topo
      else Cyclo.Comm.of_topology topo
    in
    let r = Cyclo.Compaction.run ~mode ?passes g comm in
    let best = r.Cyclo.Compaction.best in
    let policy =
      if contention then Machine.Simulator.Fifo_links
      else Machine.Simulator.Contention_free
    in
    let transport =
      if wormhole then Machine.Simulator.Wormhole
      else Machine.Simulator.Store_and_forward
    in
    let recorder =
      if
        events_path <> None || timeline_path <> None || chrome_path <> None
        || audit
      then Some (Machine.Events.recorder ())
      else None
    in
    let stats =
      Machine.Simulator.execute ~policy ~transport ?recorder ?faults best topo
        ~iterations
    in
    Fmt.pr "schedule: %a@." Cyclo.Schedule.pp_compact best;
    Fmt.pr "execution: %a@." Machine.Simulator.pp_stats stats;
    Fmt.pr "static bound: %d, slowdown: %.3f@."
      (Machine.Simulator.static_bound best ~iterations)
      (Machine.Simulator.slowdown stats best);
    (match stats.Machine.Simulator.faults with
    | Some rep -> Fmt.pr "@.%a" Machine.Audit.pp_degradation rep
    | None -> ());
    match recorder with
    | None -> ()
    | Some rec_ ->
        let evs = Machine.Events.events rec_ in
        let label v = Dataflow.Csdfg.label (Cyclo.Schedule.dfg best) v in
        let np = Topology.n_processors topo in
        (match events_path with
        | Some path ->
            Cyclo.Export.write_file ~path (Machine.Events.to_jsonl evs);
            Fmt.pr "wrote %d events to %s@." (Machine.Events.count rec_) path
        | None -> ());
        (match timeline_path with
        | Some path ->
            Cyclo.Export.write_file ~path
              (Machine.Timeline.to_svg ~label ~np evs);
            Fmt.pr "wrote timeline %s@." path
        | None -> ());
        (match chrome_path with
        | Some path ->
            Cyclo.Export.write_file ~path
              (Machine.Timeline.to_chrome_json ~label ~np evs);
            Fmt.pr "wrote chrome trace %s@." path
        | None -> ());
        if audit then
          Fmt.pr "@.audit:@.%a"
            (Machine.Audit.pp ~label)
            (Machine.Audit.audit best evs)
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Execute the compacted schedule on the event-driven machine \
             simulator and compare against the analytical model.")
    Term.(const run $ graph_arg $ arch_arg $ mode_arg $ passes_arg
          $ slowdown_arg $ iterations_arg $ contention_flag $ wormhole_flag
          $ faults_arg $ seed_arg $ events_arg $ timeline_arg $ chrome_arg
          $ audit_flag $ profile_arg $ metrics_flag)

let faultsim_cmd =
  let scenario_arg =
    Arg.(required & opt (some string) None
         & info [ "scenario" ] ~docv:"FILE.fault"
             ~doc:"Fault scenario to inject (see docs/robustness.md for the \
                   format).")
  in
  let seed_arg =
    Arg.(value & opt int 0
         & info [ "seed" ] ~docv:"N"
             ~doc:"Deterministic seed for the loss draws; a fixed seed \
                   replays the exact same event stream.")
  in
  let iterations_arg =
    Arg.(value & opt int 40
         & info [ "n"; "iterations" ] ~docv:"N"
             ~doc:"Loop iterations to execute.")
  in
  let contention_flag =
    Arg.(value & flag
         & info [ "contention" ]
             ~doc:"Single-channel FIFO links instead of the paper's \
                   contention-free model.")
  in
  let events_arg =
    Arg.(value & opt (some string) None
         & info [ "events" ] ~docv:"FILE.jsonl"
             ~doc:"Write the typed execution event stream, including fault, \
                   retry, drop and degraded-mode events, as JSONL (schema \
                   ccsched-sim-events/2).")
  in
  let timeline_arg =
    Arg.(value & opt (some string) None
         & info [ "timeline" ] ~docv:"FILE.svg"
             ~doc:"Write the executed-run Gantt chart with fault markers: \
                   failed lanes are struck through, degraded-mode resume is \
                   a dashed rule.")
  in
  let run spec arch mode passes slowdown scenario_path seed iterations
      contention events_path timeline_path profile metrics =
    let g = prepared spec slowdown in
    let topo = or_die (parse_arch arch) in
    let scen = load_scenario scenario_path in
    (match Machine.Faults.validate scen topo with
    | Ok () -> ()
    | Error m -> die 2 (scenario_path ^ ": " ^ m));
    let armed = Machine.Faults.arm ~seed scen in
    with_observability ~profile ~metrics @@ fun () ->
    let r = Cyclo.Compaction.run_on ~mode ?passes g topo in
    let best = r.Cyclo.Compaction.best in
    let policy =
      if contention then Machine.Simulator.Fifo_links
      else Machine.Simulator.Contention_free
    in
    let recorder =
      if events_path <> None || timeline_path <> None then
        Some (Machine.Events.recorder ())
      else None
    in
    let stats =
      Machine.Simulator.execute ~policy ?recorder ~faults:armed best topo
        ~iterations
    in
    Fmt.pr "schedule: %a@." Cyclo.Schedule.pp_compact best;
    Fmt.pr "execution: %a@." Machine.Simulator.pp_stats stats;
    (match stats.Machine.Simulator.faults with
    | Some rep -> Fmt.pr "@.%a" Machine.Audit.pp_degradation rep
    | None -> ());
    match recorder with
    | None -> ()
    | Some rec_ ->
        let evs = Machine.Events.events rec_ in
        let label v = Dataflow.Csdfg.label (Cyclo.Schedule.dfg best) v in
        let np = Topology.n_processors topo in
        (match events_path with
        | Some path ->
            Cyclo.Export.write_file ~path (Machine.Events.to_jsonl evs);
            Fmt.pr "wrote %d events to %s@." (Machine.Events.count rec_) path
        | None -> ());
        (match timeline_path with
        | Some path ->
            Cyclo.Export.write_file ~path
              (Machine.Timeline.to_svg ~label ~np evs);
            Fmt.pr "wrote timeline %s@." path
        | None -> ())
  in
  Cmd.v
    (Cmd.info "faultsim"
       ~doc:"Execute the compacted schedule under an injected fault scenario: \
             lossy links retry with exponential backoff, and permanent \
             processor or link failures trigger degraded-mode rescheduling \
             on the surviving machine, with the recovery judged and priced.")
    Term.(const run $ graph_arg $ arch_arg $ mode_arg $ passes_arg
          $ slowdown_arg $ scenario_arg $ seed_arg $ iterations_arg
          $ contention_flag $ events_arg $ timeline_arg $ profile_arg
          $ metrics_flag)

let pipeline_cmd =
  let iterations_arg =
    Arg.(value & opt int 1000
         & info [ "n"; "iterations" ] ~docv:"N"
             ~doc:"Total loop iterations for the overhead figures.")
  in
  let run spec arch mode passes slowdown n =
    let g = prepared spec slowdown in
    let topo = or_die (parse_arch arch) in
    let r = Cyclo.Compaction.run_on ~mode ?passes g topo in
    let best = r.Cyclo.Compaction.best in
    match Cyclo.Pipeline.build ~original:g best with
    | Error e ->
        Fmt.epr "ccsched: %s@." e;
        exit 1
    | Ok p ->
        Fmt.pr "%a@." (Cyclo.Pipeline.pp g) p;
        (* short loops (N < depth) execute a clamped prologue *)
        if Cyclo.Pipeline.prologue_length_for p ~n
           <> Cyclo.Pipeline.prologue_length p
        then
          Fmt.pr "prologue (N=%d): clamped to %d instruction(s)@." n
            (Cyclo.Pipeline.prologue_length_for p ~n);
        Fmt.pr "epilogue (N=%d): %d instruction(s)@." n
          (Cyclo.Pipeline.epilogue_length p ~n);
        Fmt.pr "overhead (N=%d): %.4f%%@." n
          (100. *. Cyclo.Pipeline.overhead_ratio p ~n);
        Fmt.pr "total time (N=%d): %d control steps (%.2f per iteration)@." n
          (Cyclo.Pipeline.total_time p ~n)
          (float_of_int (Cyclo.Pipeline.total_time p ~n) /. float_of_int n)
  in
  Cmd.v
    (Cmd.info "pipeline"
       ~doc:"Show the prologue/epilogue the compacted (retimed) schedule \
             requires and its amortized overhead.")
    Term.(const run $ graph_arg $ arch_arg $ mode_arg $ passes_arg
          $ slowdown_arg $ iterations_arg)

let time_budget_arg =
  Arg.(value & opt (some float) None
       & info [ "time-budget" ] ~docv:"SECONDS"
           ~doc:"Wall-clock budget; on exhaustion the best-so-far result \
                 is reported and tagged as truncated.")

let autotune_cmd =
  let run spec arch passes slowdown speeds time_budget profile metrics =
    let g = prepared spec slowdown in
    let topo = or_die (parse_arch arch) in
    let speeds = or_die (parse_speeds topo speeds) in
    with_observability ~profile ~metrics @@ fun () ->
    print_portfolio ~table:true g topo
      (Cyclo.Portfolio.run_on ~k:4 ~prune:false ~polish:true ?passes ?speeds
         ?time_budget g topo)
  in
  Cmd.v
    (Cmd.info "autotune"
       ~doc:"The portfolio preset $(b,--portfolio 4) without pruning: both \
             modes crossed with both scorings, each run to its end and \
             polished by local search; keeps the shortest schedule.")
    Term.(const run $ graph_arg $ arch_arg $ passes_arg $ slowdown_arg
          $ speeds_arg $ time_budget_arg $ profile_arg $ metrics_flag)

let partition_cmd =
  let graphs_arg =
    let doc = "Two or more workload names or .csdfg paths to co-schedule." in
    Arg.(non_empty & pos_all string [] & info [] ~docv:"GRAPH.." ~doc)
  in
  let fused_flag =
    Arg.(value & flag
         & info [ "fused" ]
             ~doc:"Share the whole machine with one common table instead of \
                   carving isolated regions.")
  in
  let run specs arch fused =
    let graphs = List.map load_graph specs in
    let topo = or_die (parse_arch arch) in
    let result =
      if fused then Cyclo.Partition.fused graphs topo
      else Cyclo.Partition.partitioned graphs topo
    in
    match result with
    | Error e ->
        Fmt.epr "ccsched: %s@." e;
        exit 1
    | Ok r -> Fmt.pr "%a@." Cyclo.Partition.pp r
  in
  Cmd.v
    (Cmd.info "partition"
       ~doc:"Place several applications on one machine: isolated connected \
             regions (default) or one fused schedule (--fused).")
    Term.(const run $ graphs_arg $ arch_arg $ fused_flag)

let optimal_cmd =
  let states_arg =
    Arg.(value & opt int 2_000_000
         & info [ "max-states" ] ~docv:"N" ~doc:"Search-node budget (per shard).")
  in
  let shards_arg =
    Arg.(value & opt int 1
         & info [ "shards" ] ~docv:"N"
             ~doc:"Shard the root placements over N parallel sub-searches; \
                   the result is byte-identical to the sequential search.")
  in
  let run spec arch slowdown states time_budget shards =
    let g = prepared spec slowdown in
    let topo = or_die (parse_arch arch) in
    let comm = Cyclo.Comm.of_topology topo in
    if shards < 1 then die 3 "--shards needs N >= 1";
    (match
       Cyclo.Exhaustive.solve ~max_states:states ?time_budget ~shards g comm
     with
    | Cyclo.Exhaustive.Optimal s ->
        Fmt.pr "optimal static schedule (no retiming): length %d@.%a@."
          (Cyclo.Schedule.length s) Cyclo.Schedule.pp s
    | Cyclo.Exhaustive.Gave_up (Some s) ->
        Fmt.pr
          "search budget exhausted; best known schedule (start-up): length \
           %d@.%a@."
          (Cyclo.Schedule.length s) Cyclo.Schedule.pp s
    | Cyclo.Exhaustive.Gave_up None ->
        Fmt.pr "gave up within %d states (instance too large)@." states);
    let r = Cyclo.Compaction.run_on g topo in
    Fmt.pr "@.cyclo-compaction (with retiming): length %d@."
      (Cyclo.Schedule.length r.Cyclo.Compaction.best);
    match Cyclo.Exhaustive.optimality_gap r.Cyclo.Compaction.best with
    | Some gap -> Fmt.pr "optimality gap on its retimed graph: %d@." gap
    | None -> Fmt.pr "optimality gap: unknown (search budget exceeded)@."
  in
  Cmd.v
    (Cmd.info "optimal"
       ~doc:"Exact branch-and-bound schedule for small graphs, compared \
             against cyclo-compaction.")
    Term.(const run $ graph_arg $ arch_arg $ slowdown_arg $ states_arg
          $ time_budget_arg $ shards_arg)

let validate_cmd =
  let csv_arg =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"SCHEDULE.csv"
             ~doc:"Schedule CSV produced by `ccsched export -f csv`.")
  in
  let run spec csv_path arch slowdown speeds =
    let g = prepared spec slowdown in
    let topo = or_die (parse_arch arch) in
    let speeds = or_die (parse_speeds topo speeds) in
    let text =
      match
        let ic = open_in csv_path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      with
      | text -> text
      | exception Sys_error msg -> die 3 msg
    in
    (* re-apply the retiming recorded at export time, if any *)
    let g =
      let prefix = "# retiming=" in
      let lines = String.split_on_char '\n' text in
      match
        List.find_opt
          (fun l ->
            String.length l >= String.length prefix
            && String.sub l 0 (String.length prefix) = prefix)
          lines
      with
      | None -> g
      | Some line -> (
          let body =
            String.sub line (String.length prefix)
              (String.length line - String.length prefix)
          in
          let parsed =
            String.split_on_char ',' body |> List.map int_of_string_opt
          in
          if List.exists Option.is_none parsed then g
          else
            let r = Array.of_list (List.map Option.get parsed) in
            match Dataflow.Retiming.apply g r with
            | retimed -> retimed
            | exception Invalid_argument msg ->
                die 3 ("bad retiming in CSV: " ^ msg))
    in
    match Cyclo.Export.of_csv ?speeds g (Cyclo.Comm.of_topology topo) text with
    | Error msg -> die 3 msg
    | Ok sched -> (
        Fmt.pr "%a@." Cyclo.Schedule.pp sched;
        match Cyclo.Validator.check sched with
        | Ok () ->
            Fmt.pr "schedule is legal (length %d); metrics: %a@."
              (Cyclo.Schedule.length sched) Cyclo.Metrics.pp_summary sched
        | Error problems ->
            Fmt.pr "ILLEGAL schedule:@.%a@."
              (Fmt.list (Cyclo.Validator.pp_violation sched))
              problems;
            exit 1)
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Check a schedule CSV against its graph and architecture with \
             the independent validator.")
    Term.(const run $ graph_arg $ csv_arg $ arch_arg $ slowdown_arg
          $ speeds_arg)

(* ------------------------------------------------------------------ *)
(* Analytics: explain / report / diff                                   *)
(* ------------------------------------------------------------------ *)

(* Run the pipeline with the decision journal on, and hand back the
   result plus the merged event list.  The journal is kept out of
   `with_observability` on purpose: it changes nothing about the
   schedule, but enabling it costs allocations per decision, so only the
   analytics commands pay for it. *)
let with_journal run =
  Obs.Journal.enable ();
  let result = run () in
  Obs.Journal.disable ();
  (result, Obs.Journal.events ())

let resolve_node g spec =
  let by_label =
    List.find_opt
      (fun v -> Dataflow.Csdfg.label g v = spec)
      (Dataflow.Csdfg.nodes g)
  in
  match by_label with
  | Some v -> Ok v
  | None -> (
      match int_of_string_opt spec with
      | Some v when v >= 0 && v < Dataflow.Csdfg.n_nodes g -> Ok v
      | _ ->
          Error
            (Printf.sprintf "unknown node %S in %s (labels: %s)" spec
               (Dataflow.Csdfg.name g)
               (String.concat " "
                  (List.map (Dataflow.Csdfg.label g) (Dataflow.Csdfg.nodes g)))))

let explain_cmd =
  let node_arg =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"NODE" ~doc:"Node label (or integer id) to explain.")
  in
  let run spec node_spec arch mode passes slowdown speeds =
    let g = prepared spec slowdown in
    let topo = or_die (parse_arch arch) in
    let speeds = or_die (parse_speeds topo speeds) in
    let node = or_die (resolve_node g node_spec) in
    let r, journal =
      with_journal @@ fun () ->
      Cyclo.Compaction.run_on ~mode ?speeds ?passes g topo
    in
    let best = r.Cyclo.Compaction.best in
    Fmt.pr "workload %s on %s: start-up length %d, compacted length %d@."
      (Dataflow.Csdfg.name g) (Topology.name topo)
      (Cyclo.Schedule.length r.Cyclo.Compaction.startup)
      (Cyclo.Schedule.length best);
    Fmt.pr "%a@." Cyclo.Analysis.pp_explanation
      (Cyclo.Analysis.explain ~journal best ~node)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Replay the scheduler with the decision journal on and show why \
             one node landed where it did: the slots it was refused (with \
             communication-bound, occupancy or tie-break reasons), its \
             priority components at selection, and how compaction moved it.")
    Term.(const run $ graph_arg $ node_arg $ arch_arg $ mode_arg $ passes_arg
          $ slowdown_arg $ speeds_arg)

let report_cmd =
  let svg_arg =
    Arg.(value & opt (some string) None
         & info [ "svg" ] ~docv:"FILE.svg"
             ~doc:"Also write the traffic heatmap as a standalone SVG.")
  in
  let topk_arg =
    Arg.(value & opt int 5
         & info [ "k"; "top" ] ~docv:"K"
             ~doc:"Entries in the top-k blocking lists (default 5).")
  in
  let startup_flag =
    Arg.(value & flag
         & info [ "startup" ]
             ~doc:"Analyse the start-up schedule instead of the compacted \
                   one.")
  in
  let measure_arg =
    Arg.(value & opt (some int) None
         & info [ "measure" ] ~docv:"N"
             ~doc:"Also execute the schedule for $(docv) iterations on the \
                   event-driven simulator (FIFO links, store-and-forward) \
                   and add measured-vs-static columns.")
  in
  let run spec arch mode passes slowdown speeds k svg startup_only measure =
    let g = prepared spec slowdown in
    let topo = or_die (parse_arch arch) in
    let speeds = or_die (parse_speeds topo speeds) in
    let r, journal =
      with_journal @@ fun () ->
      Cyclo.Compaction.run_on ~mode ?speeds ?passes g topo
    in
    let sched =
      if startup_only then r.Cyclo.Compaction.startup
      else r.Cyclo.Compaction.best
    in
    let measured =
      Option.map
        (fun iterations ->
          if iterations < 1 then or_die (Error "--measure needs N >= 1");
          let s =
            Machine.Simulator.execute ~policy:Machine.Simulator.Fifo_links
              sched topo ~iterations
          in
          {
            Cyclo.Analysis.iterations;
            policy = "fifo-links";
            makespan = s.Machine.Simulator.makespan;
            period = s.Machine.Simulator.average_period;
            slowdown = Machine.Simulator.slowdown s sched;
            messages = s.Machine.Simulator.messages;
            hops = s.Machine.Simulator.message_hops;
            backlog = s.Machine.Simulator.max_link_backlog;
            per_pe_util = s.Machine.Simulator.per_pe_utilization;
          })
        measure
    in
    Fmt.pr "%a@." Cyclo.Analysis.pp_report
      (Cyclo.Analysis.report ~topo ~journal ?measured ~k sched);
    match svg with
    | Some path ->
        Cyclo.Export.write_file ~path (Cyclo.Analysis.traffic_svg sched);
        Fmt.pr "wrote %s@." path
    | None -> ()
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Schedule analytics: per-PE occupancy timelines, the traffic \
             matrix and per-link load, iteration-bound gap attribution, and \
             the top blocking edges and hardest placements.")
    Term.(const run $ graph_arg $ arch_arg $ mode_arg $ passes_arg
          $ slowdown_arg $ speeds_arg $ topk_arg $ svg_arg $ startup_flag
          $ measure_arg)

let diff_cmd =
  let pos_file p docv =
    Arg.(required & pos p (some string) None
         & info [] ~docv
             ~doc:"Schedule JSON produced by $(b,ccsched export -f json).")
  in
  let read_file path =
    match
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | text -> text
    | exception Sys_error msg -> or_die (Error msg)
  in
  let load path =
    match Obs.Json.parse (read_file path) with
    | Ok json -> json
    | Error msg -> or_die (Error (Printf.sprintf "%s: %s" path msg))
  in
  let field path name conv json =
    match Option.bind (Obs.Json.member name json) conv with
    | Some v -> v
    | None ->
        or_die
          (Error (Printf.sprintf "%s: missing or malformed field %S" path name))
  in
  let assignments path json =
    field path "assignments" Obs.Json.to_list json
    |> List.map (fun item ->
           ( field path "node" Obs.Json.to_str item,
             ( field path "cb" Obs.Json.to_int item,
               field path "pe" Obs.Json.to_int item ) ))
  in
  let run a_path b_path =
    let a = load a_path and b = load b_path in
    let summary path json =
      Printf.sprintf "%s on %s, length %d, %d processors, %d nodes"
        (field path "graph" Obs.Json.to_str json)
        (field path "comm" Obs.Json.to_str json)
        (field path "length" Obs.Json.to_int json)
        (field path "processors" Obs.Json.to_int json)
        (List.length (assignments path json))
    in
    Fmt.pr "A %s: %s@." a_path (summary a_path a);
    Fmt.pr "B %s: %s@." b_path (summary b_path b);
    if
      field a_path "graph" Obs.Json.to_str a
      <> field b_path "graph" Obs.Json.to_str b
    then Fmt.pr "warning: schedules are for different graphs@.";
    let la = field a_path "length" Obs.Json.to_int a in
    let lb = field b_path "length" Obs.Json.to_int b in
    if la = lb then Fmt.pr "length: unchanged (%d)@." la
    else
      Fmt.pr "length: %d -> %d (%+d, %.1f%%)@." la lb (lb - la)
        (100. *. float_of_int (lb - la) /. float_of_int (max 1 la));
    let asg_a = assignments a_path a and asg_b = assignments b_path b in
    let tbl = Hashtbl.create 32 in
    List.iter (fun (node, slot) -> Hashtbl.replace tbl node slot) asg_a;
    let moved = ref 0 and same = ref 0 and added = ref [] in
    List.iter
      (fun (node, (cb_b, pe_b)) ->
        match Hashtbl.find_opt tbl node with
        | Some (cb_a, pe_a) ->
            Hashtbl.remove tbl node;
            if cb_a = cb_b && pe_a = pe_b then incr same
            else begin
              if !moved = 0 then Fmt.pr "moved nodes:@.";
              incr moved;
              Fmt.pr "  %-8s cs %d pe%d -> cs %d pe%d%s@." node cb_a pe_a cb_b
                pe_b
                (if pe_a <> pe_b then "  (changed processor)" else "")
            end
        | None -> added := node :: !added)
      asg_b;
    let removed = Hashtbl.fold (fun node _ acc -> node :: acc) tbl [] in
    if !added <> [] then
      Fmt.pr "only in B: %s@." (String.concat " " (List.rev !added));
    if removed <> [] then
      Fmt.pr "only in A: %s@." (String.concat " " (List.sort compare removed));
    Fmt.pr "summary: %d unchanged, %d moved, %d added, %d removed@." !same
      !moved (List.length !added) (List.length removed)
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Compare two exported schedule JSON files: length change, \
             per-node placement moves, and nodes present in only one.")
    Term.(const run $ pos_file 0 "A.json" $ pos_file 1 "B.json")

(* ------------------------------------------------------------------ *)
(* Scheduling as a service: serve / client                              *)
(* ------------------------------------------------------------------ *)

let socket_arg =
  let doc = "Unix-domain socket path the daemon listens on." in
  Arg.(value & opt string "/tmp/ccsched.sock"
       & info [ "s"; "socket" ] ~docv:"PATH" ~doc)

let serve_cmd =
  let cache_arg =
    Arg.(value & opt int 256
         & info [ "cache" ] ~docv:"N"
             ~doc:"Schedule-cache bound: keep at most $(docv) cached \
                   schedules, evicting least-recently-used beyond it.")
  in
  let max_clients_arg =
    Arg.(value & opt int 64
         & info [ "max-clients" ] ~docv:"N"
             ~doc:"Refuse connections beyond $(docv) concurrent clients.")
  in
  let max_queue_arg =
    Arg.(value & opt int 1024
         & info [ "max-queue" ] ~docv:"N"
             ~doc:"Admit at most $(docv) request lines per event-loop \
                   iteration; the excess is shed with typed $(b,overloaded) \
                   error replies carrying a retry_after_ms backoff hint.")
  in
  let default_deadline_arg =
    Arg.(value & opt (some int) None
         & info [ "default-deadline" ] ~docv:"MS"
             ~doc:"Computation budget in milliseconds applied to every \
                   schedule/replan request that carries no \
                   $(b,\"deadline_ms\") of its own; expiry yields a typed \
                   $(b,deadline_exceeded) error reply.")
  in
  let state_arg =
    Arg.(value & opt (some string) None
         & info [ "state" ] ~docv:"DIR"
             ~doc:"Crash-safe warm restart: journal committed cache entries \
                   to $(docv)/state.ccsj and replay them on startup, so a \
                   restarted daemon answers previously-cached sessions \
                   byte-identically (as cached:true hits) and replans \
                   against pre-crash session ids still work.")
  in
  let log_arg =
    Arg.(value & opt (some string) None
         & info [ "log" ] ~docv:"FILE"
             ~doc:"Append one structured NDJSON line (schema ccsched-log/1) \
                   per request, reply, eviction, replan and client event to \
                   $(docv); $(b,-) logs to stderr.")
  in
  let log_level_arg =
    Arg.(value
         & opt (enum [ ("debug", Obs.Log.Debug); ("info", Obs.Log.Info);
                       ("warn", Obs.Log.Warn); ("error", Obs.Log.Error) ])
             Obs.Log.Info
         & info [ "log-level" ] ~docv:"LEVEL"
             ~doc:"Minimum level written to --log: $(b,debug), $(b,info) \
                   (default), $(b,warn) or $(b,error).")
  in
  let run socket cache max_clients max_queue default_deadline state domains
      log log_level profile metrics =
    if cache < 1 then die 2 "--cache needs N >= 1";
    if max_clients < 1 then die 2 "--max-clients needs N >= 1";
    if max_queue < 1 then die 2 "--max-queue needs N >= 1";
    (match default_deadline with
    | Some ms when ms < 1 -> die 2 "--default-deadline needs MS >= 1"
    | _ -> ());
    let cfg =
      { (Service.Server.default_config ~socket_path:socket) with
        capacity = cache;
        domains;
        max_clients;
        max_queue;
        default_deadline_ms = default_deadline;
        state_dir = state;
        (* The daemon owns its process: SIGTERM/SIGINT drain and unlink
           the socket instead of killing mid-reply. *)
        handle_signals = true;
      }
    in
    with_observability ~profile ~metrics @@ fun () ->
    (* The daemon always keeps the registries live: `metrics` scrapes
       and `ccsched top` must see them without any flag, and the
       counters never touch reply bytes (golden replies are pinned with
       telemetry enabled). *)
    Obs.Counters.enable ();
    Obs.Histogram.enable ();
    let log_sink =
      Option.map
        (fun path ->
          if path = "-" then (stderr, false)
          else (open_out_gen [ Open_append; Open_creat ] 0o644 path, true))
        log
    in
    (match log_sink with
    | Some (oc, _) ->
        Obs.Log.enable ~level:log_level (fun line ->
            output_string oc line;
            output_char oc '\n';
            flush oc)
    | None -> ());
    let on_ready () =
      Fmt.pr "ccsched: listening on %s (rpc %s, cache %d)@." socket
        Service.Protocol.version cache;
      (* clients started right after us poll stdout for this line *)
      flush stdout
    in
    let result = Service.Server.run ~on_ready cfg in
    (match log_sink with
    | Some (oc, close) ->
        Obs.Log.disable ();
        if close then close_out oc
    | None -> ());
    match result with
    | Ok () -> Fmt.pr "ccsched: shut down cleanly@."
    | Error msg -> die 2 msg
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the scheduling daemon: a Unix-domain-socket NDJSON server \
             (protocol ccsched-rpc/1, see docs/service.md) with a \
             content-addressed schedule cache, live replan, always-on \
             telemetry (metrics/health requests, optional --log), \
             admission control (--max-queue), request deadlines \
             (--default-deadline) and crash-safe warm restart (--state).")
    Term.(const run $ socket_arg $ cache_arg $ max_clients_arg
          $ max_queue_arg $ default_deadline_arg $ state_arg $ domains_arg
          $ log_arg $ log_level_arg $ profile_arg $ metrics_flag)

let client_cmd =
  let graph_opt_arg =
    let doc =
      "Workload name or .csdfg file path to schedule (omit when using \
       $(b,--replan), $(b,--stats), $(b,--metrics), $(b,--health), \
       $(b,--shutdown) or $(b,--stdin))."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"GRAPH" ~doc)
  in
  let replan_arg =
    Arg.(value & opt (some string) None
         & info [ "replan" ] ~docv:"SESSION"
             ~doc:"Replan the cached schedule $(docv) (a session id from an \
                   earlier reply) around the faults in --fail-pe/--fail-link.")
  in
  let fail_pe_arg =
    Arg.(value & opt_all int []
         & info [ "fail-pe" ] ~docv:"P"
             ~doc:"Fail-stop processor $(docv) (1-based; repeatable).")
  in
  let fail_link_arg =
    Arg.(value & opt_all (pair ~sep:',' int int) []
         & info [ "fail-link" ] ~docv:"A,B"
             ~doc:"Cut the link between processors A and B (1-based; \
                   repeatable).")
  in
  let stats_flag =
    Arg.(value & flag
         & info [ "stats" ] ~doc:"Ask the daemon for its cache statistics.")
  in
  let metrics_req_flag =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"Scrape the daemon's telemetry registries and print the \
                   Prometheus text exposition payload (format v0.0.4).")
  in
  let health_flag =
    Arg.(value & flag
         & info [ "health" ]
             ~doc:"Ask the daemon for its health summary: build, uptime, \
                   cache hit-rate and occupancy, queue depth, active \
                   clients, last replan verdict.")
  in
  let trace_rpc_flag =
    Arg.(value & flag
         & info [ "trace" ]
             ~doc:"Send schedule/replan requests with $(b,\"trace\":true): \
                   the reply carries a per-stage span breakdown \
                   (nanoseconds), otherwise byte-identical.")
  in
  let shutdown_flag =
    Arg.(value & flag
         & info [ "shutdown" ] ~doc:"Ask the daemon to shut down cleanly.")
  in
  let stdin_flag =
    Arg.(value & flag
         & info [ "stdin" ]
             ~doc:"Raw mode: forward each line on stdin to the daemon as-is \
                   and print each raw reply line (for scripting and fuzzing).")
  in
  let wormhole_flag =
    Arg.(value & flag
         & info [ "wormhole" ]
             ~doc:"Wormhole transport (hops + volume - 1) instead of \
                   store-and-forward.")
  in
  let deadline_arg =
    Arg.(value & opt (some int) None
         & info [ "deadline" ] ~docv:"MS"
             ~doc:"Attach $(b,\"deadline_ms\"): the server abandons the \
                   schedule/replan computation after $(docv) milliseconds \
                   with a typed $(b,deadline_exceeded) error reply (carrying \
                   the best-so-far length when the search got that far).")
  in
  let retry_arg =
    Arg.(value & opt int 0
         & info [ "retry" ] ~docv:"N"
             ~doc:"Retry transport-level failures (connection refused, peer \
                   vanished mid-conversation) up to $(docv) times with \
                   jittered exponential backoff.  Typed server errors — \
                   including $(b,overloaded) and $(b,deadline_exceeded) — \
                   are definitive answers and are never retried.")
  in
  (* An error reply is a completed RPC, but the CLI keeps its exit-code
     discipline: malformed payloads are 3, requests the server refused
     are 2 (including overloaded shedding — the request never ran),
     server-side failures are 1 (internal, deadline_exceeded) —
     docs/cli.md. *)
  let exit_code_of_error_code = function
    | "parse" | "bad_graph" -> 3
    | "version" | "bad_request" | "unknown_session" | "overloaded" -> 2
    | _ -> 1
  in
  let reply_exit line =
    match Service.Protocol.parse_reply line with
    | Ok (Service.Protocol.Error_reply { err; _ }) ->
        exit_code_of_error_code err.Service.Protocol.code
    | Ok _ -> 0
    | Error msg -> die 3 ("malformed reply: " ^ msg)
  in
  let run socket graph arch mode passes slowdown speeds wormhole deadline
      retry replan fail_pes fail_links stats metrics health trace shutdown
      stdin_mode =
    if retry < 0 then die 2 "--retry needs N >= 0";
    (match deadline with
    | Some ms when ms < 1 -> die 2 "--deadline needs MS >= 1"
    | _ -> ());
    let seed = Unix.getpid () lxor (Obs.Trace.now_ns () land 0xFFFFFF) in
    let conn = Service.Client.retrying ~retries:retry ~seed socket in
    let die_client e =
      (* A connection that never came up is a usage problem (exit 2);
         a peer lost or garbled mid-conversation is malformed input
         from the network (exit 3). *)
      match e with
      | Service.Client.Connect_failed _ ->
          die 2 (Service.Client.error_to_string e)
      | _ -> die 3 (Service.Client.error_to_string e)
    in
    let rpc conn line = Service.Client.retrying_rpc_line conn line in
    let rpc_or_die line =
      match rpc conn line with
      | Ok reply ->
          print_string reply;
          print_newline ();
          reply_exit reply
      | Error e -> die_client e
    in
    let worst = ref 0 in
    let send line = worst := max !worst (rpc_or_die line) in
    let next_id =
      let n = ref 0 in
      fun () -> incr n; !n
    in
    let send_request ?trace request =
      send
        (Service.Protocol.request_to_json ?trace ~id:(next_id ()) request)
    in
    if stdin_mode then begin
      (try
         while true do
           send (input_line stdin)
         done
       with End_of_file -> ())
    end
    else begin
      let ops =
        (if graph <> None then 1 else 0)
        + (if replan <> None then 1 else 0)
        + (if stats then 1 else 0)
        + (if metrics then 1 else 0)
        + (if health then 1 else 0)
        + if shutdown then 1 else 0
      in
      if ops = 0 then
        die 2
          "nothing to send: give a GRAPH, --replan, --stats, --metrics, \
           --health or --shutdown";
      (match graph with
      | Some spec ->
          let graph_spec =
            if Workloads.Suite.find spec <> None then
              Service.Protocol.Workload spec
            else if Sys.file_exists spec then
              match
                let ic = open_in spec in
                Fun.protect
                  ~finally:(fun () -> close_in ic)
                  (fun () -> really_input_string ic (in_channel_length ic))
              with
              | text -> Service.Protocol.Inline text
              | exception Sys_error msg -> die 3 msg
            else
              die 2
                (Printf.sprintf
                   "unknown workload %S (try `ccsched list` or a .csdfg file \
                    path)"
                   spec)
          in
          let knobs =
            {
              Service.Protocol.mode;
              passes;
              speeds =
                (match speeds with
                | None -> None
                | Some text -> (
                    (* validated server-side against the topology *)
                    let parsed =
                      String.split_on_char ',' text
                      |> List.map int_of_string_opt
                    in
                    if List.exists Option.is_none parsed then
                      die 2 (Printf.sprintf "bad --speeds %S" text)
                    else Some (Array.of_list (List.map Option.get parsed))));
              slowdown;
              transport =
                (if wormhole then Cyclo.Cachekey.Wormhole
                 else Cyclo.Cachekey.Store_and_forward);
              deadline_ms = deadline;
            }
          in
          send_request ~trace
            (Service.Protocol.Schedule { graph = graph_spec; arch; knobs })
      | None -> ());
      (match replan with
      | Some session ->
          if fail_pes = [] && fail_links = [] then
            die 2 "--replan needs at least one --fail-pe or --fail-link";
          send_request ~trace
            (Service.Protocol.Replan
               { session; fail_pes; fail_links; deadline_ms = deadline })
      | None -> ());
      if stats then send_request Service.Protocol.Stats;
      if metrics then begin
        (* decode the scrape and print the exposition text itself, not
           the JSON envelope — pipeable straight into a Prometheus tool *)
        let line =
          Service.Protocol.request_to_json ~id:(next_id ())
            Service.Protocol.Metrics
        in
        match rpc conn line with
        | Ok reply -> (
            match Service.Protocol.parse_reply reply with
            | Ok (Service.Protocol.Metrics_reply { body; _ }) ->
                print_string body
            | Ok (Service.Protocol.Error_reply { err; _ }) ->
                worst :=
                  max !worst
                    (exit_code_of_error_code err.Service.Protocol.code)
            | Ok _ -> die 3 "malformed reply: expected a metrics reply"
            | Error msg -> die 3 ("malformed reply: " ^ msg))
        | Error e -> die_client e
      end;
      if health then send_request Service.Protocol.Health;
      if shutdown then send_request Service.Protocol.Shutdown
    end;
    Service.Client.retrying_close conn;
    if !worst <> 0 then exit !worst
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Talk to a running ccsched daemon: submit schedule and replan \
             requests, read cache statistics, or shut it down.  Prints one \
             raw reply line per request (see docs/service.md).")
    Term.(const run $ socket_arg $ graph_opt_arg $ arch_arg $ mode_arg
          $ passes_arg $ slowdown_arg $ speeds_arg $ wormhole_flag
          $ deadline_arg $ retry_arg
          $ replan_arg $ fail_pe_arg $ fail_link_arg $ stats_flag
          $ metrics_req_flag $ health_flag $ trace_rpc_flag
          $ shutdown_flag $ stdin_flag)

let top_cmd =
  let interval_arg =
    Arg.(value & opt float 2.0
         & info [ "i"; "interval" ] ~docv:"SECONDS"
             ~doc:"Seconds between scrapes (default 2).")
  in
  let once_flag =
    Arg.(value & flag
         & info [ "once" ]
             ~doc:"Take two scrapes one interval apart, print one plain \
                   dashboard (no screen clearing), exit.")
  in
  let count_arg =
    Arg.(value & opt (some int) None
         & info [ "count" ] ~docv:"N"
             ~doc:"Stop after $(docv) dashboard refreshes (default: run \
                   until interrupted).")
  in
  let run socket interval once count =
    let module SP = Service.Protocol in
    if interval <= 0. then die 2 "--interval needs a positive duration";
    (match count with
    | Some n when n < 1 -> die 2 "--count needs N >= 1"
    | _ -> ());
    let conn =
      match Service.Client.connect socket with
      | Ok c -> c
      | Error e -> die 2 (Service.Client.error_to_string e)
    in
    let next_id =
      let n = ref 0 in
      fun () -> incr n; !n
    in
    let request req =
      let line = SP.request_to_json ~id:(next_id ()) req in
      match Service.Client.rpc_line conn line with
      | Ok reply -> (
          match SP.parse_reply reply with
          | Ok (SP.Error_reply { err; _ }) ->
              die 1 (err.SP.code ^ ": " ^ err.SP.message)
          | Ok r -> r
          | Error msg -> die 3 ("malformed reply: " ^ msg))
      | Error e -> die 3 (Service.Client.error_to_string e)
    in
    (* One scrape = health + metrics, wall-clock stamped for rates. *)
    let scrape () =
      let health =
        match request SP.Health with
        | SP.Health_reply { health; _ } -> health
        | _ -> die 3 "malformed reply: expected a health reply"
      in
      let families =
        match request SP.Metrics with
        | SP.Metrics_reply { body; _ } -> (
            match Obs.Exposition.parse body with
            | Ok fams -> fams
            | Error msg -> die 3 ("invalid exposition payload: " ^ msg))
        | _ -> die 3 "malformed reply: expected a metrics reply"
      in
      (Unix.gettimeofday (), health, families)
    in
    let pp_ns ns =
      if ns >= 1e9 then Printf.sprintf "%.2fs" (ns /. 1e9)
      else if ns >= 1e6 then Printf.sprintf "%.2fms" (ns /. 1e6)
      else if ns >= 1e3 then Printf.sprintf "%.1fus" (ns /. 1e3)
      else Printf.sprintf "%.0fns" ns
    in
    let render ~clear (t1, _, f1) (t2, h, f2) =
      let dt = Float.max 1e-9 (t2 -. t1) in
      let d = Obs.Exposition.delta ~prev:f1 f2 in
      let value_of fams raw =
        Option.value ~default:0.
          (Obs.Exposition.value fams (Obs.Exposition.metric_name raw))
      in
      let req_rate = value_of d "service.requests" /. dt in
      let dh = value_of d "service.cache_hits"
      and dm = value_of d "service.cache_misses" in
      let quantile_of raw q =
        (* prefer the between-scrapes window; before any window traffic,
           fall back to the lifetime histogram *)
        let name = Obs.Exposition.metric_name raw in
        let pick fams =
          match Obs.Exposition.find fams name with
          | Some fam -> Obs.Exposition.histogram_quantile fam q
          | None -> None
        in
        match pick d with Some v -> Some v | None -> pick f2
      in
      let quantile q = quantile_of "service.request_latency" q in
      let pp_quantile = function
        | Some v when v = infinity -> ">2^63ns"
        | Some v -> pp_ns v
        | None -> "-"
      in
      if clear then print_string "\027[2J\027[H";
      Fmt.pr "ccsched top — %s, up %s  (%.1fs window)@." h.SP.build
        (pp_ns (float_of_int h.SP.uptime_ns))
        dt;
      Fmt.pr "requests      %d total, %.1f/s@." h.SP.rpc_requests req_rate;
      if dh +. dm > 0. then
        Fmt.pr "hit rate      %.1f%% window, %.1f%% lifetime@."
          (100. *. dh /. (dh +. dm))
          (100. *. h.SP.hit_rate)
      else Fmt.pr "hit rate      - window, %.1f%% lifetime@." (100. *. h.SP.hit_rate);
      Fmt.pr "latency       p50 %s, p99 %s@."
        (pp_quantile (quantile 0.5))
        (pp_quantile (quantile 0.99));
      Fmt.pr "load          queue depth %d, active clients %d@."
        h.SP.queue_depth h.SP.active_clients;
      Fmt.pr "backpressure  %.0f shed (%.1f/s window), %.0f slow clients, \
              queue wait p50 %s@."
        (value_of f2 "service.shed_requests")
        (value_of d "service.shed_requests" /. dt)
        (value_of f2 "service.slow_clients")
        (pp_quantile (quantile_of "service.queue_wait" 0.5));
      let pp_mb b = Printf.sprintf "%.1f MB" (float_of_int b /. 1048576.) in
      Fmt.pr "memory        rss %s (peak %s), heap %s, gc %.1f minor/s %.2f \
              major/s@."
        (pp_mb h.SP.rss_bytes)
        (pp_mb h.SP.peak_rss_bytes)
        (pp_mb (h.SP.heap_words * (Sys.word_size / 8)))
        (value_of d "gc.minor_collections" /. dt)
        (value_of d "gc.major_collections" /. dt);
      Fmt.pr "cache         %d/%d entries, %.0f evictions@." h.SP.cache_entries
        h.SP.cache_capacity
        (value_of f2 "service.cache_evictions");
      Fmt.pr "last replan   %s@." h.SP.last_replan;
      flush stdout
    in
    if once then begin
      let s1 = scrape () in
      Unix.sleepf interval;
      render ~clear:false s1 (scrape ())
    end
    else begin
      let prev = ref (scrape ()) in
      let shown = ref 0 in
      let continue () =
        match count with None -> true | Some k -> !shown < k
      in
      while continue () do
        Unix.sleepf interval;
        let cur = scrape () in
        render ~clear:true !prev cur;
        prev := cur;
        incr shown
      done
    end;
    Service.Client.close conn
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Live dashboard over a running daemon: poll health and metrics \
             every interval and show request rate, cache hit rate, latency \
             quantiles from histogram deltas, queue depth, active clients, \
             resident/heap memory with GC rates, cache occupancy and the \
             last replan verdict.  $(b,--once) prints a single plain \
             snapshot for scripts.")
    Term.(const run $ socket_arg $ interval_arg $ once_flag $ count_arg)

let () =
  let info =
    Cmd.info "ccsched" ~version:"1.0.0"
      ~doc:
        "Architecture-dependent loop scheduling via communication-sensitive \
         remapping (cyclo-compaction), after Tongsima, Passos & Sha, ICPP 1995."
  in
  let group =
    Cmd.group info
      [ list_cmd; show_cmd; schedule_cmd; compare_cmd; export_cmd;
        simulate_cmd; faultsim_cmd; pipeline_cmd; autotune_cmd; partition_cmd;
        optimal_cmd; validate_cmd; explain_cmd; report_cmd; diff_cmd;
        serve_cmd; client_cmd; top_cmd ]
  in
  (* ~catch:false so unexpected exceptions reach us: report one line on
     stderr, no backtrace, exit 1.  Cmdliner's own CLI-parse failures
     are remapped onto the documented usage code 2. *)
  let code =
    try Cmd.eval ~catch:false group with
    | e ->
        Fmt.epr "ccsched: internal error: %s@." (Printexc.to_string e);
        1
  in
  exit (if code = Cmd.Exit.cli_error then 2 else code)

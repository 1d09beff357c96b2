(* simulate: compacted schedules executed by Machine.Simulator for a
   fixed number of iterations.  One repetition runs every schedule under
   {contention-free, FIFO links} x {store-and-forward, wormhole}, plus
   fault runs (an armed empty scenario, a fail-stop of processor 3 and a
   lossy link) under both policies, so both simulator engines are timed:
   the clean one and the per-hop faulty one. *)

open Cyclo
module U = Util
module S = Machine.Simulator
module F = Machine.Faults

let arch = "mesh:2x4"
let iterations = 40

(* The same scenario as data/pe3-failstop.fault. *)
let pe3_failstop = "scenario pe3-failstop\ndetect 2\nfail-pe 3 at 40\n"

type subject = {
  dfg : Dataflow.Csdfg.t;
  saf : Schedule.t;  (** compacted for store-and-forward costs *)
  wh : Schedule.t;  (** compacted for wormhole costs *)
  ratio : float;  (** geomean of both schedules' length over start-up's *)
}

let topo =
  match Topology.of_spec arch with Ok t -> t | Error e -> failwith e

(* The five paper workloads the service's hot set uses, plus 24
   seeded random graphs, as .csdfg text; each is compacted under both
   transports.  The fixed graphs anchor the cost of a repetition, and
   averaging many small random ones damps the rest. *)
let graphs ?(random = 24) ~seed () =
  let rng = Random.State.make [| seed; 0x73696d |] in
  let random_graph _ =
    Workloads.Random_gen.generate_connected ~seed:(Random.State.bits rng) ()
  in
  List.map
    (fun g -> Dataflow.Io.of_string_exn (Dataflow.Io.to_string g))
    (List.map
       (fun w -> Option.get (Workloads.Suite.find w))
       [ "fig7"; "elliptic"; "lattice"; "lms4"; "diffeq" ]
    @ List.init random random_graph)

let compact dfg =
  let saf = Compaction.run dfg (Comm.of_topology topo)
  and wh = Compaction.run dfg (Comm.wormhole topo) in
  let ratio (r : Compaction.result) =
    float (Schedule.length r.Compaction.best)
    /. float (Schedule.length r.Compaction.startup)
  in
  {
    dfg;
    saf = saf.Compaction.best;
    wh = wh.Compaction.best;
    ratio = sqrt (ratio saf *. ratio wh);
  }

let setup ?random ~seed () =
  U.timed_s (fun () -> List.map compact (graphs ?random ~seed ()))

let scenarios =
  let parse s =
    match F.of_string s with Ok sc -> sc | Error e -> failwith (F.error_to_string e)
  in
  [
    ("empty", F.scenario ~name:"empty" []);
    ("pe3-failstop", parse pe3_failstop);
    ( "lossy",
      F.scenario ~name:"lossy" [ F.Link_lossy { a = 0; b = 1; loss = 0.1 } ] );
  ]

let policies = [ ("cf", S.Contention_free); ("fifo", S.Fifo_links) ]

(* One repetition; returns (clean ns, fault ns, iterations per kind).
   [seed] seeds the fault runs' loss draws. *)
let rep ~seed subjects =
  let clean_ns = ref 0 and fault_ns = ref 0 in
  List.iter
    (fun s ->
      List.iter
        (fun (pname, policy) ->
          let run transport sched =
            let st, ns =
              U.timed (fun () -> S.execute ~policy ~transport sched topo ~iterations)
            in
            clean_ns := !clean_ns + ns;
            if policy = S.Contention_free then
              U.check
                (st.S.makespan <= S.static_bound sched ~iterations)
                (Printf.sprintf "simulate %s %s: makespan above the static bound"
                   (Dataflow.Csdfg.name s.dfg) pname);
            st
          in
          let clean = run S.Store_and_forward s.saf in
          ignore (run S.Wormhole s.wh);
          List.iteri
            (fun i (name, sc) ->
              let st, ns =
                U.timed (fun () ->
                    S.execute ~policy
                      ~faults:(F.arm ~seed:((seed * 3) + i) sc)
                      s.saf topo ~iterations)
              in
              fault_ns := !fault_ns + ns;
              (* The repository pins the empty-scenario equivalence for
                 the contention-free policy; under FIFO links the two
                 engines diverge, which [fifo_divergence] reports. *)
              U.check
                (st.S.faults <> None
                && (name <> "empty"
                   || policy = S.Fifo_links
                   || st.S.makespan = clean.S.makespan))
                (Printf.sprintf "simulate %s %s %s: fault run"
                   (Dataflow.Csdfg.name s.dfg) pname name))
            scenarios)
        policies)
    subjects;
  let per_graph = List.length policies in
  let n = List.length subjects in
  (!clean_ns, !fault_ns, 2 * per_graph * n * iterations,
   List.length scenarios * per_graph * n * iterations)

let measure ~seed ~seconds =
  let subjects, t = setup ~seed () in
  let setups = U.Samples.create () in
  U.Samples.add setups t;
  let deadline_ns = U.now_ns () + int_of_float (seconds *. 1e9) in
  let reps = U.Samples.create () in
  let rec go k =
    (* Set-up is repeated every fourth repetition: the host's speed
       drifts over a run, and the median of these spans it as the
       timed metrics do. *)
    if k mod 4 = 3 then U.Samples.add setups (snd (setup ~seed ()));
    let _, ns = U.timed (fun () -> rep ~seed subjects) in
    U.Samples.add reps (float ns);
    if U.now_ns () + ns <= deadline_ns then go (k + 1)
  in
  go 0;
  let reps = U.Samples.to_array reps in
  [
    U.metric "setup_s" "s" (U.median (U.Samples.to_array setups));
    (* one repetition: every schedule under every policy and fault run *)
    U.metric "latency_ms" "ms" (U.median reps /. 1e6);
    U.metric "len_ratio" "ratio"
      (U.geomean (Array.of_list (List.map (fun s -> s.ratio) subjects)));
    U.metric "peak_rss_mb" "MB" (U.peak_rss_mb ());
  ]

let events = Obs.Counters.counter "simulator.events"

(* Makespan of the per-hop engine under an armed empty scenario over the
   clean engine's, FIFO links, geometric mean over the schedules: 1.0
   when the two engines agree. *)
let fifo_divergence subjects =
  let empty = F.arm (F.scenario ~name:"empty" []) in
  U.geomean
    (Array.of_list
       (List.map
          (fun s ->
            let run ?faults () =
              (S.execute ~policy:S.Fifo_links ?faults s.saf topo ~iterations)
                .S.makespan
            in
            float (run ~faults:empty ()) /. float (run ()))
          subjects))

(* [quick] uses 4 random graphs instead of 24. *)
let traced ?(quick = false) ~seed ~seconds () =
  let subjects, _ =
    if quick then setup ~random:4 ~seed () else setup ~seed ()
  in
  (* tracing cost first: enabling drops any spans collected before *)
  let overhead =
    U.median
      (Array.init 3 (fun _ ->
           U.disable_obs ();
           let off = float (snd (U.timed (fun () -> rep ~seed subjects))) in
           U.enable_obs ();
           let on = float (snd (U.timed (fun () -> rep ~seed subjects))) in
           on /. off))
  in
  U.enable_obs ();
  let startup =
    U.span "startup" @@ fun () ->
    U.mean
      (Array.of_list
         (List.map
            (fun s ->
              let comm = Comm.of_topology topo in
              U.per_call (fun () -> ignore (Startup.run s.dfg comm))
              /. float (Dataflow.Csdfg.n_nodes s.dfg))
            subjects))
  in
  let deadline_ns = U.now_ns () + int_of_float (seconds *. 1e9) in
  let clean = ref 0 and fault = ref 0 and ci = ref 0 and fi = ref 0 in
  let reps = ref 0 and ev0 = Obs.Counters.value events in
  let rec go () =
    let (c, f, i, j), ns = U.span "rep" (fun () -> U.timed (fun () -> rep ~seed subjects)) in
    clean := !clean + c;
    fault := !fault + f;
    ci := !ci + i;
    fi := !fi + j;
    incr reps;
    if U.now_ns () + ns <= deadline_ns then go ()
  in
  go ();
  let ev = float (Obs.Counters.value events - ev0) in
  [
    U.metric "sim.iters_per_s" "1/s"
      (float (!ci + !fi) /. (float (!clean + !fault) /. 1e9));
    U.metric "simulator.ns_per_event" "ns" (float (!clean + !fault) /. ev);
    U.metric "simulator.clean_ns_per_iter" "ns" (float !clean /. float !ci);
    U.metric "simulator.fault_ns_per_iter" "ns" (float !fault /. float !fi);
    U.metric "simulator.events" "count" (ev /. float !reps);
    U.metric "simulator.fifo_empty_makespan_ratio" "ratio"
      (fifo_divergence subjects);
    U.metric "startup.ns_per_node" "ns" startup;
    U.metric "obs.trace_overhead" "ratio" overhead;
  ]

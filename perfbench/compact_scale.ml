(* compact-scale: start-up scheduling plus full cyclo-compaction (paper
   §4) of seeded layered graphs at 100, 200 and 400 nodes on linear:8
   and mesh:4x4, in process, one thread, default pass budget.  The
   optimizer's pass loop does nearly all the work here; the service and
   the simulator are bypassed. *)

open Cyclo
module U = Util

(* Graphs per size; each graph runs on one architecture, alternating,
   so a pass averages as many distinct graphs as its time allows.  The
   two 400-node graphs take half of a pass. *)
let sizes = [ (100, 16); (200, 8); (400, 2) ]
let archs = [| "linear:8"; "mesh:4x4" |]

type cell = {
  n : int;
  graph : int;
  arch : string;
  comm : Comm.t;
  dfg : Dataflow.Csdfg.t;
}

let topology arch =
  match Topology.of_spec arch with Ok t -> t | Error e -> failwith e

(* The graphs reach the scheduler as .csdfg text, the way a user's do. *)
let make_cells ~seed =
  List.concat_map
    (fun (n, count) ->
      List.map
        (fun graph ->
          let g =
            Workloads.Random_gen.layered ~nodes:n ~seed:((seed * 16) + graph) ()
          in
          let dfg = Dataflow.Io.of_string_exn (Dataflow.Io.to_string g) in
          let arch = archs.(graph mod Array.length archs) in
          { n; graph; arch; comm = Comm.of_topology (topology arch); dfg })
        (List.init count Fun.id))
    sizes

let label c = Printf.sprintf "n%d.%d/%s" c.n c.graph c.arch

(* One set-up, timed from a collected heap. *)
let setup ~seed =
  Gc.full_major ();
  U.timed_s (fun () -> make_cells ~seed)

let check_result c (r : Compaction.result) =
  let best = r.Compaction.best in
  U.check
    (Validator.check best = Ok ()
    && Schedule.assigned_all best
    && Schedule.length best <= Schedule.length r.Compaction.startup)
    (Printf.sprintf "compact-scale %s: best schedule illegal or longer than \
                     start-up" (label c))

let length_ratio (r : Compaction.result) =
  float (Schedule.length r.Compaction.best)
  /. float (Schedule.length r.Compaction.startup)

let measure ~seed ~seconds =
  let cells, t = setup ~seed in
  let setups = U.Samples.create () in
  U.Samples.add setups t;
  (* Largest first; each cell then gets an equal share of what is left
     of the run, and runs at least once. *)
  let deadline = U.now_ns () + int_of_float (seconds *. 1e9) in
  let per_cell =
    List.mapi
      (fun i c ->
        (* Set-up is cheap next to a cell, so it is repeated before each
           one: the host's speed drifts over a run, and the median of
           these spans it as the timed metrics do. *)
        U.Samples.add setups (snd (setup ~seed));
        let share = (deadline - U.now_ns ()) / (List.length cells - i) in
        let results = ref [] in
        let times =
          U.repeat_until ~deadline_ns:(U.now_ns () + share)
            (fun () -> results := Compaction.run c.dfg c.comm :: !results)
        in
        List.iter (check_result c) !results;
        let r = List.hd !results in
        (* the scheduler is deterministic: every repetition agrees *)
        U.check
          (List.for_all
             (fun r' ->
               Schedule.signature r'.Compaction.best
               = Schedule.signature r.Compaction.best)
             !results)
          (Printf.sprintf "compact-scale %s: repetitions disagree" (label c));
        (U.median times /. 1e9, length_ratio r))
      (List.rev cells)
  in
  [
    U.metric "setup_s" "s" (U.median (U.Samples.to_array setups));
    (* the time to schedule the whole graph set once *)
    U.metric "latency_ms" "ms"
      (1e3 *. List.fold_left (fun a (t, _) -> a +. t) 0. per_cell);
    U.metric "len_ratio" "ratio"
      (U.geomean (Array.of_list (List.map snd per_cell)));
    U.metric "peak_rss_mb" "MB" (U.peak_rss_mb ());
  ]

(* ---- traced run ------------------------------------------------------ *)

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Drive a stepper one pass at a time; returns the per-pass wall times,
   words allocated, a sample of intermediate states and the result. *)
let drive ~validate ~samples sched =
  let budget = Compaction.default_passes (Dataflow.Csdfg.n_nodes (Schedule.dfg sched)) in
  let st = Compaction.stepper ~budget ~validate sched in
  let every = max 1 (budget / samples) in
  let states = ref [] in
  let ns = ref 0 and words = ref 0. in
  let rec loop () =
    let w0 = alloc_words () in
    let status, dt = U.timed (fun () -> Compaction.advance ~passes:1 st) in
    words := !words +. (alloc_words () -. w0);
    ns := !ns + dt;
    if Compaction.passes_run st mod every = 0 then
      states := (Compaction.stepper_result st).Compaction.final :: !states;
    if status = `Paused then loop ()
  in
  loop ();
  (!ns, !words, !states, Compaction.stepper_result st)

let micro states =
  let rows =
    List.map
      (fun s ->
        let sn = Schedule.normalize s in
        let sn = Schedule.set_length sn (Timing.required_length sn) in
        let rot =
          match Rotation.start sn with Ok r -> Some r | Error _ -> None
        in
        ( U.per_call (fun () -> ignore (Schedule.normalize s)),
          U.per_call (fun () -> ignore (Schedule.hash s)),
          U.per_call (fun () -> ignore (Validator.check s)),
          U.per_call (fun () -> ignore (Rotation.start sn)),
          Option.map
            (fun rot ->
              U.per_call (fun () -> ignore (Remap.run Remap.With_relaxation rot)))
            rot ))
      states
  in
  let col f = U.mean (Array.of_list (List.map f rows)) in
  let remaps = List.filter_map (fun (_, _, _, _, r) -> r) rows in
  [
    U.metric "schedule.normalize_ns" "ns" (col (fun (a, _, _, _, _) -> a));
    U.metric "schedule.hash_ns" "ns" (col (fun (_, b, _, _, _) -> b));
    U.metric "validator.check_ns" "ns" (col (fun (_, _, c, _, _) -> c));
    U.metric "rotation.ns_per_call" "ns" (col (fun (_, _, _, d, _) -> d));
    U.metric "remap.ns_per_call" "ns" (U.mean (Array.of_list remaps));
  ]

let startup_ns_per_node cells =
  let per =
    List.map
      (fun c ->
        U.per_call ~reps:3 ~batch:2 (fun () -> ignore (Startup.run c.dfg c.comm))
        /. float c.n)
      cells
  in
  U.mean (Array.of_list per)

(* Tracing cost: two 100-node cells untraced against traced,
   alternated. *)
let trace_overhead cells =
  let small = List.filter (fun c -> c.n = 100 && c.graph < 2) cells in
  let run () = List.iter (fun c -> ignore (Compaction.run c.dfg c.comm)) small in
  let pairs =
    Array.init 3 (fun _ ->
        U.disable_obs ();
        let off = float (snd (U.timed run)) in
        U.enable_obs ();
        let on = float (snd (U.timed run)) in
        on /. off)
  in
  U.median pairs

type run = {
  cell : cell;
  on_ns : int;  (** stepper time with [~validate:true] *)
  off_ns : int;  (** the same search with [~validate:false] *)
  words : float;
  states : Schedule.t list;
  result : Compaction.result;
}

let passes r = List.length r.result.Compaction.trace

(* The pass that first reached the best length; 0 = the start-up
   schedule stayed best. *)
let best_pass r =
  let best = Schedule.length r.result.Compaction.best in
  if Schedule.length r.result.Compaction.startup = best then 0
  else
    (List.find (fun e -> e.Compaction.length = best) r.result.Compaction.trace)
      .Compaction.pass

(* [quick] keeps one graph per size, on linear:8 only. *)
let traced ?(quick = false) ~seed ~seconds:_ () =
  let cells, _ = setup ~seed in
  let cells =
    if quick then
      List.filter (fun c -> c.graph = 0 && c.arch = "linear:8") cells
    else cells
  in
  let overhead = trace_overhead cells in
  U.enable_obs ();
  let startup_ns = U.span "startup" (fun () -> startup_ns_per_node cells) in
  let runs =
    List.map
      (fun c ->
        U.span ("compact." ^ label c) @@ fun () ->
        let start = Startup.run c.dfg c.comm in
        let on_ns, words, states, result = drive ~validate:true ~samples:12 start in
        let off_ns, _, _, r_off = drive ~validate:false ~samples:1 start in
        check_result c result;
        U.check
          (Schedule.signature result.Compaction.best
          = Schedule.signature r_off.Compaction.best)
          (Printf.sprintf "compact-scale %s: validate:false changed the result"
             (label c));
        { cell = c; on_ns; off_ns; words; states; result })
      cells
  in
  let total ?(size = 0) f =
    List.fold_left
      (fun a r -> if size = 0 || r.cell.n = size then a +. f r else a)
      0. runs
  in
  let all_passes = total (fun r -> float (passes r)) in
  let per_pass n = total ~size:n (fun r -> float r.on_ns) /. total ~size:n (fun r -> float (passes r)) in
  let useful =
    total (fun r ->
        float
          (List.length
             (List.filter
                (fun e -> e.Compaction.outcome = Compaction.Compacted)
                r.result.Compaction.trace)))
  in
  let best_ratio =
    U.mean
      (Array.of_list
         (List.map (fun r -> float (best_pass r) /. float (max 1 (passes r))) runs))
  in
  let micro =
    U.span "micro" (fun () -> micro (List.concat_map (fun r -> r.states) runs))
  in
  [
    U.metric "compaction.ns_per_pass.n100" "ns" (per_pass 100);
    U.metric "compaction.ns_per_pass.n200" "ns" (per_pass 200);
    U.metric "compaction.ns_per_pass.n400" "ns" (per_pass 400);
    U.metric "compaction.alloc_words_per_pass" "words"
      (total (fun r -> r.words) /. all_passes);
    U.metric "validator.share" "ratio"
      (1. -. (total (fun r -> float r.off_ns) /. total (fun r -> float r.on_ns)));
    U.metric "compaction.useful_pass_ratio" "ratio" (useful /. all_passes);
    U.metric "compaction.best_pass_ratio" "ratio" best_ratio;
    U.metric "startup.ns_per_node" "ns" startup_ns;
    U.metric "obs.trace_overhead" "ratio" overhead;
  ]
  @ micro

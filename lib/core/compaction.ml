module Csdfg = Dataflow.Csdfg

type outcome = Compacted | Lateral | Expanded | Fell_back | Stuck

let pp_outcome ppf = function
  | Compacted -> Fmt.string ppf "compacted"
  | Lateral -> Fmt.string ppf "lateral"
  | Expanded -> Fmt.string ppf "expanded"
  | Fell_back -> Fmt.string ppf "fell-back"
  | Stuck -> Fmt.string ppf "stuck"

type trace_entry = {
  pass : int;
  rotated : string array;
  length : int;
  outcome : outcome;
}

type result = {
  startup : Schedule.t;
  best : Schedule.t;
  final : Schedule.t;
  trace : trace_entry list;
  converged : bool;
  timed_out : bool;
}

let default_passes n = max 16 (4 * n)

let classify ~previous ~next outcome_hint =
  match outcome_hint with
  | Some o -> o
  | None ->
      if next < previous then Compacted
      else if next = previous then Lateral
      else Expanded

let log_src = Logs.Src.create "cyclo.compaction" ~doc:"Cyclo-compaction passes"

module Log = (val Logs.src_log log_src : Logs.LOG)

let c_passes = Obs.Counters.counter "compaction.passes"
let g_best_length = Obs.Counters.gauge "compaction.best_length"
let c_compacted = Obs.Counters.counter "compaction.outcome.compacted"
let c_lateral = Obs.Counters.counter "compaction.outcome.lateral"
let c_expanded = Obs.Counters.counter "compaction.outcome.expanded"
let c_fell_back = Obs.Counters.counter "compaction.outcome.fell_back"
let c_stuck = Obs.Counters.counter "compaction.outcome.stuck"

let c_outcome = function
  | Compacted -> c_compacted
  | Lateral -> c_lateral
  | Expanded -> c_expanded
  | Fell_back -> c_fell_back
  | Stuck -> c_stuck

(* One pass: normalize, pad to the required length, rotate, remap.
   Returns the rotated set J with the result.  [padded] says [sched] is
   already at its required length (every pass result is), so when
   normalizing moves nothing the padding is not recomputed.  The caller
   opens the [compaction.pass] span, so the pass's bookkeeping falls
   under it too. *)
let run_pass ?scoring ?order ~padded mode sched =
  let normalized = Schedule.normalize sched in
  let sched =
    if padded && normalized == sched then sched
    else Schedule.set_length normalized (Timing.required_length normalized)
  in
  let rotated, result =
    match Rotation.start sched with
    | Error _ -> (Schedule.first_row sched, (sched, Stuck))
    | Ok rot -> (
        ( rot.Rotation.rotated,
          match Remap.run ?scoring ?order mode rot with
          | Remap.Remapped next ->
              ( next,
                classify ~previous:(Schedule.length sched)
                  ~next:(Schedule.length next) None )
          | Remap.Fallback next -> (next, Fell_back)
          | Remap.Stuck -> (sched, Stuck) ))
  in
  Obs.Counters.incr c_passes;
  Obs.Counters.incr (c_outcome (snd result));
  (rotated, result)

let pass ?scoring ?order mode sched =
  Obs.Trace.with_span "compaction.pass" @@ fun () ->
  snd (run_pass ?scoring ?order ~padded:false mode sched)

(* Resumable search state.  [drive] below is a thin wrapper that runs a
   stepper to completion in one call; Portfolio instead interleaves many
   steppers round-robin, pausing each after a fixed slice of passes.
   Both paths execute the identical pass sequence, so for any given
   knobs a stepper's trajectory is byte-identical however it is
   sliced. *)
type stepper = {
  sp_mode : Remap.mode;
  sp_scoring : Remap.scoring option;
  sp_order : Remap.order option;
  sp_budget : int;
  sp_validate : bool;
  sp_startup : Schedule.t;
  sp_seen : (int * int, unit) Hashtbl.t;
  mutable sp_sched : Schedule.t;
  mutable sp_padded : bool;  (* sp_sched is at its required length *)
  mutable sp_best : Schedule.t;
  mutable sp_trace : trace_entry list;  (* reversed *)
  mutable sp_next : int;  (* 1-based index of the next pass to run *)
  mutable sp_converged : bool;
  mutable sp_done : bool;
}

let stepper ?(mode = Remap.With_relaxation) ?scoring ?order ~budget
    ?(validate = true) startup =
  let seen : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.add seen (Schedule.state_key startup) ();
  {
    sp_mode = mode;
    sp_scoring = scoring;
    sp_order = order;
    sp_budget = budget;
    sp_validate = validate;
    sp_startup = startup;
    sp_seen = seen;
    sp_sched = startup;
    sp_padded = false;
    sp_best = startup;
    sp_trace = [];
    sp_next = 1;
    sp_converged = false;
    sp_done = false;
  }

let best_length st = Schedule.length st.sp_best
let best_schedule st = st.sp_best
let passes_run st = st.sp_next - 1
let finished st = st.sp_done

(* One pass of the stepper, validation and bookkeeping included, under
   one [compaction.pass] span; [true] when the search has converged. *)
let pass_once st =
  Obs.Trace.with_span "compaction.pass" @@ fun () ->
  let i = st.sp_next in
  let sched = st.sp_sched in
  let rotated, (next, outcome) =
    run_pass ?scoring:st.sp_scoring ?order:st.sp_order ~padded:st.sp_padded
      st.sp_mode sched
  in
  if st.sp_validate then
    Obs.Trace.with_span "compaction.validate" (fun () ->
        Validator.assert_legal next);
  Obs.Trace.with_span "compaction.state" @@ fun () ->
  let rotated = Array.map (Schedule.label sched) (Array.of_list rotated) in
  Log.debug (fun m ->
      m "pass %d: rotate {%s} -> length %d (%a)" i
        (String.concat " " (Array.to_list rotated))
        (Schedule.length next) pp_outcome outcome);
  let entry = { pass = i; rotated; length = Schedule.length next; outcome } in
  if Obs.Journal.enabled () then
    Obs.Journal.record
      (Obs.Journal.Pass
         {
           pass = i;
           length = Schedule.length next;
           outcome = Fmt.str "%a" pp_outcome outcome;
           binding = Analysis.binding_constraint next;
         });
  if Schedule.length next < Schedule.length st.sp_best then st.sp_best <- next;
  st.sp_sched <- next;
  st.sp_padded <- true;
  st.sp_trace <- entry :: st.sp_trace;
  st.sp_next <- i + 1;
  (* a state repeats when both the placement and the retimed delays
     repeat *)
  let key = Schedule.state_key next in
  if outcome = Stuck || Hashtbl.mem st.sp_seen key then begin
    st.sp_converged <- true;
    st.sp_done <- true;
    true
  end
  else begin
    Hashtbl.add st.sp_seen key ();
    false
  end

let advance ?should_stop ~passes st =
  let stop_at = st.sp_next + passes - 1 in
  let rec loop () =
    if st.sp_done then `Finished
    else if st.sp_next > st.sp_budget then begin
      st.sp_done <- true;
      `Finished
    end
    else if
      match should_stop with
      | Some f -> f ~pass:st.sp_next ~best:(Schedule.length st.sp_best)
      | None -> false
    then begin
      st.sp_done <- true;
      `Stopped
    end
    else if st.sp_next > stop_at then `Paused
    else if pass_once st then `Finished
    else loop ()
  in
  loop ()

let stepper_result st =
  Obs.Counters.set g_best_length (Schedule.length st.sp_best);
  {
    startup = st.sp_startup;
    best = st.sp_best;
    final = st.sp_sched;
    trace = List.rev st.sp_trace;
    converged = st.sp_converged;
    timed_out = false;
  }

(* A wall-clock budget is enforced through the same [should_stop] hook
   Portfolio uses for pruning: checked before every pass, so a pass that
   is already running completes — cancellation lands at the next pass
   boundary and the best-so-far schedule always stands. *)
let deadline_stop time_budget =
  match time_budget with
  | None -> None
  | Some budget ->
      let deadline = Obs.Trace.now_ns () + int_of_float (budget *. 1e9) in
      Some (fun ~pass:_ ~best:_ -> Obs.Trace.now_ns () > deadline)

let drive ~mode ?scoring ?order ~budget ?time_budget ~validate startup =
  let st = stepper ~mode ?scoring ?order ~budget ~validate startup in
  let outcome =
    match deadline_stop time_budget with
    | None -> advance ~passes:budget st
    | Some should_stop -> advance ~should_stop ~passes:budget st
  in
  { (stepper_result st) with timed_out = outcome = `Stopped }

let run ?(mode = Remap.With_relaxation) ?scoring ?order ?speeds ?passes
    ?time_budget ?(validate = true) dfg comm =
  Obs.Trace.with_span "compaction.run"
    ~args:
      [
        ("graph", Csdfg.name dfg);
        ("mode", Fmt.str "%a" Remap.pp_mode mode);
      ]
  @@ fun () ->
  let startup = Startup.run ?speeds dfg comm in
  if validate then Validator.assert_legal startup;
  let budget =
    match passes with
    | Some p -> max 0 p
    | None -> default_passes (Csdfg.n_nodes dfg)
  in
  drive ~mode ?scoring ?order ~budget ?time_budget ~validate startup

let resume ?(mode = Remap.With_relaxation) ?scoring ?order ?passes
    ?time_budget ?(validate = true) sched =
  Obs.Trace.with_span "compaction.resume" @@ fun () ->
  if validate then Validator.assert_legal sched;
  let budget =
    match passes with
    | Some p -> max 0 p
    | None -> default_passes (Schedule.n_nodes sched)
  in
  drive ~mode ?scoring ?order ~budget ?time_budget ~validate sched

let run_on ?mode ?scoring ?order ?speeds ?passes ?time_budget ?validate dfg
    topo =
  run ?mode ?scoring ?order ?speeds ?passes ?time_budget ?validate dfg
    (Comm.of_topology topo)

let pp_trace ppf trace =
  Fmt.pf ppf "@[<v>";
  List.iter
    (fun e ->
      Fmt.pf ppf "pass %-3d rotate {%s} -> length %-3d %a@," e.pass
        (String.concat " " (Array.to_list e.rotated))
        e.length pp_outcome e.outcome)
    trace;
  Fmt.pf ppf "@]"

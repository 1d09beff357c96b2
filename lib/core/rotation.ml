type t = {
  rotated : int list;
  previous_length : int;
  base : Schedule.t;
  fallback : (int * Schedule.entry) list;
}

let c_rotations = Obs.Counters.counter "rotation.rotations"
let c_nodes_rotated = Obs.Counters.counter "rotation.nodes_rotated"
let c_fallbacks = Obs.Counters.counter "rotation.fallbacks_applied"

let start sched =
  Obs.Trace.with_span "rotation.start" @@ fun () ->
  if Schedule.n_assigned sched = 0 then Error "empty schedule"
  else begin
    match Schedule.first_row sched with
    | [] -> Error "no node starts at row 1 (schedule not normalized)"
    | rotated ->
        if not (Schedule.can_retime sched rotated) then
          Error "rotation would create a negative delay (illegal schedule?)"
        else begin
          let previous_length = Schedule.length sched in
          let fallback =
            List.map
              (fun v ->
                ( v,
                  { Schedule.cb = previous_length; pe = Schedule.pe sched v } ))
              rotated
          in
          let base =
            Schedule.retime
              (Schedule.shift_up (Schedule.unassign_all sched rotated))
              rotated
          in
          Obs.Counters.incr c_rotations;
          Obs.Counters.incr c_nodes_rotated ~by:(List.length rotated);
          if Obs.Journal.enabled () then
            Obs.Journal.record (Obs.Journal.Rotated { nodes = rotated });
          Ok { rotated; previous_length; base; fallback }
        end
  end

let apply_fallback t =
  Obs.Counters.incr c_fallbacks;
  let sched =
    Schedule.edit t.base (fun b ->
        List.iter
          (fun (v, { Schedule.cb; pe }) -> Schedule.place b ~node:v ~cb ~pe)
          t.fallback)
  in
  Schedule.set_length sched
    (max (Timing.required_length sched) (Schedule.rows_needed sched))

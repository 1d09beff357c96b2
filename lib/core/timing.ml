module Csdfg = Dataflow.Csdfg
module G = Digraph.Graph

let edge_cost sched (e : Csdfg.attr G.edge) =
  Comm.cost (Schedule.comm sched) ~src:(Schedule.pe sched e.G.src)
    ~dst:(Schedule.pe sched e.G.dst) ~volume:(Csdfg.volume e)

let edge_ok sched (e : Csdfg.attr G.edge) =
  let m = edge_cost sched e in
  Schedule.cb sched e.G.dst + (Csdfg.delay e * Schedule.length sched)
  >= Schedule.ce sched e.G.src + m + 1

let ceil_div a b = if a >= 0 then (a + b - 1) / b else a / b

let psl_edge sched (e : Csdfg.attr G.edge) =
  let d = Csdfg.delay e in
  if d = 0 then None
  else if
    not (Schedule.is_assigned sched e.G.src && Schedule.is_assigned sched e.G.dst)
  then None
  else begin
    let m = edge_cost sched e in
    let need = m + Schedule.ce sched e.G.src - Schedule.cb sched e.G.dst + 1 in
    Some (max 0 (ceil_div need d))
  end

(* [psl_edge] over the edge arrays and the placement view, with retimed
   delays read off the lag vector: no edge record is built. *)
let required_length sched =
  let adj = Schedule.adjacency sched in
  let comm = Schedule.comm sched in
  let { Schedule.start; proc; speeds; _ } = Schedule.view sched in
  let acc = ref (Schedule.rows_needed sched) in
  for e = 0 to Adjacency.n_edges adj - 1 do
    let d = Schedule.delay sched e in
    let u = adj.src.(e) and v = adj.dst.(e) in
    if d > 0 && proc.(u) >= 0 && proc.(v) >= 0 then begin
      let m =
        Comm.cost comm ~src:proc.(u) ~dst:proc.(v) ~volume:adj.volume.(e)
      in
      (* [CE u - CB v]: the row origin cancels *)
      let span =
        start.(u) + (adj.time.(u) * speeds.(proc.(u))) - 1 - start.(v)
      in
      acc := Int.max !acc (ceil_div (m + span + 1) d)
    end
  done;
  !acc

let zero_delay_violations sched =
  List.filter
    (fun e ->
      Csdfg.delay e = 0
      && Schedule.is_assigned sched e.G.src
      && Schedule.is_assigned sched e.G.dst
      && not (edge_ok sched e))
    (Csdfg.edges (Schedule.dfg sched))

let earliest_start sched ~node ~pe ~target_length =
  let adj = Schedule.adjacency sched in
  let comm = Schedule.comm sched in
  let acc = ref 1 in
  for i = adj.in_start.(node) to adj.in_start.(node + 1) - 1 do
    let e = adj.in_edges.(i) in
    let u = adj.src.(e) in
    if u <> node && Schedule.is_assigned sched u then begin
      let m =
        Comm.cost comm ~src:(Schedule.pe sched u) ~dst:pe ~volume:adj.volume.(e)
      in
      let an =
        m + Schedule.ce sched u + 1 - (Schedule.delay sched e * target_length)
      in
      acc := Int.max !acc an
    end
  done;
  !acc

type mode = Without_relaxation | With_relaxation

let pp_mode ppf = function
  | Without_relaxation -> Fmt.string ppf "without-relaxation"
  | With_relaxation -> Fmt.string ppf "with-relaxation"

type scoring = Pressure_first | Earliest_step

let pp_scoring ppf = function
  | Pressure_first -> Fmt.string ppf "pressure-first"
  | Earliest_step -> Fmt.string ppf "earliest-step"

type order = Forward | Reverse

let pp_order ppf = function
  | Forward -> Fmt.string ppf "forward"
  | Reverse -> Fmt.string ppf "reverse"

type outcome =
  | Remapped of Schedule.t
  | Fallback of Schedule.t
  | Stuck

let place_order (rot : Rotation.t) =
  (* base no longer holds J's processors, so read them off the fallback. *)
  let pe_of v = (List.assoc v rot.fallback).Schedule.pe in
  List.sort
    (fun a b ->
      match compare (pe_of a) (pe_of b) with 0 -> compare a b | c -> c)
    rot.rotated

let ceil_div a b = if a >= 0 then (a + b - 1) / b else a / b

(* Lexicographic order on (primary, step, added communication). *)
let ranks_before p c a (p0 : int) (c0 : int) (a0 : int) =
  p < p0 || (p = p0 && (c < c0 || (c = c0 && a < a0)))

(* A self-loop of delay [d] on a node occupying [span] rows needs a
   table of [span / d] rows. *)
let rec self_pressure span acc = function
  | [] -> acc
  | d :: rest -> self_pressure span (Int.max acc (ceil_div span d)) rest

(* An assigned neighbour of the node being placed, read once: its
   processor, the row the constraint is measured from ([CE] of a
   producer, [CB] of a consumer), the edge's volume and retimed delay. *)
type neighbour = { pe : int; row : int; volume : int; delay : int }

let neighbours sched ~start ~ids ~other ~row v =
  let adj = Schedule.adjacency sched in
  let acc = ref [] in
  for i = start.(v + 1) - 1 downto start.(v) do
    let e = ids.(i) in
    let u = other.(e) in
    if u <> v && Schedule.is_assigned sched u then
      acc :=
        {
          pe = Schedule.pe sched u;
          row = row sched u;
          volume = adj.volume.(e);
          delay = Schedule.delay sched e;
        }
        :: !acc
  done;
  Array.of_list !acc

(* Placing [v]: its neighbours are read once, then every processor is
   scored.  Per processor the candidate is the first free slot at or
   after the anticipation bound (Lemma 4.2, [Timing.earliest_start]),
   ranked on (primary, step, added communication, processor):

   - the primary key under [Pressure_first] is the table length the
     placement would force: the rows the node occupies and the projected
     schedule length (Lemma 4.3) of every delayed edge against its
     already-assigned endpoints.  Minimising this, rather than the raw
     control step, is what lets long serial chains pipeline instead of
     re-queueing behind their old processor;
   - the added communication (tie-break) sums the cost from each
     assigned producer's and consumer's processor to this one, preferring
     processors close to the node's neighbours. *)
let place_node ~scoring ~limit ~target b v =
  let sched = Schedule.current b in
  let adj = Schedule.adjacency sched in
  let comm = Schedule.comm sched in
  let ins =
    neighbours sched ~start:adj.in_start ~ids:adj.in_edges ~other:adj.src
      ~row:Schedule.ce v
  in
  let outs =
    neighbours sched ~start:adj.out_start ~ids:adj.out_edges ~other:adj.dst
      ~row:Schedule.cb v
  in
  let self_delays = ref [] in
  for i = adj.out_start.(v) to adj.out_start.(v + 1) - 1 do
    let e = adj.out_edges.(i) in
    let d = Schedule.delay sched e in
    if adj.dst.(e) = v && d > 0 then self_delays := d :: !self_delays
  done;
  (* [in_cost.(k)]: the cost from [ins.(k)] to the processor being scored *)
  let in_cost = Array.make (Array.length ins) 0 in
  let best_pe = ref (-1) in
  let best_primary = ref 0 and best_cs = ref 0 and best_added = ref 0 in
  for pe = 0 to Schedule.n_processors sched - 1 do
    let span = Schedule.duration sched ~node:v ~pe in
    let an = ref 1 in
    for k = 0 to Array.length ins - 1 do
      let n = ins.(k) in
      let m = Comm.cost comm ~src:n.pe ~dst:pe ~volume:n.volume in
      in_cost.(k) <- m;
      an := Int.max !an (m + n.row + 1 - (n.delay * target))
    done;
    (* The slot starts at or after [an], and under [Pressure_first] the
       primary key is at least the slot's last row: a processor whose
       bound already ranks behind the best candidate cannot win, so its
       slot is not searched. *)
    let hopeless =
      !best_pe >= 0
      &&
      match scoring with
      | Pressure_first -> !an + span - 1 > !best_primary
      | Earliest_step -> !an > !best_cs
    in
    let cs =
      if hopeless then 0 else Schedule.first_free_slot sched ~pe ~from:!an ~span
    in
    let ce = cs + span - 1 in
    let fits = match limit with Some l -> ce <= l | None -> true in
    if (not hopeless) && fits then begin
      (* [pressure] takes each delayed edge's projected schedule length,
         [need / delay] *)
      let added = ref 0 and pressure = ref ce in
      for k = 0 to Array.length ins - 1 do
        let n = ins.(k) and m = in_cost.(k) in
        added := !added + m;
        if n.delay <> 0 then
          pressure := Int.max !pressure (ceil_div (m + n.row - cs + 1) n.delay)
      done;
      for k = 0 to Array.length outs - 1 do
        let n = outs.(k) in
        added := !added + Comm.cost comm ~src:n.pe ~dst:pe ~volume:n.volume;
        if n.delay <> 0 then
          let m = Comm.cost comm ~src:pe ~dst:n.pe ~volume:n.volume in
          pressure := Int.max !pressure (ceil_div (m + ce - n.row + 1) n.delay)
      done;
      let primary =
        match scoring with
        | Pressure_first -> self_pressure span !pressure !self_delays
        | Earliest_step -> 0
      in
      (* processors are visited ascending, so a tie keeps the earlier *)
      if
        !best_pe < 0
        || ranks_before primary cs !added !best_primary !best_cs !best_added
      then begin
        best_pe := pe;
        best_primary := primary;
        best_cs := cs;
        best_added := !added
      end
    end
  done;
  if !best_pe < 0 then false
  else begin
    Schedule.place b ~node:v ~cb:!best_cs ~pe:!best_pe;
    true
  end

let place_all ~scoring ~order ~limit ~target rot =
  let nodes =
    match order with
    | Forward -> place_order rot
    | Reverse -> List.rev (place_order rot)
  in
  let b = Schedule.builder rot.Rotation.base in
  if List.for_all (place_node ~scoring ~limit ~target b) nodes then
    Some (Schedule.finish b)
  else None

let finalize sched = Schedule.set_length sched (Timing.required_length sched)

let fallback_or_stuck rot =
  let fb = Rotation.apply_fallback rot in
  if Schedule.length fb <= rot.Rotation.previous_length then Fallback fb
  else Stuck

let run ?(scoring = Pressure_first) ?(order = Forward) mode (rot : Rotation.t) =
  let prev = rot.previous_length in
  let target = max 1 (prev - 1) in
  match mode with
  | With_relaxation -> (
      match place_all ~scoring ~order ~limit:None ~target rot with
      | Some sched -> Remapped (finalize sched)
      | None ->
          (* Unbounded search always finds a slot; kept for totality. *)
          fallback_or_stuck rot)
  | Without_relaxation -> (
      match place_all ~scoring ~order ~limit:(Some prev) ~target rot with
      | Some sched ->
          let sched = finalize sched in
          if Schedule.length sched <= prev then Remapped sched
          else fallback_or_stuck rot
      | None -> fallback_or_stuck rot)

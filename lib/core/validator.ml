module Csdfg = Dataflow.Csdfg
module G = Digraph.Graph

type violation =
  | Unassigned of int
  | Out_of_table of int
  | Overlap of int * int
  | Dependence of Csdfg.attr G.edge * int
  | Missing_processor of int
  | Unroutable of Csdfg.attr G.edge

let pp_violation sched ppf v =
  let label = Schedule.label sched in
  match v with
  | Unassigned n -> Fmt.pf ppf "node %s is unassigned" (label n)
  | Out_of_table n ->
      Fmt.pf ppf "node %s runs past the table (CE=%d > L=%d)" (label n)
        (Schedule.ce sched n) (Schedule.length sched)
  | Overlap (a, b) ->
      Fmt.pf ppf "nodes %s and %s overlap on pe%d" (label a) (label b)
        (Schedule.pe sched a + 1)
  | Dependence (e, missing) ->
      Fmt.pf ppf "edge %s -> %s (d=%d c=%d) is %d step(s) too tight"
        (label e.G.src) (label e.G.dst) (Csdfg.delay e) (Csdfg.volume e)
        missing
  | Missing_processor n ->
      Fmt.pf ppf "node %s is placed on pe%d, which is absent or failed"
        (label n)
        (Schedule.pe sched n + 1)
  | Unroutable e ->
      Fmt.pf ppf "edge %s -> %s has no route (pe%d to pe%d unreachable)"
        (label e.G.src) (label e.G.dst)
        (Schedule.pe sched e.G.src + 1)
        (Schedule.pe sched e.G.dst + 1)

(* Every node id in (PE, CB, id) order: two stable counting sorts, on CB
   then on the processor, when the CB range is within a small multiple of
   the node count — always, for a table the schedulers built — and one
   comparison sort otherwise. *)
let by_processor ~np cb pe =
  let n = Array.length cb in
  let lo = Array.fold_left Int.min max_int cb in
  let hi = Array.fold_left Int.max 0 cb in
  let ids = Array.init n Fun.id in
  if n = 0 || hi - lo > (4 * n) + 1024 then begin
    Array.stable_sort
      (fun a b ->
        match Int.compare pe.(a) pe.(b) with
        | 0 -> Int.compare cb.(a) cb.(b)
        | c -> c)
      ids;
    ids
  end
  else begin
    (* stable: [order]'s nodes by [key], whose values are in [0, range) *)
    let counting key range order =
      let next = Array.make (range + 1) 0 in
      Array.iter (fun v -> next.(key v + 1) <- next.(key v + 1) + 1) order;
      for k = 1 to range do
        next.(k) <- next.(k) + next.(k - 1)
      done;
      let sorted = Array.make n 0 in
      Array.iter
        (fun v ->
          sorted.(next.(key v)) <- v;
          next.(key v) <- next.(key v) + 1)
        order;
      sorted
    in
    counting (fun v -> pe.(v)) np
      (counting (fun v -> cb.(v) - lo) (hi - lo + 1) ids)
  end

(* Every rule is recomputed from the placements, the node durations, the
   retimed delays and the communication model; nothing is taken from the
   schedule's occupancy index or from any length a caller maintains. *)
let check sched =
  let n = Schedule.n_nodes sched in
  let adj = Schedule.adjacency sched in
  let cb, pe = Schedule.placements sched in
  let problems = ref [] in
  let note p = problems := p :: !problems in
  Array.iteri (fun v p -> if p < 0 then note (Unassigned v)) pe;
  if !problems = [] then begin
    let len = Schedule.length sched in
    let speeds = Schedule.speeds sched in
    let ce =
      Array.mapi (fun v c -> c + (adj.time.(v) * speeds.(pe.(v))) - 1) cb
    in
    for v = 0 to n - 1 do
      if ce.(v) > len then note (Out_of_table v)
    done;
    (* Resource overlaps: a sweep over each processor's nodes in
       (CB, id) order touches every intersecting pair without the O(n^2)
       all-pairs scan.  Pairs are reported sorted, as the all-pairs loop
       did. *)
    let overlaps = ref [] in
    (* [active]: already-seen nodes on processor [on] whose end may still
       reach the current start; on a legal schedule it never holds more
       than one element. *)
    let active = ref [] and on = ref (-1) in
    Array.iter
      (fun v ->
        if pe.(v) <> !on then begin
          active := [];
          on := pe.(v)
        end;
        let lo = cb.(v) in
        (match !active with
        | [] -> ()
        | l ->
            active := List.filter (fun a -> ce.(a) >= lo) l;
            List.iter
              (fun a -> overlaps := (Int.min a v, Int.max a v) :: !overlaps)
              !active);
        active := v :: !active)
      (by_processor ~np:(Schedule.n_processors sched) cb pe);
    List.iter
      (fun (a, b) -> note (Overlap (a, b)))
      (List.sort_uniq compare !overlaps);
    (* Dependences, intra- and inter-iteration in one rule. *)
    let comm = Schedule.comm sched in
    for e = 0 to Adjacency.n_edges adj - 1 do
      let u = adj.src.(e) and v = adj.dst.(e) in
      let m = Comm.cost comm ~src:pe.(u) ~dst:pe.(v) ~volume:adj.volume.(e) in
      let have = cb.(v) + (Schedule.delay sched e * len) in
      let want = ce.(u) + m + 1 in
      if have < want then note (Dependence (Schedule.edge sched e, want - have))
    done
  end;
  match List.rev !problems with [] -> Ok () | l -> Error l

let is_legal sched = check sched = Ok ()

(* Placement-vs-machine consistency: every node on a live, in-range
   processor, and every cross-processor edge routable over the live
   part of the machine.  [alive] restricts the topology (degraded-mode
   checks); by default every processor is live.  Reachability is BFS
   over the link graph restricted to live endpoints, from each live
   source once. *)
let check_topology ?alive sched topo =
  let np = Topology.n_processors topo in
  let live p =
    p >= 0 && p < np
    && match alive with None -> true | Some a -> p < Array.length a && a.(p)
  in
  let adj = Array.make np [] in
  List.iter
    (fun (a, b) ->
      if live a && live b then begin
        adj.(a) <- b :: adj.(a);
        adj.(b) <- a :: adj.(b)
      end)
    (Topology.links topo);
  let reach = Hashtbl.create 8 in
  let reachable_from p =
    match Hashtbl.find_opt reach p with
    | Some r -> r
    | None ->
        let seen = Array.make np false in
        seen.(p) <- true;
        let q = Queue.create () in
        Queue.add p q;
        while not (Queue.is_empty q) do
          let x = Queue.take q in
          List.iter
            (fun y ->
              if not seen.(y) then begin
                seen.(y) <- true;
                Queue.add y q
              end)
            adj.(x)
        done;
        Hashtbl.add reach p seen;
        seen
  in
  let adj = Schedule.adjacency sched in
  let problems = ref [] in
  let note p = problems := p :: !problems in
  for v = 0 to Schedule.n_nodes sched - 1 do
    if Schedule.is_assigned sched v && not (live (Schedule.pe sched v)) then
      note (Missing_processor v)
  done;
  if !problems = [] then
    for e = 0 to Adjacency.n_edges adj - 1 do
      let u = adj.src.(e) and v = adj.dst.(e) in
      if Schedule.is_assigned sched u && Schedule.is_assigned sched v then begin
        let p = Schedule.pe sched u and q = Schedule.pe sched v in
        if p <> q && not (reachable_from p).(q) then
          note (Unroutable (Schedule.edge sched e))
      end
    done;
  match List.rev !problems with [] -> Ok () | l -> Error l

let assert_legal sched =
  match check sched with
  | Ok () -> ()
  | Error problems ->
      let msg =
        Fmt.str "@[<v>illegal schedule:@,%a@,%a@]"
          (Fmt.list (pp_violation sched))
          problems Schedule.pp sched
      in
      failwith msg

let count_iterations_checked = 1

let simulate sched ~iterations =
  let dfg = Schedule.dfg sched in
  let len = Schedule.length sched in
  let problems = ref [] in
  let note p = if not (List.mem p !problems) then problems := p :: !problems in
  let unassigned =
    List.filter (fun v -> not (Schedule.is_assigned sched v)) (Csdfg.nodes dfg)
  in
  List.iter (fun v -> note (Unassigned v)) unassigned;
  if unassigned = [] && len > 0 then begin
    (* Global timeline: node v of iteration i starts at i*len + CB v. *)
    let start v i = (i * len) + Schedule.cb sched v in
    let finish v i =
      start v i
      + Schedule.duration sched ~node:v ~pe:(Schedule.pe sched v)
      - 1
    in
    List.iter
      (fun v -> if Schedule.ce sched v > len then note (Out_of_table v))
      (Csdfg.nodes dfg);
    (* Resource conflicts across iteration boundaries. *)
    let horizon = (iterations + 2) * len in
    let np = Schedule.n_processors sched in
    let cell = Array.make_matrix np (horizon + 1) (-1) in
    List.iter
      (fun v ->
        for i = 0 to iterations + 1 do
          for t = start v i to min (finish v i) horizon do
            if t >= 0 then begin
              let p = Schedule.pe sched v in
              if cell.(p).(t) >= 0 && cell.(p).(t) <> v then
                note (Overlap (min v cell.(p).(t), max v cell.(p).(t)))
              else cell.(p).(t) <- v
            end
          done
        done)
      (Csdfg.nodes dfg);
    (* Dependences on the global timeline. *)
    List.iter
      (fun e ->
        let m = Timing.edge_cost sched e in
        for i = Csdfg.delay e to iterations do
          let produced = finish e.G.src (i - Csdfg.delay e) in
          let consumed = start e.G.dst i in
          if consumed < produced + m + 1 then
            note (Dependence (e, produced + m + 1 - consumed))
        done)
      (Csdfg.edges dfg)
  end
  else if len = 0 && Csdfg.n_nodes dfg > 0 && unassigned = [] then
    List.iter (fun v -> note (Out_of_table v)) (Csdfg.nodes dfg);
  match List.rev !problems with [] -> Ok () | l -> Error l

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

(* Scratch arrays for [check], one set per domain, grown on demand and
   reused, so a check allocates nothing unless it finds a violation.
   [busy] guards against a second check on the same domain while one is
   running (systhreads); that one gets a private set. *)
type scratch = {
  mutable busy : bool;
  mutable ce : int array;  (* per node: CE *)
  mutable by_cb : int array;  (* node ids in (CB, id) order *)
  mutable order : int array;  (* node ids in (PE, CB, id) order *)
  mutable next : int array;  (* counting-sort buckets *)
  mutable active : int array;  (* overlap sweep: nodes still running *)
}

let fresh () =
  {
    busy = false;
    ce = [||];
    by_cb = [||];
    order = [||];
    next = [||];
    active = [||];
  }

let scratch_key = Domain.DLS.new_key fresh

let acquire () =
  let s = Domain.DLS.get scratch_key in
  if s.busy then { (fresh ()) with busy = true }
  else begin
    s.busy <- true;
    s
  end

let at_least a n =
  if Array.length a >= n then a
  else Array.make (Int.max n (2 * Array.length a)) 0

(* Every node id into [s.order] in (PE, CB, id) order: two stable
   counting sorts, on CB then on the processor, when the CB range is
   within a small multiple of the node count — always, for a table the
   schedulers built — and one comparison sort otherwise. *)
let sort_by_processor s (view : Schedule.view) ~n ~np =
  let start = view.start and proc = view.proc in
  let lo = ref max_int and hi = ref min_int in
  for v = 0 to n - 1 do
    lo := Int.min !lo start.(v);
    hi := Int.max !hi start.(v)
  done;
  s.order <- at_least s.order n;
  let order = s.order in
  if n = 0 || !hi - !lo > (4 * n) + 1024 then begin
    let ids = Array.init n Fun.id in
    Array.stable_sort
      (fun a b ->
        match Int.compare proc.(a) proc.(b) with
        | 0 -> Int.compare start.(a) start.(b)
        | c -> c)
      ids;
    Array.blit ids 0 order 0 n
  end
  else begin
    let lo = !lo and range = !hi - !lo + 1 in
    s.by_cb <- at_least s.by_cb n;
    s.next <- at_least s.next (Int.max range np + 1);
    let by_cb = s.by_cb and next = s.next in
    Array.fill next 0 (range + 1) 0;
    for v = 0 to n - 1 do
      let k = start.(v) - lo + 1 in
      next.(k) <- next.(k) + 1
    done;
    for k = 1 to range do
      next.(k) <- next.(k) + next.(k - 1)
    done;
    for v = 0 to n - 1 do
      let k = start.(v) - lo in
      by_cb.(next.(k)) <- v;
      next.(k) <- next.(k) + 1
    done;
    Array.fill next 0 (np + 1) 0;
    for i = 0 to n - 1 do
      let k = proc.(by_cb.(i)) + 1 in
      next.(k) <- next.(k) + 1
    done;
    for k = 1 to np do
      next.(k) <- next.(k) + next.(k - 1)
    done;
    for i = 0 to n - 1 do
      let v = by_cb.(i) in
      let k = proc.(v) in
      order.(next.(k)) <- v;
      next.(k) <- next.(k) + 1
    done
  end

(* The rules past assignment, on a schedule with every node placed; the
   violations come back in report order. *)
let check_placed s sched (view : Schedule.view) =
  let adj = Schedule.adjacency sched in
  let n = Array.length view.proc in
  let start = view.start and proc = view.proc and origin = view.origin in
  let len = Schedule.length sched in
  s.ce <- at_least s.ce n;
  let ce = s.ce in
  let problems = ref [] in
  for v = 0 to n - 1 do
    ce.(v) <- start.(v) - origin + (adj.time.(v) * view.speeds.(proc.(v))) - 1;
    if ce.(v) > len then problems := Out_of_table v :: !problems
  done;
  (* Resource overlaps: a sweep over each processor's nodes in (CB, id)
     order touches every intersecting pair without the O(n^2) all-pairs
     scan.  [active] holds the already-seen nodes on processor [on] whose
     end may still reach the current start; on a legal schedule it never
     holds more than one.  Pairs are reported sorted. *)
  sort_by_processor s view ~n ~np:(Schedule.n_processors sched);
  s.active <- at_least s.active n;
  let order = s.order and active = s.active in
  let pairs = ref [] and n_active = ref 0 and on = ref (-1) in
  for i = 0 to n - 1 do
    let v = order.(i) in
    if proc.(v) <> !on then begin
      n_active := 0;
      on := proc.(v)
    end;
    let cb = start.(v) - origin and kept = ref 0 in
    for j = 0 to !n_active - 1 do
      let a = active.(j) in
      if ce.(a) >= cb then begin
        active.(!kept) <- a;
        incr kept;
        pairs := (Int.min a v, Int.max a v) :: !pairs
      end
    done;
    active.(!kept) <- v;
    n_active := !kept + 1
  done;
  if !pairs <> [] then
    List.iter
      (fun (a, b) -> problems := Overlap (a, b) :: !problems)
      (List.sort_uniq compare !pairs);
  (* Dependences, intra- and inter-iteration in one rule. *)
  let comm = Schedule.comm sched in
  for e = 0 to Adjacency.n_edges adj - 1 do
    let u = adj.src.(e) and v = adj.dst.(e) in
    let m =
      Comm.cost comm ~src:proc.(u) ~dst:proc.(v) ~volume:adj.volume.(e)
    in
    let have = start.(v) - origin + (Schedule.delay sched e * len) in
    let want = ce.(u) + m + 1 in
    if have < want then
      problems := Dependence (Schedule.edge sched e, want - have) :: !problems
  done;
  List.rev !problems

(* Every rule is recomputed from the placements, the node durations, the
   retimed delays and the communication model; nothing is taken from the
   schedule's occupancy index or from any length a caller maintains. *)
let check sched =
  let view = Schedule.view sched in
  let unassigned = ref [] in
  for v = Array.length view.proc - 1 downto 0 do
    if view.proc.(v) < 0 then unassigned := Unassigned v :: !unassigned
  done;
  let problems =
    if !unassigned <> [] then !unassigned
    else begin
      let s = acquire () in
      match check_placed s sched view with
      | l ->
          s.busy <- false;
          l
      | exception e ->
          s.busy <- false;
          raise e
    end
  in
  match problems with [] -> Ok () | l -> Error l

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

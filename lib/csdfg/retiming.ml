module G = Digraph.Graph

type r = int array

let identity g = Array.make (Csdfg.n_nodes g) 0

let retimed_delay (r : r) (e : Csdfg.attr G.edge) =
  e.G.label.Csdfg.delay + r.(e.G.src) - r.(e.G.dst)

let illegal_edges g r =
  List.filter (fun e -> retimed_delay r e < 0) (Csdfg.edges g)

let is_legal g r = illegal_edges g r = []

let apply g r =
  if Array.length r <> Csdfg.n_nodes g then
    invalid_arg "Retiming.apply: size mismatch";
  if not (is_legal g r) then invalid_arg "Retiming.apply: illegal retiming";
  let graph =
    G.map_labels
      (fun e -> { e.G.label with Csdfg.delay = retimed_delay r e })
      (Csdfg.graph g)
  in
  Csdfg.of_graph ~name:(Csdfg.name g)
    ~labels:(Array.init (Csdfg.n_nodes g) (Csdfg.label g))
    ~time:(Array.init (Csdfg.n_nodes g) (Csdfg.time g))
    graph

(* With [retimed_delay e = d + r(src) - r(dst)], setting r(v) = 1 for
   v in the set subtracts one delay from each incoming edge and adds one
   to each outgoing edge — exactly the paper's rotation. *)
let rotation_retiming g set =
  let r = identity g in
  List.iter
    (fun v ->
      if v < 0 || v >= Csdfg.n_nodes g then
        invalid_arg "Retiming.rotate_set: node out of range";
      r.(v) <- 1)
    set;
  r

let can_rotate g set = is_legal g (rotation_retiming g set)

let rotate_set g set =
  let r = rotation_retiming g set in
  if not (is_legal g r) then
    invalid_arg "Retiming.rotate_set: a drawn incoming edge has no delay";
  apply g r

let compose a b = Array.mapi (fun i x -> x + b.(i)) a

let normalize r =
  if Array.length r = 0 then r
  else begin
    let lo = Array.fold_left min r.(0) r in
    Array.map (fun x -> x - lo) r
  end

(* Each edge pins r(dst) - r(src) = d_retimed - d_original... with our
   convention d' = d + r(src) - r(dst), so r(dst) = r(src) + d - d'.
   Propagate over the undirected edge structure and check consistency. *)
let infer ~original ~retimed =
  let n = Csdfg.n_nodes original in
  if
    n <> Csdfg.n_nodes retimed
    || List.length (Csdfg.edges original) <> List.length (Csdfg.edges retimed)
  then None
  else begin
    (* Pair edges positionally: retiming never reorders them. *)
    let pairs = List.combine (Csdfg.edges original) (Csdfg.edges retimed) in
    if
      List.exists
        (fun ((a : Csdfg.attr G.edge), (b : Csdfg.attr G.edge)) ->
          a.G.src <> b.G.src || a.G.dst <> b.G.dst)
        pairs
    then None
    else begin
      let delta = Array.make n None in
      (* adjacency over constraint edges, both directions *)
      let adj = Array.make n [] in
      List.iter
        (fun ((a : Csdfg.attr G.edge), (b : Csdfg.attr G.edge)) ->
          let diff = a.G.label.Csdfg.delay - b.G.label.Csdfg.delay in
          adj.(a.G.src) <- (a.G.dst, diff) :: adj.(a.G.src);
          adj.(a.G.dst) <- (a.G.src, -diff) :: adj.(a.G.dst))
        pairs;
      let consistent = ref true in
      let component = Array.make n (-1) in
      let rec visit comp v value =
        match delta.(v) with
        | Some existing -> if existing <> value then consistent := false
        | None ->
            delta.(v) <- Some value;
            component.(v) <- comp;
            List.iter (fun (w, diff) -> visit comp w (value + diff)) adj.(v)
      in
      let n_comps = ref 0 in
      for v = 0 to n - 1 do
        if delta.(v) = None then begin
          visit !n_comps v 0;
          incr n_comps
        end
      done;
      if not !consistent then None
      else begin
        let raw = Array.map (function Some x -> x | None -> 0) delta in
        (* normalize each weakly-connected component to minimum 0 *)
        let comp_min = Array.make !n_comps max_int in
        Array.iteri
          (fun v x -> comp_min.(component.(v)) <- min comp_min.(component.(v)) x)
          raw;
        let r = Array.mapi (fun v x -> x - comp_min.(component.(v))) raw in
        (* Cross-check: applying r to the original must reproduce the
           retimed delays exactly. *)
        let ok =
          List.for_all
            (fun ((a : Csdfg.attr G.edge), (b : Csdfg.attr G.edge)) ->
              retimed_delay r a = b.G.label.Csdfg.delay)
            pairs
        in
        if ok then Some r else None
      end
    end
  end

let require_legal fn g =
  match Csdfg.validate g with
  | Ok () -> ()
  | Error _ -> invalid_arg (fn ^ ": illegal CSDFG")

let clock_period g =
  require_legal "Retiming.clock_period" g;
  Digraph.Topo.longest_path_nodes (Csdfg.zero_delay_graph g)
    ~weight:(Csdfg.time g)

(* Leiserson and Saxe's FEAS.  Each round takes the latest zero-delay
   arrival of every node (its own time included) on the graph retimed by
   [r], and lowers [r v] wherever that exceeds the period, which puts one
   more delay on each edge into [v].  A zero-delay successor of such a
   node arrives later still and is lowered with it, so no edge goes
   negative.  When some legal retiming meets the period, |V| - 1 rounds
   find one; the |V|-th arrival pass only checks. *)
let feas g ~period =
  let n = Csdfg.n_nodes g in
  let time = Array.init n (Csdfg.time g) in
  let out = Array.init n (fun v -> Array.of_list (Csdfg.succ g v)) in
  let r = identity g in
  let arrival = Array.make n 0 and pending = Array.make n 0 in
  let queue = Array.make n 0 in
  let zero_delay e = retimed_delay r e = 0 in
  (* Kahn's order over the zero-delay edges; a legal graph has no
     zero-delay cycle under any legal retiming. *)
  let arrivals () =
    Array.fill arrival 0 n 0;
    Array.fill pending 0 n 0;
    Array.iter
      (Array.iter (fun e ->
           if zero_delay e then pending.(e.G.dst) <- pending.(e.G.dst) + 1))
      out;
    let tail = ref 0 in
    for v = 0 to n - 1 do
      if pending.(v) = 0 then begin
        queue.(!tail) <- v;
        incr tail
      end
    done;
    for head = 0 to n - 1 do
      let v = queue.(head) in
      arrival.(v) <- arrival.(v) + time.(v);
      Array.iter
        (fun e ->
          if zero_delay e then begin
            let w = e.G.dst in
            arrival.(w) <- max arrival.(w) arrival.(v);
            pending.(w) <- pending.(w) - 1;
            if pending.(w) = 0 then begin
              queue.(!tail) <- w;
              incr tail
            end
          end)
        out.(v)
    done
  in
  let rec round k =
    arrivals ();
    if Array.for_all (fun a -> a <= period) arrival then Some (normalize r)
    else if k >= n then None
    else begin
      Array.iteri (fun v a -> if a > period then r.(v) <- r.(v) - 1) arrival;
      round (k + 1)
    end
  in
  if n > 0 && period < Csdfg.max_time g then None else round 1

let feasible g ~period =
  require_legal "Retiming.feasible" g;
  feas g ~period

(* Both [max_time] and the ceiling of the iteration bound are lower
   bounds on any retimed period: a cycle's D delays cut it into at most
   D zero-delay paths sharing its total time.  The probe at their
   maximum settles most graphs; otherwise binary-search the integers
   above it, where the current period is feasible with no retiming. *)
let min_period g =
  let hi = clock_period g in
  let lo =
    max (Csdfg.max_time g)
      (Option.value ~default:0 (Iteration_bound.exact_ceil g))
  in
  if hi <= lo then (hi, identity g)
  else
    match feas g ~period:lo with
    | Some r -> (lo, r)
    | None ->
        let rec search lo hi best =
          if hi - lo <= 1 then (hi, best)
          else
            let mid = lo + ((hi - lo) / 2) in
            match feas g ~period:mid with
            | Some r -> search lo mid r
            | None -> search mid hi best
        in
        search lo hi (identity g)

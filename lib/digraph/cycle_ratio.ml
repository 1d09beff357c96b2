let fail msg = invalid_arg ("Digraph.Cycle_ratio.maximum: " ^ msg)

let maximum g ~num ~den =
  let n = Graph.n_nodes g in
  let edges = Array.of_list (Graph.edges g) in
  let m = Array.length edges in
  let src = Array.map (fun e -> e.Graph.src) edges in
  let dst = Array.map (fun e -> e.Graph.dst) edges in
  let nu = Array.map num edges and de = Array.map den edges in
  if Array.exists (fun d -> d < 0) de then fail "negative denominator";
  let max_num = Array.fold_left (fun acc x -> max acc (abs x)) 0 nu in
  let max_den = Array.fold_left max 0 de in
  (* A simple cycle has at most [n] edges, so every ratio [T/D] visited
     has [|T| <= n * max_num] and [D <= n * max_den] (the start ratio is
     [-(n * max_num + 1) / 1]), bounding an edge weight by [w_max]; a
     Bellman–Ford distance is a walk of at most [n + 1] edges. *)
  let w_max =
    (2. *. float n *. float max_num *. float max_den)
    +. float max_num +. float max_den
  in
  if float (n + 1) *. w_max >= 0x1p61 then fail "weights too large";
  let dist = Array.make n 0 and pred = Array.make n (-1) in
  let w = Array.make m 0 in
  (* [seen.(v)] is the walk that last visited [v]; walks of one search
     are numbered from [first], so older marks read as unvisited. *)
  let seen = Array.make n (-1) and walk = ref (-1) in
  (* A node on a cycle of the predecessor pointers, or -1. *)
  let pred_cycle () =
    let first = !walk + 1 and found = ref (-1) and v = ref 0 in
    while !found < 0 && !v < n do
      incr walk;
      let u = ref !v in
      while !u >= 0 && seen.(!u) < first do
        seen.(!u) <- !walk;
        u := if pred.(!u) < 0 then -1 else src.(pred.(!u))
      done;
      if !u >= 0 && seen.(!u) = !walk then found := !u;
      incr v
    done;
    !found
  in
  (* Bellman–Ford rounds over [w] until nothing changes (-1) or the
     predecessor pointers close a cycle (a node on it).  Such a cycle has
     negative weight (Tarjan), and one appears within [n] rounds whenever
     a negative cycle exists. *)
  let rec converge () =
    let changed = ref false in
    for i = 0 to m - 1 do
      let c = dist.(src.(i)) + w.(i) in
      if c < dist.(dst.(i)) then begin
        dist.(dst.(i)) <- c;
        pred.(dst.(i)) <- i;
        changed := true
      end
    done;
    if not !changed then -1
    else
      let v = pred_cycle () in
      if v >= 0 then v else converge ()
  in
  let cycle_through v =
    let rec back u acc =
      let e = pred.(u) in
      let acc = e :: acc in
      if src.(e) = v then acc else back src.(e) acc
    in
    let cyc = back v [] in
    let low = List.fold_left (fun acc e -> min acc src.(e)) v cyc in
    let rec rotate before = function
      | e :: rest when src.(e) <> low -> rotate (e :: before) rest
      | after -> after @ List.rev before
    in
    rotate [] cyc
  in
  let converge_on weight =
    Array.iteri (fun i _ -> w.(i) <- weight i) w;
    Array.fill dist 0 n 0;
    Array.fill pred 0 n (-1);
    converge ()
  in
  (* Weighting the zero-denominator edges -1 and the others [n + 1]
     makes exactly their cycles negative. *)
  if converge_on (fun i -> if de.(i) = 0 then -1 else n + 1) >= 0 then
    fail "a cycle has denominator sum 0";
  let rec jump t d best =
    let v = converge_on (fun i -> (t * de.(i)) - (d * nu.(i))) in
    if v < 0 then best
    else
      let cyc = cycle_through v in
      let t = List.fold_left (fun acc i -> acc + nu.(i)) 0 cyc in
      let d = List.fold_left (fun acc i -> acc + de.(i)) 0 cyc in
      jump t d (Some ((t, d), cyc))
  in
  jump (-((n * max_num) + 1)) 1 None
  |> Option.map (fun (r, cyc) -> (r, List.map (fun i -> edges.(i)) cyc))

module Csdfg = Dataflow.Csdfg
module G = Digraph.Graph

type t = {
  dfg : Csdfg.t;
  time : int array;
  src : int array;
  dst : int array;
  delay : int array;
  volume : int array;
  in_start : int array;
  in_edges : int array;
  out_start : int array;
  out_edges : int array;
  root : int array;
}

(* Compressed rows: ids of the edges whose [endpoint] is each node, in
   ascending edge id. *)
let rows n endpoint =
  let m = Array.length endpoint in
  let start = Array.make (n + 1) 0 in
  Array.iter (fun v -> start.(v + 1) <- start.(v + 1) + 1) endpoint;
  for v = 1 to n do
    start.(v) <- start.(v) + start.(v - 1)
  done;
  let fill = Array.sub start 0 n in
  let ids = Array.make m 0 in
  for e = 0 to m - 1 do
    let v = endpoint.(e) in
    ids.(fill.(v)) <- e;
    fill.(v) <- fill.(v) + 1
  done;
  (start, ids)

(* Union-find whose representative is always the least id of its set. *)
let components n src dst =
  let parent = Array.init n Fun.id in
  (* path halving keeps [find] iterative on long chains *)
  let rec find v =
    let p = parent.(v) in
    if p = v then v
    else begin
      parent.(v) <- parent.(p);
      find parent.(v)
    end
  in
  Array.iteri
    (fun e u ->
      let a = find u and b = find dst.(e) in
      if a < b then parent.(b) <- a else if b < a then parent.(a) <- b)
    src;
  Array.init n find

let of_csdfg dfg =
  let n = Csdfg.n_nodes dfg in
  let edges = Array.of_list (Csdfg.edges dfg) in
  let src = Array.map (fun (e : Csdfg.attr G.edge) -> e.G.src) edges in
  let dst = Array.map (fun (e : Csdfg.attr G.edge) -> e.G.dst) edges in
  let in_start, in_edges = rows n dst in
  let out_start, out_edges = rows n src in
  {
    dfg;
    time = Array.init n (Csdfg.time dfg);
    src;
    dst;
    delay = Array.map Csdfg.delay edges;
    volume = Array.map Csdfg.volume edges;
    in_start;
    in_edges;
    out_start;
    out_edges;
    root = components n src dst;
  }

let n_edges t = Array.length t.src

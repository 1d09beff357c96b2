(* Content-addressed cache keys for scheduling requests.

   The key must cover every input the scheduler's reply bytes depend
   on: the graph (structure, labels and name — the name is printed in
   the exported schedule), the machine (link structure and name — the
   communication model's name is printed too), the transport discipline
   and every knob that steers the search.  Two requests with equal
   canonical forms therefore produce byte-identical schedules, which is
   the coherence argument the service cache rests on (DESIGN.md).

   The canonical form is a plain sorted text rendering, hashed with
   [Digest] (MD5).  MD5 is not collision-resistant against adversaries,
   but the cache is a performance layer, not an integrity boundary: a
   forged collision can only make the forger's own request return a
   stale schedule. *)

module Csdfg = Dataflow.Csdfg
module G = Digraph.Graph

type transport = Store_and_forward | Wormhole

let transport_name = function
  | Store_and_forward -> "store-and-forward"
  | Wormhole -> "wormhole"

(* One line of space-separated words.  Built without [Printf]: rendering
   the graph is most of a cache hit's work, and per-line formatting
   dominated it. *)
let add_line buf words =
  List.iteri
    (fun i w ->
      if i > 0 then Buffer.add_char buf ' ';
      Buffer.add_string buf w)
    words;
  Buffer.add_char buf '\n'

let add_graph buf g =
  add_line buf [ "graph"; Csdfg.name g ];
  List.iter
    (fun v ->
      add_line buf [ "node"; Csdfg.label g v; string_of_int (Csdfg.time g v) ])
    (Csdfg.nodes g);
  List.map
    (fun (e : Csdfg.attr G.edge) ->
      (e.G.src, e.G.dst, Csdfg.delay e, Csdfg.volume e))
    (Csdfg.edges g)
  |> List.sort compare
  |> List.iter (fun (s, d, x, v) ->
         add_line buf ("edge" :: List.map string_of_int [ s; d; x; v ]))

let add_topology buf topo =
  add_line buf
    [
      "topology";
      Topology.name topo;
      string_of_int (Topology.n_processors topo);
    ];
  List.map
    (fun (a, b, w) -> if a <= b then (a, b, w) else (b, a, w))
    (Topology.weighted_links topo)
  |> List.sort compare
  |> List.iter (fun (a, b, w) ->
         add_line buf ("link" :: List.map string_of_int [ a; b; w ]))

let render add x =
  let buf = Buffer.create 1024 in
  add buf x;
  Buffer.contents buf

let graph_text = render add_graph
let topology_text = render add_topology

let canonical_of_texts ?speeds ?passes ?(slowdown = 1) ~mode ~transport
    ~graph ~topology () =
  let buf =
    Buffer.create (String.length graph + String.length topology + 128)
  in
  Buffer.add_string buf "ccsched-cache/1\n";
  Buffer.add_string buf graph;
  Buffer.add_string buf topology;
  Buffer.add_string buf
    (Printf.sprintf "transport %s\n" (transport_name transport));
  Buffer.add_string buf
    (Printf.sprintf "mode %s\n"
       (match mode with
       | Remap.With_relaxation -> "relax"
       | Remap.Without_relaxation -> "strict"));
  Buffer.add_string buf
    (match passes with
    | None -> "passes default\n"
    | Some n -> Printf.sprintf "passes %d\n" n);
  Buffer.add_string buf
    (match speeds with
    | None -> "speeds uniform\n"
    | Some a ->
        Printf.sprintf "speeds %s\n"
          (String.concat ","
             (List.map string_of_int (Array.to_list a))));
  Buffer.add_string buf (Printf.sprintf "slowdown %d\n" slowdown);
  Buffer.contents buf

let canonical ?speeds ?passes ?slowdown ~mode ~transport g topo =
  canonical_of_texts ?speeds ?passes ?slowdown ~mode ~transport
    ~graph:(graph_text g) ~topology:(topology_text topo) ()

let digest_of_texts ?speeds ?passes ?slowdown ~mode ~transport ~graph
    ~topology () =
  Digest.to_hex
    (Digest.string
       (canonical_of_texts ?speeds ?passes ?slowdown ~mode ~transport ~graph
          ~topology ()))

let digest ?speeds ?passes ?slowdown ~mode ~transport g topo =
  digest_of_texts ?speeds ?passes ?slowdown ~mode ~transport
    ~graph:(graph_text g) ~topology:(topology_text topo) ()

let replan_canonical ~parent ~failed_pes ~failed_links =
  let buf = Buffer.create 128 in
  Buffer.add_string buf "ccsched-cache-replan/1\n";
  Buffer.add_string buf (Printf.sprintf "parent %s\n" parent);
  List.iter
    (fun p -> Buffer.add_string buf (Printf.sprintf "fail-pe %d\n" p))
    (List.sort_uniq compare failed_pes);
  List.iter
    (fun (a, b) ->
      Buffer.add_string buf (Printf.sprintf "fail-link %d %d\n" a b))
    (List.sort_uniq compare
       (List.map
          (fun (a, b) -> if a <= b then (a, b) else (b, a))
          failed_links));
  Buffer.contents buf

let replan_digest ~parent ~failed_pes ~failed_links =
  Digest.to_hex
    (Digest.string (replan_canonical ~parent ~failed_pes ~failed_links))

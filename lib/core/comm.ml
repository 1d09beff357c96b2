(* The built-in topology models are affine in the volume [m] and in the
   hop distance [h] between two distinct processors,

     cost = (per_hop_volume * h + per_volume) * m + per_hop * h + fixed,

   with [h] read from the topology's own flat distance table; the models
   without a topology cost [latency * m].  A cost is then a range check
   and at most one array read.  Only [custom] keeps a closure. *)
type model =
  | Hops of {
      dist : int array;  (* [p * n + q], shared with the topology *)
      per_hop_volume : int;
      per_volume : int;
      per_hop : int;
      fixed : int;
    }
  | Flat of int  (* latency per unit of volume *)
  | Custom of (int -> int -> int -> int)
(* src dst volume; only called with src <> dst *)

type t = { n : int; name : string; model : model }

let hops_model ?(per_hop_volume = 0) ?(per_volume = 0) ?(per_hop = 0)
    ?(fixed = 0) topo =
  Hops
    {
      dist = Topology.distance_table topo;
      per_hop_volume;
      per_volume;
      per_hop;
      fixed;
    }

let of_topology topo =
  {
    n = Topology.n_processors topo;
    name = Topology.name topo;
    model = hops_model ~per_hop_volume:1 topo;
  }

let wormhole topo =
  {
    n = Topology.n_processors topo;
    name = Topology.name topo ^ "-wormhole";
    model = hops_model ~per_volume:1 ~per_hop:1 ~fixed:(-1) topo;
  }

(* Every constructor must reject n <= 0: a processor-less comm would make
   the schedulers sweep forever and die with a misleading internal error. *)
let check_processors ctx n =
  if n <= 0 then
    invalid_arg (Printf.sprintf "Comm.%s: need at least one processor" ctx)

let zero ~n ~name =
  check_processors "zero" n;
  { n; name; model = Flat 0 }

let scaled topo ~factor =
  if factor < 0 then invalid_arg "Comm.scaled: negative factor";
  {
    n = Topology.n_processors topo;
    name = Printf.sprintf "%s-x%d" (Topology.name topo) factor;
    model = hops_model ~per_hop_volume:factor topo;
  }

let uniform ~n ~latency ~name =
  check_processors "uniform" n;
  if latency < 0 then invalid_arg "Comm.uniform: negative latency";
  { n; name; model = Flat latency }

let custom ~n ~name cost_fn =
  check_processors "custom" n;
  { n; name; model = Custom cost_fn }

let n_processors t = t.n
let name t = t.name

(* [src <> dst], both in range. *)
let off_diagonal t src dst volume =
  match t.model with
  | Hops a ->
      let h = a.dist.((src * t.n) + dst) in
      (((a.per_hop_volume * h) + a.per_volume) * volume) + (a.per_hop * h)
      + a.fixed
  | Flat latency -> latency * volume
  | Custom f -> f src dst volume

let cost t ~src ~dst ~volume =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Comm.cost: processor out of range";
  if volume < 0 then invalid_arg "Comm.cost: negative volume";
  if src = dst then 0 else off_diagonal t src dst volume

let hops t ~src ~dst =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Comm.hops: processor out of range";
  if src = dst then 0 else off_diagonal t src dst 1

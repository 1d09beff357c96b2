module Csdfg = Dataflow.Csdfg
module G = Digraph.Graph

type entry = { cb : int; pe : int }

(* A read-only window on a schedule's own arrays; declared before [t] so
   [t]'s fields take precedence in the code below. *)
type view = {
  start : int array;
  proc : int array;
  origin : int;
  speeds : int array;
}

(* Placements are dense per-node arrays, copied on write: a published
   schedule is never mutated, so one schedule can be handed to searches
   on several domains.  Rows are stored absolute: row [r] of the table is
   absolute row [origin + r], so shifting every node up one row only
   moves the origin.  The occupancy index lists, per processor, the nodes
   on it by ascending start; intervals on a processor are disjoint
   ([assign] enforces it), so that order is also ascending end.

   The graph is the original CSDFG plus a lag vector [lag] (Leiserson-
   Saxe retiming, [d_r(u->v) = d(u->v) + lag u - lag v]); rotation bumps
   the lag of the rotated nodes instead of rebuilding the graph.
   [retimed] memoises the retimed CSDFG for consumers that want one; it
   is shared by every schedule with the same lag. *)
type t = {
  adj : Adjacency.t;
  comm : Comm.t;
  speeds : int array;  (* per-processor cycle-time multiplier, >= 1 *)
  lag : int array;
  retimed : Csdfg.t option Atomic.t;
  start : int array;  (* absolute first row; meaningless when unassigned *)
  proc : int array;  (* processor, -1 when unassigned *)
  occ : int array array;  (* per PE: node ids by ascending start *)
  occ_n : int array;  (* live prefix length of each [occ] row *)
  origin : int;
  n_assigned : int;
  length : int;
}

let empty ?speeds dfg comm =
  let np = Comm.n_processors comm in
  let speeds =
    match speeds with
    | None -> Array.make np 1
    | Some s ->
        if Array.length s <> np then
          invalid_arg "Schedule.empty: speeds size differs from processors";
        Array.iter
          (fun x ->
            if x <= 0 then invalid_arg "Schedule.empty: non-positive speed")
          s;
        Array.copy s
  in
  let n = Csdfg.n_nodes dfg in
  {
    adj = Adjacency.of_csdfg dfg;
    comm;
    speeds;
    lag = Array.make n 0;
    retimed = Atomic.make (Some dfg);
    start = Array.make n 0;
    proc = Array.make n (-1);
    occ = Array.make np [||];
    occ_n = Array.make np 0;
    origin = 0;
    n_assigned = 0;
    length = 0;
  }

let speeds t = Array.copy t.speeds
let is_heterogeneous t = Array.exists (fun s -> s <> t.speeds.(0)) t.speeds
let n_nodes t = Array.length t.proc
let label t v = Csdfg.label t.adj.dfg v
let adjacency t = t.adj

let duration t ~node ~pe =
  if node < 0 || node >= n_nodes t then
    invalid_arg "Schedule.duration: node out of range";
  if pe < 0 || pe >= Array.length t.speeds then
    invalid_arg "Schedule.duration: processor out of range";
  t.adj.time.(node) * t.speeds.(pe)

let c_retimed_builds = Obs.Counters.counter "schedule.retimed_graph_builds"

(* Building the retimed graph is idempotent, so two domains racing on an
   empty memo both build equal graphs and either may win. *)
let dfg t =
  match Atomic.get t.retimed with
  | Some g -> g
  | None ->
      Obs.Counters.incr c_retimed_builds;
      let g = Dataflow.Retiming.apply t.adj.dfg t.lag in
      Atomic.set t.retimed (Some g);
      g

let comm t = t.comm
let length t = t.length
let n_processors t = Comm.n_processors t.comm

let delay t e =
  t.adj.delay.(e) + t.lag.(t.adj.src.(e)) - t.lag.(t.adj.dst.(e))

let edge t e =
  {
    G.src = t.adj.src.(e);
    dst = t.adj.dst.(e);
    label = { Csdfg.delay = delay t e; volume = t.adj.volume.(e) };
  }

let check_node t v =
  if v < 0 || v >= n_nodes t then
    invalid_arg "Schedule.entry: node out of range"

let is_assigned t v =
  check_node t v;
  t.proc.(v) >= 0

let entry t v =
  if is_assigned t v then Some { cb = t.start.(v) - t.origin; pe = t.proc.(v) }
  else None

let placements t =
  (Array.map (fun a -> a - t.origin) t.start, Array.copy t.proc)

let view t : view =
  { start = t.start; proc = t.proc; origin = t.origin; speeds = t.speeds }

let assigned_all t = t.n_assigned = n_nodes t
let n_assigned t = t.n_assigned

let unassigned t v ctx =
  invalid_arg
    (Printf.sprintf "Schedule.%s: node %s is not assigned" ctx (label t v))

let cb t v =
  if is_assigned t v then t.start.(v) - t.origin else unassigned t v "cb"

let pe t v = if is_assigned t v then t.proc.(v) else unassigned t v "pe"

(* Absolute last row of an assigned node. *)
let last_row t v = t.start.(v) + (t.adj.time.(v) * t.speeds.(t.proc.(v))) - 1

let ce t v =
  if is_assigned t v then last_row t v - t.origin else unassigned t v "ce"

(* Index in [occ.(p)] of the last node starting at or before absolute row
   [a]; -1 when there is none.  That node is the only one on [p] that can
   cover [a]. *)
let last_at_or_before t p a =
  let row = t.occ.(p) in
  let lo = ref 0 and hi = ref (t.occ_n.(p) - 1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) lsr 1 in
    if t.start.(row.(mid)) <= a then lo := mid + 1 else hi := mid - 1
  done;
  !hi

(* The last node of each processor carries that processor's largest CE. *)
let rows_needed t =
  let acc = ref 0 in
  for p = 0 to Array.length t.occ - 1 do
    let k = t.occ_n.(p) in
    if k > 0 then acc := Int.max !acc (last_row t t.occ.(p).(k - 1) - t.origin)
  done;
  !acc

let set_length t len =
  if len < rows_needed t then
    invalid_arg "Schedule.set_length: shorter than occupied rows";
  { t with length = len }

(* One tally for every query served by the occupancy index; a single
   atomic-flag read when observability is off (the default). *)
let c_occupancy_queries = Obs.Counters.counter "schedule.occupancy_queries"

let node_at t ~pe ~cs =
  Obs.Counters.incr c_occupancy_queries;
  let i = last_at_or_before t pe (cs + t.origin) in
  if i < 0 then None
  else
    let v = t.occ.(pe).(i) in
    if last_row t v >= cs + t.origin then Some v else None

let is_free t ~pe ~cb ~span:width =
  Obs.Counters.incr c_occupancy_queries;
  (* an overlap of [cb .. cb+width-1] must be the last node starting at
     or before the window's end *)
  let i = last_at_or_before t pe (cb + width - 1 + t.origin) in
  i < 0 || last_row t t.occ.(pe).(i) < cb + t.origin

let first_free_slot t ~pe ~from ~span:width =
  Obs.Counters.incr c_occupancy_queries;
  let row = t.occ.(pe) and k = t.occ_n.(pe) in
  (* [i]: the last node starting at or before the end of the window
     starting at absolute row [a] — the only one that can overlap it,
     since earlier nodes end before it starts.  When it overlaps, every
     window before its end + 1 overlaps it too (the window is fixed-
     width), so the scan jumps there and walks [i] forward. *)
  let a = ref (Int.max 1 from + t.origin) in
  let i = ref (last_at_or_before t pe (!a + width - 1)) in
  while !i >= 0 && last_row t row.(!i) >= !a do
    a := last_row t row.(!i) + 1;
    while !i + 1 < k && t.start.(row.(!i + 1)) <= !a + width - 1 do
      incr i
    done
  done;
  !a - t.origin

let first_row t =
  (* Only a processor's first node can start at row 1. *)
  let heads = ref [] in
  for p = 0 to Array.length t.occ - 1 do
    if t.occ_n.(p) > 0 then begin
      let v = t.occ.(p).(0) in
      if t.start.(v) = t.origin + 1 then heads := v :: !heads
    end
  done;
  List.sort compare !heads

(* ---- building ------------------------------------------------------ *)

(* A private copy of a schedule, edited in place.  Placements and the
   per-PE live counts are copied when the builder opens; a processor's
   node list is copied the first time it changes. *)
type builder = {
  mutable cur : t;
  owned : bool array;
  mutable open_ : bool;
}

let builder t =
  {
    cur =
      {
        t with
        start = Array.copy t.start;
        proc = Array.copy t.proc;
        occ = Array.copy t.occ;
        occ_n = Array.copy t.occ_n;
      };
    owned = Array.make (Array.length t.occ) false;
    open_ = true;
  }

let current b = b.cur

let finish b =
  b.open_ <- false;
  b.cur

(* Make processor [p]'s node list private to the builder, with room for
   one more node. *)
let own b p =
  let t = b.cur in
  let k = t.occ_n.(p) in
  if (not b.owned.(p)) || k = Array.length t.occ.(p) then begin
    let row = Array.make (max 8 (2 * k)) 0 in
    Array.blit t.occ.(p) 0 row 0 k;
    t.occ.(p) <- row;
    b.owned.(p) <- true
  end

let place b ~node ~cb ~pe =
  if not b.open_ then invalid_arg "Schedule.place: builder is finished";
  let t = b.cur in
  if cb < 1 then invalid_arg "Schedule.assign: control steps start at 1";
  if pe < 0 || pe >= n_processors t then
    invalid_arg "Schedule.assign: processor out of range";
  if is_assigned t node then
    invalid_arg
      (Printf.sprintf "Schedule.assign: node %s already assigned"
         (label t node));
  let span = duration t ~node ~pe in
  if not (is_free t ~pe ~cb ~span) then
    invalid_arg
      (Printf.sprintf "Schedule.assign: slot pe%d cs%d..%d is occupied" (pe + 1)
         cb (cb + span - 1));
  let a = cb + t.origin in
  let at = last_at_or_before t pe a + 1 in
  own b pe;
  let row = t.occ.(pe) and k = t.occ_n.(pe) in
  Array.blit row at row (at + 1) (k - at);
  row.(at) <- node;
  t.occ_n.(pe) <- k + 1;
  t.start.(node) <- a;
  t.proc.(node) <- pe;
  b.cur <-
    {
      t with
      n_assigned = t.n_assigned + 1;
      length = Int.max t.length (cb + span - 1);
    }

let unplace b node =
  let t = b.cur in
  let p =
    if is_assigned t node then t.proc.(node)
    else unassigned t node "unassign"
  in
  let at = last_at_or_before t p t.start.(node) in
  own b p;
  let row = t.occ.(p) and k = t.occ_n.(p) in
  Array.blit row (at + 1) row at (k - at - 1);
  t.occ_n.(p) <- k - 1;
  t.proc.(node) <- -1;
  b.cur <- { t with n_assigned = t.n_assigned - 1 }

let edit t f =
  let b = builder t in
  f b;
  finish b

let assign t ~node ~cb ~pe = edit t (fun b -> place b ~node ~cb ~pe)
let unassign t node = edit t (fun b -> unplace b node)
let unassign_all t nodes = edit t (fun b -> List.iter (unplace b) nodes)

let with_comm t comm =
  if Comm.n_processors comm <> Comm.n_processors t.comm then
    invalid_arg "Schedule.with_comm: processor count differs";
  { t with comm }

let shift_up t =
  (match first_row t with
  | v :: _ ->
      invalid_arg
        (Printf.sprintf "Schedule.shift_up: node %s starts at row 1"
           (label t v))
  | [] -> ());
  { t with origin = t.origin + 1; length = max 0 (t.length - 1) }

(* Shifting up while row 1 is empty moves the origin to just before the
   earliest start, in one step. *)
let normalize t =
  let first = ref max_int in
  for p = 0 to Array.length t.occ - 1 do
    if t.occ_n.(p) > 0 then first := Int.min !first t.start.(t.occ.(p).(0))
  done;
  let t =
    if t.n_assigned > 0 && !first > t.origin + 1 then
      let k = !first - t.origin - 1 in
      { t with origin = t.origin + k; length = max 0 (t.length - k) }
    else t
  in
  let rows = rows_needed t in
  if t.length > rows && rows > 0 then { t with length = rows } else t

(* ---- retiming ------------------------------------------------------ *)

(* Bumping the lag of every node in [set] by one takes a delay from each
   edge entering the set from outside it; only those edges can go
   negative. *)
let can_retime t set =
  List.for_all
    (fun v ->
      check_node t v;
      let ok = ref true in
      for i = t.adj.in_start.(v) to t.adj.in_start.(v + 1) - 1 do
        let e = t.adj.in_edges.(i) in
        if delay t e < 1 && not (List.mem t.adj.src.(e) set) then ok := false
      done;
      !ok)
    set

let retime t set =
  if not (can_retime t set) then
    invalid_arg "Schedule.retime: an incoming edge of the set has no delay";
  let lag = Array.copy t.lag in
  List.iter (fun v -> lag.(v) <- lag.(v) + 1) (List.sort_uniq compare set);
  { t with lag; retimed = Atomic.make None }

(* ---- digests ------------------------------------------------------- *)

(* The digests below walk nodes in dense id order (including unassigned
   gaps), so their results are bit-for-bit those of every earlier
   representation — portfolio's deterministic result rule and the golden
   signatures depend on that. *)

let compare_assignments a b =
  let key t =
    ( t.length,
      List.init (n_nodes t) (fun v ->
          match entry t v with None -> (-1, -1) | Some e -> (e.cb, e.pe)) )
  in
  compare (key a) (key b)

let signature t =
  let buf = Buffer.create 64 in
  Buffer.add_string buf (string_of_int t.length);
  for v = 0 to n_nodes t - 1 do
    if t.proc.(v) < 0 then Buffer.add_string buf ";_"
    else begin
      Buffer.add_char buf ';';
      Buffer.add_string buf (string_of_int (t.start.(v) - t.origin));
      Buffer.add_char buf '@';
      Buffer.add_string buf (string_of_int t.proc.(v))
    end
  done;
  Buffer.contents buf

(* FNV-1a over (length, per-node cb/pe); native-int wraparound is the
   implicit modulus.  Equal assignments hash equal; the converse holds up
   to hash collisions — callers needing certainty use
   [compare_assignments]. *)
let mix h x = (h lxor x) * 0x100000001b3

let hash t =
  let h = ref (mix 0x2545f4914f6cdd1d t.length) in
  for v = 0 to n_nodes t - 1 do
    if t.proc.(v) < 0 then h := mix !h (-1)
    else h := mix (mix !h (t.start.(v) - t.origin)) t.proc.(v)
  done;
  !h land max_int

(* The repeated-state key: two independent 63-bit lanes, each a sum
   over nodes of a fully mixed per-node term.  A term covers the node's
   placement and its lag relative to its component's root (two lag
   vectors give the same retimed delays exactly when they differ by a
   constant on each weakly-connected component).  Mixing every term on
   its own keeps one node's change from cancelling another's, which a
   sequential fold of raw differences allows; summing keeps the key
   linear, so it could be kept up to date node by node. *)
let[@inline] avalanche x =
  let x = (x lxor (x lsr 31)) * 0x3f58476d1ce4e5b9 in
  let x = (x lxor (x lsr 27)) * 0x14d049bb133111eb in
  x lxor (x lsr 31)

(* The two words are injective in (v, start) and (pe, lag) while each
   field stays below 2^31. *)
let[@inline] node_term seed v start pe lag =
  avalanche (avalanche (seed + (v lsl 32) + start) + (pe lsl 32) + lag)

let state_key t =
  let a = ref (avalanche (t.length + 0x1e3779b97f4a7c15))
  and b = ref (avalanche (t.length + 0x2545f4914f6cdd1d)) in
  for v = 0 to n_nodes t - 1 do
    let pe = t.proc.(v) in
    let start = if pe < 0 then 0 else t.start.(v) - t.origin in
    let lag = t.lag.(v) - t.lag.(t.adj.root.(v)) in
    a := !a + node_term 0x0a0761d6478bd642 v start pe lag;
    b := !b + node_term 0x27d4eb2f165667c5 v start pe lag
  done;
  (!a, !b)

let pp ppf t =
  let np = n_processors t in
  let len = max t.length (rows_needed t) in
  let cell cs p =
    match node_at t ~pe:p ~cs with Some v -> label t v | None -> ""
  in
  let width =
    let w = ref 3 in
    for v = 0 to n_nodes t - 1 do
      w := max !w (String.length (label t v))
    done;
    !w + 1
  in
  Fmt.pf ppf "@[<v>";
  Fmt.pf ppf "cs  ";
  for p = 0 to np - 1 do
    Fmt.pf ppf "%-*s" width (Printf.sprintf "pe%d" (p + 1))
  done;
  for cs = 1 to len do
    Fmt.pf ppf "@,%-4d" cs;
    for p = 0 to np - 1 do
      Fmt.pf ppf "%-*s" width (cell cs p)
    done
  done;
  Fmt.pf ppf "@]"

let pp_compact ppf t =
  Fmt.pf ppf "%s on %s: length %d (%d/%d nodes assigned)"
    (Csdfg.name t.adj.dfg) (Comm.name t.comm) t.length (n_assigned t)
    (n_nodes t)

(** Static cyclic schedule tables.

    A schedule assigns each node a starting control step [CB >= 1]
    (Definition 3.1) and a processor [PE] (Definition 3.3), inside a table
    of [length] control steps that repeats every iteration.  A node [v]
    occupies processor [PE v] during [CB v .. CE v] where
    [CE v = CB v + t v - 1] (Definition 3.2).

    The table [length] can exceed the last occupied row: trailing idle
    steps are how the projected-schedule-length constraint (Lemma 4.3) is
    honoured.

    Representation (see docs/model.md, "Scheduler complexity"):
    placements live in dense per-node arrays, copied on write, so a
    published schedule is never mutated and reads are array loads.  Rows
    are stored relative to a row origin, so {!shift_up} and {!normalize}
    are O(P) and never touch the placements.  A per-processor occupancy
    index (the processor's nodes by ascending start) serves {!is_free},
    {!node_at} and {!first_free_slot} by binary search, and {!first_row}
    and {!rows_needed} in O(P).  The scheduled graph is the original
    CSDFG plus a retiming lag vector [r] with
    [d_r(u->v) = d(u->v) + r u - r v] (the convention of
    [Dataflow.Retiming]); {!retime} bumps [r] and {!dfg} builds the
    retimed graph on demand, once per lag. *)

type entry = { cb : int; pe : int }

type t

val empty : ?speeds:int array -> Dataflow.Csdfg.t -> Comm.t -> t
(** No assignments, length 0.  [speeds] (default all 1) gives each
    processor a cycle-time multiplier: node [v] on processor [p] runs
    for [time v * speeds.(p)] control steps — heterogeneous machines.
    @raise Invalid_argument when the array size differs from the
    processor count or a speed is non-positive. *)

val speeds : t -> int array
(** Per-processor cycle-time multipliers (a copy). *)

val is_heterogeneous : t -> bool

val duration : t -> node:int -> pe:int -> int
(** Execution time of a node on a given processor:
    [time node * speeds.(pe)]. *)

val dfg : t -> Dataflow.Csdfg.t
(** The scheduled (retimed) graph.  Built from the original graph and the
    lag vector on first use and memoised; schedules derived from one
    another without a {!retime} share the memo, and the memo is safe to
    fill from several domains at once. *)

val n_nodes : t -> int
val label : t -> int -> string
(** Node labels and times are those of {!dfg}; neither needs it built. *)

val adjacency : t -> Adjacency.t
(** The original graph as flat arrays, shared by the whole lineage.
    Edge ids index {!delay} and {!edge}. *)

val delay : t -> int -> int
(** Retimed delay of an edge id: [d e + r (src e) - r (dst e)]. *)

val edge : t -> int -> Dataflow.Csdfg.attr Digraph.Graph.edge
(** An edge id as a {!dfg} edge, with its retimed delay. *)

val comm : t -> Comm.t
val length : t -> int
val n_processors : t -> int

val set_length : t -> int -> t
(** @raise Invalid_argument when shorter than {!rows_needed}. *)

val entry : t -> int -> entry option
val is_assigned : t -> int -> bool
val assigned_all : t -> bool
val n_assigned : t -> int

val placements : t -> int array * int array
(** Fresh copies of every node's [CB] and [PE], indexed by node; [PE] is
    [-1] (and [CB] meaningless) for an unassigned node. *)

(** {2 Read-only views}

    The placement arrays themselves, for loops over every node or edge
    (the validator, [Timing.required_length]) that would otherwise pay a
    range check and a call per read, or a copy per call.  They are never
    mutated once the schedule is published, and callers must not write
    them. *)

type view = private {
  start : int array;
      (** per node: [CB + origin]; meaningless when unassigned *)
  proc : int array;  (** per node: processor, [-1] when unassigned *)
  origin : int;  (** [CB v = start.(v) - origin] *)
  speeds : int array;  (** per processor: cycle-time multiplier *)
}

val view : t -> view

val cb : t -> int -> int
(** @raise Invalid_argument when the node is unassigned. *)

val ce : t -> int -> int
(** [cb + duration - 1] on the assigned processor.
    @raise Invalid_argument when unassigned. *)

val pe : t -> int -> int
(** @raise Invalid_argument when the node is unassigned. *)

val assign : t -> node:int -> cb:int -> pe:int -> t
(** Table length grows to cover the node; the occupied span is the
    node's {!duration} on that processor.
    @raise Invalid_argument when [cb < 1], the processor is out of range,
    the node is already assigned, or the slot overlaps another node. *)

val unassign : t -> int -> t

val unassign_all : t -> int list -> t
(** One copy of the placements for the whole list. *)

(** {2 Building in place}

    Callers that place or remove many nodes in a row go through one
    builder: it copies the schedule once, then edits its private copy in
    place, so [k] placements cost one copy instead of [k]. *)

type builder

val builder : t -> builder

val current : builder -> t
(** The schedule as built so far.  It shares the builder's arrays: it is
    valid until the next {!place}, and must not be kept past it. *)

val place : builder -> node:int -> cb:int -> pe:int -> unit
(** {!assign} in place; same checks and errors.
    @raise Invalid_argument also when the builder is finished. *)

val finish : builder -> t
(** The built schedule.  The builder accepts no more edits, so the result
    is never mutated again. *)

val edit : t -> (builder -> unit) -> t
(** [edit t f] runs [f] on a builder of [t] and finishes it. *)

val can_retime : t -> int list -> bool
(** Whether {!retime} may bump this set: every edge entering the set from
    outside it has a retimed delay of at least one.  Reads only the
    set's incoming edges. *)

val retime : t -> int list -> t
(** Retime each node of the set by one (Definition 4.1): [r v] grows by
    one, so each edge entering the set from outside loses a delay and each
    edge leaving it gains one.  Placements are unchanged.
    @raise Invalid_argument when {!can_retime} is false. *)

val with_comm : t -> Comm.t -> t
(** Re-cost the same placements under a different communication model
    (e.g. evaluate a store-and-forward schedule under wormhole costs).
    The result may need a different {!val-length}; re-check with
    [Timing.required_length] / the validator.
    @raise Invalid_argument when the processor count differs. *)

val is_free : t -> pe:int -> cb:int -> span:int -> bool
(** Whether processor [pe] is idle during [cb .. cb + span - 1]. *)

val node_at : t -> pe:int -> cs:int -> int option
(** The node occupying a cell, if any. *)

val first_free_slot : t -> pe:int -> from:int -> span:int -> int
(** Earliest [cs >= from] such that the span fits on the processor. *)

val first_row : t -> int list
(** Nodes with [CB = 1], ascending (the rotation set [J], Definition 4.1). *)

val rows_needed : t -> int
(** Largest [CE] over assigned nodes; 0 when nothing is assigned. *)

val shift_up : t -> t
(** Subtract one from every [CB]; length decreases by one.
    @raise Invalid_argument when some node starts at row 1. *)

val normalize : t -> t
(** Shift up while row 1 is unoccupied (uniform shifts never change
    schedule semantics), and clamp [length] down to {!rows_needed} when it
    exceeds it needlessly — callers re-pad via PSL afterwards. *)

val compare_assignments : t -> t -> int
(** Order on (length, entries) — detects fixed points across passes. *)

val signature : t -> string
(** Compact canonical string of (length, entries); equal iff
    {!compare_assignments} = 0. *)

val hash : t -> int
(** Allocation-free structural hash of (length, entries): equal whenever
    {!compare_assignments} = 0 (the converse holds only up to hash
    collisions). *)

val state_hash : t -> int
(** {!hash} extended with the retimed delays: equal whenever the
    assignments and every retimed delay are equal.  The delays are
    hashed as the lag of each node relative to its weakly-connected
    component's least node, which determines them; O(V), no edge walk.
    Compaction's repeated-state test. *)

val pp : Format.formatter -> t -> unit
(** Paper-style table: one row per control step, one column per
    processor, multi-cycle nodes repeated in each occupied row. *)

val pp_compact : Format.formatter -> t -> unit
(** One line: name, length, assignment summary. *)

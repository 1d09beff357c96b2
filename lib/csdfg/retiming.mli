(** Retiming of CSDFGs (Leiserson–Saxe, with the paper's sign convention).

    A retiming [r : V -> int] moves [r v] delays from every incoming edge
    of [v] onto every outgoing edge (paper §2), i.e. the retimed delay of
    an edge [u -> v] is [d(e) + r(u) - r(v)].  A retiming is legal when
    every retimed delay is non-negative.  Retiming never changes the total
    delay of a cycle. *)

type r = int array

val identity : Csdfg.t -> r

val retimed_delay : r -> Csdfg.attr Digraph.Graph.edge -> int
(** [d(e) + r(src) - r(dst)]. *)

val is_legal : Csdfg.t -> r -> bool

val illegal_edges : Csdfg.t -> r -> Csdfg.attr Digraph.Graph.edge list
(** Edges whose retimed delay would be negative. *)

val apply : Csdfg.t -> r -> Csdfg.t
(** Rebuild the CSDFG with retimed delays.
    @raise Invalid_argument when the retiming is illegal. *)

val rotate_set : Csdfg.t -> int list -> Csdfg.t
(** The paper's rotation (Definition 4.1): retime every node of the set by
    one — draw one delay from each incoming edge of the set, push one onto
    each outgoing edge.  @raise Invalid_argument when illegal (some
    incoming edge from outside the set has no delay to draw). *)

val can_rotate : Csdfg.t -> int list -> bool

val compose : r -> r -> r
(** Pointwise sum: applying [compose a b] equals applying [a] then [b]. *)

val normalize : r -> r
(** Shift so the minimum component is 0 (does not change edge delays). *)

val infer : original:Csdfg.t -> retimed:Csdfg.t -> r option
(** Recover the retiming that transformed [original] into [retimed]
    (same nodes and edges, delays possibly redistributed), normalized per
    weakly-connected component so the minimum is 0.  [None] when no
    retiming explains the delay difference.  This is how the compaction
    driver reconstructs the cumulative loop-pipelining depth for
    prologue/epilogue generation. *)

(** {1 Clock-period minimisation}

    The classical result the paper's rotation builds on: the least clock
    period (longest zero-delay path) any legal retiming reaches, found by
    Leiserson and Saxe's FEAS test without their W/D matrices.  FEAS
    repeatedly computes zero-delay arrival times on the retimed graph and
    lowers [r v] wherever the arrival exceeds the period; at most |V|
    rounds of O(V + E) each, in O(V + E) memory.  [ccsched show] prints
    the result.  Each function below raises [Invalid_argument] when the
    CSDFG is illegal. *)

val clock_period : Csdfg.t -> int
(** Maximum total node time along a zero-delay path (the length of an
    unlimited-resource, zero-communication schedule). *)

val feasible : Csdfg.t -> period:int -> r option
(** A legal retiming, normalized to minimum 0, making the clock period
    at most [period], when one exists: FEAS, O(V (V + E)) time.  [None]
    at once when [period] is below {!Csdfg.max_time}. *)

val min_period : Csdfg.t -> int * r
(** The minimum achievable clock period over all legal retimings, with a
    witness retiming.  It first probes the largest of two lower bounds,
    {!Csdfg.max_time} and the ceiling of {!Iteration_bound.exact}, and
    binary-searches the integers up to {!clock_period} only when that
    probe fails: one FEAS run in the common case, otherwise one per
    halving of the gap between the probe and {!clock_period}. *)

(** Exact maximum cycle ratio.

    [maximum g ~num ~den] is [max over cycles C (sum num / sum den)].
    With numerator = node computation time and denominator = edge delay
    this is exactly the iteration bound of a data-flow graph.

    The search jumps from cycle to cycle: at the current ratio [T/D] an
    integer Bellman–Ford over [T * den e - D * num e] either converges
    (no cycle has a larger ratio) or leaves a cycle among its
    predecessor pointers, whose ratio is strictly larger and becomes the
    next [T/D].  Every step is exact integer arithmetic; each jump costs
    at most [V] rounds of [O(E)], and a handful of jumps is typical.
    Parallel edges make distinct circuits, each weighed on its own. *)

val maximum :
  'e Graph.t ->
  num:('e Graph.edge -> int) ->
  den:('e Graph.edge -> int) ->
  ((int * int) * 'e Graph.edge list) option
(** [Some ((t, d), cycle)]: the maximum ratio as the unreduced fraction
    [t / d] of [cycle], an elementary cycle attaining it.  The cycle is
    in forward edge order, starting with the edge that leaves its
    smallest node (the rotation {!Cycles.elementary} uses).  [None] when
    the graph is acyclic.

    Denominators must be non-negative and every cycle's denominator sum
    positive.  The arithmetic stays exact while
    [(V + 1) * (2 * V * M * Dm + M + Dm) < 2^61], with [M] the largest
    [|num e|] and [Dm] the largest [den e]: for a data-flow graph,
    roughly [2 V^2 * max time * max delay].
    @raise Invalid_argument if some edge has a negative denominator,
    some cycle has denominator sum 0, or the weights break that bound. *)

(** Iteration bound of a cyclic data-flow graph.

    The iteration bound [B(G) = max over cycles C of T(C) / D(C)] (total
    computation time over total delay) is the theoretical minimum average
    schedule length per iteration, regardless of processor count — a
    floor against which cyclo-compaction results can be judged.  It is
    computed exactly by {!Digraph.Cycle_ratio.maximum}, without
    enumerating cycles. *)

val exact : Csdfg.t -> (int * int) option
(** Unreduced fraction [T(C') / D(C')] of a critical cycle [C'];
    [None] for acyclic graphs.
    @raise Invalid_argument on a zero-delay cycle (an illegal graph). *)

val exact_ceil : Csdfg.t -> int option
(** [ceil] of {!exact} — the smallest integer schedule length per
    iteration permitted by the loop-carried dependencies. *)

val critical_cycle : Csdfg.t -> int list option
(** The nodes of one cycle attaining the bound, in edge order from its
    smallest node id; [None] for acyclic graphs. *)

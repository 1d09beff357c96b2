(** A CSDFG's nodes and edges as flat arrays.

    Built once per schedule lineage ({!Schedule.empty}); every schedule
    derived from that one shares it.  Edge ids are positions in
    [Csdfg.edges] order, and each node's incoming and outgoing edge ids
    are listed ascending, so they follow [Csdfg.pred] / [Csdfg.succ]
    order.  The arrays are read-only: nothing may write to them. *)

type t = private {
  dfg : Dataflow.Csdfg.t;  (** the graph the arrays describe *)
  time : int array;  (** per node *)
  src : int array;  (** per edge *)
  dst : int array;
  delay : int array;  (** per edge, before any retiming *)
  volume : int array;
  in_start : int array;
      (** [in_edges.(in_start.(v) .. in_start.(v+1) - 1)] enter [v] *)
  in_edges : int array;
  out_start : int array;
  out_edges : int array;
  root : int array;
      (** per node, the least node id of its weakly-connected component *)
}

val of_csdfg : Dataflow.Csdfg.t -> t
(** O(V + E). *)

val n_edges : t -> int

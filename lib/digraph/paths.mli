(** Single-source shortest paths (Dijkstra).

    Edge weights are supplied by a callback so the same graph can be
    measured along different attributes (hops, delay, volume, ...). *)

val unreachable : int
(** Sentinel distance for unreachable pairs ([max_int / 4], safe to add). *)

val dijkstra : 'e Graph.t -> weight:('e Graph.edge -> int) -> src:int -> int array
(** Single-source shortest distances with non-negative weights.
    Unreachable nodes get {!unreachable}.
    @raise Invalid_argument on a negative edge weight. *)

val path_to : dist:int array -> parent:int array -> int -> int list option
(** Reconstruct a path from parent pointers produced by {!dijkstra_tree}. *)

val dijkstra_tree :
  'e Graph.t ->
  weight:('e Graph.edge -> int) ->
  src:int ->
  int array * int array
(** Like {!dijkstra} but also returns parent pointers ([-1] at the root
    and for unreachable nodes). *)

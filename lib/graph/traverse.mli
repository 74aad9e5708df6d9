(** Graph traversals: breadth-first and depth-first search, connected
    components, and topological sorting. *)

val bfs_order : Ugraph.t -> int -> int list
(** Nodes reachable from the start, in BFS order (start first).
    Neighbours are visited in adjacency-list order. *)

val bfs_dist : Ugraph.t -> int -> int array
(** Hop distances from the start; unreachable nodes get [max_int]. *)

val components : Ugraph.t -> int list list
(** Connected components, each sorted increasingly, ordered by their
    smallest member. *)

val is_connected : Ugraph.t -> bool

val topological_sort : Digraph.t -> int list option
(** Kahn's algorithm; [None] when the graph has a directed cycle.
    Ties are broken by smallest node id, so the result is canonical. *)

val is_dag : Digraph.t -> bool

val eccentricity : Ugraph.t -> int -> int
(** Greatest hop distance from the node to any reachable node. *)

val diameter : Ugraph.t -> int
(** Maximum eccentricity over all nodes; [max_int] if disconnected,
    0 for graphs with fewer than two nodes. *)

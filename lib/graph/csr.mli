(** Compressed-sparse-row view of an undirected graph.

    A {!Ugraph.t} stores adjacency as linked lists of [(node, weight
    ref)] pairs; every BFS over it allocates.  This module freezes a
    graph's adjacency into two flat [int array]s (offsets / targets) so
    the traversals that drive the mapping algorithms — per-source BFS
    and the all-pairs hop matrix — run allocation-free over contiguous
    memory.  Neighbour order matches [Ugraph.neighbors]
    (first-insertion order), so traversals visit nodes in the same
    order as the list-based code paths. *)

type t

val of_ugraph : Ugraph.t -> t
(** Snapshot of the graph's current adjacency; later mutations of the
    source graph are not reflected. *)

val unreachable : int
(** Distance value for unreachable nodes ([max_int]), matching
    {!Traverse.bfs_dist}. *)

val bfs_dist : t -> int -> int array
(** Hop distances from the source; unreachable nodes get
    {!unreachable}.  Agrees with [Traverse.bfs_dist] on the source
    graph. *)

val all_pairs_hops : ?parallel:bool -> t -> int array
(** Flat row-major hop matrix: entry [u * n + v] is the hop distance
    from [u] to [v] ({!unreachable} when disconnected).  With
    [~parallel:true] the per-source BFS rows are fanned out across
    OCaml 5 domains (each domain writes a disjoint block of rows);
    the result is identical to the sequential computation. *)

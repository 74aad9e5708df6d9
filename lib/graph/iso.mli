(** Graph isomorphism for small graphs (backtracking with degree and
    adjacency pruning).  Used to detect nameable task-graph families
    and to validate the group-theoretic Cayley-graph construction. *)

val isomorphism : Ugraph.t -> Ugraph.t -> int array option
(** [isomorphism a b] is a bijection [f] (as an array indexed by nodes
    of [a]) with [{u,v} ∈ a ⟺ {f u, f v} ∈ b], ignoring weights, or
    [None].  Exponential in the worst case; intended for graphs with at
    most a few dozen nodes. *)

val isomorphic : Ugraph.t -> Ugraph.t -> bool

val isomorphism_distance_pruned : Ugraph.t -> Ugraph.t -> int array option
(** Like {!isomorphism} but for regular, highly symmetric graphs
    (tori, circulants) where degree pruning is useless: compares
    all-pairs distance multisets first (isomorphic graphs must agree)
    and prunes the backtracking with distance consistency — a partial
    mapping must preserve every pairwise distance, not just adjacency.
    Equivalent result to {!isomorphism}, vastly faster on such
    graphs.

    Partially apply it to test one graph against several candidates:
    [a]'s distance profiles are computed once, on the first candidate
    whose node and edge counts match, and reused for the rest.  The
    staged function must stay within one domain. *)

val digraph_isomorphism : Digraph.t -> Digraph.t -> int array option
(** Directed variant; compares aggregated edge weights, so parallel
    edges with equal total weight are identified. *)

val is_automorphism : Ugraph.t -> int array -> bool
(** Checks that a permutation preserves adjacency. *)

val is_node_symmetric : Ugraph.t -> bool
(** True when the automorphism group is transitive on nodes, i.e. for
    every node [v] some automorphism maps node 0 to [v].  Exponential in
    the worst case; intended for small graphs (≤ ~32 nodes). *)

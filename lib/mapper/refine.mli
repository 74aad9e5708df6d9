(** Local-search refinement of an embedding (paper §6 anticipates
    "new and improved algorithms" layered on the MAPPER library).

    Pairwise-interchange hill climbing on the NN-Embed objective: try
    swapping the processors of two clusters, or moving a cluster to a
    free processor, and keep any change that lowers the total
    weight × hop-distance of the cluster graph.  Deterministic;
    terminates at a local optimum or after [max_rounds] sweeps. *)

val improve_embedding :
  ?max_rounds:int ->
  ?budget:Budget.t ->
  ?swaps:int ref ->
  ?allowed:(int -> int -> bool) ->
  Oregami_graph.Ugraph.t ->
  Oregami_topology.Topology.t ->
  int array ->
  int array
(** [improve_embedding cg topo proc_of_cluster] returns an embedding
    with objective ≤ the input's ([max_rounds] defaults to 10).
    When [swaps] is given it is incremented once per accepted move or
    swap — the pipeline's per-pass instrumentation.  An exhausted
    [budget] stops the sweep at the current (always-valid) embedding,
    recorded as a ["refine"] truncation.

    [allowed c p] (default everything) filters the processors cluster
    [c] may occupy: moves and swaps that would violate it are skipped,
    so a cluster pinned via a single allowed processor is immobile and
    the result stays {!Constraints}-feasible if the input was. *)

(** Algorithm NN-Embed (paper §4.3): greedy embedding of the contracted
    cluster graph into the network, placing highly communicating
    clusters on adjacent processors.

    Its placement rule — the eligible processor with the least
    hop-weighted communication to the already-placed neighbours — is
    also the rule of the paper's §6 extensions: {!Incremental} places
    spawned tasks with it, {!Repair} evacuates tasks off dead
    processors with it, and the pipeline's greedy-feasible fallback is
    its cost-free case.  {!cheapest} and {!placed_cost} are that rule,
    written once. *)

val cheapest :
  eligible:(int -> bool) -> cost:(int -> int) -> load:int array -> cap:int -> int
(** [cheapest ~eligible ~cost ~load ~cap] considers the processors [p]
    of [0 .. Array.length load - 1] with [eligible p] and
    [load.(p) < cap], and returns the one minimising
    [(cost p, load.(p), p)] lexicographically, or [-1] when none
    qualifies.  [cost] is called once per qualifying processor. *)

val placed_cost :
  Oregami_topology.Distcache.t -> Oregami_graph.Ugraph.t -> int array -> int -> int -> int
(** [placed_cost dc g proc_of v p] is Σ [w × hops(p, proc_of.(d))] over
    the neighbours [d ≠ v] of [v] in [g] (edge weight [w]) that are
    placed ([proc_of.(d) ≥ 0]): what putting [v] on [p] costs against
    the current positions of the others. *)

exception Infeasible of string
(** Raised when a cluster has no free processor its filter accepts;
    the message names the cluster.  Unconstrained runs never raise it,
    since they need at most one cluster per alive processor. *)

val embed :
  ?budget:Budget.t ->
  ?fixed:int array ->
  ?allowed:(int -> int -> bool) ->
  Oregami_graph.Ugraph.t ->
  Oregami_topology.Topology.t ->
  int array
(** [embed cg topo] returns an injective cluster → processor map
    (requires [node_count cg ≤ node_count topo]).

    Greedy order: the heaviest cluster edge is placed first on a
    maximum-degree processor and a neighbour; thereafter the unplaced
    cluster with the largest total communication to placed clusters
    goes to the free processor minimizing the hop-weighted
    communication distance to its placed neighbours ({!cheapest} over
    {!placed_cost}).  Deterministic (ties by smallest id).

    When [budget] (default unlimited) trips, the remaining clusters
    are streamed onto the first free alive processors — still
    injective and alive-only, recorded as an ["nn-embed"] truncation.

    Placement constraints ({!Constraints}): [fixed] pre-places
    clusters (entry ≥ 0 pins that cluster, [-1] leaves it free, length
    must equal the cluster count) and [allowed c p] filters the
    processors cluster [c] may occupy; without them every alive
    processor is allowed.  The one difference the filter's presence
    makes is the heaviest edge's partner: without [fixed] and
    [allowed] it goes to the seed processor's first neighbour, with
    either it is left to the greedy scan, which honours the filter. *)

val weighted_hops :
  Oregami_graph.Ugraph.t -> Oregami_topology.Topology.t -> int array -> int
(** Objective: Σ over cluster edges of weight × hop distance of their
    processors — the quantity NN-Embed greedily minimizes. *)

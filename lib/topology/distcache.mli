(** Topology-resident distance cache and on-demand route candidates.

    Every mapping algorithm in this repo — NN-Embed, pairwise
    refinement, incremental placement, MM-Route, aggregate replanning —
    is driven by processor hop distances and shortest-route queries on
    the target topology.  This module keeps the structures those
    queries need on the {!Topology.cache} slot, built at most once per
    topology value:

    - the {!Csr} adjacency and a per-node arc table (neighbours in
      ascending order, each with its link id), both O(links) and filled
      when the state is first attached;
    - a flat all-pairs hop matrix computed over the CSR on first use
      (fanned out across OCaml 5 domains for topologies with at least
      {!parallel_threshold} processors).

    Nothing per processor pair is stored.  A route query walks the
    shortest-route DAG the hop matrix implies in lexicographic order and
    builds only the routes at the list positions it was asked for,
    skipping every other successor's block of routes by its size.  Sizes
    are counted on demand, saturating at the cap; a query for the full
    list never skips, so it counts nothing.  Link ids come from the arc
    table.  A query therefore costs at most O(DAG nodes between the pair
    × degree) to count plus O(hops) per route built, and any scratch it
    needs dies with the call.  Results agree exactly with the list-based
    [Routes.shortest_routes] (same lexicographic order, same cap).

    The cache is {e domain-safe}: one topology value may be shared by a
    whole pool of mapping domains (the batch service does exactly
    that).  The hop matrix is built at most once — mutual exclusion by
    a per-topology mutex, publication through an [Atomic.t] so readers
    on other domains see the initialised rows.  {!hop} and the route
    queries only read published, immutable arrays and take no lock. *)

type t
(** Cache handle with the hop matrix guaranteed built. *)

val hops : Topology.t -> t
(** Builds the all-pairs hop matrix on first use and returns the
    handle; later calls on the same topology value are O(1). *)

val hop : t -> int -> int -> int
(** [hop c u v] is the hop distance between processors [u] and [v]
    ([Csr.unreachable], i.e. [max_int], when disconnected).  O(1). *)

val routes : ?cap:int -> Topology.t -> int -> int -> Routes.route list
(** Same result as [Routes.shortest_routes]: all minimum-hop routes in
    lexicographic node-path order, truncated to the first [cap]
    (default 64); the single empty-link route when source equals
    destination; [[]] when the destination is unreachable.  Built from
    the cached hop matrix on every call and never stored. *)

val routes_sampled :
  ?cap:int -> want:int -> Topology.t -> int -> int -> Routes.route list
(** [routes_sampled ?cap ~want topo u v] is
    [Routes.sample_evenly ~want (routes ?cap topo u v)], but builds only
    the routes at the kept positions ({!Routes.stride}).  The coarse
    router sizes [want] by a pair's aggregated traffic so hot pairs
    keep the full candidate spread while the long tail of light pairs
    is scored against a handful of representatives. *)

val deterministic : Topology.t -> int -> int -> Routes.route
(** The natural oblivious route for the topology: {!Routes.ecube} on
    hypercubes, {!Routes.dimension_order} on meshes and tori, and the
    first route of {!routes} otherwise.  On a degraded view the
    kind-specific schemes are unsafe (they may cross dead links), so
    this always takes the first shortest route on the surviving graph;
    raises [Invalid_argument] if the destination is unreachable. *)

val hop_builds : Topology.t -> int
(** How many times this topology's hop matrix has been computed —
    0 before first use, and 1 forever after unless the cache is
    externally replaced, {e including} when many domains race on a
    cold topology.  Exposed so tests and benchmarks can assert the
    matrix is computed at most once per topology per run. *)

val parallel_threshold : int ref
(** Node count at or above which the all-pairs computation fans out
    across domains (default 256).  Settable for tests. *)

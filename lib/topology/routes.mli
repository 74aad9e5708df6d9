(** Routing tables: enumeration of candidate routes between processor
    pairs.

    MM-Route consumes "possible choices for the shortest routes" (paper
    §4.4, Fig 6b); this module provides them, either enumerated from the
    shortest-path DAG of an arbitrary topology or by the classical
    deterministic schemes (e-cube for hypercubes, dimension-order for
    meshes) used as routing baselines. *)

type route = { nodes : int list; links : int list }
(** A route records both the processor path (endpoints included) and
    the link ids traversed, so [List.length links = hops]. *)

val of_nodes : Topology.t -> int list -> route
(** Route from an explicit node path; computes the traversed link ids.
    Raises [Invalid_argument] when consecutive nodes are not
    adjacent. *)

val shortest_routes : ?cap:int -> Topology.t -> int -> int -> route list
(** All minimum-hop routes between two processors, up to [cap]
    (default 64), lexicographically ordered by node path.  Returns the
    single empty-link route when source equals destination. *)

val route_table : ?cap:int -> Topology.t -> (int * int, route list) Hashtbl.t
(** Routes for every ordered pair, computed eagerly and held in one
    table.  Prefer [Distcache.routes], which builds a pair's routes on
    demand from the cached hop matrix and stores nothing per pair. *)

val ecube : Topology.t -> int -> int -> route
(** Deterministic e-cube (dimension-order, lowest bit first) route on a
    hypercube.  Raises [Invalid_argument] on other topologies and on
    degraded views (the scheme assumes every cube link is up). *)

val dimension_order : Topology.t -> int -> int -> route
(** Deterministic row-then-column route on a mesh or torus (tori route
    the short way around).  Raises [Invalid_argument] otherwise, and on
    degraded views. *)

val hops : route -> int

val stride : want:int -> int -> int * (int -> int)
(** [stride ~want n] is [(keep, position)]: out of a list of [n],
    {!sample_evenly} keeps [keep] entries, the [i]-th ([i < keep]) at
    ascending position [position i].  That is [i * n / want] for
    [i < want] when [want < n], every position when [want >= n], and
    none when [want <= 0].  Position 0 is always kept.
    [Distcache.routes_sampled] builds exactly these positions. *)

val sample_evenly : want:int -> route list -> route list
(** [sample_evenly ~want rs] keeps the routes of [rs] at the
    {!stride} positions for [List.length rs]: at most [want] routes,
    spread evenly over the list by deterministic stride sampling (the
    first route is always kept; relative order is preserved).
    [want <= 0] yields the empty list, [want >= length rs] yields [rs].
    The coarse router uses this stride to trim a heavy pair's candidate
    set without collapsing it onto a lexicographic prefix that would
    share every early link. *)

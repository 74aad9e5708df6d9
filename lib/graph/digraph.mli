(** Directed graphs with integer-weighted edges over nodes [0 .. n-1].

    This is the base representation for task-graph phases (each LaRCS
    communication phase compiles to one digraph) and for directed
    network links.  Parallel edges are allowed; [weight] sums them. *)

type t

val create : int -> t
(** [create n] is the edgeless graph on nodes [0 .. n-1]. *)

val node_count : t -> int

val edge_count : t -> int
(** Number of stored (parallel edges counted separately) edges. *)

val add_edge : ?w:int -> t -> int -> int -> unit
(** [add_edge ~w g u v] adds the edge [u -> v] with weight [w]
    (default 1).  Self loops are permitted but ignored by the mapping
    algorithms. *)

val succ : t -> int -> (int * int) list
(** [(v, w)] pairs for edges leaving the node, in insertion order. *)

val pred : t -> int -> (int * int) list

val iter_succ : (int -> int -> unit) -> t -> int -> unit
(** [iter_succ f g u] calls [f v w] for each edge leaving [u], newest
    first, without building a list. *)

val out_degree : t -> int -> int

val in_degree : t -> int -> int

val weight : t -> int -> int -> int
(** Total weight of all parallel [u -> v] edges (0 when absent). *)

val mem_edge : t -> int -> int -> bool

val edges : t -> (int * int * int) list
(** All [(u, v, w)] triples, grouped by source in increasing order. *)

val total_weight : t -> int

val transpose : t -> t

val copy : t -> t

val union : t -> t -> t
(** Edge-union of two graphs on the same node set. *)

val to_undirected : t -> Ugraph.t
(** Forgets orientation; weights of antiparallel/parallel edges sum. *)

val of_edges : int -> (int * int * int) list -> t

val equal : t -> t -> bool
(** Same node count and same total weight between every ordered pair. *)

val pp : Format.formatter -> t -> unit

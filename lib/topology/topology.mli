(** Interconnection-network topologies.

    A topology is a named regular undirected graph of homogeneous
    processors plus an indexed table of its links, matching the paper's
    model (OREGAMI assumes "homogeneous processors connected by some
    regular network topology": iPSC/2, NCUBE, Transputer-style meshes,
    hypercubes, rings, trees, ...).

    Links are numbered [0 .. link_count-1] in lexicographic order of
    their endpoint pairs; routing (Algorithm MM-Route) and the METRICS
    contention reports are expressed in terms of link ids. *)

type kind =
  | Line of int  (** linear array of [n] processors *)
  | Ring of int
  | Mesh of int * int  (** rows × cols, no wraparound *)
  | Torus of int * int
  | Hypercube of int  (** dimension [d], [2^d] processors *)
  | Complete of int
  | Binary_tree of int  (** full binary tree of depth [d], [2^(d+1)-1] nodes *)
  | Binomial_tree of int  (** order [k], [2^k] nodes *)
  | Butterfly of int  (** [k]-stage butterfly, [(k+1)·2^k] nodes *)
  | Cube_connected_cycles of int  (** CCC of dimension [d ≥ 3], [d·2^d] nodes *)
  | Hex_mesh of int * int  (** hexagonal (6-neighbour) bounded grid *)
  | Star_graph of int  (** Akers–Krishnamurthy star graph [S_n], [n!] nodes *)
  | De_bruijn of int  (** binary de Bruijn graph, [2^k] nodes *)
  | Shuffle_exchange of int  (** binary shuffle-exchange, [2^k] nodes *)

type t

val make : kind -> t

type shape = {
  nodes : int;  (** [node_count (make kind)] *)
  edges : int;  (** [link_count (make kind)] *)
  linked : int -> int -> bool;
      (** [linked u v], for [0 <= u < v < nodes], is whether [make kind]
          links [u] and [v] in its standard numbering *)
}

val shape : kind -> shape option
(** The closed-form structure of [make kind], computed without building
    it: [Some] for meshes, tori, hypercubes and binary and binomial
    trees, [None] for the other kinds.  Family detection decides on it
    instead of materialising a reference topology per candidate. *)

val kind : t -> kind
(** The kind the topology was built from.  A {!degrade}d topology keeps
    its base kind for reporting and geometry ({!layout}, {!mesh_coords})
    but no longer satisfies the kind's symmetry: consult
    {!is_degraded} before using kind-specific routing. *)

val name : t -> string
(** Short printable name, e.g. ["hypercube(3)"]; degraded views carry a
    fault suffix, e.g. ["hypercube(3)[-1p,-2l]"]. *)

val graph : t -> Oregami_graph.Ugraph.t

val node_count : t -> int

val link_count : t -> int

val link_endpoints : t -> int -> int * int
(** Endpoints [(u, v)] with [u < v] of a link id. *)

val link_between : t -> int -> int -> int option
(** Link id joining two processors, if adjacent (order-insensitive). *)

val links_of_path : t -> int list -> int list
(** Converts a node path to the list of traversed link ids.  Raises
    [Invalid_argument] if consecutive nodes are not adjacent. *)

val degree : t -> int -> int

val diameter : t -> int

(** {2 Degraded views}

    Real machines lose processors and links in the field.  A degraded
    view keeps the processor numbering of its base (dead processors
    become isolated nodes, so mappings and routes stay expressed in the
    same ids) but removes every link that is explicitly dead or incident
    to a dead processor.  Link ids are renumbered over the surviving
    links in the usual lexicographic endpoint order, and the view starts
    with an empty {!cache} slot, so {!Distcache} structures are rebuilt
    against the degraded graph instead of leaking pristine distances.
    Higher-level fault bookkeeping (random fault sets, partition
    reporting, link-id translation) lives in {!Faults}. *)

val degrade : t -> dead_procs:int list -> dead_links:int list -> (t, string) result
(** [degrade t ~dead_procs ~dead_links] is the degraded view of [t]
    ([dead_links] are link ids of [t]; faults compose, so [t] may itself
    be degraded).  Errors on out-of-range ids and when every processor
    would be dead.  Does {e not} check connectivity — use
    {!Faults.degrade} to get partition reporting.  Returns [t] itself
    when both fault lists are empty. *)

val is_degraded : t -> bool

val alive : t -> int -> bool
(** Whether a processor id is in range and not dead. *)

val dead_procs : t -> int list
(** Dead processor ids, increasing (empty for pristine topologies). *)

val alive_procs : t -> int list

val alive_count : t -> int

val layout : t -> (float * float) array
(** 2-D positions for rendering: meshes/tori on a grid, rings on a
    circle, hypercubes on a Gray-coded grid, trees layered, others on a
    circle. *)

val hypercube_coords : t -> int -> int
(** For a hypercube, the node id itself (its corner bit string); raises
    [Invalid_argument] on other kinds. *)

val mesh_coords : t -> int -> int * int
(** For meshes/tori/hex meshes, the (row, col) of a node. *)

val mesh_node : t -> int * int -> int
(** Inverse of {!mesh_coords}. *)

val max_procs : int
(** The most processors a parsed topology may have: 8192.  That admits
    every machine the experiments build (the largest is [torus:64x64])
    and [star:7]; the hop matrix of a machine at the cap takes 512 MB. *)

val max_links : int
(** The most links a parsed topology may have: 65 536.  Only the
    complete graph comes near it ([complete:362] has 65 341 links);
    its links grow as N², so [complete:8192] would need 33.5 million
    links and exhaust memory while building. *)

val parse : string -> (kind, string) result
(** Parses CLI notation: ["ring:8"], ["mesh:4x4"], ["torus:4x8"],
    ["hypercube:3"], ["line:5"], ["complete:6"], ["bintree:3"],
    ["binomial:4"], ["butterfly:3"], ["ccc:3"], ["hex:3x4"],
    ["star:4"], ["debruijn:4"], ["shuffle:4"].

    Every size {!make} would reject, and every spec with more than
    {!max_procs} processors or {!max_links} links, is an [Error] that
    starts with the family and names the offending field (e.g. ["mesh
    rows must be at least 1, got 0"]); the count is computed without
    overflow, so ["hypercube:70"] is refused too.  Builds nothing. *)

val of_string : string -> (t, string) result
(** Parses a full topology spec, i.e. {!parse} notation optionally
    followed by a capability-class suffix:
    ["torus:4x4:classes=mem@0,3/io@12-15"].  The suffix lists
    [CLASS@IDS] groups separated by ['/'], where [IDS] is a
    comma-separated list of processor ids and [LO-HI] ranges; unlisted
    processors keep {!default_class}.  Later groups override earlier
    ones on overlap. *)

val known_kinds : string list
(** Names accepted by {!parse}, for help messages. *)

(** {2 Capability classes}

    Heterogeneous machines tag each processor with a capability class
    (e.g. ["compute"], ["mem"], ["io"], or user-defined names).  Tasks
    may require a class and mapping constraints may skip whole classes;
    see [Oregami_mapper.Constraints].  Classes are orthogonal to the
    link structure: they survive {!degrade} unchanged. *)

val default_class : string
(** ["compute"] — the class of every processor of an unclassed
    topology. *)

val node_class : t -> int -> string

val node_classes : t -> string array
(** A copy of the per-processor class array, indexed by processor id. *)

val class_names : t -> string list
(** Distinct class names in use, sorted. *)

val is_classed : t -> bool
(** Whether any processor has a class other than {!default_class}. *)

val with_classes : t -> string array -> t
(** A view of the topology with the given per-processor classes (one
    per processor; raises [Invalid_argument] otherwise).  The graph,
    numbering and cache are shared. *)

val pp : Format.formatter -> t -> unit

(** {2 Cache slot}

    A topology's graph is immutable after {!make}, so derived
    structures (hop matrices, route tables) can live on the value and
    be computed at most once.  The slot is an extensible variant so
    {!Distcache} can attach its state without this module depending on
    it; other code should use the {!Distcache} API rather than these
    raw accessors.

    The slot itself is an [Atomic.t], so an installation by one domain
    is safely published to every other domain sharing the topology
    value; mutual exclusion of {e who} installs (and of any mutation
    inside the attached state) is the attacher's job — {!Distcache}
    guards both with its own locks. *)

type cache = ..

val get_cache : t -> cache option

val set_cache : t -> cache -> unit

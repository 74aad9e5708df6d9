(** Canned contractions/embeddings for nameable task graphs
    (paper §4.1): constant-time lookup keyed by (family, topology).

    Each entry contracts the tasks along the family's natural order
    when there are more tasks than processors (blocks of a ring,
    tiles of a mesh, subcubes of a hypercube, low-bit groups of a
    binomial tree) and places the clusters with a known-good
    embedding:

    - ring/line → ring/line/mesh/torus (snake order), hypercube
      (Gray code, dilation 1);
    - mesh → mesh/torus (tiling), hypercube (per-axis Gray codes,
      dilation 1 for power-of-two sides);
    - hypercube → hypercube (identity on subcubes, dilation 1);
    - binomial tree → hypercube (node id is its corner, dilation 1),
      mesh (the §4.1 construction, see {!Binomial_mesh});
    - full binary tree → hypercube (inorder labelling, dilation ≤ 2);
    - complete graph → anything (all placements equivalent).

    The [dims] hint carries the task-side mesh shape (from the LaRCS
    node-type ranges) for the mesh family. *)

type t = {
  cluster_of : int array;
  proc_of_cluster : int array;
  note : string;  (** which canned entry fired *)
}

val lookup :
  ?dims:int list ->
  family:string ->
  n:int ->
  Oregami_topology.Topology.t ->
  t option
(** [lookup ~family ~n topo] is [None] when no canned mapping covers
    the pair (caller falls back to the general algorithms).  Requires
    [n ≥ procs] compatibility: when sizes do not divide evenly the
    entry may decline. *)

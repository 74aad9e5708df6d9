(** Regularity analyses over a compiled LaRCS program — the checks
    MAPPER's dispatch (paper Fig 3) is built on:

    - is each communication phase a {e bijection} on the tasks (then it
      is a permutation and the phases may generate a Cayley graph,
      §4.2.2)?
    - are the communication functions {e affine} on an integer-lattice
      label space (then systolic synthesis applies, §4.2.1)?
    - does the static graph belong to a {e nameable family} (then a
      canned mapping applies, §4.1)? *)

type comm_kind =
  | Bijective of Oregami_perm.Perm.t
  | Functional  (** every task sends to exactly one task; not bijective *)
  | General

type cayley_analysis = {
  group : Oregami_perm.Group.t;
  gen_perms : (string * Oregami_perm.Perm.t) list;  (** phase name → generator *)
  regular_action : bool;  (** |G| = |X| and transitive *)
  uniform_cycles : bool;  (** the paper's equal-cycle-length test *)
  is_cayley : bool;  (** task graph ≅ Cayley graph of the action *)
}

type affine_map = {
  matrix : int array array;  (** row-major [A] *)
  offset : int array;  (** [b]; the rule maps label [x] to [A·x + b] *)
}

type t = {
  declared_family : string option;
  detected_family : string option;
      (** ["ring"], ["line"], ["complete"], ["hypercube"], ["mesh"],
          ["bintree"], ["binomial"], or [None] *)
  comm_kinds : (string * comm_kind) list;
  all_bijective : bool;
  cayley : cayley_analysis option;
      (** present when all phases are bijective and the closure stayed
          within the paper's [|G| ≤ |X|] halting bound *)
  affine_maps : (string * affine_map list) list option;
      (** per phase, per rule; present when the program has a single
          node type and every rule probes affine *)
  single_nodetype : bool;
  requirements : (string * string) list;
      (** node types carrying a [requires CLASS] annotation (type name →
          capability class); the mapper's constraint layer enforces
          them per task via [Taskgraph.node_requires] *)
}

val comm_function : Oregami_taskgraph.Taskgraph.t -> string -> int array option
(** The phase's successor function, when every task has out-degree
    exactly one. *)

type translations = {
  tr_offsets : (string * int) list;  (** phase name → offset [c] of [i → (i+c) mod n] *)
  tr_modulus : int;
}

val syntactic_cayley : Compile.compiled -> translations option
(** The paper's §4.2.2 wishlist: "syntactic characterizations that
    enable us to detect whether the communication functions yield a
    Cayley graph … avoid computation of the cycle notation".

    Detects, purely syntactically on the AST, that the program has a
    single 1-D node type [0..n-1] and every communication rule is a
    guard-free modular translation [i → (i ± c) mod n].  Such functions
    generate a subgroup of Z_n; no group closure is ever computed. *)

val syntactic_is_cayley : translations -> bool
(** The translations act regularly (the task graph is the Cayley graph
    of Z_n) iff [gcd(offsets, n) = 1] — an O(#phases) arithmetic test
    replacing the O(|X|²) closure. *)

type family_match = {
  fam_name : string;
  relabel : int array;
      (** task id → canonical id within the family's standard numbering
          (the numbering {!Oregami_topology.Topology} uses); canned
          mappings must be composed with this *)
  fam_dims : int list option;  (** mesh/torus factorization found *)
}

val analyze : ?family:family_match option -> Compile.compiled -> t
(** [?family] is the program graph's {!detect_family_match}, when the
    caller already has it; otherwise [analyze] detects the family
    itself. *)

val detect_family : Oregami_taskgraph.Taskgraph.t -> string option
(** Structural detection on the static (unit) graph; exact for rings,
    lines, complete graphs and trees of any size, and for
    identity-numbered hypercubes, meshes and tori of any size;
    isomorphism-checked for relabelled ones up to 64 nodes. *)

val detect_family_match :
  ?static:Oregami_graph.Ugraph.t -> Oregami_taskgraph.Taskgraph.t -> family_match option
(** Like {!detect_family} but also produces the canonical relabeling
    (identity when the task numbering already matches the family's
    standard numbering — the common case for naturally written LaRCS
    programs; an isomorphism otherwise).  [None] when no family is
    found {e or} a relabeling cannot be afforded (large irregularly
    numbered graphs), in which case canned mappings must not be
    used.

    Candidates are decided on their closed-form node and link counts
    ({!Oregami_topology.Topology.shape}): a mesh's [2n - r - c] links
    leave at most one factorization, an identity numbering is checked
    arithmetically edge by edge, and a reference graph is built only
    for the isomorphism search.  Pass the task graph's
    [Taskgraph.static_graph] as [?static] when it is already built: it
    is used in place of a fresh unit graph whenever the two share their
    edges ({!Oregami_taskgraph.Taskgraph.static_has_unit_edges}). *)

val pp : Format.formatter -> t -> unit

(** The paper's model of a parallel computation (§2): a weighted,
    colored directed graph [G = (V, E₁, …, E_c)].

    Each node is a task; each edge set [E_k] is one {e communication
    phase} (conceptually a colour) whose directed edges carry message
    volumes; node weights give per-execution-phase task costs; and a
    {!Phase_expr.t} describes the dynamic behaviour. *)

type comm_phase = {
  cp_name : string;
  edges : Oregami_graph.Digraph.t;  (** edge weight = message volume *)
}

type exec_phase = {
  ep_name : string;
  costs : int array;  (** per-task execution time estimate *)
}

type t = private {
  tg_name : string;
  n : int;
  node_labels : string array;
  node_types : string array;
  node_requires : string array;
      (** per-task required processor capability class ([""] = none);
          surfaced from LaRCS [requires] annotations and enforced by
          the mapper's constraint layer *)
  comm_phases : comm_phase list;
  exec_phases : exec_phase list;
  expr : Phase_expr.t;
  declared_symmetric : bool;
      (** the LaRCS program declared [nodesymmetric] *)
  declared_family : string option;
      (** the LaRCS program named a well-known family, e.g. ["ring"] *)
}

val make :
  ?node_labels:string array ->
  ?node_types:string array ->
  ?node_requires:string array ->
  ?declared_symmetric:bool ->
  ?declared_family:string ->
  name:string ->
  n:int ->
  comm_phases:(string * Oregami_graph.Digraph.t) list ->
  exec_phases:(string * int array) list ->
  expr:Phase_expr.t ->
  unit ->
  (t, string) result
(** Validates: positive [n], unique phase names, each phase digraph on
    exactly [n] nodes, each cost array of length [n] (likewise
    [node_requires] when given), and a well-formed phase expression
    over the declared names. *)

val make_exn :
  ?node_labels:string array ->
  ?node_types:string array ->
  ?node_requires:string array ->
  ?declared_symmetric:bool ->
  ?declared_family:string ->
  name:string ->
  n:int ->
  comm_phases:(string * Oregami_graph.Digraph.t) list ->
  exec_phases:(string * int array) list ->
  expr:Phase_expr.t ->
  unit ->
  t

val comm_phase : t -> string -> comm_phase option

val exec_phase : t -> string -> exec_phase option

val comm_names : t -> string list

val exec_names : t -> string list

val static_graph : t -> Oregami_graph.Ugraph.t
(** The classic static task graph: the undirected union over every
    communication phase, each phase's volume scaled by how many times
    it occurs in the phase expression (so contraction optimizes total
    traffic over the whole computation). *)

val static_graph_unit : t -> Oregami_graph.Ugraph.t
(** Like {!static_graph} but each phase counted once — the topology of
    communication, with raw volumes. *)

val static_has_unit_edges : t -> bool
(** Whether {!static_graph} has the same edges as {!static_graph_unit},
    differing only in weights: true unless some communication phase
    never runs in the phase expression (its edges are then missing from
    {!static_graph}). *)

val total_volume : t -> int
(** Total message volume over the full trace. *)

val total_exec_cost : t -> int

val max_comm_degree : t -> int
(** Maximum number of distinct neighbours of any task in the static
    graph. *)

val phase_volume : t -> string -> int
(** Message volume of one occurrence of a communication phase. *)

val pp_summary : Format.formatter -> t -> unit

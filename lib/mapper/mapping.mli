(** The result of mapping a task graph onto a topology: a contraction
    (tasks → clusters), an embedding (clusters → processors), and a
    routing (communication edges → network paths), per the paper's §2
    terminology. *)

type routed_edge = {
  re_src : int;  (** source task *)
  re_dst : int;  (** destination task *)
  re_volume : int;
  re_route : Oregami_topology.Routes.route;
      (** empty link list when both tasks share a processor *)
}

type phase_routing = { pr_phase : string; pr_edges : routed_edge list }

type t = {
  tg : Oregami_taskgraph.Taskgraph.t;
  topo : Oregami_topology.Topology.t;
  cluster_of : int array;  (** task → cluster *)
  proc_of_cluster : int array;  (** cluster → processor (injective) *)
  routings : phase_routing list;  (** one entry per communication phase *)
  strategy : string;  (** which MAPPER algorithm produced it *)
}

val cluster_count : t -> int

val proc_of_task : t -> int -> int

val assignment : t -> int array
(** task → processor array. *)

val tasks_on_proc : t -> int list array

val validate : ?constraints:Constraints.t -> t -> (unit, string) result
(** Structural checks: cluster ids dense, embedding injective and in
    range, every task-graph edge between distinct tasks routed exactly
    once with its volume, every cross-processor edge routed with a path
    that starts at the sender's processor, ends at the receiver's and
    names the link between each pair of consecutive processors, every
    co-located edge routed with the empty path.  When
    [constraints] is supplied the {!Constraints.drc} pass runs too and
    the first violation is reported by name. *)

val dilation_stats : t -> int * float * int
(** [(max, average, edge_count)] over all routed cross-processor edges
    (average 0 when there are none). *)

val clusters : int array -> int array * int array
(** [clusters assignment] turns a task → processor assignment into
    dense clusters, one per occupied processor, numbered in order of
    first use: [(cluster_of, proc_of_cluster)] with
    [proc_of_cluster.(cluster_of.(t)) = assignment.(t)].  The
    embedding is injective by construction. *)

val total_ipc : Oregami_graph.Ugraph.t -> int array -> int
(** [total_ipc static cluster_of]: total weight of edges crossing
    between clusters — the objective MWM-Contract minimizes. *)

val pp : Format.formatter -> t -> unit

(** Phase-shift remapping (paper §6): "algorithms that consider
    migrating processes at run time in order to accommodate phase
    shifts (as opposed to our current approach of finding one mapping
    that accommodates all the phases)".

    The phase expression is split into {e regimes} — maximal top-level
    sequence chunks that use disjoint sets of communication phases.
    Each regime gets its own mapping; between consecutive regimes every
    task that changes processor pays a migration message (its state,
    {!Oregami_metrics.Netsim.migration_volume} units) routed through
    the network.  The plan
    compares the single static mapping against the per-regime mappings
    plus migration and says whether remapping pays off. *)

type regime = {
  rg_expr : Oregami_taskgraph.Phase_expr.t;
  rg_comms : string list;  (** communication phases active in it *)
}

val split_regimes : Oregami_taskgraph.Phase_expr.t -> regime list
(** Top-level sequence chunks, adjacent chunks merged while they share
    a communication phase.  A single-regime expression yields one
    chunk (remapping cannot help). *)

type plan = {
  static_mapping : Oregami_mapper.Mapping.t;
  static_makespan : int;
  regime_mappings : (regime * Oregami_mapper.Mapping.t) list;
  regime_makespans : int list;
  migration_time : int;
  remap_makespan : int;  (** Σ regimes + Σ migrations *)
  worthwhile : bool;
}

val plan :
  ?options:Driver.options ->
  Oregami_taskgraph.Taskgraph.t ->
  Oregami_topology.Topology.t ->
  (plan, string) result
(** Each moved task ships {!Oregami_metrics.Netsim.migration_volume}
    units.  Makespans come from the {!Oregami_metrics.Netsim}
    simulator; migrations are simulated as one synchronous message step
    between regimes. *)

(** {2 Fault recovery}

    The same migration machinery prices recovery from processor/link
    failures: repair the existing mapping with minimum disruption
    ({!Oregami_mapper.Repair}) or remap from scratch on the degraded
    machine, and compare. *)

type bill = {
  b_migration : int;  (** {!Oregami_metrics.Netsim.migration_time} of the move *)
  b_makespan : int;  (** steady-state Netsim makespan after the move *)
  b_moved : int;  (** tasks whose processor changes *)
}
(** What one recovery candidate costs a running computation. *)

val bill :
  Oregami_topology.Topology.t ->
  int array ->
  Oregami_mapper.Mapping.t ->
  bill
(** [bill topo before m] prices moving from the task → processor
    assignment [before] onto mapping [m] over [topo] (the machine the
    move happens on).  Each moved task ships
    {!Oregami_metrics.Netsim.migration_volume} units. *)

val repair_wins : repair:bill -> remap:bill -> bool
(** The recovery rule {!recover} and the online cluster's healing
    share: the repair wins when its migration plus steady-state
    makespan does not exceed the remap's — a tie goes to the repair. *)

type recovery = {
  rc_faults : Oregami_topology.Faults.t;
  rc_base : Oregami_mapper.Mapping.t;  (** mapping on the pristine machine *)
  rc_base_makespan : int;
  rc_base_ms : float;  (** wall-clock spent on the initial mapping *)
  rc_repair : Oregami_mapper.Repair.t;  (** minimum-disruption repair *)
  rc_repair_bill : bill;
  rc_repair_ms : float;  (** wall-clock spent on the repair *)
  rc_remap : Oregami_mapper.Mapping.t;  (** from-scratch mapping on the degraded view *)
  rc_remap_bill : bill;
  rc_remap_ms : float;  (** wall-clock spent on the from-scratch remap *)
  rc_repair_wins : bool;  (** {!repair_wins} on the two bills *)
}

val recover :
  ?options:Driver.options ->
  ?compiled:Oregami_larcs.Compile.compiled ->
  Oregami_taskgraph.Taskgraph.t ->
  Oregami_topology.Topology.t ->
  Oregami_topology.Faults.t ->
  (recovery, string) result
(** [recover tg topo faults] maps on the pristine [topo] under
    [options], applies the fault set, repairs under the same options
    ({!Oregami_mapper.Repair.repair}), remaps from scratch on the
    degraded view, and bills both transitions.  Pass [?compiled] when
    the task graph came from a LaRCS program so both mappings use the
    full dispatch.  Errors on an empty fault set, invalid ids, and
    faults that disconnect the surviving processors (with the
    partitions named). *)

(** Network simulator — the substitute for the iPSC/2 / NCUBE /
    Transputer testbeds the paper targeted.

    Two switching disciplines of the era:

    - {e store-and-forward} (iPSC/1-style): each link is two directed
      channels; a channel transmits one message at a time at
      [ceil(volume/bandwidth) + latency] per hop, queueing the rest
      (FIFO by arrival, ties by message id) — dilation multiplies cost;
    - {e wormhole / cut-through} (iPSC/2-style): a message reserves its
      whole path, transmits in [hops·latency + ceil(volume/bandwidth)]
      and blocks until every channel on the path is free — dilation is
      cheap, contention expensive (which is exactly what MM-Route
      optimizes).

    A communication slot of the phase expression releases all its
    messages at once and finishes when the last one arrives; an
    execution slot advances the clock by the slowest processor's summed
    task cost.  The simulated makespan of the whole trace is the
    mapping's measured completion time. *)

type switching = Store_and_forward | Wormhole

type params = {
  bandwidth : int;  (** volume units per time unit per channel *)
  latency : int;  (** per-hop fixed cost *)
  switching : switching;
}

val default_params : params
(** Store-and-forward, bandwidth 1, latency 1. *)

val wormhole_params : params
(** Wormhole, bandwidth 1, latency 1. *)

type report = {
  makespan : int;
  comm_time : int;  (** portion of the makespan spent in comm slots *)
  exec_time : int;
  slot_times : int list;  (** duration of each trace slot, in order *)
  max_queue : int;  (** deepest channel queue observed *)
}

val run : ?params:params -> Oregami_mapper.Mapping.t -> report

type span = {
  sp_channel : int;  (** directed channel id: [2·link + direction] *)
  sp_start : int;
  sp_finish : int;
  sp_volume : int;
}

val channel_name : Oregami_topology.Topology.t -> int -> string
(** Human-readable channel label, e.g. ["3->5"]. *)

val spans : ?params:params -> Oregami_mapper.Mapping.t -> string -> span list
(** Busy intervals of every directed channel during one occurrence of
    the named communication phase (store-and-forward discipline) —
    the raw material of the per-link timeline view. *)

val simulate_released :
  params ->
  Oregami_topology.Topology.t ->
  (Oregami_topology.Routes.route * int * int) list ->
  int * int
(** Lower-level entry: simulate messages [(route, volume, release
    time)] and return [(finish time of the last message, deepest
    queue)].  Used by the scheduling extension, where local task
    ordering staggers message release. *)

(** {2 Migration pricing and mid-trace fault events} *)

val migration_volume : int
(** The state one migrating task ships, in volume units: 8.  Every
    migration price — phase-shift remapping, fault recovery, the online
    cluster's healing and re-packing — uses it. *)

val migration_time :
  ?params:params -> Oregami_topology.Topology.t -> int array -> int array -> int
(** [migration_time topo before after] is the simulated cost of one
    synchronous migration step between two task assignments: every task
    whose processor changes ships {!migration_volume} units over the
    topology's deterministic route — the [Remap] cost model.  On a
    degraded topology, a task moving {e off a dead processor} restores
    its state from the lowest-numbered alive processor (the
    checkpoint-host stand-in), since a dead node has no links to ship
    over.  Raises [Invalid_argument] if the assignment lengths differ
    or no processor is alive. *)

type fault_event = {
  at_slot : int;  (** trace slot index at which the faults strike *)
  kill_procs : int list;
  kill_links : int list;  (** link ids of the mapping's topology *)
}

type recovery = {
  rv_fault_free : report;  (** the run as it would have gone, no faults *)
  rv_pre_time : int;  (** slots completed before the fault, original mapping *)
  rv_migration_time : int;  (** evacuation traffic on the degraded network *)
  rv_post_time : int;  (** remaining slots, repaired mapping *)
  rv_makespan : int;  (** pre + migration + post *)
  rv_delta : int;  (** recovery overhead vs. the fault-free makespan *)
  rv_repair : Oregami_mapper.Repair.t;
}

val run_with_fault :
  ?params:params ->
  ?options:Oregami_mapper.Ctx.options ->
  Oregami_mapper.Mapping.t ->
  fault_event ->
  (recovery, string) result
(** Simulates the mapping's trace with a mid-run fault: slots before
    [at_slot] run on the original mapping, then the named processors
    and links die, the mapping is repaired
    ({!Oregami_mapper.Repair.repair} under [options], default
    {!Oregami_mapper.Ctx.default_options}: pass the options the mapping
    was made with so the repair routes and constrains the same way),
    the evacuation is priced as
    migration traffic on the degraded network, and the remaining slots
    run on the repaired mapping.  Errors (never crashes) on invalid
    fault ids, an empty fault set, faults that disconnect the
    survivors, or an unrepairable mapping. *)

(** Minimum-disruption repair of an existing mapping after faults.

    Given a mapping computed on the pristine machine and the degraded
    view of its topology ({!Oregami_topology.Faults.degrade}), repair

    - freezes every placement that survived (tasks on alive processors
      do not move — the running computation keeps its state);
    - evacuates the tasks stranded on dead processors with the
      incremental placer's greedy rule (hop-weighted communication to
      already-placed neighbours, ties by load then id), preferring
      processors below the balanced-capacity bound and merging into
      occupied ones only when the machine is full;
    - re-routes {e every} phase on the degraded topology through
      {!Pipeline.route}, since even unmoved traffic may have crossed a
      now-dead link, and revalidates the result (no dead placements,
      consistent routes).

    Pricing the recovery as migration traffic lives one layer up, in
    [Remap] / [Netsim], which can simulate the move messages. *)

type move = { mv_task : int; mv_from : int; mv_to : int }

type t = {
  rp_mapping : Mapping.t;  (** repaired mapping, on the degraded topology *)
  rp_moves : move list;  (** tasks evacuated, in task order *)
  rp_frozen : int;  (** tasks whose placement survived untouched *)
}

val moved : t -> int

val repair :
  ?options:Ctx.options ->
  ?allowed:(int -> bool) ->
  Mapping.t ->
  Oregami_topology.Topology.t ->
  (t, string) result
(** [repair m degraded] repairs [m] against the degraded view of its
    topology.  Errors when the processor counts disagree, when nothing
    survives, or when the repaired mapping fails validation (e.g. the
    surviving machine is partitioned and a phase cannot be routed).

    [options] (default {!Ctx.default_options}) are honoured as a
    mapping run on the degraded machine honours them: the repaired
    assignment is routed by {!Pipeline.route} with their routing
    choice, route cap, jobs and budget — under [Auto], coarse routing
    above [multilevel_threshold] tasks — and their constraints are
    compiled against the {e degraded} machine: a pinned task whose
    processor died makes the repair refuse with a named reason instead
    of evacuating the task somewhere it must not run, evacuation only
    considers survivors the shared {!Constraints.feasible} predicate
    accepts, and the repaired mapping passes the DRC.

    [allowed] (default everything) restricts evacuation targets to a
    region of the machine — a multi-tenant cluster passes the job's
    lease plus the free pool so a repair never lands on a neighbour's
    processors.  Frozen survivors are not re-checked against it. *)

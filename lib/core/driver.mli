(** The MAPPER dispatch (paper Fig 3): pick the mapping strategy from
    the LaRCS analyses and produce a complete routed mapping.

    The dispatch itself lives in the mapper library as a strategy
    registry composed with embedding/refinement/routing passes
    ({!Oregami_mapper.Strategy}, {!Oregami_mapper.Pipeline}); this
    module is the thin orchestrator that builds the shared
    {!Oregami_mapper.Ctx.t}, selects strategies from the options, and
    supplies the METRICS completion-time model as the judge for the
    competing tier.

    Priority under default options (identical to the original
    monolithic driver): declared/detected nameable family → canned
    lookup; affine communication on a lattice + mesh-like target →
    systolic space-time placement; bijective phases forming a Cayley
    graph → group-theoretic contraction; otherwise MWM-Contract,
    tiling, and block candidates compete under the completion model.
    Embedding uses the canned placement or NN-Embed, and routing uses
    MM-Route (or the oblivious deterministic router on request). *)

type routing = Oregami_mapper.Ctx.routing =
  | Mm_route
  | Oblivious
  | Coarse  (** traffic-aggregated MM-Route for the large tier *)
  | Auto  (** [Mm_route] below [multilevel_threshold] tasks, [Coarse] above *)

type options = Oregami_mapper.Ctx.options = {
  routing : routing;
  route_cap : int;  (** candidate shortest routes per pair *)
  jobs : int;
      (** domains for routing independent phases under [Coarse];
          output is byte-identical across widths *)
  refine : bool;  (** pairwise-interchange improvement of the embedding *)
  seed : int;  (** RNG seed for randomized strategies *)
  only : string list;
      (** restrict to these registry names; all compete on score *)
  exclude : string list;  (** registry names to drop *)
  fuel : int option;  (** work-unit budget; [None] unlimited *)
  deadline_ms : float option;  (** wall-clock budget; [None] unlimited *)
  fallback : bool;
      (** baseline placement instead of an error when every strategy
          declines (implied by any budget) *)
  constraints : Oregami_mapper.Constraints.spec;
      (** placement constraints: pins, forbids, required capability
          classes, skip-placement classes *)
  multilevel_threshold : int;
      (** task count beyond which the flat strategies yield to the
          multilevel tier *)
}

val default_options : options

val run :
  Oregami_mapper.Ctx.t ->
  (Oregami_mapper.Mapping.t * Oregami_mapper.Stats.degradation, string) result
(** The pipeline over a prebuilt context — the anytime entry point:
    the mapping comes tagged with how complete the run was
    ([Full]/[Truncated]/[Fallback]).  The batch service uses this to
    share a circuit breaker and per-request budgets across requests;
    [report] below is the legacy shape. *)

val report :
  ?options:options ->
  ?faults:Oregami_topology.Faults.t ->
  Oregami_larcs.Compile.compiled ->
  Oregami_topology.Topology.t ->
  (Oregami_mapper.Mapping.t, string) result * Oregami_mapper.Stats.t
(** Full pipeline from a compiled LaRCS program, returning the mapping
    (which always passes [Mapping.validate]) together with the per-pass
    statistics sink — strategies tried/rejected with reasons, candidate
    scores, matching rounds, refinement swaps, Distcache builds, wall
    time.  On [Error] the stats' [rejections] explain why every
    strategy declined.

    When targeting a degraded machine, pass the {e degraded} topology
    (from {!Oregami_topology.Faults.degrade}) and its fault set via
    [?faults]: every produced mapping avoids dead processors and dead
    links, and the symmetry strategies (canned/systolic/group) decline
    with a named reason. *)

val report_taskgraph :
  ?options:options ->
  ?faults:Oregami_topology.Faults.t ->
  Oregami_taskgraph.Taskgraph.t ->
  Oregami_topology.Topology.t ->
  (Oregami_mapper.Mapping.t, string) result * Oregami_mapper.Stats.t
(** Same pipeline for a bare task graph (no AST-level affine analysis;
    family detection and the group path still apply). *)

val map_compiled :
  ?options:options ->
  ?faults:Oregami_topology.Faults.t ->
  Oregami_larcs.Compile.compiled ->
  Oregami_topology.Topology.t ->
  (Oregami_mapper.Mapping.t, string) result
(** [report] without the stats. *)

val map_taskgraph :
  ?options:options ->
  ?faults:Oregami_topology.Faults.t ->
  Oregami_taskgraph.Taskgraph.t ->
  Oregami_topology.Topology.t ->
  (Oregami_mapper.Mapping.t, string) result
(** [report_taskgraph] without the stats. *)

val strategy_preview :
  Oregami_larcs.Compile.compiled -> Oregami_topology.Topology.t -> string
(** Which strategy the dispatch would choose, without running it. *)

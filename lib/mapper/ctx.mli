(** The shared mapping context: everything a mapping strategy may
    consult, built once per pipeline run and threaded uniformly through
    every pass instead of the seed driver's ad-hoc
    [(tg, topo, options)] argument plumbing.

    Holds the compiled LaRCS program (when mapping started from
    source), the lazily-computed regularity analysis, the task graph
    and its static cluster graph, the target topology with its
    pre-warmed {!Oregami_topology.Distcache} hop matrix, a
    deterministic RNG for randomized strategies, the option record,
    and the {!Stats} sink every pass reports into. *)

type routing =
  | Mm_route  (** per-message maximal-matching routing (paper §4.4) *)
  | Oblivious  (** the topology's deterministic single-path scheme *)
  | Coarse
      (** traffic-aggregated MM-Route: messages sharing a processor
          pair are routed once, on aggregated demands (large tier) *)
  | Auto
      (** {!Mm_route} up to [multilevel_threshold] tasks, {!Coarse}
          above — the same gate the multilevel tier switches on *)

val routing_of_string : string -> (routing, string) result
(** The routing names the CLI's [--routing] flag and the request-line
    [routing=] key accept: ["mm-route"] (alias ["mm"]), ["oblivious"],
    ["coarse"], ["auto"].  The error lists the valid names. *)

type options = {
  routing : routing;
  route_cap : int;  (** candidate shortest routes per pair *)
  jobs : int;
      (** domains used to route independent communication phases
          concurrently under {!Coarse} routing; results are merged in
          phase order so output is byte-identical to [jobs = 1].  The
          flat passes ignore it. *)
  refine : bool;  (** pairwise-interchange improvement of the embedding *)
  seed : int;
      (** seed for the context RNG — the only randomness source a
          registered strategy may draw from *)
  only : string list;
      (** when non-empty, restrict the registry to these strategy
          names and let {e all} of them compete under the completion
          model (no dispatch short-circuit) *)
  exclude : string list;  (** strategy names to drop from the registry *)
  fuel : int option;
      (** abstract work-unit cap for the whole pipeline run; [None] is
          unlimited.  Deterministic across machines. *)
  deadline_ms : float option;
      (** monotonic wall-clock deadline for the run, measured from
          context construction; [None] is unlimited *)
  fallback : bool;
      (** when every selected strategy declines (or the budget dies
          before any candidate lands), place a cheap baseline mapping
          instead of returning an error.  Budgeted runs imply it. *)
  constraints : Constraints.spec;
      (** placement constraints (pins, forbids, required classes, skip
          classes), compiled once per run onto [t.constraints] *)
  multilevel_threshold : int;
      (** task count above which the flat strategies stand aside and
          the multilevel tier takes over (the two-way gate both
          {!Strategy} and [Multilevel.available] consult) *)
}

val default_options : options
(** Same defaults as the seed driver ([Auto] routing — which resolves
    to MM-Route at flat-tier sizes — cap 64, [jobs = 1], refinement
    on), [seed = 2026], no selection restrictions. *)

type t = {
  compiled : Oregami_larcs.Compile.compiled option;
      (** [None] when mapping a bare task graph *)
  family : Oregami_larcs.Analyze.family_match option Lazy.t;
      (** [Analyze.detect_family_match] over [static]: the one family
          detection of the run, shared by the canned strategy and
          [analysis] *)
  analysis : Oregami_larcs.Analyze.t option Lazy.t;
      (** forced at most once, by the first strategy that needs it *)
  tg : Oregami_taskgraph.Taskgraph.t;
  topo : Oregami_topology.Topology.t;
      (** the mapping target — a degraded view when faults are present *)
  dist : Oregami_topology.Distcache.t;  (** pre-warmed hop matrix *)
  static : Oregami_graph.Ugraph.t Lazy.t;
      (** [Taskgraph.static_graph tg], computed at most once *)
  rng : Oregami_prelude.Rng.t;  (** seeded from [options.seed] *)
  options : options;
  stats : Stats.t;
  faults : Oregami_topology.Faults.t;
      (** the fault set behind a degraded [topo] (for reporting);
          [Faults.none] when mapping a pristine machine *)
  alive : int array;
      (** alive processor ids, increasing — the only valid placement
          targets.  Equals [0 .. node_count-1] on a pristine topology. *)
  placeable : int array;
      (** alive processor ids that are not in a skip-placement class —
          what strategies may actually place clusters on.  Equals
          [alive] when no constraints are active. *)
  constraints : Constraints.t;
      (** [options.constraints] compiled against [tg] and [topo];
          check [Constraints.errors] before mapping (the pipeline
          does) *)
  budget : Budget.t;
      (** the run's fuel/deadline meter, built from [options.fuel] /
          [options.deadline_ms] at context construction (which is when
          the deadline clock starts) *)
  breaker : Isolate.breaker;
      (** per-strategy circuit breaker.  Fresh by default; a batch
          service passes one shared breaker across requests so a
          repeatedly-crashing strategy gets benched. *)
}

val of_compiled :
  ?options:options ->
  ?faults:Oregami_topology.Faults.t ->
  ?breaker:Isolate.breaker ->
  Oregami_larcs.Compile.compiled ->
  Oregami_topology.Topology.t ->
  t

val of_taskgraph :
  ?options:options ->
  ?faults:Oregami_topology.Faults.t ->
  ?breaker:Isolate.breaker ->
  Oregami_taskgraph.Taskgraph.t ->
  Oregami_topology.Topology.t ->
  t

val degraded : t -> bool
(** Whether the context targets a degraded machine (its topology is a
    degraded view or it carries a non-empty fault set). *)

val family : t -> Oregami_larcs.Analyze.family_match option
(** Forces the lazy family detection. *)

val analysis : t -> Oregami_larcs.Analyze.t option
(** Forces the lazy analysis ([None] for bare task graphs). *)

val static : t -> Oregami_graph.Ugraph.t

val mesh_dims : t -> int list option
(** The task-side 2-D lattice shape when the compiled program declares
    a single 2-D node space ([None] otherwise or without a compiled
    program) — the [dims] hint the canned and tiled strategies use. *)

val procs : t -> int
(** Number of processors a strategy may place clusters on:
    [Array.length placeable] — the full node count on a pristine
    unconstrained topology, the survivors minus skip-placement classes
    otherwise. *)

val constrained : t -> bool
(** [Constraints.active t.constraints]. *)

val resolve_routing : t -> routing
(** The routing pass to actually run: explicit choices pass through,
    [Auto] resolves to {!Coarse} when the task count exceeds
    [options.multilevel_threshold] (the multilevel tier's territory,
    where per-message MM-Route dominates wall-clock) and {!Mm_route}
    otherwise.  Never returns [Auto]. *)

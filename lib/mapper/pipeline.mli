(** The mapping pipeline: run a strategy selection over a shared
    {!Ctx.t}, compose each candidate with the embedding, refinement,
    and routing passes, judge the survivors, and keep the best mapping.

    Semantics (exactly the seed driver's Fig 3 dispatch under default
    options):

    - [Dispatch]-tier strategies are tried in registry order; the first
      one that produces a candidate wins outright (no scoring).
    - Otherwise every [Compete]-tier candidate is embedded
      (NN-Embed + pairwise-interchange refinement for [Embed]
      placements), routed and validated by {!route},
      and scored with [score] (the driver passes the METRICS
      completion-time model); the best score wins, ties broken by
      registry order then emission order.
    - When [ctx.options.only] is non-empty the dispatch tier is
      disabled and {e all} selected strategies compete on score — the
      portfolio-ablation mode.

    Every pass reports into [ctx.stats]: attempts with
    produced/rejected/skipped/crashed outcomes and wall time, candidate
    scores and validity, MM-Route matching rounds, refinement swaps,
    per-phase wall-clock, and the topology's
    {!Oregami_topology.Distcache} hop-matrix build count.

    {2 Budgets, isolation, and the anytime contract}

    The run is governed by [ctx.budget]: strategies left to try once
    the budget trips are skipped (with a named reason), and the hot
    loops inside production, embedding, and routing stop early with
    their best partial result, so the pipeline always terminates
    promptly and tags its answer with a {!Stats.degradation} level.
    Every producer and every embed/route pass runs under the
    {!Isolate} barrier: a raise is recorded as a [Crashed] attempt (or
    an invalid candidate) instead of aborting the run, and the
    per-strategy circuit breaker on [ctx.breaker] benches a strategy
    after repeated crashes.  When no candidate lands and a fallback is
    warranted — [ctx.options.fallback], an exhausted budget, or a
    crash — a balanced-blocks baseline placement is routed and
    returned, so a connected machine always gets a valid mapping.

    The scoring function is a parameter (rather than a call into
    METRICS) because [oregami_metrics] sits above this library in the
    dependency order. *)

val place : Ctx.t -> Strategy.candidate -> (int array, string) result
(** The embedding pass: a [Placed] candidate's own placement, or
    NN-Embed over the candidate's cluster graph followed by
    pairwise-interchange refinement when [ctx.options.refine] — swap
    counts land in [ctx.stats].  With constraints active the per-task
    rules are projected onto the clusters ({!Constraints.project}) and
    both passes run filtered; [Error] (named reason) rejects the
    candidate when a cluster merges incompatible constraints or no
    feasible processor remains. *)

val route : Ctx.t -> string -> int array * int array -> (Mapping.t, string) result
(** [route ctx label (cluster_of, proc_of_cluster)] is the one routing
    pass every placement goes through — pipeline candidates, fault
    repair, cluster leases and interactive edits alike.  It routes
    with the router {!Ctx.resolve_routing} picks ([Auto] switches to
    coarse routing above [multilevel_threshold] tasks) under the ctx's
    [route_cap], [jobs] and budget, recording matching rounds and
    per-phase wall-clock in [ctx.stats], and validates the mapping
    (labelled [label]) against the topology and, when active, the
    ctx's constraints ({!Constraints.drc}).  [Error] carries the
    validation failure. *)

val compete :
  score:(Mapping.t -> int) ->
  Ctx.t ->
  Strategy.t list ->
  (Mapping.t * Stats.degradation, string) result
(** Run the full pipeline.  The mapping always passes
    [Mapping.validate]; the degradation level says whether the run was
    complete, budget-truncated (with the sites that stopped early), or
    a fallback placement.  [Error] carries an aggregate of every
    strategy's rejection reason (also available structured via
    [Stats.rejections ctx.stats]) and only occurs when no fallback was
    warranted or even the fallback could not be routed (disconnected
    machine). *)

(** Incremental placement for dynamically spawned computations
    (paper §6): tasks of a regular spawning pattern appear generation
    by generation, so the mapper places each new generation without
    moving anything already running — unlike the static mapper, which
    sees the whole final graph in advance.

    The quality gap between this online placement and the clairvoyant
    static mapping measures what the predictable spawning pattern buys
    (the paper's motivation for describing spawning in LaRCS). *)

val place :
  ?budget:Budget.t ->
  ?feasible:(int -> int -> bool) ->
  Oregami_graph.Ugraph.t ->
  activation:int array ->
  cap:int ->
  Oregami_topology.Topology.t ->
  int array
(** [place static ~activation ~cap topo] assigns tasks to processors in
    generation order (ties by task id).  Each arriving task goes where
    NN-Embed's rule puts it ({!Nn_embed.cheapest} over
    {!Nn_embed.placed_cost}): the processor minimising the hop-weighted
    communication to its already-placed neighbours, among alive
    processors with fewer than [cap] tasks (ties: lightest load, then
    smallest id).  Requires [cap × processors ≥ tasks].

    An exhausted [budget] places the remaining tasks on the first
    alive processor with room instead of summing communication — the
    capacity invariant still holds, recorded as an ["incremental"]
    truncation.

    [feasible t p] (default: allow all) filters the processors task
    [t] may occupy — the bridge to {!Constraints.feasible}.  A task
    with no feasible processor under the capacity bound raises
    [Invalid_argument] naming the task. *)

val try_place :
  ?budget:Budget.t ->
  ?feasible:(int -> int -> bool) ->
  Oregami_graph.Ugraph.t ->
  activation:int array ->
  cap:int ->
  Oregami_topology.Topology.t ->
  (int array, string) result
(** Like {!place} but total: precondition failures (activation length
    mismatch, insufficient capacity) and a task with no feasible
    processor become a named [Error] instead of raising.  The online
    cluster uses this — a transiently unplaceable arrival is queued
    and retried, not a crash. *)

val generations : int array -> int list list
(** Task ids grouped by activation level, levels ascending. *)

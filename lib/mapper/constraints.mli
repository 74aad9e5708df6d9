(** Placement constraints as part of the shared mapping contract.

    OREGAMI's machine model is homogeneous; production mappers are not
    (UGRAMM's typed PEs with [SupportedOps], lock-nodes and
    skip-placement classes; SpiNNTools' constraint-driven placement).
    This module makes those first-class: a {!spec} — pin task→proc,
    forbid task↛proc, require a processor capability class per task,
    skip whole classes — is compiled once per run against the concrete
    task graph and topology, and every strategy, the embedding and
    refinement passes, the repair path and {!Mapping.validate} consult
    the same {!feasible} predicate (or decline with a named reason).

    Program-declared requirements ([requires CLASS] on a LaRCS
    nodetype, surfaced as [Taskgraph.node_requires]) seed the per-task
    required classes; request-level requirements override them. *)

type spec = {
  pins : (int * int) list;  (** (task, processor): task must be placed there *)
  forbids : (int * int) list;  (** (task, processor): task must not be placed there *)
  requires : (int * string) list;  (** (task, class): overrides the program annotation *)
  skip_classes : string list;
      (** capability classes excluded from placement (their processors
          still route traffic) *)
}

val none : spec

val describe : spec -> string
(** One-line rendering for logs and stats, [""] for {!none}. *)

(** {2 Compilation} *)

type t
(** A spec compiled against a task graph and topology: dense per-task
    and per-processor tables.  Compilation is total; malformed specs
    land in {!errors} and the pipeline reports them before any strategy
    runs. *)

val compile : spec -> Oregami_taskgraph.Taskgraph.t -> Oregami_topology.Topology.t -> t
(** Merges the spec with the task graph's [node_requires] annotations
    against the topology's capability classes.  Collected errors:
    out-of-range tasks/processors, conflicting or infeasible pins
    (dead, forbidden, skip-class or wrong-class processors), unknown
    skip classes, and required classes no alive placeable processor
    offers. *)

val errors : t -> string list

val active : t -> bool
(** Whether any constraint is in effect (including program-declared
    requirements).  When [false], {!feasible} is the allow-all filter;
    the constraint-unaware strategies run only then, and the pipeline
    passes NN-Embed no filter at all. *)

val feasible : t -> task:int -> proc:int -> bool
(** The shared feasibility predicate: the processor is in range, and —
    when any constraint is {!active} — not skip-placement, not
    forbidden for the task, of the task's required class, and the
    task's pin (if any).  With no constraint active it accepts every
    in-range processor, so callers need no unconstrained twin.
    Liveness is the caller's concern ({!Mapping.validate} already
    rejects dead processors). *)

val skip_proc : t -> int -> bool

val pinned : t -> int -> int option

(** {2 DRC: design-rule check}

    The named-violation pass behind [validate-drc] in [--explain]: each
    violation carries the task, the processor, and the rule by name
    ([pin] / [forbid] / [require-class] / [skip-class]). *)

type violation = { vi_task : int; vi_proc : int; vi_rule : string }

val drc : t -> int array -> violation list
(** [drc t assignment] checks a per-task processor assignment against
    every rule; empty means clean. *)

val violation_to_string : violation -> string

(** {2 Cluster projection}

    Contraction strategies place {e clusters}, not tasks; the shared
    embed pass needs the constraints expressed per cluster.  Projection
    fails (with a named reason, rejecting the candidate) when a cluster
    merges tasks whose constraints cannot be satisfied together. *)

type projection = {
  pj_fixed : int array;  (** cluster → pinned processor, [-1] when free *)
  pj_require : string array;  (** cluster → required class, [""] when none *)
  pj_forbid : (int * int, unit) Hashtbl.t;  (** forbidden (cluster, processor) pairs *)
}

val project : t -> clusters:int -> cluster_of:int array -> (projection, string) result

val cluster_allowed : t -> projection -> int -> int -> bool
(** [cluster_allowed t pj cluster proc]: the cluster-level
    {!feasible}. *)

(** {2 Spec notation}

    Shared by the CLI ([--pin T=P --forbid T=P --require T=CLASS]) and
    the request service ([pin=T:P,T:P ...] — [:] separates inside
    service values since [=] binds the key). *)

val parse_pins : string -> ((int * int) list, string) result

val parse_forbids : string -> ((int * int) list, string) result

val parse_requires : string -> ((int * string) list, string) result

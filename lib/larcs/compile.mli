(** The LaRCS compiler: expands a parametric program, under concrete
    values for its parameters and imported variables, into the task
    graph data structures used by MAPPER and METRICS (paper Fig 2c). *)

type node_space = {
  type_name : string;
  dims : (int * int) list;  (** per-dimension inclusive (lo, hi) *)
  offset : int;  (** first global task id of this type *)
  count : int;
  requires : string option;
      (** processor capability class every task of this type requires
          (the declaration's [requires CLASS] annotation) *)
}

type compiled = {
  program : Ast.program;
  bindings : (string * int) list;
  spaces : node_space list;
  graph : Oregami_taskgraph.Taskgraph.t;
  activation : int array;
      (** per-task spawn generation: 0 for statically created tasks;
          level in the spawn tree for [spawntree] tasks (paper §6's
          dynamically spawned computations with a regular pattern).
          Tasks of generation [g] exist only from step [g] on, which
          the incremental placement in [Mapper.Incremental] honours. *)
}

val max_tasks : int
(** Ceiling on a task graph's size (10{^6}): a program whose node
    spaces add up to more is a compile [Error], never an allocation
    crash.  {!Oregami_workloads.Synth} specs honour the same cap. *)

val compile : ?bindings:(string * int) list -> Ast.program -> (compiled, string) result
(** Every algorithm parameter and imported variable must be bound.
    Fails when a rule's destination falls outside its node type's label
    ranges (use [when] guards to trim boundaries), on undeclared types,
    or on arity mismatches.

    A [spawntree t : depth d;] declaration contributes a node space of
    [2^(d+1)-1] tasks (the full binary spawn tree), an implicit
    communication phase [t_spawn] carrying the spawn messages
    (parent → children), and per-task activation levels. *)

val compile_source :
  ?bindings:(string * int) list -> string -> (compiled, string) result
(** Parse + compile. *)

val node_id : compiled -> string -> int list -> int option
(** Global task id of a typed label tuple, e.g.
    [node_id c "body" [3]]. *)

val node_label_values : compiled -> int -> int list
(** The label tuple of a global task id. *)

val dump : compiled -> string
(** An s-expression dump of the compiled structures (the analogue of
    the paper's generated Scheme functions, Fig 2c). *)

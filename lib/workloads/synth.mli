(** Synthetic large-graph generator family.

    The LaRCS workloads top out around a few hundred tasks — compiling
    a 10^5-node program through the parser would dominate any mapping
    benchmark.  This module builds {!Oregami_taskgraph.Taskgraph}
    values directly, at any size, for the multilevel tier's benchmarks
    and tests: one communication phase ["comm"], one unit-cost
    execution phase ["work"], phase expression [comm; work].

    Specs are strings so the CLI, the batch service, and the bench
    harness can all name an instance: [synth:FAMILY:N] or
    [synth:FAMILY:N:SEED] (seed defaults to 1; only [rmat] uses it).

    Families:
    - [grid]  — near-square 2-D grid, 4-neighbour stencil edges;
    - [ring]  — ring with a half-turn chord (nbody-like);
    - [tree]  — binary tree, child → parent reports;
    - [rmat]  — power-law R-MAT graph (a=0.57, b=c=0.19), ~8 edges per
      node, seeded. *)

type family = Grid | Ring | Tree | Rmat

val families : (string * string) list
(** [(name, description)] pairs, for help texts. *)

val string_of_family : family -> string

val is_spec : string -> bool
(** Whether the string starts with ["synth:"]. *)

val parse : string -> (family * int * int, string) result
(** Parses [synth:FAMILY:N[:SEED]] into [(family, n, seed)].  [N] must
    be positive and at most {!Oregami_larcs.Compile.max_tasks}, so a
    request line cannot make a worker allocate an unbounded graph;
    every error names the offending field. *)

val generate : family -> n:int -> seed:int -> Oregami_taskgraph.Taskgraph.t

val build : string -> (Oregami_taskgraph.Taskgraph.t, string) result
(** {!parse} composed with {!generate}. *)

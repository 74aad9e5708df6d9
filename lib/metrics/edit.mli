(** Programmatic mapping modification — the METRICS "click and drag"
    loop (paper §5): the user can reassign tasks to processors or
    re-route communication edges, and the metrics are recomputed on the
    modified mapping. *)

val move_task :
  Oregami_mapper.Mapping.t -> task:int -> proc:int -> (Oregami_mapper.Mapping.t, string) result
(** Moves one task to the cluster living on the target processor (a new
    cluster is created when that processor is empty); all phases are
    re-routed and validated by {!Oregami_mapper.Pipeline.route} under
    default options, as a fresh mapping would be — so an edit that
    breaks a program-declared [requires] class is refused by name.
    The strategy tag gains a ["+edit"] suffix. *)

val swap_processors :
  Oregami_mapper.Mapping.t -> int -> int -> (Oregami_mapper.Mapping.t, string) result
(** Exchanges the contents of two processors, re-routing. *)

val reroute_edge :
  Oregami_mapper.Mapping.t ->
  phase:string ->
  src:int ->
  dst:int ->
  path:int list ->
  (Oregami_mapper.Mapping.t, string) result
(** Replaces one routed edge's path with an explicit processor path
    (validated: adjacent hops, correct endpoints). *)

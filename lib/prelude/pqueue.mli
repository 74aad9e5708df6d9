(** Imperative binary-heap priority queue with integer priorities.

    Lower priority values are popped first.  Used by the mapping
    heuristics (greedy merges, Dijkstra, NN-Embed candidate selection). *)

type 'a t

val create : unit -> 'a t
(** [create ()] is a fresh empty queue. *)

val length : 'a t -> int
(** Number of elements currently queued. *)

val is_empty : 'a t -> bool

val push : 'a t -> int -> 'a -> unit
(** [push q prio x] inserts [x] with priority [prio]. *)

val pop : 'a t -> (int * 'a) option
(** [pop q] removes and returns a minimum-priority element, or [None]
    when the queue is empty.  Ties are broken by insertion order
    (earlier insertions first), which keeps the mapping algorithms
    deterministic. *)

val peek : 'a t -> (int * 'a) option
(** Like {!pop} without removal. *)

val of_list : (int * 'a) list -> 'a t

val to_sorted_list : 'a t -> (int * 'a) list
(** Drains a copy of the queue into a priority-sorted list; [q] itself
    is not modified. *)

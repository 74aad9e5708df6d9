(** Fuel/deadline meter for anytime mapping.

    A budget combines two limits: an abstract {e fuel} cap (work units,
    deterministic across machines) and a wall-clock {e deadline}
    (monotonic, machine-dependent).  Hot loops call {!poll} with the
    cost of the work they are about to do; once either limit trips the
    budget is {e sticky-dead} — every later poll answers [false]
    immediately, so a loop deep in a recursion unwinds promptly.

    Exhaustion is a signal, not an exception: each loop that stops
    early records the site via {!note} and returns its best partial
    result, which is how the pipeline assembles a valid mapping even
    when the budget dies mid-strategy. *)

type t

val unlimited : unit -> t
(** A budget that never trips.  Fuel is still metered (see
    {!fuel_used}) so a full run's cost can be measured. *)

val create : ?fuel:int -> ?deadline_ms:float -> unit -> t
(** [create ?fuel ?deadline_ms ()] starts the deadline clock now.
    Omitted limits are unlimited.  A [deadline_ms] of [0.] trips on the
    first poll. *)

val poll : t -> cost:int -> bool
(** [poll b ~cost] charges [cost] fuel units and returns [true] if work
    may continue.  Cheap: the monotonic clock is consulted only every
    few hundred fuel units (and on the first poll, so a zero deadline
    trips immediately).  Once it returns [false] it always will. *)

val exhausted : t -> bool
(** Whether the budget has tripped. *)

val reason : t -> string option
(** Why the budget tripped ("fuel" or "deadline"), if it has. *)

val note : t -> string -> unit
(** [note b site] records that [site] stopped early.  Duplicates are
    collapsed; insertion order is preserved. *)

val truncations : t -> string list
(** Sites recorded by {!note}, in first-noted order. *)

val fuel_used : t -> int
(** Total fuel charged so far, metered even on unlimited budgets. *)

val fuel_left : t -> int
(** Fuel that {!poll} can still charge before the cap trips: [0] once
    the cap is spent, about [max_int] on a budget without one.  A loop
    that knows its whole cost up front can charge it in one poll when
    it fits, and poll piece by piece only when it does not. *)

val limited : t -> bool
(** Whether the budget carries any limit at all. *)

(** Online cluster lifecycle: a long-lived machine whose processors are
    leased by a stream of arriving and departing programs, with
    chaos-injected failures and self-healing remaps.

    OREGAMI maps one computation onto a pristine machine and stops;
    the service north-star is a machine that stays up while programs
    come and go and hardware dies underneath them.  This module is
    that simulator:

    - an {e arrival} is granted a spatial subregion of the free
      processors (best-fit connected block when one exists) and placed
      into it with the incremental placer under its own
      {!Oregami_mapper.Constraints};
    - a {e departure} reclaims the lease, growing the free pool and
      usually its fragmentation;
    - a {e kill} event (from a [--chaos] schedule or the trace itself)
      degrades the machine; every lease touching a dead processor is
      healed by pricing minimum-disruption {!Oregami_mapper.Repair}
      against a from-scratch re-placement with the recovery bill
      {!Remap.recover} uses ({!Remap.bill}, {!Remap.repair_wins}),
      falling back to evict-and-requeue when neither fits;
    - a {e revive} event restores processors/links
      ({!Oregami_topology.Faults.revive}) into the free pool;
    - arrivals that cannot be placed are queued (bounded — overflow is
      shed by name) and retried with exponential backoff in trace
      time, refused by name when retries exhaust;
    - when fragmentation crosses a threshold and jobs are waiting, a
      defragmenting re-pack of every lease is priced and committed
      only if its total migration cost beats the projected queue wait.

    Nothing here raises on bad input: malformed chaos, unplaceable
    jobs, and disconnecting faults all become named log entries and
    counters.  Every decision lands in the event log ([--explain]). *)

type arrival = {
  ar_name : string;  (** job name, unique among live + queued jobs *)
  ar_program : string;
      (** anything {!Service.source} accepts: a [synth:FAMILY:N[:SEED]]
          spec, a built-in workload name, or a LaRCS source file *)
  ar_procs : int option;
      (** requested region size; default [⌈tasks/2⌉], clamped to the
          machine *)
  ar_bindings : (string * int) list;  (** program parameter bindings *)
  ar_constraints : Oregami_mapper.Constraints.spec;
}

type event =
  | Arrive of arrival
  | Depart of string  (** by job name; unknown names are logged, not fatal *)
  | Kill of { procs : int list; links : int list }  (** base ids *)
  | Revive of { procs : int list; links : int list }  (** base ids *)

val describe_event : event -> string

type config = {
  cf_queue_bound : int;  (** pending arrivals kept before shedding (default 16) *)
  cf_max_retries : int;  (** placement retries per queued arrival (default 3) *)
  cf_defrag_threshold : float;  (** re-pack trigger (default 0.5) *)
  cf_route_cap : int;  (** MM-Route candidate bound (default 64) *)
}

val default_config : config

type sample = {
  s_clock : int;  (** event ordinal at which the sample was taken *)
  s_event : string;  (** what just happened, one line *)
  s_utilization : float;  (** leased fraction of the alive machine *)
  s_fragmentation : float;  (** {!fragmentation} of the free pool *)
  s_running : int;
  s_queued : int;
  s_free : int;
}

type report = {
  rp_events : int;
  rp_admitted : int;  (** arrivals that got a lease (incl. re-admissions) *)
  rp_completed : int;  (** departures of running jobs *)
  rp_cancelled : int;  (** departures of still-queued jobs *)
  rp_refused : (string * string) list;  (** job name, reason — never silent *)
  rp_shed : string list;  (** arrivals dropped on a full queue, by name *)
  rp_repairs : int;  (** chaos healings where minimum-disruption repair won *)
  rp_remaps : int;  (** healings where the from-scratch re-placement won *)
  rp_evictions : int;  (** healings that had to evict and requeue *)
  rp_repacks : int;  (** committed defragmentation re-packs *)
  rp_repacks_declined : int;  (** re-packs priced and rejected *)
  rp_migration_total : int;  (** simulated migration time summed over all moves *)
  rp_chaos_applied : int;
  rp_chaos_refused : int;  (** e.g. a kill that would disconnect the machine *)
  rp_running : string list;  (** leases still live at the end *)
  rp_queued : string list;
  rp_samples : sample list;  (** one per event, in order *)
  rp_log : string list;  (** the full decision log, in order *)
}

type t

val create : ?config:config -> Oregami_topology.Topology.t -> (t, string) result
(** A fresh machine, everything free.  Errors on an empty topology. *)

val step : t -> event -> unit
(** Apply one event.  Total: every failure path is a log entry and a
    counter, never an exception. *)

val free_procs : t -> int list
(** Alive processors under no lease, sorted. *)

val leased_procs : t -> int list
(** Alive processors under some lease, sorted. *)

val lease_assignment :
  t ->
  string ->
  (Oregami_taskgraph.Taskgraph.t * Oregami_topology.Topology.t * int array)
  option
(** The named lease's task graph, the current machine view, and its
    task→processor assignment — [None] if no such lease is running.
    What the property tests audit after every chaos event. *)

val utilization : t -> float
(** Fraction of the {e alive} processors currently under lease; [0.]
    on a machine with nothing alive. *)

val fragmentation : t -> float
(** How shattered the free pool is: [1 - largest contiguous free block
    / total free processors], where contiguity is adjacency in the
    current (possibly degraded) machine restricted to free processors.
    [0.] when the free pool is empty, a single processor, or one
    connected block; approaches [1.] as the free processors scatter
    into many small islands.  Drives the re-pack decision. *)

val invariants : t -> (unit, string) result
(** Lease accounting, checked by the stress soak at every event: leased
    and free partition the alive processors, no processor is under two
    leases, every lease's mapping stays inside its lease and on alive
    processors, and the queue respects its bound. *)

val finish : t -> report
(** Final drain — queued arrivals get their remaining retries, then
    whatever still waits is refused by name — and the report. *)

val run :
  ?config:config ->
  ?explain:(string -> unit) ->
  ?chaos:(int * event) list ->
  Oregami_topology.Topology.t ->
  event list ->
  (report, string) result
(** Drive a whole trace.  A chaos pair [(i, ev)] fires before the
    [i]-th trace event (0-based; past-the-end fires after the trace).
    [explain] sees every log line as it is written. *)

val parse_chaos : string -> ((int * event) list, string) result
(** Chaos spec grammar: [AT:ACTION[;AT:ACTION...]] where [ACTION] is
    [kill-procs=IDS], [kill-links=IDS], [revive-procs=IDS] or
    [revive-links=IDS], ids comma-separated base ids — e.g.
    ["10:kill-procs=3;20:revive-procs=3"]. *)

val parse_trace_line : int -> string -> (event option, string) result
(** One trace-file line ([lineno] for error messages), [Ok None] for
    blank/comment lines.  Grammar:
    {v arrive JOB PROGRAM [procs=N] [pin=..] [forbid=..] [require=..] [skip=..] [key=value..]
depart JOB
kill [procs=IDS] [links=IDS]
revive [procs=IDS] [links=IDS] v}
    Tokens split as a request line's do ({!Service.tokens}).  An
    arrival's options follow {!Service.parse_request}'s grammar
    ({!Service.fold_keys} over {!Service.constraint_keys}), and so do
    [kill]/[revive] options: a repeated key or a malformed token fails
    with the same text serve answers.  An [arrive] or [depart] with the
    wrong number of tokens fails by saying what the verb wants. *)

val load_trace : string -> (event list, string) result
(** Parse a trace file, first error wins (with its line number). *)

val synth_trace :
  events:int -> seed:int -> Oregami_topology.Topology.t -> event list
(** Seeded arrival/departure generator: small synthetic programs
    (grids, rings, trees, R-MATs of 8–40 tasks) arrive, run a while
    and depart.  Every event with a job running is a departure with
    probability 0.45 and an arrival otherwise, for the whole trace, so
    arrivals outrun departures and a long trace fills the machine
    until admissions are refused — it does not converge to balance.
    Deterministic for a given seed and machine. *)

val is_synth_trace : string -> bool
(** Whether a trace argument names a generated trace ([synth:...])
    rather than a trace file. *)

val parse_synth_trace : string -> (int * int, string) result
(** [synth:EVENTS[:SEED]] → [(events, seed)], the seed defaulting
    to 1 and [EVENTS] positive — the one grammar the [cluster] command
    and the daemon's [cluster] verb accept.  Anything else is a named
    error. *)

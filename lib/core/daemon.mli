(** Long-lived network daemon over the batch mapping {!Service}.

    Where {!Service.serve} is batch-shaped — read a stream to EOF,
    answer every line, exit — the daemon keeps a socket listener and a
    persistent worker-domain pool ({!Oregami_prelude.Pool.feeder})
    alive across many concurrent clients, with the robustness
    machinery a service that cannot exit needs:

    - {b Admission control.}  Accepted jobs wait in a bounded queue.
      When the queue is full, when a client exceeds its inflight cap,
      or when the daemon is draining, the request is {e shed}: it is
      answered immediately with a normal error result line naming the
      reason ([overload: ...], [unavailable: ...]) instead of
      blocking.  A client therefore gets exactly one answer per
      request, always.
    - {b Quotas.}  Configured fuel/deadline caps clamp requests that
      did not state a budget and reject explicit over-asks by name
      ([quota: ...]).
    - {b Timeouts.}  A per-request wall-clock timeout converts into
      the request's one deadline, shared by its attempts (see
      {!Service.run_request}): time spent queued shrinks it, and a
      request whose timeout lapsed in the queue is answered
      [timeout: ...] without running.
    - {b Bounded caches.}  The shared artifact caches run in
      {!Oregami_prelude.Memo} LRU mode, so sustained many-key traffic
      cannot grow the daemon without limit.
    - {b Graceful drain.}  SIGTERM/SIGINT stop the accept loop; the
      daemon finishes (and answers) every accepted request, joins its
      readers and workers, removes the socket file, and {!run} returns
      0.

    {2 Protocol}

    Line-oriented, same request grammar as {!Service}: each line is
    [PROGRAM TOPOLOGY [key=value ...]], each answer is one
    {!Service.render} line.  Requests from one client are answered in
    completion order (the id column identifies them); requests of
    different clients share the pool, drained {e round-robin per
    client} ({!Oregami_prelude.Pool.offer_keyed}), so one flooding
    client only lengthens its own lane.  Control verbs are handled
    specially: [stats] answers one s-expression line of live counters
    (served/shed/quota rejects, queue depth, inflight, breaker trips,
    per-cache hit/miss/eviction, p50/p99 latency), and
    [stats --format prometheus] (or [stats prometheus]) the same
    snapshot in Prometheus text exposition; [ping] answers [pong];
    [quit] closes the connection after pending answers; [sleep MS]
    queues a no-op job of fixed duration — a deterministic load shape
    for tests and benchmarks; and
    [cluster TOPO synth:EVENTS[:SEED] [chaos=SPEC]] queues a bounded
    online-lifecycle run ({!Cluster}) answered as one s-expression
    summary line; its tail follows the request-line key grammar
    ({!Service.fold_keys}) with [chaos] as the only key, and anything
    else is answered as a named [cluster:] error. *)

type listen = Unix_socket of string | Tcp of int
(** Where to listen: a Unix-domain socket path (replacing a stale
    socket file if present) or a loopback TCP port. *)

type config = {
  d_listen : listen;
  d_jobs : int;  (** worker-domain count (>= 1) *)
  d_queue_bound : int;  (** admission queue bound (>= 0; [0] sheds all) *)
  d_max_inflight : int;  (** per-client unanswered-request cap (>= 1) *)
  d_fuel_cap : int option;  (** per-request fuel quota *)
  d_deadline_cap_ms : float option;  (** per-request deadline quota *)
  d_timeout_ms : float option;  (** per-request wall-clock timeout *)
  d_cache_bound : int option;  (** LRU bound for each artifact cache *)
  d_format : Service.format;
}

val default_config : listen -> config
(** [Pool.default_jobs ()] workers, queue bound 64, inflight cap 8,
    no quotas or timeout, cache bound {!Service.cache_bound}, TSV. *)

type controller
(** Handle to a running daemon, delivered through [?ready]. *)

val shutdown : controller -> unit
(** Trigger the same graceful drain as SIGTERM, from in-process (for
    tests and embedding).  Safe from any thread or domain. *)

val run : ?ready:(controller -> unit) -> ?handle_signals:bool -> config -> int
(** Bind, listen, and serve until SIGTERM/SIGINT (when
    [handle_signals], the default) or {!shutdown}.  [ready] is called
    once the socket is bound and admission is live, before the first
    accept — the hook tests use to know when to connect and how to
    stop.  Returns the exit code: 0 after a graceful drain.  Raises
    [Unix.Unix_error] if the socket cannot be bound. *)

val connect : listen -> Unix.file_descr
(** Client-side dial of a daemon address (used by [oregami client]
    and the tests).  The caller owns the descriptor. *)

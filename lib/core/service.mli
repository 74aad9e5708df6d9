(** Batch mapping service: a stream of mapping requests in, one
    structured result line per request out, never aborting the batch on
    a poisoned request.

    Each input line is a request:

    {v PROGRAM TOPOLOGY [key=value ...] v}

    [PROGRAM] is a LaRCS source file, a built-in workload name, or a
    [synth:FAMILY:N[:SEED]] spec (see {!source}); [TOPOLOGY] a topology
    spec ([torus:8x8], [hypercube:4], ..., optionally with a
    [:classes=CLASS@IDS/...] capability suffix).  Blank lines and lines
    whose first token starts with [#] are skipped.  A repeated key on
    one line is a named parse error (the later value would otherwise
    win silently).  The option keys are the entries of {!keys} (the
    same table the [oregami] command line builds its flags from), plus
    [retries=N] (extra reduced-scope attempts, default 2).  Any other
    [key=value] with an integer value is passed to the program as a
    parameter binding (like [oregami map -p key=value]).

    Every request runs with [fallback] enabled, so a budgeted request
    always yields {e some} valid mapping whenever the machine is
    connected.  When an attempt fails outright or lands degraded
    (not [Full]) and retries remain, the request is retried with
    reduced scope: attempt 1 drops refinement, attempt 2 additionally
    drops the competing tier (dispatch strategies + baseline fallback
    only).  Each attempt gets a fresh fuel budget, but [deadline-ms] is
    one deadline for the whole request: a retry gets the time left of
    it, and none starts once it has passed (the first attempt always
    runs).  The best result across attempts is reported ([Full] >
    [Truncated] > [Fallback] > error).

    All requests of one {!serve} run share a single {!Isolate.breaker},
    so a strategy that keeps crashing across requests gets benched for
    the rest of the batch.

    {2 Serving at any width}

    Every request of a {!serve} run draws its setup from two
    build-once artifact {!type-caches} — compiled programs keyed by
    program + bindings, and topologies (hop matrix pre-warmed) keyed
    by spec string — each holding at most {!cache_bound} entries, so a
    stream that names the same program/topology pairs repeatedly pays
    each setup once instead of once per request.  With [jobs > 1] the
    batch runs on a pool of OCaml 5 domains
    ({!Oregami_prelude.Pool}) sharing those caches; results are still
    emitted strictly in request order (the pool's ordered collector),
    and every request gets its own context, RNG, stats, and budget, so
    for fixed seeds the output is byte-identical at every width except
    for the wall-clock column.  [jobs = 1] streams request by request
    and spawns nothing. *)

type format = Tsv | Sexp

type request = {
  rq_id : int;  (** 1-based request ordinal within the batch *)
  rq_program : string;
  rq_topology : string;
  rq_bindings : (string * int) list;
  rq_options : Oregami_mapper.Ctx.options;
      (** always has [fallback = true]; budgets from the request line *)
  rq_retries : int;
}

type outcome = {
  r_id : int;
  r_program : string;
  r_topology : string;
  r_ok : bool;
  r_strategy : string;  (** winning mapping label; ["-"] on error *)
  r_degradation : Oregami_mapper.Stats.degradation option;
      (** [None] on error *)
  r_completion : int option;  (** METRICS completion-time model *)
  r_elapsed_ms : float;  (** wall-clock over every attempt *)
  r_attempts : int;  (** pipeline attempts actually run *)
  r_fuel_used : int;  (** summed over attempts *)
  r_error : string;  (** [""] when ok *)
}

val max_program_bytes : int
(** Size cap on program files read by {!load_program}; larger files
    are rejected with a named error instead of being slurped. *)

val load_program : string -> (string * (string * int) list, string) result
(** Resolve a program argument: a built-in workload name (returning
    its source and default parameter bindings) or a readable file.
    The channel is closed on every path, and files over
    {!max_program_bytes} are refused by name. *)

(** {2 Programs} *)

type source
(** A resolved program argument, not yet compiled. *)

type program = {
  graph : Oregami_taskgraph.Taskgraph.t;
  compiled : Oregami_larcs.Compile.compiled option;
      (** [None] for a synthetic graph *)
}

val source : string -> (source, string) result
(** The one place a program argument is told apart: a
    [synth:FAMILY:N[:SEED]] spec builds its task graph
    ({!Oregami_workloads.Synth}), anything else is {!load_program}'s.
    An [Error] means it names no program at all. *)

val build : ?bindings:(string * int) list -> source -> (program, string) result
(** Compiles LaRCS source with [bindings] over its defaults; a
    synthetic graph takes no bindings and passes through. *)

val context :
  ?options:Oregami_mapper.Ctx.options ->
  ?faults:Oregami_topology.Faults.t ->
  ?breaker:Oregami_mapper.Isolate.breaker ->
  program ->
  Oregami_topology.Topology.t ->
  Oregami_mapper.Ctx.t
(** {!Oregami_mapper.Ctx.of_compiled} for LaRCS (so the affine
    analysis applies), else {!Oregami_mapper.Ctx.of_taskgraph}. *)

(** {2 The request-option table}

    One entry per mapping option, spelled [NAME=VALUE] on a request
    line and [--FLAG VALUE] on the command line.  Both reach the
    entry's setter, so they accept the same values and refuse the rest
    with the same text. *)

type key = {
  k_name : string;
  k_flag : string;  (** the name, except [skip-class] for [skip] *)
  k_docv : string;
  k_doc : string;  (** cmdliner markup *)
  k_list : bool;  (** comma-separated: repeated flags join with [,] *)
  k_set :
    Oregami_mapper.Ctx.options -> string -> (Oregami_mapper.Ctx.options, string) result;
}

val keys : key list
(** Every entry; {!constraint_keys} last. *)

val constraint_keys : key list
(** [pin], [forbid], [require] and [skip], which cluster arrivals take
    too.  A line separates inside their values with [:]
    ([pin=3:0,7:12]) because [=] binds the key. *)

val apply_flags :
  Oregami_mapper.Ctx.options ->
  (key * string list) list ->
  (Oregami_mapper.Ctx.options, string) result
(** Each key's flag values, answered as the request line
    [NAME=VALUE ...] would be, a list key's values joined with [,]: a
    repeated scalar flag is a duplicate key. *)

val tokens : string -> string list
(** A line's tokens, split at spaces and tabs. *)

val parse_request : id:int -> string -> (request option, string) result
(** [Ok None] for blank/comment lines.  Duplicate keys are an
    [Error]. *)

(** {2 The request-line key grammar}

    Shared with the cluster's trace lines, the daemon's [cluster] verb
    and the command line's [-p] bindings, so each answers the same
    input with the same result and the same error text. *)

val fold_keys :
  ('a -> string -> string -> ('a, string) result) ->
  'a ->
  string list ->
  ('a, string) result
(** [fold_keys f init tokens] folds [f acc key value] over [key=value]
    tokens left to right; the first malformed token, repeated key or
    [f] error wins. *)

val binding : string -> string -> (string * int, string) result
(** A program parameter binding [key=INT]. *)

type caches = {
  c_programs : (string, (program, string) result) Oregami_prelude.Memo.t;
  c_topologies :
    (string, (Oregami_topology.Topology.t, string) result) Oregami_prelude.Memo.t;
}
(** Shared build-once artifact caches (see {!section-"serving-at-any-width"}
    above).  Cached values — including cached {e errors}, e.g. a
    missing program file — are immutable and safe to share across
    domains.  A cached error stands until its entry is evicted: a
    program file that is missing and then appears partway through a
    stream keeps answering with the error meanwhile. *)

val caches : ?bound:int -> unit -> caches
(** Fresh, empty caches.  With [bound], each table keeps at most
    [bound] entries under LRU eviction ({!Oregami_prelude.Memo}) — the
    configuration a stream needs so sustained many-key traffic cannot
    grow the caches without limit. *)

val cache_bound : int
(** The LRU bound of {!serve}'s caches and the daemon's default: 64
    entries per table. *)

val run_request :
  ?breaker:Oregami_mapper.Isolate.breaker ->
  ?caches:caches ->
  request ->
  outcome
(** Runs the request's attempt schedule, attempts back to back.  Never
    raises: setup crashes and strategy crashes both become an error
    outcome (the latter via the pipeline's own
    {!Oregami_mapper.Isolate} barrier).  With [caches], program
    compilation and topology construction go through the shared tables
    (and their results are identical to a cold setup, wall-clock
    aside). *)

val refusal : id:int -> program:string -> topology:string -> string -> outcome
(** The error outcome of a request that ran nothing: a quota reject,
    shed load, a timeout. *)

val malformed : id:int -> line:string -> string -> outcome
(** The error outcome {!serve} emits for an unparseable request line —
    exposed so other frontends (the network daemon) can answer
    malformed input identically. *)

val render : format -> outcome -> string
(** One line, no trailing newline.  [Tsv] column order: id, program,
    topology, status, strategy, degradation, completion, elapsed-ms,
    attempts, fuel, error (["-"] for empty fields). *)

val serve :
  ?format:format ->
  ?breaker:Oregami_mapper.Isolate.breaker ->
  ?jobs:int ->
  in_channel ->
  out_channel ->
  int
(** Process requests, emitting (and flushing) one result line each in
    request order, continuing past failures.  Returns the batch exit
    code: 0 when every request succeeded, 1 when any failed.

    [jobs] (default 1) is the domain-pool width.  Every width shares
    one set of {!caches} bounded by {!cache_bound}.  [jobs = 1] streams
    request by request; [jobs > 1] reads the whole input to
    end-of-file first, then maps requests on the pool, emitting each
    result as soon as all earlier results are out. *)

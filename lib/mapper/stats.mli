(** Per-pass instrumentation for the mapping pipeline — the paper's §5
    inspect-and-modify loop needs to answer not just {e what} mapping
    was produced but {e why}: which strategies were tried, which were
    rejected and for what reason, how long each took, how the
    candidates scored under the METRICS completion model, and how much
    work the matching/refinement/distance machinery did.

    One sink is threaded through every pass of a {!Pipeline.compete}
    run (it lives on the {!Ctx.t}); [oregami map --explain] renders it
    as a human table plus an s-expression dump.

    All counts are deterministic for a fixed program, topology, and
    options (including the RNG seed); only the wall-clock times vary
    between runs — {!counters} deliberately excludes them so tests can
    assert reproducibility. *)

type outcome =
  | Produced of int  (** candidates emitted *)
  | Rejected of string  (** the strategy declined, with its reason *)
  | Skipped of string
      (** filtered before running (options gate, exhausted budget, or
          an open circuit breaker) *)
  | Crashed of string
      (** the producer raised; the exception text, captured by the
          {!Isolate} barrier instead of aborting the pipeline *)

type degradation =
  | Full  (** every pass ran to completion *)
  | Truncated of string list
      (** the budget expired mid-run; the sites that stopped early
          (e.g. ["mwm-contract"], ["refine"]), in order *)
  | Fallback
      (** no competing candidate landed; the mapping is a cheap
          baseline placement *)

type attempt = {
  at_strategy : string;  (** registry name *)
  at_outcome : outcome;
  at_seconds : float;  (** wall time spent producing (0 when skipped) *)
}

type candidate = {
  cd_strategy : string;  (** registry name of the producer *)
  cd_label : string;  (** mapping strategy label, e.g. ["canned:mesh"] *)
  cd_score : int option;
      (** METRICS completion-time model; [None] for dispatch-tier
          winners, which short-circuit without scoring *)
  cd_ok : bool;  (** routed and passed [Mapping.validate] *)
  cd_note : string;  (** validation failure text, [""] otherwise *)
  mutable cd_winner : bool;
}

type t

val create : unit -> t

(** {1 Recording (used by the pipeline passes)} *)

val record_attempt :
  t -> strategy:string -> outcome:outcome -> seconds:float -> unit

val record_candidate :
  t ->
  strategy:string ->
  label:string ->
  score:int option ->
  ok:bool ->
  note:string ->
  candidate
(** Returns the (mutable) record so the pipeline can mark the winner. *)

val mark_winner : t -> candidate -> unit

val bump : t -> string -> int -> unit
(** [bump t name n] accumulates [n] onto the named counter, creating it
    on first use (insertion order preserved).  Strategies use this for
    pass-specific instrumentation — e.g. the multilevel tier's
    per-level node counts and refinement gains — without widening the
    record for every new counter.  Named counters are part of
    {!counters}, so they share the determinism contract. *)

val extra_counters : t -> (string * int) list
(** Counters recorded via {!bump}, in first-bump order. *)

val add_matching_rounds : t -> int -> unit
val add_refine_swaps : t -> int -> unit
val set_hop_builds : t -> int -> unit
val add_seconds : t -> float -> unit

val set_degradation : t -> degradation -> unit
val add_phase_seconds : t -> string -> float -> unit
(** Accumulate wall-clock onto a named phase ("distcache", "produce",
    "embed", "route", …); repeated names aggregate. *)

(** {1 Reading} *)

val attempts : t -> attempt list
(** Chronological. *)

val candidates : t -> candidate list
(** Chronological. *)

val winner : t -> (string * string) option
(** [(registry name, mapping label)] of the winning candidate. *)

val rejections : t -> (string * string) list
(** [(strategy, reason)] for every rejected or skipped attempt and
    every candidate that failed validation, chronological — the
    payload for a "no strategy applies" error. *)

val matching_rounds : t -> int
val refine_swaps : t -> int
val hop_builds : t -> int

val degradation : t -> degradation
(** [Full] unless the pipeline set otherwise. *)

val degradation_string : degradation -> string
(** Compact one-token rendering: ["full"], ["truncated(a,b)"],
    ["fallback"]. *)

val phase_seconds : t -> (string * float) list
(** Aggregated per-phase wall-clock, in first-recorded order. *)

val counters : t -> (string * int) list
(** Every deterministic counter as labelled pairs (attempt/candidate
    tallies, matching rounds, refine swaps, Distcache hop builds) —
    the reproducibility surface for the determinism test. *)

(** {1 Rendering} *)

val to_table : t -> string
(** Human-readable tables: attempts (strategy, outcome, time, reason),
    candidates (label, score, validity, winner), then the counters. *)

val to_sexp : t -> string
(** The whole sink as one s-expression, for tooling. *)

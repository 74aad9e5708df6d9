(** Monotonic wall-clock helpers.

    All timing in the mapper (budget deadlines, phase timings, bench
    measurements) goes through this module so the time source is
    monotonic — immune to NTP steps and {!Unix.gettimeofday}
    adjustments — and so call sites never repeat unit conversions. *)

val now : unit -> float
(** Monotonic time in seconds since an arbitrary epoch.  Only
    differences between two [now] readings are meaningful. *)

val elapsed_ms : float -> float
(** [elapsed_ms t0] is the milliseconds elapsed since the reading [t0]. *)

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f ()] and returns its result together with the
    elapsed wall-clock seconds. *)

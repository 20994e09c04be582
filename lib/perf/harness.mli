(** Repetition-based measurement for the bench harness.

    Unlike a throughput estimator, this records every repetition so the
    stored statistics are real order statistics (p50/p95 of actual
    runs), plus per-run GC deltas — an allocation regression shows up
    even when wall-clock hides it behind noise. *)

val measure :
  ?warmups:int ->
  ?reps:int ->
  (string * (unit -> unit)) list ->
  Benchfile.result list
(** [measure kernels] runs each named kernel [warmups] times unrecorded
    (default 3), then [reps] recorded times (default 10, floored at 1),
    timing each repetition with the telemetry wall clock and capturing
    GC deltas: minor words from [Gc.minor_words] (exact even when no
    minor collection runs), major words from [Gc.quick_stat]. Both read
    the calling domain only. Results keep the input order. *)

type pauses = {
  minor_p50_ns : float;
  minor_p99_ns : float;
  major_p50_ns : float;
  major_p99_ns : float;
}
(** GC pause quantiles in ns, from the [Rr_obs.Rte] Runtime_events
    consumer; [0.] where it recorded nothing (or the runtime refused
    it). *)

val measure_with_pauses :
  ?warmups:int ->
  ?reps:int ->
  (string * (unit -> unit)) list ->
  Benchfile.result list * pauses
(** {!measure} with the GC-pause consumer started first, so the pause
    quantiles are real whether or not telemetry is on. The consumer is
    process-global and stays running; its histograms cover every pause
    since it was first started. *)

val quantile : float array -> float -> float
(** Nearest-rank quantile of a sample array (sorted internally);
    [nan] on an empty array. Exposed for the tests. *)

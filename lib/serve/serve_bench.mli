(** The [functs serve-bench] driver: closed-loop producer domains plus an
    optional open-loop Poisson sweep against one session.

    {b Closed loop} — each of [producers] domains submits [submits]
    requests keeping up to [window] tickets in flight (awaiting the
    oldest when the window fills; deep windows are what let the
    dispatcher fill its largest batch bucket), then drains.  The first
    response of each producer is verified against the reference
    interpreter.  After a warm-up request the [engine.cache.*] miss
    counter is snapshotted; a warm session must never recompile, so any
    miss during the timed phase fails the run.

    {b Open loop} — for each target in [open_rps], arrivals are generated
    by a deterministic Poisson process (exponential inter-arrival times)
    for [open_duration_s] seconds.  Submits never wait on completions:
    a full queue {e drops} the arrival (counted as rejected) instead of
    stalling the clock, which is what makes the sweep open-loop.  After a
    full drain the point reports achieved rps, latency percentiles,
    per-stage windows, and the SLO ratio (accepted requests that were
    served without expiring).

    Percentiles come from the in-process log-bucketed
    [serve.latency.{queue_wait,batch,exec,total}_us] histograms — the
    registry is snapshotted around each phase and the bench reads
    {!Metrics.percentile} off the {!Metrics.diff} window; no latency
    array is collected or sorted.

    Results land in the ["serve"] member of [BENCH_exec.json] (the file
    is read-modify-written, so the bench harness's own members survive),
    shaped like:

    {v
    "serve": { "workload": …, "producers": N, "submits_per_producer": M,
               "window": W, "requests": N*M, "wall_s": …,
               "throughput_rps": …, "p50_us": …, "p90_us": …, "p99_us": …,
               "stages": { "queue_wait": {"count":…, "p50_us":…, …},
                           "batch": …, "exec": …, "total": … },
               "batch_buckets": { "b1": …, "b4": …, "b16": … },
               "batched_runs": …, "overload_retries": …,
               "warm_cache_misses": 0, "warm_cache_hits": …,
               "batches": …, "max_queue_depth": …, "cancelled": …,
               "open_loop": [ { "target_rps": …, "achieved_rps": …,
                                "offered": …, "accepted": …, "rejected": …,
                                "p50_us": …, "p99_us": …,
                                "deadline_expired": …, "slo_ok_pct": …,
                                "stages": { … } }, … ] }
    v} *)

module Metrics = Functs_obs.Metrics

type open_point = {
  op_target_rps : float;
  op_offered : int;  (** arrivals generated *)
  op_accepted : int;  (** submits the queue admitted *)
  op_rejected : int;  (** arrivals dropped by backpressure *)
  op_wall_s : float;  (** generation + drain *)
  op_achieved_rps : float;
  op_p50_us : float;
  op_p90_us : float;
  op_p99_us : float;
  op_deadline_expired : int;
  op_slo_ok_pct : float;  (** accepted requests served within deadline *)
  op_stages : (string * Metrics.hstat) list;
}

type result = {
  sb_workload : string;
  sb_producers : int;
  sb_submits : int;  (** per producer *)
  sb_window : int;  (** max tickets in flight per producer *)
  sb_requests : int;
  sb_wall_s : float;
  sb_throughput_rps : float;
  sb_p50_us : float;
  sb_p90_us : float;
  sb_p99_us : float;
  sb_stages : (string * Metrics.hstat) list;
      (** per-stage windows ([queue_wait] / [batch] / [exec] / [total])
          over the timed phase; feed to {!Metrics.percentile} *)
  sb_overload_retries : int;
  sb_warm_hits : int;  (** engine.cache hit delta during the timed phase *)
  sb_warm_misses : int;  (** must be 0 — warm submits never recompile *)
  sb_bucket_sizes : int list;  (** buckets the session compiled, ascending *)
  sb_open_loop : open_point list;  (** one per [open_rps] target *)
  sb_stats : Session.stats;
}

val run :
  ?config:Config.t ->
  ?workload:string ->
  ?producers:int ->
  ?submits:int ->
  ?window:int ->
  ?deadline_us:float ->
  ?open_rps:float list ->
  ?open_duration_s:float ->
  ?json_path:string ->
  unit ->
  (result, Error.t) Stdlib.result
(** Defaults: the [lstm] workload, 4 producers, 64 submits each, a
    32-ticket window, no deadline, no open-loop sweep (pass [open_rps]
    targets to enable it, each running [open_duration_s] seconds,
    default 2.0), [json_path = "BENCH_exec.json"].  Returns
    [Error (Engine_failure …)] when outputs diverge from the
    interpreter or a warm submit recompiled. *)

val to_text : result -> string
(** Human summary (printed by the CLI). *)

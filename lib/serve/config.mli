(** Typed configuration for the whole stack — engine lanes, the native
    JIT, observability and the serving layer — replacing the
    ad-hoc [FUNCTS_*] reads that used to be scattered across [Engine],
    [Tracer] and [Metrics].

    The environment is now {e one overlay}: {!of_env} starts from a base
    config (default {!default}), applies every recognized [FUNCTS_*]
    variable with validation, and returns [Error (Invalid_config …)] on
    the first malformed value instead of silently falling back.  No other
    module in the tree reads [FUNCTS_*] (enforced by a grep gate in
    [scripts/check.sh]).

    A config does nothing until used: pass it to [Session.create] /
    [Functs.compile] for per-session knobs, and call {!apply} once at
    startup to push the process-wide pieces (JIT defaults, tracer and
    journal enablement, trace/metrics exit sinks) into the layers that
    own them. *)

type trace_sink =
  | Trace_off
  | Trace_on  (** enable the tracer, no exit dump *)
  | Trace_file of string
      (** enable and write Chrome-trace JSON there at exit *)

type metrics_sink =
  | Metrics_off
  | Metrics_stderr  (** text snapshot to stderr at exit *)
  | Metrics_file of string
      (** snapshot at exit: JSON when the path ends in [.json], text
          otherwise *)

type policy = [ `Interp_fallback | `Shed ]
(** What a session does with a request whose deadline expired before
    dispatch, or whose engine run failed: [`Interp_fallback] serves it
    through the reference interpreter (slower, always correct);
    [`Shed] drops it with [Error.Deadline_exceeded] /
    [Error.Engine_failure]. *)

type t = {
  domains : int;  (** worker lanes in the shared domain pool (≥ 1) *)
  jit : Functs_jit.Jit.mode;  (** native JIT backend: off / auto *)
  jit_dir : string;
      (** on-disk JIT artifact cache; [""] = engine temp-dir fallback *)
  jit_cc : string;
      (** JIT C compiler command ([FUNCTS_JIT_CC]); [""] keeps the
          default ([cc]) *)
  trace : trace_sink;
  metrics : metrics_sink;
  queue_capacity : int;  (** session submit-queue bound (≥ 1) *)
  batch_buckets : int list;
      (** batched-compile bucket sizes, strictly ascending and starting
          at 1 (e.g. [[1; 4; 16]]); a session compiles one engine per
          bucket for batchable workloads, pops up to the largest
          compiled bucket per dispatch and decomposes it greedily into
          the largest buckets that fit *)
  policy : policy;
  journal : bool;  (** decision journal (on by default — records are rare) *)
}
(** The first four fields are deployment settings (where artifacts live,
    which compiler, where traces and metrics go); the rest select
    behaviour that some caller really runs with a non-default value. *)

val default : t
(** [domains = Domain.recommended_domain_count ()], JIT off with an
    empty artifact dir and the default compiler, tracing and metrics
    off, [queue_capacity = 256], [batch_buckets = [1; 4; 16]],
    [policy = `Interp_fallback], journal on. *)

val of_env :
  ?base:t -> ?getenv:(string -> string option) -> unit -> (t, Error.t) result
(** [base] (default {!default}) overlaid with the recognized
    environment variables:

    - [FUNCTS_DOMAINS], [FUNCTS_QUEUE] — positive integers;
    - [FUNCTS_BATCH_BUCKETS] — comma-separated bucket sizes, strictly
      ascending, first element 1 (e.g. [1,4,16]);
    - [FUNCTS_JOURNAL] — decision-journal on/off (or 1/0, true/false,
      yes/no; default on);
    - [FUNCTS_TRACE] — [off] forms, [on]/[1]/[true], or an output path;
    - [FUNCTS_METRICS] — [off] forms, [stderr]/[on]/[1], or a path;
    - [FUNCTS_POLICY] — [interp]/[interp_fallback] or [shed];
    - [FUNCTS_JIT] — [off] (default) or [auto] (arm native kernels and
      let the per-group tuner pick native vs per-node, falling back per
      group to per-node execution on any failure);
    - [FUNCTS_JIT_DIR] — JIT artifact-cache directory.  When unset the
      directory follows cache conventions: [$XDG_CACHE_HOME/functs/jit],
      else [$HOME/.cache/functs/jit], else a temp-dir fallback;
    - [FUNCTS_JIT_CC] — the C compiler command for the JIT.

    Malformed values are {e rejected} with
    [Error (Invalid_config {key; value; reason})] — never a silent
    fallback.  So are the retired variables [FUNCTS_GRAIN],
    [FUNCTS_KERNEL_GRAIN], [FUNCTS_CHUNK_BYTES], [FUNCTS_CACHE],
    [FUNCTS_CACHE_SIZE], [FUNCTS_MAX_BATCH], [FUNCTS_SHARDS],
    [FUNCTS_TRACE_BUF] and [FUNCTS_JOURNAL_BUF], whatever their value;
    the reason names what replaced them.  An unset or empty variable
    leaves the base value (empty means "unset" because [Unix.putenv]
    cannot remove a variable).  [getenv] (default [Sys.getenv_opt])
    exists for tests. *)

val apply : t -> unit
(** Push the process-wide settings where they live: JIT default mode and
    artifact dir ([Engine.set_jit_default] / [set_jit_dir_default]), the
    JIT C compiler override ([Jit.set_c_compiler], when set), tracer
    enablement, journal enablement, and the trace / metrics exit dumps.  Idempotent per process — the
    exit hooks are registered once and follow the most recently applied
    config. *)

val to_string : t -> string
(** One-per-line [key = value] rendering (for [functs config]). *)

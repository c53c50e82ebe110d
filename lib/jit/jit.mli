(** Native JIT backend driver: renders an engine preparation's fused
    kernels to one C unit ({!Jit_emit_c}), compiles/loads it through the
    on-disk artifact cache ({!Jit_cache}), and launches each group with
    per-run validation.

    Failure never crosses the engine API: {!prepare_groups} records
    every failure (missing toolchain, emitter rejection, compile error)
    as a [jit.c.fallback] tick and returns the groups that did arm;
    {!run} raises only {!Fallback}, which the scheduler converts into a
    per-node replay of that group. *)

open Functs_ir
open Functs_tensor
open Functs_core

type mode = Off | Auto
(** [Auto] arms every eligible group natively and lets the per-group
    tuner choose between the native launch and per-node execution;
    [Off] disables the JIT (every group runs per node). *)

val mode_of_string : string -> mode option
val mode_to_string : mode -> string

val version : int
(** Codegen version stamp (see {!Jit_cache.version}). *)

val set_c_compiler : string -> unit
(** Override the C compiler (default ["cc"]; [FUNCTS_JIT_CC] overrides
    through [Config.of_env]). *)

val c_toolchain_available : unit -> bool
val clear_loaded : unit -> unit

val default_dir : unit -> string
(** Fallback artifact directory under the system temp dir; the real
    default ([~/.cache/functs/jit]) is resolved by [Config.of_env]. *)

val resolve_dir : string -> string
(** [""] resolves to {!default_dir}. *)

val check : Codegen.kernel -> shapes:Shape_infer.result -> (unit, string) result
(** Whether the emitter accepts [k] at these shapes, or why not. *)

val render_source :
  target:Jit_cache.target ->
  Jit_emit_c.emitted list ->
  string * string list
(** [(digest, parts)] of the C unit holding [emitted] in table order,
    compiled for [target]: [min (nfns, Domain.recommended_domain_count
    ())] parts, the handshake and launch table in part 0.  The digest
    covers the version, the target and the kernel bodies. *)

type entry
(** One JIT-armed group: its launch function plus per-engine scratch. *)

val prepare_groups :
  mode:mode ->
  dir:string ->
  kernels:Codegen.kernel list ->
  shapes:Shape_infer.result ->
  (int * entry) list
(** Emit, compile (or load from cache) and arm the given kernels;
    returns [(group id, entry)] for each kernel that made it to native
    code.  Never raises. *)

exception Fallback of string

val run :
  ?par:
    (grain:int ->
    bytes_per_iter:int ->
    n:int ->
    (int -> int -> unit) ->
    unit) ->
  ?grain:int ->
  entry ->
  alloc:(Shape.t -> Tensor.t) ->
  lookup:(Graph.value -> Tensor.t option) ->
  scalar:(string -> int option) ->
  (Graph.value * Tensor.t * bool) list
(** Launch one group natively: [alloc] provides stored output buffers
    (each is fully overwritten), [lookup] resolves external tensor
    reads, [scalar] resolves free index symbols; returns
    [(value, tensor, stored)] per statement, in order.  [par] —
    typically [Pool.parallel_for] partially applied by the scheduler —
    must cover [0, n) with disjoint [body lo hi] calls; each statement
    whose output holds at least [2 * grain] elements ([grain] defaults
    to 8192) then splits its outermost baked loop across it, joining
    before the next statement so cross-statement reads stay ordered and
    results stay bitwise-identical.  Raises {!Fallback} when a binding
    fails validation or a kernel guard trips — the caller releases this
    launch's allocations and replays the group per node. *)

(** On-disk artifact store for JIT-compiled kernel groups.

    Artifacts are [.so] files named [functs_cjit_v<version>_<digest>.so]:
    the codegen [version] stamp plus the MD5 digest of the generated C
    source (which covers the compile {!target}).  [get_or_build]
    resolves a digest through three levels — in-process launch-table
    memo, on-disk artifact (dlopen through the [cjit_stubs.c] host
    stubs), and finally a fresh compile guarded by a lockfile and
    installed with an atomic rename: every part of the unit is compiled
    at once ([cc -O3 -c], one child process each), then the objects are
    linked into one [.so].  Artifacts stamped with a different version,
    and the [functs_jit_v*] artifacts and locks of the retired
    OCaml-source lane, are evicted the first time a directory is used;
    an artifact that fails its handshake at load is evicted too.

    Counters: [jit.c.hit] (memo or disk), [jit.c.miss] (compile needed),
    [jit.c.compiles] (artifacts built), [jit.c.compile_parts] (parts
    compiled, summed over builds), [jit.c.evicted] (each eviction is
    also journaled).  Spans: [jit.c.compile], [jit.c.load]. *)

val version : int
(** Codegen version stamp baked into artifact names and headers. *)

type target = Avx2 | Generic
(** The ISA a unit is compiled for: [-mavx2], or no ISA flag. *)

val target_name : target -> string

val host_target : target
(** [Avx2] when this host runs AVX2 code, else [Generic]. *)

type cfn = { c_tbl : nativeint; c_idx : int }
(** A compiled kernel: index [c_idx] of a dlopen'd artifact's launch
    table.  The table pointer lives for the process lifetime. *)

val call_c : cfn -> float array array -> int array -> int -> int -> int -> int
(** [call_c c bufs ints stmt lo hi] runs statement [stmt] (or the whole
    kernel, [stmt = -1]) for rows [lo, hi) of its outermost baked loop
    over raw [double*] views of the float arrays and untagged ints.
    Returns the kernel's guard status: [0] on success, nonzero when a
    dynamically-indexed read would have left its buffer — the caller
    must discard the launch (the driver raises [Jit.Fallback]). *)

val set_c_compiler : string -> unit
(** Override the compiler command (default ["cc"]; [FUNCTS_JIT_CC]
    overrides through [Config.of_env]); resets its probe.  Tests use it
    to simulate a missing toolchain. *)

val c_toolchain_available : unit -> bool
(** Whether the C compiler answers [--version] (memoized). *)

val header : target:target -> string -> string
(** The handshake header ([functs_cjit_header] contents) an artifact of
    this target and digest must present. *)

val artifact_path : dir:string -> digest:string -> string
(** Where the artifact of [digest] lives in [dir]. *)

val get_or_build :
  dir:string ->
  target:target ->
  digest:string ->
  parts:string list ->
  nfns:int ->
  (nativeint, string) result
(** Resolve the raw launch-table pointer for [digest] (wrap each index
    in a {!cfn}), compiling [parts] for [target] at most once per digest
    across processes.  Never raises. *)

val clear_loaded : unit -> unit
(** Test hook: drop the in-process memo (and per-directory eviction
    marks), so the next [get_or_build] exercises the disk path like a
    fresh process. *)

module Engine = Functs_exec.Engine
module Jit = Functs_jit.Jit
module Tracer = Functs_obs.Tracer
module Metrics = Functs_obs.Metrics
module Journal = Functs_obs.Journal

type trace_sink = Trace_off | Trace_on | Trace_file of string
type metrics_sink = Metrics_off | Metrics_stderr | Metrics_file of string
type policy = [ `Interp_fallback | `Shed ]

type t = {
  domains : int;
  jit : Jit.mode;
  jit_dir : string;
  jit_cc : string;  (* JIT C compiler command; "" keeps the default *)
  trace : trace_sink;
  metrics : metrics_sink;
  queue_capacity : int;
  batch_buckets : int list;  (* ascending, unique, first element 1 *)
  policy : policy;
  journal : bool;  (* decision journal (on by default; rare records) *)
}

let default =
  {
    domains = max 1 (Domain.recommended_domain_count ());
    jit = Jit.Off;
    jit_dir = "";
    jit_cc = "";
    trace = Trace_off;
    metrics = Metrics_off;
    queue_capacity = 256;
    batch_buckets = [ 1; 4; 16 ];
    policy = `Interp_fallback;
    journal = true;
  }

(* --- the single sanctioned FUNCTS_* parser ---

   Validation is strict: a set-but-malformed variable is an error the
   caller must see, not a silent fall-through to the default.  The only
   forgiving case is the empty string, which stands for "unset" because
   Unix.putenv cannot remove a variable. *)

let invalid key value reason = Error (Error.Invalid_config { key; value; reason })

let fold_env getenv init steps =
  List.fold_left
    (fun acc (key, step) ->
      match acc with
      | Error _ as e -> e
      | Ok cfg -> (
          match getenv key with
          | None | Some "" -> Ok cfg
          | Some raw -> step cfg key (String.trim raw)))
    (Ok init) steps

let pos_int set cfg key v =
  match int_of_string_opt v with
  | Some n when n >= 1 -> Ok (set cfg n)
  | Some _ -> invalid key v "must be an integer >= 1"
  | None -> invalid key v "not an integer"

let bool_flag set cfg key v =
  match String.lowercase_ascii v with
  | "1" | "on" | "true" | "yes" -> Ok (set cfg true)
  | "0" | "off" | "false" | "no" -> Ok (set cfg false)
  | _ -> invalid key v "expected on/off (or 1/0, true/false, yes/no)"

let trace_sink cfg _key v =
  match String.lowercase_ascii v with
  | "0" | "off" | "false" | "no" -> Ok { cfg with trace = Trace_off }
  | "1" | "on" | "true" -> Ok { cfg with trace = Trace_on }
  | _ -> Ok { cfg with trace = Trace_file v }

let metrics_sink cfg _key v =
  match String.lowercase_ascii v with
  | "0" | "off" | "false" | "no" -> Ok { cfg with metrics = Metrics_off }
  | "1" | "on" | "stderr" -> Ok { cfg with metrics = Metrics_stderr }
  | _ -> Ok { cfg with metrics = Metrics_file v }

let jit_mode cfg key v =
  match Jit.mode_of_string (String.lowercase_ascii v) with
  | Some m -> Ok { cfg with jit = m }
  | None -> invalid key v "expected off or auto"

(* The artifact directory honours the usual cache conventions when the
   variable is unset: $XDG_CACHE_HOME/functs/jit, else
   $HOME/.cache/functs/jit, else "" (which the engine resolves to a
   temp-dir fallback). *)
let resolve_jit_dir getenv cfg =
  if cfg.jit_dir <> "" then cfg
  else
    let dir =
      match getenv "XDG_CACHE_HOME" with
      | Some d when d <> "" -> Filename.concat (Filename.concat d "functs") "jit"
      | _ -> (
          match getenv "HOME" with
          | Some h when h <> "" ->
              List.fold_left Filename.concat h [ ".cache"; "functs"; "jit" ]
          | _ -> "")
    in
    { cfg with jit_dir = dir }

(* Comma-separated bucket list, e.g. "1,4,16".  Buckets must be strictly
   ascending (which implies unique) and start at 1 so every request mix
   decomposes greedily with a bucket-1 remainder. *)
let bucket_list cfg key v =
  let parts = String.split_on_char ',' v |> List.map String.trim in
  let rec parse acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest -> (
        match int_of_string_opt p with
        | Some n when n >= 1 -> parse (n :: acc) rest
        | Some _ | None -> invalid key v "buckets must be positive integers")
  in
  match parse [] parts with
  | Error _ as e -> e
  | Ok [] -> invalid key v "expected a comma-separated bucket list"
  | Ok (first :: _ as buckets) ->
      let rec ascending = function
        | a :: (b :: _ as rest) -> a < b && ascending rest
        | _ -> true
      in
      if first <> 1 then invalid key v "the first bucket must be 1"
      else if not (ascending buckets) then
        invalid key v "buckets must be strictly ascending"
      else Ok { cfg with batch_buckets = buckets }

let policy_of cfg key v =
  match String.lowercase_ascii v with
  | "interp" | "interp_fallback" | "fallback" ->
      Ok { cfg with policy = `Interp_fallback }
  | "shed" -> Ok { cfg with policy = `Shed }
  | _ -> invalid key v "expected interp_fallback or shed"

(* Variables that used to select a setting no caller changed.  Setting
   one is an error rather than a no-op, so a deployment that still sets
   it learns what took its place. *)
let retired =
  [
    ("FUNCTS_GRAIN", "retired: a loop batches whenever its trip count is > 1");
    ( "FUNCTS_KERNEL_GRAIN",
      "retired: intra-kernel chunking uses the fixed Fastops.grain (8192)" );
    ( "FUNCTS_CHUNK_BYTES",
      "retired: the pool sizes tasks from the probed L2 size \
       (Pool.set_chunk_bytes overrides it in code)" );
    ( "FUNCTS_CACHE",
      "retired: the compile cache is always on (Engine.prepare ~cache:false \
       bypasses it per call)" );
    ( "FUNCTS_CACHE_SIZE",
      "retired: the compile cache holds 32 engines \
       (Engine.set_cache_capacity changes it in code)" );
    ( "FUNCTS_MAX_BATCH",
      "retired: a dispatch takes up to the largest compiled batch bucket" );
    ("FUNCTS_SHARDS", "retired: each session runs one dispatcher domain");
    ( "FUNCTS_TRACE_BUF",
      "retired: the tracer ring holds 65536 events \
       (Tracer.set_capacity changes it in code)" );
    ( "FUNCTS_JOURNAL_BUF",
      "retired: the journal ring holds 4096 entries \
       (Journal.set_capacity changes it in code)" );
  ]

let of_env ?(base = default) ?(getenv = Sys.getenv_opt) () =
  Result.map (resolve_jit_dir getenv)
  @@ fold_env getenv base
       (List.map
          (fun (key, reason) -> (key, fun _cfg key v -> invalid key v reason))
          retired
       @ [
           ("FUNCTS_DOMAINS", pos_int (fun c n -> { c with domains = n }));
           ("FUNCTS_JIT", jit_mode);
           ("FUNCTS_JIT_DIR", fun cfg _key v -> Ok { cfg with jit_dir = v });
           ("FUNCTS_JIT_CC", fun cfg _key v -> Ok { cfg with jit_cc = v });
           ("FUNCTS_TRACE", trace_sink);
           ("FUNCTS_METRICS", metrics_sink);
           ("FUNCTS_QUEUE", pos_int (fun c n -> { c with queue_capacity = n }));
           ("FUNCTS_BATCH_BUCKETS", bucket_list);
           ("FUNCTS_POLICY", policy_of);
           ("FUNCTS_JOURNAL", bool_flag (fun c b -> { c with journal = b }));
         ])

(* --- apply: push process-wide pieces into their owners ---

   The exit hooks are registered exactly once and read [applied], so
   re-applying a different config retargets them instead of stacking
   duplicate dumps. *)

let applied = ref default
let hooks_installed = ref false

let dump_metrics () =
  match !applied.metrics with
  | Metrics_off -> ()
  | Metrics_stderr -> prerr_string (Metrics.to_text (Metrics.snapshot ()))
  | Metrics_file path -> (
      try
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            let s = Metrics.snapshot () in
            output_string oc
              (if Filename.check_suffix path ".json" then
                 Metrics.to_json s ^ "\n"
               else Metrics.to_text s))
      with Sys_error _ -> ())

let dump_trace () =
  match !applied.trace with
  | Trace_off | Trace_on -> ()
  | Trace_file path -> ( try Tracer.write_chrome path with Sys_error _ -> ())

let apply cfg =
  applied := cfg;
  Engine.set_jit_default cfg.jit;
  Engine.set_jit_dir_default cfg.jit_dir;
  if cfg.jit_cc <> "" then Jit.set_c_compiler cfg.jit_cc;
  (match cfg.trace with
  | Trace_off -> ()
  | Trace_on | Trace_file _ -> Tracer.enable ());
  if cfg.journal then Journal.enable () else Journal.disable ();
  if not !hooks_installed then begin
    hooks_installed := true;
    at_exit dump_trace;
    at_exit dump_metrics
  end

let to_string cfg =
  let sink = function
    | Trace_off -> "off"
    | Trace_on -> "on"
    | Trace_file p -> p
  in
  let msink = function
    | Metrics_off -> "off"
    | Metrics_stderr -> "stderr"
    | Metrics_file p -> p
  in
  String.concat "\n"
    [
      Printf.sprintf "domains        = %d" cfg.domains;
      Printf.sprintf "jit            = %s" (Jit.mode_to_string cfg.jit);
      Printf.sprintf "jit_dir        = %s"
        (if cfg.jit_dir = "" then "(temp)" else cfg.jit_dir);
      Printf.sprintf "jit_cc         = %s"
        (if cfg.jit_cc = "" then "(default)" else cfg.jit_cc);
      Printf.sprintf "trace          = %s" (sink cfg.trace);
      Printf.sprintf "metrics        = %s" (msink cfg.metrics);
      Printf.sprintf "queue_capacity = %d" cfg.queue_capacity;
      Printf.sprintf "batch_buckets  = %s"
        (String.concat "," (List.map string_of_int cfg.batch_buckets));
      Printf.sprintf "policy         = %s"
        (match cfg.policy with
        | `Interp_fallback -> "interp_fallback"
        | `Shed -> "shed");
      Printf.sprintf "journal        = %b" cfg.journal;
    ]

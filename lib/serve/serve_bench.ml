open Functs_interp
open Functs_core
open Functs_workloads
module Json = Functs_obs.Json
module Metrics = Functs_obs.Metrics

(* One operating point of the open-loop sweep: Poisson arrivals at
   [op_target_rps] for a fixed duration, submits never waiting on
   completions (an overloaded queue drops the arrival instead of
   stalling the clock), then a full drain.  Latency percentiles and the
   per-stage SLO breakdown come from the lifecycle histograms windowed
   to the point. *)
type open_point = {
  op_target_rps : float;
  op_offered : int;  (* arrivals generated *)
  op_accepted : int;  (* submits the queue admitted *)
  op_rejected : int;  (* arrivals dropped by backpressure *)
  op_wall_s : float;  (* generation + drain *)
  op_achieved_rps : float;
  op_p50_us : float;
  op_p90_us : float;
  op_p99_us : float;
  op_deadline_expired : int;
  op_slo_ok_pct : float;  (* accepted requests served within deadline *)
  op_stages : (string * Metrics.hstat) list;
}

type result = {
  sb_workload : string;
  sb_producers : int;
  sb_submits : int;
  sb_window : int;
  sb_requests : int;
  sb_wall_s : float;
  sb_throughput_rps : float;
  sb_p50_us : float;
  sb_p90_us : float;
  sb_p99_us : float;
  sb_stages : (string * Metrics.hstat) list;
  sb_overload_retries : int;
  sb_warm_hits : int;
  sb_warm_misses : int;
  sb_bucket_sizes : int list;
  sb_open_loop : open_point list;
  sb_stats : Session.stats;
}

(* Stage histograms windowed to the timed phase: snapshot the registry
   before/after and take per-bucket deltas, so percentiles come from the
   in-process log-bucketed histograms — no latency array is collected or
   sorted. *)
let stage_names = [ "queue_wait"; "batch"; "exec"; "total" ]

let stage_window before after =
  List.map
    (fun s ->
      let name = Printf.sprintf "serve.latency.%s_us" s in
      let get snap =
        Option.value (Metrics.hstat_of snap name) ~default:Metrics.hstat_zero
      in
      (s, Metrics.diff ~before:(get before) ~after:(get after)))
    stage_names

(* One producer: [submits] accepted requests with up to [window] tickets
   in flight, awaiting the oldest whenever the window is full (or the
   queue pushes back while the window holds work to redeem).  Deep
   windows are what let the dispatcher fill its largest batch bucket.
   Returns (overload_retries, outputs_ok). *)
let producer session ~submits ~window ~input ~expected () =
  let retries = ref 0 in
  let ok = ref true in
  let inflight = Queue.create () in
  let await_oldest () =
    let i, tk = Queue.pop inflight in
    match Session.await tk with
    | Ok outputs ->
        if i = 0 then
          ok :=
            !ok
            && List.length outputs = List.length expected
            && List.for_all2 (Value.equal ~atol:1e-4) expected outputs
    | Error Error.Deadline_exceeded -> ()
    | Error e -> failwith (Error.to_string e)
  in
  for i = 0 to submits - 1 do
    let rec accepted () =
      match Session.submit session input with
      | Ok tk -> tk
      | Error Error.Overloaded ->
          if Queue.is_empty inflight then begin
            incr retries;
            Domain.cpu_relax ()
          end
          else await_oldest ();
          accepted ()
      | Error e -> failwith (Error.to_string e)
    in
    Queue.add (i, accepted ()) inflight;
    if Queue.length inflight >= window then await_oldest ()
  done;
  while not (Queue.is_empty inflight) do
    await_oldest ()
  done;
  (!retries, !ok)

(* --- the open-loop generator --- *)

let open_loop session ~input ~target_rps ~duration_s =
  let st0 = Session.stats session in
  let m0 = Metrics.snapshot () in
  let t0 = Unix.gettimeofday () in
  (* deterministic Poisson process: exponential inter-arrival times *)
  let prng = Random.State.make [| 0x90a1; int_of_float (target_rps *. 7.) |] in
  let tickets = ref [] in
  let offered = ref 0 and rejected = ref 0 in
  let next = ref t0 in
  while !next -. t0 < duration_s do
    let now = Unix.gettimeofday () in
    if !next > now then Unix.sleepf (!next -. now);
    incr offered;
    (match Session.submit session input with
    | Ok tk -> tickets := tk :: !tickets
    | Error Error.Overloaded -> incr rejected
    | Error e -> failwith (Error.to_string e));
    let u = Random.State.float prng 1.0 in
    next := !next +. (-.log (1. -. u) /. target_rps)
  done;
  List.iter (fun tk -> ignore (Session.await tk)) !tickets;
  let wall = Unix.gettimeofday () -. t0 in
  let m1 = Metrics.snapshot () in
  let st1 = Session.stats session in
  let stages = stage_window m0 m1 in
  let total =
    Option.value (List.assoc_opt "total" stages) ~default:Metrics.hstat_zero
  in
  let accepted = !offered - !rejected in
  let expired = st1.Session.deadline_expired - st0.Session.deadline_expired in
  {
    op_target_rps = target_rps;
    op_offered = !offered;
    op_accepted = accepted;
    op_rejected = !rejected;
    op_wall_s = wall;
    op_achieved_rps = float_of_int accepted /. Float.max 1e-9 wall;
    op_p50_us = Metrics.percentile total 0.50;
    op_p90_us = Metrics.percentile total 0.90;
    op_p99_us = Metrics.percentile total 0.99;
    op_deadline_expired = expired;
    op_slo_ok_pct =
      (if accepted = 0 then 100.
       else 100. *. (1. -. (float_of_int expired /. float_of_int accepted)));
    op_stages = stages;
  }

(* --- BENCH_exec.json: read-modify-write the "serve" member --- *)

let json_of_stage h =
  let n x = Json.Num x in
  Json.Obj
    [
      ("count", n (float_of_int h.Metrics.h_count));
      ("p50_us", n (Metrics.percentile h 0.50));
      ("p90_us", n (Metrics.percentile h 0.90));
      ("p99_us", n (Metrics.percentile h 0.99));
      ("mean_us", n (Metrics.mean h));
    ]

let json_of_open_point p =
  let n x = Json.Num x in
  Json.Obj
    [
      ("target_rps", n p.op_target_rps);
      ("offered", n (float_of_int p.op_offered));
      ("accepted", n (float_of_int p.op_accepted));
      ("rejected", n (float_of_int p.op_rejected));
      ("wall_s", n p.op_wall_s);
      ("achieved_rps", n p.op_achieved_rps);
      ("p50_us", n p.op_p50_us);
      ("p90_us", n p.op_p90_us);
      ("p99_us", n p.op_p99_us);
      ("deadline_expired", n (float_of_int p.op_deadline_expired));
      ("slo_ok_pct", n p.op_slo_ok_pct);
      ( "stages",
        Json.Obj (List.map (fun (s, h) -> (s, json_of_stage h)) p.op_stages) );
    ]

(* Every compiled bucket size appears (zero runs included), so the
   check.sh smoke gate can assert the occupancy counters exist even on a
   short run. *)
let json_of_buckets r =
  Json.Obj
    (List.map
       (fun k ->
         ( Printf.sprintf "b%d" k,
           Json.Num
             (float_of_int
                (Option.value
                   (List.assoc_opt k r.sb_stats.Session.bucket_runs)
                   ~default:0)) ))
       r.sb_bucket_sizes)

let json_of_result r =
  let n x = Json.Num x in
  Json.Obj
    [
      ("workload", Json.Str r.sb_workload);
      ("producers", n (float_of_int r.sb_producers));
      ("submits_per_producer", n (float_of_int r.sb_submits));
      ("window", n (float_of_int r.sb_window));
      ("requests", n (float_of_int r.sb_requests));
      ("wall_s", n r.sb_wall_s);
      ("throughput_rps", n r.sb_throughput_rps);
      ("p50_us", n r.sb_p50_us);
      ("p90_us", n r.sb_p90_us);
      ("p99_us", n r.sb_p99_us);
      ( "stages",
        Json.Obj (List.map (fun (s, h) -> (s, json_of_stage h)) r.sb_stages) );
      ("batch_buckets", json_of_buckets r);
      ("batched_runs", n (float_of_int r.sb_stats.Session.batched_runs));
      ("overload_retries", n (float_of_int r.sb_overload_retries));
      ("warm_cache_hits", n (float_of_int r.sb_warm_hits));
      ("warm_cache_misses", n (float_of_int r.sb_warm_misses));
      ("batches", n (float_of_int r.sb_stats.Session.batches));
      ("max_queue_depth", n (float_of_int r.sb_stats.Session.max_queue_depth));
      ( "interp_fallbacks",
        n (float_of_int r.sb_stats.Session.interp_fallbacks) );
      ("shed", n (float_of_int r.sb_stats.Session.shed));
      ("cancelled", n (float_of_int r.sb_stats.Session.cancelled));
      ("open_loop", Json.Arr (List.map json_of_open_point r.sb_open_loop));
    ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let merge_into_json path r =
  let existing =
    if Sys.file_exists path then
      match Json.parse (read_file path) with
      | Ok (Json.Obj fields) -> fields
      | Ok _ | Error _ -> []
    else []
  in
  let fields =
    List.filter (fun (k, _) -> k <> "serve") existing
    @ [ ("serve", json_of_result r) ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string (Json.Obj fields) ^ "\n"))

let to_text r =
  let stage_line (s, h) =
    Printf.sprintf "  %-10s : p50 %.0f us, p90 %.0f us, p99 %.0f us  (n=%d)" s
      (Metrics.percentile h 0.50) (Metrics.percentile h 0.90)
      (Metrics.percentile h 0.99) h.Metrics.h_count
  in
  let bucket_text =
    String.concat ", "
      (List.map
         (fun k ->
           Printf.sprintf "b%d=%d" k
             (Option.value
                (List.assoc_opt k r.sb_stats.Session.bucket_runs)
                ~default:0))
         r.sb_bucket_sizes)
  in
  let open_line p =
    Printf.sprintf
      "  open %6.0f rps : achieved %.0f rps, p99 %.0f us, slo %.1f%% (%d \
       rejected)"
      p.op_target_rps p.op_achieved_rps p.op_p99_us p.op_slo_ok_pct
      p.op_rejected
  in
  String.concat "\n"
    ([
       Printf.sprintf
         "serve-bench: %s, %d producers x %d submits (%d requests, window %d)"
         r.sb_workload r.sb_producers r.sb_submits r.sb_requests r.sb_window;
       Printf.sprintf "  wall       : %.3f s  (%.0f req/s)" r.sb_wall_s
         r.sb_throughput_rps;
       Printf.sprintf "  latency    : p50 %.0f us, p90 %.0f us, p99 %.0f us"
         r.sb_p50_us r.sb_p90_us r.sb_p99_us;
     ]
    @ List.map stage_line r.sb_stages
    @ [
        Printf.sprintf "  buckets    : %s (%d batched runs)" bucket_text
          r.sb_stats.Session.batched_runs;
        Printf.sprintf
          "  queue      : %d overload retries, max depth %d, %d batches"
          r.sb_overload_retries r.sb_stats.Session.max_queue_depth
          r.sb_stats.Session.batches;
        Printf.sprintf
          "  warm cache : %d hits, %d misses (a warm session never recompiles)"
          r.sb_warm_hits r.sb_warm_misses;
      ]
    @ List.map open_line r.sb_open_loop)

let run ?(config = Config.default) ?(workload = "lstm") ?(producers = 4)
    ?(submits = 64) ?(window = 32) ?deadline_us ?(open_rps = [])
    ?(open_duration_s = 2.0) ?(json_path = "BENCH_exec.json") () =
  match Registry.find workload with
  | None ->
      Error
        (Error.Unknown_workload
           {
             name = workload;
             available =
               List.map
                 (fun (w : Workload.t) -> w.Workload.name)
                 (Registry.all @ Registry.extensions);
           })
  | Some w -> (
      match Session.create ~config w with
      | Error e -> Error e
      | Ok session -> (
          let batch = w.Workload.default_batch
          and seq = w.Workload.default_seq in
          let args = w.Workload.inputs ~batch ~seq in
          let input = Session.input ?deadline_us args in
          let reference = Workload.graph w ~batch ~seq in
          let expected =
            Eval.run reference
              (List.map
                 (function
                   | Value.Tensor tn ->
                       Value.Tensor (Functs_tensor.Tensor.clone tn)
                   | v -> v)
                 args)
          in
          let window = max 1 window in
          (* warm-up, then pin the cache counters: the timed phase must
             be all hits *)
          (match Session.run session args with
          | Ok _ -> ()
          | Error e -> failwith (Error.to_string e));
          let c0 = Compiler_profile.cache_snapshot () in
          let m0 = Metrics.snapshot () in
          let t0 = Unix.gettimeofday () in
          let workers =
            List.init producers (fun _ ->
                Domain.spawn
                  (producer session ~submits ~window ~input ~expected))
          in
          let results = List.map Domain.join workers in
          let wall = Unix.gettimeofday () -. t0 in
          let m1 = Metrics.snapshot () in
          let c1 = Compiler_profile.cache_snapshot () in
          let open_points =
            List.map
              (fun rps ->
                open_loop session ~input ~target_rps:rps
                  ~duration_s:open_duration_s)
              open_rps
          in
          Session.close session;
          let stages = stage_window m0 m1 in
          let total =
            Option.value (List.assoc_opt "total" stages)
              ~default:Metrics.hstat_zero
          in
          let retries =
            List.fold_left (fun acc (r, _) -> acc + r) 0 results
          in
          let all_ok = List.for_all (fun (_, ok) -> ok) results in
          let requests = producers * submits in
          let r =
            {
              sb_workload = workload;
              sb_producers = producers;
              sb_submits = submits;
              sb_window = window;
              sb_requests = requests;
              sb_wall_s = wall;
              sb_throughput_rps = float_of_int requests /. Float.max 1e-9 wall;
              sb_p50_us = Metrics.percentile total 0.50;
              sb_p90_us = Metrics.percentile total 0.90;
              sb_p99_us = Metrics.percentile total 0.99;
              sb_stages = stages;
              sb_overload_retries = retries;
              sb_warm_hits =
                c1.Compiler_profile.cache_hits - c0.Compiler_profile.cache_hits;
              sb_warm_misses =
                c1.Compiler_profile.cache_misses
                - c0.Compiler_profile.cache_misses;
              sb_bucket_sizes = Session.bucket_sizes session;
              sb_open_loop = open_points;
              sb_stats = Session.stats session;
            }
          in
          if not all_ok then
            Error
              (Error.Engine_failure
                 "serve-bench outputs diverged from the interpreter")
          else if r.sb_warm_misses > 0 then
            Error
              (Error.Engine_failure
                 (Printf.sprintf
                    "%d compile-cache misses during the warm phase — warm \
                     submits must never recompile"
                    r.sb_warm_misses))
          else begin
            (try merge_into_json json_path r
             with Sys_error m -> raise (Sys_error m));
            Ok r
          end))

(* The run's tally and metric values, the layer ledger, and the result
   line and history record built from them. *)

open Functs

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable mismatched : int;
}

let metrics : (string, float) Hashtbl.t = Hashtbl.create 64
let set name v = Hashtbl.replace metrics name (if Float.is_finite v then v else 0.)
let ms s = 1e3 *. s

(* Per-layer numbers of a window of [runs] engine runs, from the
   program's counters and journal. *)
let exec_layers c0 c1 ~runs =
  let per_run name = Util.ratio (Counters.delta c0 c1 name) runs in
  set "exec.native_launches_per_run" (per_run "exec.jit_runs");
  set "exec.c_lane_share"
    (Util.ratio
       (Counters.delta c0 c1 "jit.c.runs")
       (Counters.delta c0 c1 "exec.kernel_runs"));
  set "exec.batched_loops_per_run" (per_run "exec.parallel_loops");
  set "exec.kernel_fallbacks" (Counters.delta c0 c1 "exec.kernel_fallbacks");
  set "exec.pool_dispatches_per_run" (per_run "pool.dispatches");
  set "exec.pool_steals_per_run" (per_run "pool.steals");
  set "exec.pool_seq_fallbacks_per_run" (per_run "pool.seq_fallbacks");
  let j k = float_of_int (Counters.journal_count c0 k) in
  set "exec.tuner_samples" (j Journal.Tuner_sample);
  set "exec.tuner_expiries" (j Journal.Tuner_expire);
  set "exec.tuner_flips" (j Journal.Tuner_flip);
  set "exec.jit_demotions" (j Journal.Jit_demote);
  set "exec.major_gcs_per_1k_runs"
    (1e3 *. Util.ratio (Counters.major_gcs c0 c1) runs)

(* --- the layer ledger --- *)

(* One section: name, its spans, the name of its root spans, and the
   untraced wall time of the same work when there is one. *)
type section = string * Spans.span list * string * float option

let print_ledger sections =
  let total_layers = ref 0. and total_root = ref 0. and total_un = ref 0. in
  let items =
    List.map
      (fun (section, spans, root, untraced) ->
        let l = Spans.ledger ~root spans in
        total_layers := !total_layers +. l.layer_sum_s;
        total_root := !total_root +. l.root_s;
        total_un := !total_un +. l.unattributed_s;
        ( section,
          Json.Obj
            ([
               ( "layers_ms",
                 Json.Obj (List.map (fun (k, v) -> (k, Json.Num (ms v))) l.layers) );
               ("layer_sum_ms", Json.Num (ms l.layer_sum_s));
               ("unattributed_ms", Json.Num (ms l.unattributed_s));
               ("traced_wall_ms", Json.Num (ms l.root_s));
             ]
            @
            match untraced with
            | Some u -> [ ("untraced_wall_ms", Json.Num (ms u)) ]
            | None -> []) ))
      sections
  in
  set "ledger.layer_sum_ms" (ms !total_layers);
  set "ledger.unattributed_ms" (ms !total_un);
  set "ledger.unattributed_pct" (100. *. Util.ratio !total_un !total_root);
  print_endline (Json.to_string (Json.Obj [ ("ledger", Json.Obj items) ]))

(* --- output --- *)

let result_line ~trace tally =
  let names = if trace then Defs.per_layer else Defs.end_to_end in
  Json.Obj
    [
      ("correct", Json.Bool (tally.mismatched = 0));
      ("attempted", Json.Num (float_of_int tally.attempted));
      ("failed", Json.Num (float_of_int tally.failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, unit_) ->
               ( name,
                 Json.Obj
                   [
                     ("value", Json.Num (Option.value (Hashtbl.find_opt metrics name) ~default:0.));
                     ("unit", Json.Str unit_);
                   ] ))
             names) );
    ]

(* Every result is also appended, with its fingerprint, to a history file
   in the working directory, which [compare] reads. *)
let record ~workload ~seed ~trace ~fingerprint line =
  let path = Filename.concat (Util.work_root ()) "history.jsonl" in
  Util.mkdir_p (Util.work_root ());
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  output_string oc
    (Json.to_string
       (Json.Obj
          [
            ("workload", Json.Str workload);
            ("seed", Json.Num (float_of_int seed));
            ("trace", Json.Bool trace);
            ("fingerprint", Fingerprint.to_json fingerprint);
            ("result", line);
          ]));
  output_char oc '\n';
  close_out oc


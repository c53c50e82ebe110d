(* The workloads and the metrics the benchmark reports, by name and unit.
   [BENCHMARK.json] lists the same names; the self-check compares them. *)

type spec = {
  name : string;
  programs : unit -> Oracle.program list;
  k : int;  (** input sets per program *)
  serve : bool;  (** timed phase: open-loop serving (else a closed loop) *)
}

let p = Oracle.program

let workloads =
  [
    {
      name = "cold-start";
      programs =
        (fun () ->
          [ p "yolov3"; p "yolact"; p "seq2seq"; p "tmax"; p "nms" ]
          @ List.map (fun seq -> p ~seq "lstm") [ 16; 32; 64; 128 ]);
      k = 2;
      serve = false;
    };
    {
      name = "warm-cv";
      programs = (fun () -> [ p "yolov3"; p "ssd"; p "yolact"; p "fcos" ]);
      k = 6;
      serve = false;
    };
    {
      name = "serve-lstm";
      programs = (fun () -> [ p ~seq:64 "lstm" ]);
      k = 4;
      serve = true;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

(* --- metrics: name, unit --- *)

let end_to_end =
  [
    ("setup_s", "s");
    ("ok_ratio", "ratio");
    ("peak_rss_mb", "MB");
    ("cold_compile_s", "s");
    ("op_p50_ms", "ms");
  ]

let cv_programs = [ "yolov3"; "ssd"; "yolact"; "fcos" ]

let per_layer =
  [
    ("frontend.lower_ms", "ms");
    ("core.tensorssa_ms", "ms");
    ("core.fusion_ms", "ms");
    ("core.codegen_ms", "ms");
    ("core.ir_nodes", "count");
    ("core.kernels", "count");
    ("ir.shape_infer_ms", "ms");
    ("jit.compile_ms", "ms");
    ("jit.load_ms", "ms");
    ("jit.c_compiles", "count");
    ("jit.ml_compiles", "count");
    ("jit.artifact_hit_ratio", "ratio");
    ("jit.fallbacks", "count");
    ("jit.armed_ratio", "ratio");
    ("jit.artifact_kb", "KB");
    ("exec.kernel_compile_ms", "ms");
    ("exec.prepare_ms", "ms");
  ]
  @ List.map (fun p -> ("exec.run_ms." ^ p, "ms")) cv_programs
  @ [ ("exec.run_p99_ms", "ms") ]
  @ [
      ("exec.native_launches_per_run", "count");
      ("exec.c_lane_share", "ratio");
      ("exec.batched_loops_per_run", "count");
      ("exec.kernel_fallbacks", "count");
      ("exec.pool_dispatches_per_run", "count");
      ("exec.pool_steals_per_run", "count");
      ("exec.pool_seq_fallbacks_per_run", "count");
      ("exec.tuner_samples", "count");
      ("exec.tuner_expiries", "count");
      ("exec.tuner_flips", "count");
      ("exec.jit_demotions", "count");
      ("exec.alloc_mb_per_run", "MB");
      ("exec.major_gcs_per_1k_runs", "count");
      ("exec.unattributed_pct", "%");
      ("serve.queue_wait_ms.p50", "ms");
      ("serve.queue_wait_ms.p99", "ms");
      ("serve.batch_ms.p50", "ms");
      ("serve.exec_ms.p50", "ms");
      ("serve.exec_ms.p99", "ms");
      ("serve.requests_per_run", "count");
      ("serve.bucket_runs.b1", "count");
      ("serve.bucket_runs.b4", "count");
      ("serve.bucket_runs.b16", "count");
      ("serve.max_queue_depth", "count");
      ("serve.refused", "count");
      ("serve.deadline_expired", "count");
      ("serve.interp_fallbacks", "count");
      ("serve.cancelled_at_cap", "count");
      ("serve.warm_misses", "count");
      ("serve.gen_lag_ms.p99", "ms");
      ("serve.p50_ms.r100", "ms");
      ("serve.p99_ms.r100", "ms");
      ("serve.p50_ms.r200", "ms");
      ("serve.p99_ms.r200", "ms");
      ("serve.goodput_rps", "1/s");
      ("interp.run_ms", "ms");
      ("obs.trace_overhead_pct", "%");
      ("ledger.layer_sum_ms", "ms");
      ("ledger.unattributed_ms", "ms");
      ("ledger.unattributed_pct", "%");
      ("bench.restart_ms", "ms");
      ("bench.p50_ms", "ms");
      ("bench.ops_per_s", "1/s");
      ("bench.fail_ratio", "ratio");
      ("bench.bringup_rss_mb", "MB");
      ("bench.steal_pct", "%");
      ("bench.cold_wall_s", "s");
      ("bench.setup_wall_s", "s");
      ("bench.compile_ref_s", "s");
      ("bench.compute_ref_ms", "ms");
    ]

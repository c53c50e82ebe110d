(* The benchmark: three workloads, each measured end to end and, in a
   separate traced run, layer by layer.  See README.md for why each
   workload exists and which end-to-end metric each layer metric moves.

   Usage (from the repository root, through run.sh which builds first):
     run.sh --workload <cold-start|warm-cv|serve-lstm> --seed <n>
            --seconds <s> --trace <0|1>
     run.sh --self-check            quick run of every workload, asserts
                                    every metric of BENCHMARK.json is
                                    printed with its unit and verified
     run.sh compare <a.jsonl> <b.jsonl>
                                    medians side by side; flags any pair
                                    whose fingerprints differ

   The last line of standard output is the result object; the lines before
   it are the fingerprint, the layer ledger (traced runs) and progress. *)

open Functs
open Results

(* --- configuration: the system's defaults, plus the JIT settings --- *)

(* Only the benchmark's own settings reach [Functs.init]; whatever
   FUNCTS_* variables the caller's environment holds are ignored. *)
let init dir =
  let getenv = function
    | "FUNCTS_JIT" -> Some "auto"
    | "FUNCTS_JIT_DIR" -> Some dir
    | _ -> None
  in
  let r, wall = Util.time (fun () -> Functs.init ~getenv ()) in
  match r with
  | Ok cfg -> (cfg, wall)
  | Error e -> failwith (Error.to_string e)

(* Each program's first request (input set 0).  The closed loop matches
   requests to engines by program record, so one run derives both from
   the same [programs] list. *)
let firsts programs ~seed =
  List.map (fun p -> (Oracle.input_sets ~seed p ~k:1).(0)) programs

(* --- child processes: the cold and restart bring-ups --- *)

(* The cold child takes compile references, the restart children compute
   references (see {!Bringup.reference}). *)
let child_main ~workload ~seed ~dir ~out ~trace ~cold =
  let spec = Option.get (Defs.find workload) in
  let cfg, init_t = init dir in
  let reference =
    if cold then Bringup.Compile (Util.scratch_dir "ref") else Bringup.Compute
  in
  let live, outcome =
    Bringup.run ~serve:spec.serve ~trace ~reference ~init:init_t cfg
      (firsts (spec.programs ()) ~seed)
  in
  Bringup.close live;
  let oc = open_out_bin out in
  Marshal.to_channel oc (outcome : Bringup.outcome) [];
  close_out oc

let spawn_child ~workload ~seed ~dir ~trace ~cold : Bringup.outcome =
  let out = Filename.concat dir (Printf.sprintf ".child-%d" (Random.bits ())) in
  let args =
    [|
      Sys.executable_name; "--child"; "--workload"; workload; "--seed";
      string_of_int seed; "--dir"; dir; "--out"; out; "--trace";
      (if trace then "1" else "0"); "--cold"; (if cold then "1" else "0");
    |]
  in
  let pid =
    Unix.create_process Sys.executable_name args Unix.stdin Unix.stderr
      Unix.stderr
  in
  let rec wait () =
    match Unix.waitpid [] pid with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | _, status -> status
  in
  match wait () with
  | Unix.WEXITED 0 ->
      let ic = open_in_bin out in
      let o : Bringup.outcome = Marshal.from_channel ic in
      close_in ic;
      Sys.remove out;
      o
  | _ -> failwith (Printf.sprintf "%s bring-up child failed" workload)

(* Check every program's first result of one bring-up. *)
let verify_firsts tally (reqs : Oracle.request array) (o : Bringup.outcome) =
  List.iter
    (fun (label, out) ->
      tally.attempted <- tally.attempted + 1;
      let r =
        List.find
          (fun (r : Oracle.request) ->
            r.r_program.label = label && r.r_set = 0)
          (Array.to_list reqs)
      in
      match out with
      | None -> tally.failed <- tally.failed + 1
      | Some got ->
          if not (Oracle.matches_flat r got) then begin
            tally.failed <- tally.failed + 1;
            tally.mismatched <- tally.mismatched + 1
          end)
    o.Bringup.firsts

(* Per-layer numbers of the bring-ups. *)
let bringup_layers ~(cold : Bringup.outcome) ~(restarts : Bringup.outcome list)
    ~dir =
  let self (o : Bringup.outcome) name = ms (Spans.self_s o.spans name) in
  let traced = List.filter (fun (o : Bringup.outcome) -> o.spans <> []) restarts in
  let med name = Util.median (List.map (fun o -> self o name) traced) in
  set "frontend.lower_ms" (med "frontend.lower");
  set "core.tensorssa_ms" (med "core.tensorssa");
  set "core.fusion_ms" (med "core.fusion");
  set "core.codegen_ms" (med "core.codegen");
  set "ir.shape_infer_ms" (med "ir.shape_infer");
  set "exec.kernel_compile_ms" (med "exec.kernel_compile");
  set "exec.prepare_ms" (med "exec.prepare");
  set "jit.load_ms" (med "jit.prepare_groups");
  set "jit.compile_ms" (self cold "jit.prepare_groups");
  set "core.ir_nodes" (float_of_int cold.ir_nodes);
  set "core.kernels" (float_of_int cold.kernels);
  let c (o : Bringup.outcome) k =
    float_of_int (Option.value (List.assoc_opt k o.counters) ~default:0)
  in
  set "jit.c_compiles" (c cold "jit.c.compiles");
  set "jit.ml_compiles" (c cold "jit.compiles");
  set "jit.fallbacks" (c cold "jit.cache.fallback" +. c cold "jit.c.fallback");
  set "jit.armed_ratio" (Util.ratio (float_of_int cold.armed) (float_of_int cold.offered));
  let sum k = Util.sum (List.map (fun o -> c o k) restarts) in
  let hits = sum "jit.cache.hit" +. sum "jit.c.hit" in
  set "jit.artifact_hit_ratio"
    (Util.ratio hits (hits +. sum "jit.cache.miss" +. sum "jit.c.miss"));
  set "jit.artifact_kb" (Util.du_kb dir)

(* --- one run --- *)

let bench (spec : Defs.spec) ~seed ~seconds ~trace =
  let dir = Util.scratch_dir ("jit-" ^ spec.name) in
  let cfg, init_t = init dir in
  let programs = spec.programs () in
  let reqs =
    Array.concat (List.map (fun p -> Oracle.input_sets ~seed p ~k:spec.k) programs)
  in
  let child ~trace ~cold = spawn_child ~workload:spec.name ~seed ~dir ~trace ~cold in
  let cold = child ~trace ~cold:true in
  let compile_ref = Util.mean cold.refs in
  Util.progress "%s: cold bring-up %.2fs, compile reference %.3fs" spec.name
    cold.first_s compile_ref;
  let restarts =
    let child ~trace = child ~trace ~cold:false in
    if trace then [ child ~trace:false; child ~trace:true; child ~trace:false; child ~trace:true ]
    else List.init 5 (fun _ -> child ~trace:false)
  in
  Util.progress "restarts (setup ms / compute reference ms) %s"
    (String.concat " "
       (List.map
          (fun (o : Bringup.outcome) ->
            Printf.sprintf "%.1f/%.3f" (ms o.setup_s) (Util.median o.refs))
          restarts));
  let live, own =
    Bringup.run ~serve:spec.serve ~trace:false ~reference:No_reference
      ~init:init_t cfg (firsts programs ~seed)
  in
  (* everything below may lower graphs: bring-up is done *)
  let fingerprint =
    Fingerprint.make ~domains:cfg.Config.domains
      ~programs:
        (List.map (fun (p : Oracle.program) -> (p.label, p.w, p.batch, p.seq)) programs)
  in
  print_endline
    (Json.to_string (Json.Obj [ ("fingerprint", Fingerprint.to_json fingerprint) ]));
  let interp = Oracle.compute_expected reqs in
  Util.progress "oracle %.2fs for %d requests" (Util.sum interp) (List.length interp);
  let tally = { attempted = 0; failed = 0; mismatched = 0 } in
  List.iter (verify_firsts tally reqs) ((cold :: restarts) @ [ own ]);
  let untraced = List.filter (fun (o : Bringup.outcome) -> o.spans = []) restarts in
  let med f = Util.median (List.map f untraced) in
  set "cold_compile_s" (Probe.at_compile_speed cold.first_s ~ref_s:compile_ref);
  set "bench.cold_wall_s" cold.first_s;
  set "bench.compile_ref_s" compile_ref;
  set "bench.restart_ms" (ms (med (fun (o : Bringup.outcome) -> o.first_s)));
  (* the restarts' references pooled: one child's are too few to steady
     a 20 ms set-up *)
  let setup_wall = med (fun (o : Bringup.outcome) -> o.setup_s) in
  set "setup_s"
    (Probe.at_compute_speed setup_wall
       ~ref_ms:(Util.median (List.concat_map (fun (o : Bringup.outcome) -> o.refs) untraced)));
  set "bench.setup_wall_s" setup_wall;
  set "interp.run_ms" (ms (Util.median interp));
  (* the peak resident set of the timed phase alone *)
  Util.reset_peak_rss ();
  let timed_sections =
    match live with
    | Bringup.Engines engines ->
        Closed_loop.timed tally engines reqs ~seed ~seconds ~trace
    | Bringup.Session sess ->
        Serve.timed cfg tally sess reqs ~seed ~seconds ~trace
  in
  Util.progress "timed phase done";
  set "peak_rss_mb" (Util.peak_rss_mb ());
  set "bench.bringup_rss_mb"
    (Util.median (List.map (fun (o : Bringup.outcome) -> o.rss_mb) untraced));
  set "ok_ratio"
    (Util.ratio (float_of_int (tally.attempted - tally.failed)) (float_of_int tally.attempted));
  set "bench.fail_ratio"
    (Util.ratio (float_of_int tally.failed) (float_of_int tally.attempted));
  if trace then begin
    bringup_layers ~cold ~restarts ~dir;
    let traced_restart = List.find (fun (o : Bringup.outcome) -> o.spans <> []) restarts in
    print_ledger
      ([
         ("cold_bringup", cold.spans, "bench.bringup", None);
         ( "restart_bringup",
           traced_restart.spans,
           "bench.bringup",
           Some (Util.median (List.map (fun (o : Bringup.outcome) -> o.first_s) untraced)) );
       ]
      @ timed_sections)
  end;
  let get k = Option.value (Hashtbl.find_opt metrics k) ~default:0. in
  Util.progress
    "cold %.2fs (wall %.2fs), setup %.1fms (wall %.1fms), op p50 %.3fms (wall %.3fms), \
     references %.3fs / %.3fms"
    (get "cold_compile_s") (get "bench.cold_wall_s") (ms (get "setup_s"))
    (ms (get "bench.setup_wall_s")) (get "op_p50_ms") (get "bench.p50_ms")
    (get "bench.compile_ref_s") (get "bench.compute_ref_ms");
  (tally, fingerprint)

(* --- compare: medians of two history files, fingerprint-checked --- *)

let load_history path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | exception End_of_file ->
        close_in ic;
        List.rev acc
    | line -> (
        match Json.parse line with Ok j -> go (j :: acc) | Error _ -> go acc)
  in
  go []

let str j k = match Json.member k j with Some (Json.Str s) -> s | _ -> ""

let compare_main a b =
  let ha = load_history a and hb = load_history b in
  let status = ref 0 in
  List.iter
    (fun (spec : Defs.spec) ->
      let pick h =
        List.filter
          (fun j -> str j "workload" = spec.name && Json.member "trace" j = Some (Json.Bool false))
          h
      in
      let ra = pick ha and rb = pick hb in
      if ra <> [] && rb <> [] then begin
        let fp r = Fingerprint.of_json (Option.value (Json.member "fingerprint" r) ~default:Json.Null) in
        let flags =
          List.sort_uniq compare
            (List.concat_map (fun x -> List.concat_map (fun y -> Fingerprint.mismatches (fp x) (fp y)) rb) ra)
        in
        List.iter
          (fun (k, va, vb) ->
            status := 1;
            Printf.printf "%s: FINGERPRINT MISMATCH %s: %s vs %s — not a like-for-like comparison\n"
              spec.name k va vb)
          flags;
        List.iter
          (fun (name, unit_) ->
            let values h =
              List.filter_map
                (fun r ->
                  match Option.bind (Json.member "result" r) (Json.member "metrics") with
                  | Some m -> (
                      match Option.bind (Json.member name m) (Json.member "value") with
                      | Some (Json.Num v) -> Some v
                      | _ -> None)
                  | None -> None)
                h
            in
            let ma = Util.median (values ra) and mb = Util.median (values rb) in
            Printf.printf "%-12s %-16s %14.4f %14.4f %s  %+.1f%%\n" spec.name name ma mb unit_
              (100. *. Util.ratio (mb -. ma) ma))
          Defs.end_to_end
      end)
    Defs.workloads;
  exit !status

(* --- self-check: every workload briefly, traced and untraced --- *)

let benchmark_units () =
  let text = Fingerprint.read_file "BENCHMARK.json" in
  match Json.parse text with
  | Error e -> failwith ("BENCHMARK.json: " ^ e)
  | Ok j ->
      let names key =
        match Json.member key j with
        | Some (Json.Arr items) ->
            List.map (fun it -> (str it "name", str it "unit")) items
        | _ -> []
      in
      (names "end_to_end", names "per_layer", List.map fst (names "workloads"))

let last_line text =
  match List.rev (List.filter (fun l -> l <> "") (String.split_on_char '\n' text)) with
  | l :: _ -> l
  | [] -> ""

let self_check () =
  let e2e, layers, workloads = benchmark_units () in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if List.sort compare e2e <> List.sort compare Defs.end_to_end then
    problem "BENCHMARK.json end_to_end differs from the metrics this program prints";
  if List.sort compare layers <> List.sort compare Defs.per_layer then
    problem "BENCHMARK.json per_layer differs from the metrics this program prints";
  if List.sort compare workloads <> List.sort compare (List.map (fun (w : Defs.spec) -> w.name) Defs.workloads)
  then problem "BENCHMARK.json workloads differ from this program's";
  List.iter
    (fun (spec : Defs.spec) ->
      List.iter
        (fun trace ->
          let out = Filename.temp_file "selfcheck" ".out" in
          let cmd =
            Printf.sprintf "%s --workload %s --seed 7 --seconds 4 --trace %d > %s"
              (Filename.quote Sys.executable_name) spec.name trace (Filename.quote out)
          in
          let code = Sys.command cmd in
          let text = Fingerprint.read_file out in
          Sys.remove out;
          if code <> 0 then problem "%s trace=%d exited %d" spec.name trace code
          else
            match Json.parse (last_line text) with
            | Error e -> problem "%s trace=%d: last line is not JSON (%s)" spec.name trace e
            | Ok j ->
                if Json.member "correct" j <> Some (Json.Bool true) then
                  problem "%s trace=%d: an output did not match the interpreter" spec.name trace;
                (match Json.member "attempted" j with
                | Some (Json.Num n) when n >= 1. -> ()
                | _ -> problem "%s trace=%d: nothing attempted" spec.name trace);
                let expected = if trace = 1 then layers else e2e in
                List.iter
                  (fun (name, unit_) ->
                    match Option.bind (Json.member "metrics" j) (Json.member name) with
                    | None -> problem "%s trace=%d: metric %s missing" spec.name trace name
                    | Some m ->
                        if str m "unit" <> unit_ then
                          problem "%s trace=%d: %s has unit %S, not %S" spec.name trace name
                            (str m "unit") unit_;
                        (match Json.member "value" m with
                        | Some (Json.Num _) -> ()
                        | _ -> problem "%s trace=%d: %s has no numeric value" spec.name trace name))
                  expected;
                Printf.printf "self-check: %s trace=%d ok\n%!" spec.name trace)
        [ 0; 1 ])
    Defs.workloads;
  match List.rev !problems with
  | [] -> print_endline "self-check passed"
  | ps ->
      List.iter (fun p -> print_endline ("self-check FAILED: " ^ p)) ps;
      exit 1

(* --- command line --- *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opt key = function
    | k :: v :: _ when k = key -> Some v
    | _ :: rest -> opt key rest
    | [] -> None
  in
  let usage () =
    prerr_endline
      "usage: run.sh --workload <cold-start|warm-cv|serve-lstm> --seed <n> \
       --seconds <s> --trace <0|1>\n\
      \       run.sh --self-check\n\
      \       run.sh compare <a.jsonl> <b.jsonl>";
    exit 2
  in
  let int_opt key = Option.bind (opt key args) int_of_string_opt in
  match args with
  | [ "--self-check" ] -> self_check ()
  | [ "compare"; a; b ] -> compare_main a b
  | "--child" :: _ -> (
      match (opt "--workload" args, int_opt "--seed", opt "--dir" args, opt "--out" args) with
      | Some workload, Some seed, Some dir, Some out ->
          child_main ~workload ~seed ~dir ~out ~trace:(opt "--trace" args = Some "1")
            ~cold:(opt "--cold" args = Some "1")
      | _ -> usage ())
  | _ -> (
      match
        ( Option.bind (opt "--workload" args) Defs.find,
          int_opt "--seed",
          int_opt "--seconds",
          int_opt "--trace" )
      with
      | Some spec, Some seed, Some seconds, Some t when seconds >= 1 && (t = 0 || t = 1) ->
          let trace = t = 1 in
          let tally, fingerprint =
            bench spec ~seed ~seconds:(float_of_int seconds) ~trace
          in
          let line = result_line ~trace tally in
          record ~workload:spec.name ~seed ~trace ~fingerprint line;
          print_endline (Json.to_string line)
      | _ -> usage ())

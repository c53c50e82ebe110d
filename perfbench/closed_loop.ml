(* One closed-loop caller over warm engines: it sends its next request
   only when the previous one returned.

   The loop runs a fixed number of rounds; each round runs every program
   once, in a seeded order, on a seeded one of its input sets.  A fixed
   count (not a fixed time) matters because the scheduler's tuner
   re-samples its arms at fixed per-engine run counts (runs ≈45, 183,
   448, 969, 1999): with the count fixed, every run holds the same
   re-validation triplets and the tail percentiles measure their cost
   instead of whether a threshold happened to fall inside the window.
   Every response is checked against the interpreter's, outside the
   timed call.

   Before each round the loop takes one compute reference ({!Probe}); an
   operation's time at the reference speed uses the median reference of
   its window of [window] rounds, so a burst of host contention slows the
   operations and their reference together.

   In a traced run, blocks of [block] rounds alternate between traced and
   untraced, so the two halves see the same warm-up and drift and their
   difference is the tracing overhead alone. *)

open Functs

type sample = {
  round : int;
  label : string;
  dt : float;  (** Engine.run wall *)
  wall : float;  (** the whole operation: run and check *)
  traced : bool;
}

type result = {
  samples : sample list;
  probe_ms : float array;  (** the compute reference taken before each round *)
  ops : int;
  failed : int;  (** raised or mismatched *)
  mismatched : int;
  alloc_mb : float;  (** allocated around the traced Engine.run calls *)
  steal : int;  (** steal ticks over the loop *)
  wall_s : float;  (** the loop's wall time *)
}

let block = 20
let window = 25

let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let run ~(engines : (Oracle.program * Engine.t) list)
    ~(reqs : Oracle.request array) ~seed ~rounds ~trace =
  let st = Random.State.make [| seed; 0xc105ed |] in
  let per_program =
    Array.of_list
      (List.map
         (fun (p, eng) ->
           ( eng,
             Array.of_list
               (List.filter
                  (fun (r : Oracle.request) -> r.r_program == p)
                  (Array.to_list reqs)) ))
         engines)
  in
  let samples = ref [] in
  let ops = ref 0 and failed = ref 0 and mismatched = ref 0 in
  let alloc = ref 0. in
  let probe_ms = Array.make rounds 0. in
  let t_loop = Util.now () and steal0 = Util.steal_ticks () in
  for round = 0 to rounds - 1 do
    probe_ms.(round) <- Probe.compute ();
    let traced = trace && round / block mod 2 = 1 in
    if traced then Spans.resume () else Spans.pause ();
    let order = Array.copy per_program in
    shuffle st order;
    Array.iter
      (fun (eng, sets) ->
        let r = sets.(Random.State.int st (Array.length sets)) in
        let req = !ops in
        Spans.with_span ~req "bench.op" (fun () ->
            let w0 = if traced then words () else 0. in
            let t0 = Util.now () in
            let out =
              Spans.with_span ~req "exec.run" (fun () ->
                  try Some (Engine.run eng r.Oracle.r_args) with _ -> None)
            in
            let dt = Util.now () -. t0 in
            if traced then alloc := !alloc +. (words () -. w0);
            incr ops;
            let ok =
              Spans.with_span ~req "bench.check" (fun () ->
                  match out with
                  | None -> false
                  | Some outs ->
                      let ok = Oracle.matches r outs in
                      if not ok then incr mismatched;
                      ok)
            in
            if not ok then incr failed;
            samples :=
              { round; label = r.r_program.label; dt; wall = Util.now () -. t0; traced }
              :: !samples))
      order
  done;
  Spans.pause ();
  {
    samples = !samples;
    probe_ms;
    ops = !ops;
    failed = !failed;
    mismatched = !mismatched;
    alloc_mb = !alloc *. float_of_int (Sys.word_size / 8) /. 1e6;
    steal = Util.steal_ticks () - steal0;
    wall_s = Util.now () -. t_loop;
  }

(* The median compute reference of each window. *)
let window_refs r =
  let n = Array.length r.probe_ms in
  Array.init
    (((n - 1) / window) + 1)
    (fun w ->
      Util.median
        (Array.to_list (Array.sub r.probe_ms (w * window) (min window (n - (w * window))))))

(* Engine.run seconds per program of the samples [keep] selects; with
   [~normalised:true], at the reference speed. *)
let times ?(normalised = false) r ~keep =
  let refs = window_refs r in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun s ->
      if keep s then
        let t =
          if normalised then
            Probe.at_compute_speed ~power:Probe.engine_power s.dt
              ~ref_ms:refs.(s.round / window)
          else s.dt
        in
        Hashtbl.replace tbl s.label
          (t :: Option.value (Hashtbl.find_opt tbl s.label) ~default:[]))
    r.samples;
  Hashtbl.fold (fun l ts acc -> (l, ts) :: acc) tbl [] |> List.sort compare

(* Geometric mean over programs of each program's [q]-quantile, in ms. *)
let geo_quantile times q =
  Util.geomean (List.map (fun (_, ts) -> 1e3 *. Util.quantile ts q) times)

let run_s times = List.fold_left (fun acc (_, ts) -> acc +. Util.sum ts) 0. times
let count times = List.fold_left (fun acc (_, ts) -> acc + List.length ts) 0 times

(* --- the timed phase of a closed-loop workload --- *)

let attributed engines =
  List.fold_left
    (fun acc (_, eng) ->
      List.fold_left
        (fun acc (row : Scheduler.attribution_row) -> acc +. row.at_time_s)
        acc (Engine.attribution eng))
    0. engines

(* Rounds per second of [--seconds]: 564 rounds at the benchmark's 12 s,
   which puts every engine's run count between the tuner's 448th- and
   969th-run re-validations (see the top of this file). *)
let rounds_per_s = 47.

let timed (tally : Results.tally) engines reqs ~seed ~seconds ~trace =
  if trace then begin
    Journal.set_capacity 65536;
    Spans.start ()
  end;
  let a0 = attributed engines in
  let c0 = Counters.take () in
  let rounds = max 1 (int_of_float (Float.round (seconds *. rounds_per_s))) in
  let r = run ~engines ~reqs ~seed ~rounds ~trace in
  let c1 = Counters.take () in
  let spans = Spans.all () in
  Spans.stop ();
  tally.attempted <- tally.attempted + r.ops;
  tally.failed <- tally.failed + r.failed;
  tally.mismatched <- tally.mismatched + r.mismatched;
  let plain = times r ~keep:(fun s -> not s.traced) in
  Results.set "op_p50_ms"
    (geo_quantile (times ~normalised:true r ~keep:(fun s -> not s.traced)) 0.5);
  Results.set "bench.p50_ms" (geo_quantile plain 0.5);
  Results.set "bench.compute_ref_ms" (Util.median (Array.to_list r.probe_ms));
  Results.set "bench.ops_per_s" (Util.ratio (float_of_int (count plain)) (run_s plain));
  Results.set "bench.steal_pct" (Util.steal_pct ~ticks:r.steal ~wall:r.wall_s);
  if not trace then []
  else begin
    let all = times r ~keep:(fun _ -> true) in
    let traced = times r ~keep:(fun s -> s.traced) in
    let runs = float_of_int r.ops in
    Results.exec_layers c0 c1 ~runs;
    (* every round, so each run holds the same re-validation triplets *)
    Results.set "exec.run_p99_ms" (geo_quantile all 0.99);
    List.iter
      (fun p ->
        Results.set ("exec.run_ms." ^ p)
          (match List.assoc_opt p plain with
          | Some ts -> Results.ms (Util.median ts)
          | None -> 0.))
      Defs.cv_programs;
    Results.set "exec.alloc_mb_per_run"
      (Util.ratio r.alloc_mb (float_of_int (count traced)));
    let all_s = run_s all in
    Results.set "exec.unattributed_pct"
      (100. *. Util.ratio (all_s -. (attributed engines -. a0)) all_s);
    Results.set "obs.trace_overhead_pct"
      (100. *. (Util.ratio (geo_quantile traced 0.5) (geo_quantile plain 0.5) -. 1.));
    (* the untraced operations' wall, scaled to the traced count *)
    let wall traced =
      List.fold_left
        (fun (w, n) s -> if s.traced = traced then (w +. s.wall, n + 1) else (w, n))
        (0., 0) r.samples
    in
    let untraced_equiv =
      let w, n = wall false and _, n_traced = wall true in
      Util.ratio w (float_of_int n) *. float_of_int n_traced
    in
    [ ("timed", spans, "bench.op", Some untraced_equiv) ]
  end

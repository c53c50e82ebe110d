(* The timed phase of serve-lstm: open-loop rungs at 100 and 200 req/s
   over one session, then (traced runs only) the rate ladder, with their
   metrics.

   A compute reference ({!Probe}) is taken before every rung and after
   each, while the session is idle; latencies at the reference speed use
   the run's median reference. *)

open Functs

let cap_s = 1.0
let ladder = [ 300.; 400.; 500.; 600.; 800.; 1000. ]

(* Shares of [--seconds]: r100 as sub-rungs (so a traced run can trace
   every other one), r200 as sub-rungs, and in traced runs each ladder
   rung. *)
let r100_parts = 6
let r100_share = 0.1
let r200_parts = 3
let r200_share = 0.08
let ladder_share = 0.25 /. float_of_int (List.length ladder)

let account (tally : Results.tally) (rung : Open_loop.rung) =
  Array.iter
    (fun (s : Open_loop.slot) ->
      tally.attempted <- tally.attempted + 1;
      match s.s_outcome with
      | Some Ok_in_time -> ()
      | Some Mismatch ->
          tally.failed <- tally.failed + 1;
          tally.mismatched <- tally.mismatched + 1
      | _ -> tally.failed <- tally.failed + 1)
    rung.slots

(* Mismatches on capacity-probe rungs still make the run incorrect. *)
let probe_account (tally : Results.tally) (rung : Open_loop.rung) =
  tally.mismatched <- tally.mismatched + Open_loop.count rung Open_loop.Mismatch

let latencies rungs =
  List.concat_map
    (fun r -> Open_loop.latencies r ~horizon:(Open_loop.horizon r ~cap:cap_s))
    rungs

let lat_quantile rungs q = Results.ms (Util.quantile (latencies rungs) q)

(* Median over sub-rungs of each sub-rung's [q]-quantile. *)
let part_quantile rungs q =
  Util.median (List.map (fun r -> lat_quantile [ r ] q) rungs)

(* The highest rate of 100, 200 and the ladder, in order, whose rung
   passed; stops at the first failing rung.  When even 100/s fails, the
   good requests per second achieved there. *)
let goodput rungs =
  let rec go best = function
    | [] -> best
    | (r : Open_loop.rung) :: rest ->
        if Open_loop.passes r then go (Some r.rate) rest else best
  in
  match go None rungs with
  | Some rate -> rate
  | None -> (
      match rungs with
      | r :: _ -> Util.ratio (float_of_int (Open_loop.good r)) r.duration_s
      | [] -> 0.)

let request_spans (rung : Open_loop.rung) =
  Array.iter
    (fun (s : Open_loop.slot) ->
      match s.s_ticket with
      | None -> ()
      | Some tk ->
          let req = Session.ticket_id tk in
          let root =
            Spans.add ~req ~parent:(-1) "bench.request" ~t0:s.s_due ~t1:s.s_done
          in
          ignore
            (Spans.add ~req ~parent:root "bench.gen_lag" ~t0:s.s_due ~t1:s.s_sent);
          ignore
            (List.fold_left
               (fun t (stage, us) ->
                 if stage = "total" then t
                 else begin
                   let t1 = t +. (us *. 1e-6) in
                   ignore (Spans.add ~req ~parent:root ("serve." ^ stage) ~t0:t ~t1);
                   t1
                 end)
               s.s_sent s.s_stages))
    rung.slots

(* The compute reference between rungs, while the session is idle. *)
let reference () = Util.median (List.init 10 (fun _ -> Probe.compute ()))

(* A rung that hit its cap leaves a session that would keep running the
   interpreter for the cancelled backlog for minutes.  Retire it: pause
   it (no further dequeues), wait for the batch in hand to finish, and
   serve the rest of the run from a fresh session.  The retired one is
   never resumed; its domain ends with the process. *)
let recover (cfg : Config.t) (p : Oracle.program) sess =
  Session.pause sess;
  let sig_of (st : Session.stats) = (st.interp_fallbacks, st.completed, st.batches) in
  let t0 = Util.now () in
  let rec settle last since =
    Thread.delay 0.1;
    let now_sig = sig_of (Session.stats sess) in
    if now_sig <> last then settle now_sig (Util.now ())
    else if Util.now () -. since < 1.0 && Util.now () -. t0 < 15. then
      settle last since
  in
  settle (sig_of (Session.stats sess)) (Util.now ());
  match Session.create ~config:cfg ~batch:p.batch ~seq:p.seq p.w with
  | Ok s -> s
  | Error e -> failwith (Error.to_string e)

let timed cfg (tally : Results.tally) sess reqs ~seed ~seconds ~trace =
  let p = reqs.(0).Oracle.r_program in
  let sess = ref sess and replaced = ref 0 in
  let refs = ref [ reference () ] in
  let rung ~rate ~share ~seed =
    let r =
      Open_loop.rung !sess reqs ~seed ~rate ~duration:(share *. seconds) ~cap:cap_s
    in
    if r.capped then begin
      incr replaced;
      sess := recover cfg p !sess
    end;
    refs := reference () :: !refs;
    r
  in
  if trace then begin
    Journal.set_capacity 65536;
    Spans.start ();
    Spans.pause ()
  end;
  let c0 = Counters.take () in
  (* in a traced run the odd r100 sub-rungs are traced *)
  let r100 =
    List.init r100_parts (fun i ->
        let traced = trace && i mod 2 = 1 in
        if traced then Spans.resume () else Spans.pause ();
        let r = rung ~rate:100. ~share:r100_share ~seed:((seed * 64) + i) in
        if traced then request_spans r;
        Spans.pause ();
        (r, traced))
  in
  if trace then Spans.resume ();
  let r200 =
    List.init r200_parts (fun i ->
        rung ~rate:200. ~share:r200_share ~seed:((seed * 64) + 8 + i))
  in
  let all100 = List.map fst r100 in
  let fixed = all100 @ r200 in
  let probes =
    let rec go acc = function
      | [] -> List.rev acc
      | rate :: rest ->
          let r = rung ~rate ~share:ladder_share ~seed:((seed * 64) + 16) in
          if Open_loop.passes r then go (r :: acc) rest else List.rev (r :: acc)
    in
    if trace && List.for_all Open_loop.passes fixed then go [] ladder else []
  in
  let st1 = Session.stats !sess in
  let c1 = Counters.take () in
  List.iter (account tally) fixed;
  List.iter (probe_account tally) probes;
  let plain100 = List.filter_map (fun (r, t) -> if t then None else Some r) r100 in
  (* every untraced request of the fixed rates pooled, at the run's median
     reference: one rung's references are too few to steady its
     latencies *)
  let plain_lat = latencies (plain100 @ r200) in
  let p50 = Results.ms (Util.median plain_lat) in
  Results.set "op_p50_ms" (Probe.at_compute_speed p50 ~ref_ms:(Util.median !refs));
  Results.set "bench.p50_ms" p50;
  Results.set "bench.compute_ref_ms" (Util.median !refs);
  Results.set "bench.steal_pct"
    (Util.steal_pct
       ~ticks:(List.fold_left (fun acc (r : Open_loop.rung) -> acc + r.steal) 0 fixed)
       ~wall:(List.fold_left (fun acc (r : Open_loop.rung) -> acc +. r.duration_s) 0. fixed));
  let rungs = fixed @ probes in
  Printf.printf "serve: %s; %d session(s) retired\n%!"
    (String.concat ", "
       (List.map
          (fun (r : Open_loop.rung) ->
            Printf.sprintf "%.0f/s %d sent %d good%s" r.rate
              (Array.length r.slots) (Open_loop.good r)
              (if Open_loop.passes r then "" else " FAIL"))
          rungs))
    !replaced;
  (* a capped rung's session was retired already: this one is healthy *)
  Session.close !sess;
  if not trace then []
  else begin
    List.iter request_spans (r200 @ probes);
    let spans = Spans.all () in
    Spans.stop ();
    let traced100 = List.filter_map (fun (r, t) -> if t then Some r else None) r100 in
    Results.set "serve.p50_ms.r100" (lat_quantile all100 0.5);
    Results.set "serve.p99_ms.r100" (lat_quantile all100 0.99);
    Results.set "serve.p50_ms.r200" (lat_quantile r200 0.5);
    Results.set "serve.p99_ms.r200" (lat_quantile r200 0.99);
    Results.set "serve.goodput_rps" (goodput rungs);
    (* good requests per second at the highest passing rung *)
    Results.set "bench.ops_per_s"
      (match List.filter Open_loop.passes rungs with
      | [] -> 0.
      | passing ->
          let best =
            List.fold_left
              (fun (a : Open_loop.rung) (b : Open_loop.rung) -> if b.rate >= a.rate then b else a)
              (List.hd passing) passing
          in
          Util.ratio (float_of_int (Open_loop.good best)) best.duration_s);
    let slots = List.concat_map (fun (r : Open_loop.rung) -> Array.to_list r.slots) rungs in
    let stage name =
      List.filter_map (fun (s : Open_loop.slot) -> List.assoc_opt name s.s_stages) slots
      |> List.map (fun us -> us *. 1e-3)
    in
    Results.set "serve.queue_wait_ms.p50" (Util.median (stage "queue_wait"));
    Results.set "serve.queue_wait_ms.p99" (Util.quantile (stage "queue_wait") 0.99);
    Results.set "serve.batch_ms.p50" (Util.median (stage "batch"));
    Results.set "serve.exec_ms.p50" (Util.median (stage "exec"));
    Results.set "serve.exec_ms.p99" (Util.quantile (stage "exec") 0.99);
    let bucket b = Counters.delta c0 c1 (Printf.sprintf "serve.bucket.b%d" b) in
    let runs = bucket 1 +. bucket 4 +. bucket 16 in
    Results.set "serve.bucket_runs.b1" (bucket 1);
    Results.set "serve.bucket_runs.b4" (bucket 4);
    Results.set "serve.bucket_runs.b16" (bucket 16);
    let d name = Counters.delta c0 c1 name in
    Results.set "serve.requests_per_run"
      (Util.ratio (d "serve.completed" -. d "serve.interp_fallbacks") runs);
    Results.set "serve.max_queue_depth" (float_of_int st1.Session.max_queue_depth);
    Results.set "serve.refused" (d "serve.overloaded");
    Results.set "serve.deadline_expired" (d "serve.deadline_expired");
    Results.set "serve.interp_fallbacks" (d "serve.interp_fallbacks");
    Results.set "serve.cancelled_at_cap"
      (float_of_int
         (List.fold_left
            (fun acc r -> acc + Open_loop.count r Open_loop.Cancelled_at_cap)
            0 rungs));
    Results.set "serve.warm_misses" (d "engine.cache.misses");
    Results.set "serve.gen_lag_ms.p99"
      (Results.ms (Util.quantile (List.concat_map (fun (r : Open_loop.rung) -> r.gen_lag_s) rungs) 0.99));
    Results.exec_layers c0 c1 ~runs;
    Results.set "exec.alloc_mb_per_run" (Util.ratio (Counters.alloc_mb c0 c1) runs);
    Results.set "obs.trace_overhead_pct"
      (100.
      *. (Util.ratio (part_quantile traced100 0.5) (part_quantile plain100 0.5)
         -. 1.));
    [ ("timed", spans, "bench.request", None) ]
  end


(* The open-loop generator: one generator thread sends requests at Poisson
   arrival times whatever the system does, so a stall makes the queue grow
   instead of slowing the load.

   - Each request is timed from its due time (not from when it was
     actually submitted), so a stall is charged to every request it
     delays; how late the generator itself ran is reported separately.
   - A collector thread awaits tickets in send order; every response is
     checked against the interpreter once the rung is over, so the check
     competes with no request.
   - Every request carries the deadline, which is also the SLO.  Refused
     ([Overloaded]), deadline-degraded, late, mismatched, failed and
     cap-cancelled requests all miss the SLO.
   - After the sending window a rung drains for at most [cap] seconds;
     tickets still outstanding then are cancelled, so a collapse costs
     the cap, not minutes.  (The session still runs the interpreter for
     cancelled tickets whose deadline had passed, so a capped session is
     retired: see [recover] in serve.ml.) *)

open Functs

let slo_s = 0.1

type outcome =
  | Ok_in_time
  | Late  (** correct, but after the SLO *)
  | Degraded  (** the deadline expired in the queue *)
  | Refused
  | Cancelled_at_cap
  | Mismatch
  | Failed  (** any other error *)

type slot = {
  s_req : Oracle.request;
  s_due : float;
  s_sent : float;
  s_ticket : Session.ticket option;
  mutable s_done : float;
  mutable s_outcome : outcome option;
  mutable s_result : (Value.t list, Error.t) result option;
  mutable s_stages : (string * float) list;
}

type rung = {
  rate : float;
  duration_s : float;
  slots : slot array;
  backlog_grew : bool;
  gen_lag_s : float list;
  capped : bool;  (** tickets were still outstanding at the cap *)
  steal : int;  (** steal ticks during the sending window *)
}

let ok_in_time s = s.s_outcome = Some Ok_in_time

let count rung o =
  Array.fold_left
    (fun acc s -> if s.s_outcome = Some o then acc + 1 else acc)
    0 rung.slots

let good rung =
  Array.fold_left (fun acc s -> if ok_in_time s then acc + 1 else acc) 0 rung.slots

(* A rung passes when at least 99% of its requests succeed within the SLO
   and the backlog did not grow. *)
let passes rung =
  let n = Array.length rung.slots in
  n > 0 && float_of_int (good rung) >= 0.99 *. float_of_int n
  && not rung.backlog_grew

(* Latency in seconds from due time; a request that missed outright counts
   at the rung's horizon (end of sending plus the drain cap), which is
   past any limit. *)
let latencies rung ~horizon =
  Array.to_list
    (Array.map
       (fun s ->
         match s.s_outcome with
         | Some (Ok_in_time | Late) -> s.s_done -. s.s_due
         | _ -> Float.max (horizon -. s.s_due) slo_s)
       rung.slots)

let classify s result =
  match result with
  | Ok outs ->
      if not (Oracle.matches s.s_req outs) then Mismatch
      else if s.s_done -. s.s_due <= slo_s then Ok_in_time
      else if not (List.mem_assoc "exec" s.s_stages) then Degraded
      else Late
  | Error Error.Deadline_exceeded -> Degraded
  | Error Error.Cancelled -> Cancelled_at_cap
  | Error Error.Overloaded -> Refused
  | Error _ -> Failed

let exp_gap st rate = -.log (1. -. Random.State.float st 1.0) /. rate

(* Run one rung at [rate] requests/s for [duration] seconds. *)
let rung sess (reqs : Oracle.request array) ~seed ~rate ~duration ~cap =
  let st = Random.State.make [| seed; int_of_float rate; 0x0be1 |] in
  let lock = Mutex.create () and cond = Condition.create () in
  let pending = Queue.create () in
  let sending = ref true in
  let completed = ref 0 in
  let collector () =
    let rec loop () =
      Mutex.lock lock;
      while Queue.is_empty pending && !sending do
        Condition.wait cond lock
      done;
      if Queue.is_empty pending then Mutex.unlock lock
      else begin
        let s = Queue.pop pending in
        Mutex.unlock lock;
        (match s.s_ticket with
        | None -> ()
        | Some tk ->
            let result = Session.await tk in
            s.s_done <- Util.now ();
            s.s_stages <- Session.ticket_stages tk;
            s.s_result <- Some result);
        Mutex.lock lock;
        incr completed;
        Mutex.unlock lock;
        loop ()
      end
    in
    loop ()
  in
  let th = Thread.create collector () in
  let slots = ref [] and lag = ref [] in
  let t0 = Util.now () and steal0 = Util.steal_ticks () in
  let next = ref t0 in
  let sent = ref 0 and mid_backlog = ref (-1) in
  while !next -. t0 < duration do
    let now = Util.now () in
    if !next > now then Thread.delay (!next -. now);
    if !mid_backlog < 0 && !next -. t0 >= duration /. 2. then
      mid_backlog := !sent - Mutex.protect lock (fun () -> !completed);
    let r = reqs.(Random.State.int st (Array.length reqs)) in
    let sent_at = Util.now () in
    lag := (sent_at -. !next) :: !lag;
    let input = Session.input ~deadline_us:(slo_s *. 1e6) r.Oracle.r_args in
    let ticket, outcome =
      match Session.submit sess input with
      | Ok tk -> (Some tk, None)
      | Error Error.Overloaded -> (None, Some Refused)
      | Error _ -> (None, Some Failed)
    in
    let s =
      {
        s_req = r;
        s_due = !next;
        s_sent = sent_at;
        s_ticket = ticket;
        s_done = sent_at;
        s_outcome = outcome;
        s_result = None;
        s_stages = [];
      }
    in
    slots := s :: !slots;
    incr sent;
    Mutex.protect lock (fun () ->
        Queue.push s pending;
        Condition.signal cond);
    next := !next +. exp_gap st rate
  done;
  let send_end = Util.now () and steal = Util.steal_ticks () - steal0 in
  let end_backlog = !sent - Mutex.protect lock (fun () -> !completed) in
  Mutex.protect lock (fun () ->
      sending := false;
      Condition.broadcast cond);
  (* drain, bounded by the cap *)
  let all_done () = Mutex.protect lock (fun () -> !completed = !sent) in
  while (not (all_done ())) && Util.now () -. send_end < cap do
    Thread.delay 0.002
  done;
  let capped = not (all_done ()) in
  if capped then
    List.iter
      (fun s ->
        match (s.s_ticket, s.s_outcome) with
        | Some tk, None -> ignore (Session.cancel tk)
        | _ -> ())
      !slots;
  Thread.join th;
  List.iter
    (fun s ->
      match s.s_result with
      | Some result -> s.s_outcome <- Some (classify s result)
      | None -> ())
    !slots;
  {
    rate;
    duration_s = send_end -. t0;
    slots = Array.of_list (List.rev !slots);
    backlog_grew = end_backlog > max 16 (2 * max 0 !mid_backlog);
    gen_lag_s = !lag;
    capped;
    steal;
  }

let horizon rung ~cap =
  if Array.length rung.slots = 0 then 0.
  else rung.slots.(0).s_due +. rung.duration_s +. cap

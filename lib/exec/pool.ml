(* Work-stealing runtime.

   Each lane owns a fixed-capacity Chase–Lev deque: the dispatching
   domain pushes range tasks to the bottom of its own deque and pops
   them back LIFO (hot end, cache-warm), while idle workers steal FIFO
   from the top — the stolen chunks are the coldest, farthest ranges, so
   skewed iteration costs rebalance themselves instead of leaving lanes
   idle behind a static one-chunk-per-lane split.

   Deque index 0 belongs to whichever external (non-worker) domain is
   currently dispatching (guarded by [owner_busy]); worker [i] owns
   deque [i + 1].  Completion never depends on the workers: the
   dispatcher drains its own deque, then steals, and blocks on the
   job's condition variable only when every remaining task is already
   claimed by some running domain — on an oversubscribed machine this
   yields the CPU to whichever domain holds the work instead of
   spinning against it. *)

type task = { tk_lo : int; tk_hi : int; tk_job : job }

and job = {
  j_body : int -> int -> unit;
  j_depth : int;  (* DLS depth bodies of this job run at *)
  j_under : bool;  (* dispatch under-subscribed the lanes *)
  j_pending : int Atomic.t;
  j_err : exn option Atomic.t;
  j_fin_m : Mutex.t;
  j_fin_c : Condition.t;
}

(* --- Chase–Lev deque ---

   Fixed capacity: a dispatch creates at most [max_tasks] tasks and a
   domain drains its own deque before its dispatch returns, so
   occupancy never exceeds one dispatch's worth.  OCaml [Atomic]s are
   sequentially consistent, which covers every fence the algorithm
   needs; the racy slot read in [steal] is validated by the CAS on
   [q_top] (boxed values cannot tear). *)

let deque_cap = 512
let deque_mask = deque_cap - 1

type deque = {
  q_tasks : task option array;
  q_top : int Atomic.t;
  q_bottom : int Atomic.t;
}

let deque_make () =
  {
    q_tasks = Array.make deque_cap None;
    q_top = Atomic.make 0;
    q_bottom = Atomic.make 0;
  }

(* Owner only.  False when full — the caller runs the task inline. *)
let deque_push q tk =
  let b = Atomic.get q.q_bottom and t = Atomic.get q.q_top in
  if b - t >= deque_cap then false
  else begin
    q.q_tasks.(b land deque_mask) <- Some tk;
    Atomic.set q.q_bottom (b + 1);
    true
  end

(* Owner only: LIFO pop from the bottom. *)
let deque_take q =
  let b = Atomic.get q.q_bottom - 1 in
  Atomic.set q.q_bottom b;
  let t = Atomic.get q.q_top in
  if b < t then begin
    Atomic.set q.q_bottom t;
    None
  end
  else begin
    let x = q.q_tasks.(b land deque_mask) in
    if b > t then x
    else begin
      (* last element: race the thieves for it *)
      let won = Atomic.compare_and_set q.q_top t (t + 1) in
      Atomic.set q.q_bottom (t + 1);
      if won then x else None
    end
  end

type steal_result = Stolen of task | Contended | Empty

(* Any domain: FIFO steal from the top. *)
let deque_steal q =
  let t = Atomic.get q.q_top in
  let b = Atomic.get q.q_bottom in
  if b <= t then Empty
  else
    match q.q_tasks.(t land deque_mask) with
    | Some tk when Atomic.compare_and_set q.q_top t (t + 1) -> Stolen tk
    | _ -> Contended

(* --- pool --- *)

type ctx = {
  mutable c_pool : t option;  (* the pool this domain is a worker of *)
  mutable c_index : int;  (* its deque index in that pool *)
  mutable c_depth : int;  (* dispatch nesting depth of the running body *)
  mutable c_nested_ok : bool;  (* enclosing dispatch under-subscribed *)
  mutable c_owner : t option;  (* pool whose deque 0 this domain holds *)
}

and worker = {
  w_mutex : Mutex.t;
  w_cond : Condition.t;
  mutable w_wake : bool;
  mutable w_stop : bool;
  mutable w_pool : t option;  (* handshake: set once the pool exists *)
}

and t = {
  mutable lanes : int;
  deques : deque array;  (* lanes entries: 0 = external dispatcher *)
  workers : worker array;
  doms : unit Domain.t array;
  mutable live : bool;
  active : int Atomic.t;  (* dispatches in flight (park hint) *)
  owner_busy : bool Atomic.t;  (* deque 0 claimed by an external caller *)
  wake_rr : int Atomic.t;  (* round-robin start for worker wake-ups *)
  n_dispatches : int Atomic.t;
  n_sequential : int Atomic.t;
  n_fb_grain : int Atomic.t;
  n_fb_nested : int Atomic.t;
  n_fb_disabled : int Atomic.t;
  n_steals : int Atomic.t;
  n_inline : int Atomic.t;
}

let ctx_key =
  Domain.DLS.new_key (fun () ->
      {
        c_pool = None;
        c_index = 0;
        c_depth = 0;
        c_nested_ok = false;
        c_owner = None;
      })

let on_worker () = (Domain.DLS.get ctx_key).c_pool <> None

(* Process-wide aggregates; per-engine attribution is done by the
   scheduler via boundary snapshots of the per-pool getters. *)
let dispatches_c = Functs_obs.Metrics.counter "pool.dispatches"
let seq_fallbacks_c = Functs_obs.Metrics.counter "pool.seq_fallbacks"
let fb_grain_c = Functs_obs.Metrics.counter "pool.fallback.grain"
let fb_nested_c = Functs_obs.Metrics.counter "pool.fallback.nested"
let fb_disabled_c = Functs_obs.Metrics.counter "pool.fallback.disabled"
let steals_c = Functs_obs.Metrics.counter "pool.steals"
let inline_runs_c = Functs_obs.Metrics.counter "pool.inline_runs"

(* --- cache budget ---

   Task granularity targets [chunk_bytes] of traffic per task so a
   chunk's working set stays cache-resident.  Probed once from sysfs
   (half the L2 of cpu0 — the private cache a lane effectively owns);
   [set_chunk_bytes] overrides it for tests and budget sweeps. *)

let parse_cache_size s =
  let s = String.trim s in
  let len = String.length s in
  if len = 0 then None
  else
    let mult, digits =
      match s.[len - 1] with
      | 'K' | 'k' -> (1024, String.sub s 0 (len - 1))
      | 'M' | 'm' -> (1024 * 1024, String.sub s 0 (len - 1))
      | 'G' | 'g' -> (1024 * 1024 * 1024, String.sub s 0 (len - 1))
      | _ -> (1, s)
    in
    match int_of_string_opt (String.trim digits) with
    | Some n when n > 0 -> Some (n * mult)
    | _ -> None

let probe_chunk_bytes () =
  let base = "/sys/devices/system/cpu/cpu0/cache" in
  let l2 = ref 0 and l3 = ref 0 in
  (try
     Array.iter
       (fun name ->
         try
           let read leaf =
             let ic = open_in (Filename.concat (Filename.concat base name) leaf) in
             Fun.protect
               ~finally:(fun () -> close_in_noerr ic)
               (fun () -> input_line ic)
           in
           let ty = String.trim (read "type") in
           if ty = "Unified" || ty = "Data" then
             match (int_of_string_opt (String.trim (read "level")),
                    parse_cache_size (read "size"))
             with
             | Some 2, Some s -> l2 := max !l2 s
             | Some 3, Some s -> l3 := max !l3 s
             | _ -> ()
         with _ -> ())
       (Sys.readdir base)
   with _ -> ());
  if !l2 > 0 then !l2 / 2
  else if !l3 > 0 then min (!l3 / 4) (8 * 1024 * 1024)
  else 256 * 1024

let probed_chunk_bytes = lazy (probe_chunk_bytes ())
let chunk_bytes_override = ref 0

let set_chunk_bytes n = chunk_bytes_override := max 0 n

let chunk_bytes () =
  if !chunk_bytes_override > 0 then !chunk_bytes_override
  else Lazy.force probed_chunk_bytes

(* --- task execution --- *)

let finish_task j =
  if Atomic.fetch_and_add j.j_pending (-1) = 1 then begin
    Mutex.lock j.j_fin_m;
    Condition.broadcast j.j_fin_c;
    Mutex.unlock j.j_fin_m
  end

let run_task t tk ~stolen =
  let j = tk.tk_job in
  let ctx = Domain.DLS.get ctx_key in
  let saved_depth = ctx.c_depth and saved_nested = ctx.c_nested_ok in
  ctx.c_depth <- j.j_depth;
  ctx.c_nested_ok <- j.j_under;
  (try j.j_body tk.tk_lo tk.tk_hi
   with e -> ignore (Atomic.compare_and_set j.j_err None (Some e)));
  ctx.c_depth <- saved_depth;
  ctx.c_nested_ok <- saved_nested;
  if stolen then begin
    Atomic.incr t.n_steals;
    Functs_obs.Metrics.incr steals_c
  end
  else begin
    Atomic.incr t.n_inline;
    Functs_obs.Metrics.incr inline_runs_c
  end;
  finish_task j

(* Scan every deque but [self] once.  [Contended] means a steal lost a
   race or a slot read was stale — work may remain, rescan; [Empty]
   means nothing was stealable anywhere at scan time. *)
let steal_any t ~self =
  let ln = Array.length t.deques in
  let result = ref Empty in
  (try
     for i = 1 to ln - 1 do
       let qi = (self + i) mod ln in
       match deque_steal t.deques.(qi) with
       | Stolen _ as s ->
           result := s;
           raise_notrace Exit
       | Contended -> result := Contended
       | Empty -> ()
     done
   with Exit -> ());
  !result

(* --- workers --- *)

let cores = lazy (max 1 (Domain.recommended_domain_count ()))

(* Waking a worker is only ever a throughput win when a spare physical
   core can run it; on a machine with one core every signalled worker
   just preempts the dispatcher mid-dispatch.  With no wakes the
   dispatcher drains its own deque inline — the range is always covered,
   lanes beyond the core count simply stay parked. *)
let wake_workers t k =
  let nw = Array.length t.workers in
  if nw > 0 && Lazy.force cores > 1 then begin
    let k = min k nw in
    let start = Atomic.fetch_and_add t.wake_rr 1 in
    for i = 0 to k - 1 do
      let w = t.workers.((start + i) mod nw) in
      Mutex.lock w.w_mutex;
      if not w.w_wake then begin
        w.w_wake <- true;
        Condition.signal w.w_cond
      end;
      Mutex.unlock w.w_mutex
    done
  end

(* Any unclaimed task in any deque?  Racy by nature — used only to decide
   whether a cascading wake is worth the signal. *)
let has_work t =
  let found = ref false in
  Array.iter
    (fun q ->
      if Atomic.get q.q_bottom - Atomic.get q.q_top > 0 then found := true)
    t.deques;
  !found

(* Cascading wakeup: a successful thief re-arms one more worker while
   unclaimed tasks remain.  The dispatcher only ever wakes ONE worker per
   dispatch — waking lanes-1 workers per dispatch put their context
   switches on the critical path of every small launch (on a machine with
   fewer cores than lanes, each extra wake is a forced preemption), and
   the chain reaches full fan-out in O(log lanes) dispatches anyway. *)
let cascade t = if has_work t then wake_workers t 1

(* A spawned domain first parks until [create] publishes the pool
   record through [w_pool] (mutex-protected, so the deques are visible),
   then enters the steady park/work loop. *)
let rec worker_main w idx =
  Mutex.lock w.w_mutex;
  while w.w_pool = None && not w.w_stop do
    Condition.wait w.w_cond w.w_mutex
  done;
  let pool = w.w_pool in
  Mutex.unlock w.w_mutex;
  match pool with None -> () | Some t -> worker_loop t w idx

and worker_loop t w idx =
  let ctx = Domain.DLS.get ctx_key in
  ctx.c_pool <- Some t;
  ctx.c_index <- idx;
  let my = t.deques.(idx) in
  let rec work spins =
    match deque_take my with
    | Some tk ->
        run_task t tk ~stolen:false;
        work 0
    | None -> (
        match steal_any t ~self:idx with
        | Stolen tk ->
            cascade t;
            run_task t tk ~stolen:true;
            work 0
        | Contended ->
            Domain.cpu_relax ();
            work 0
        | Empty ->
            if Atomic.get t.active > 0 && spins < 64 then begin
              Domain.cpu_relax ();
              work (spins + 1)
            end)
    (* park even with a job active: every remaining task is claimed by a
       running domain, and any later push re-raises w_wake *)
  in
  let rec park () =
    Mutex.lock w.w_mutex;
    while (not w.w_wake) && not w.w_stop do
      Condition.wait w.w_cond w.w_mutex
    done;
    let stop = w.w_stop in
    w.w_wake <- false;
    Mutex.unlock w.w_mutex;
    if not stop then begin
      work 0;
      park ()
    end
  in
  park ()

let create ~lanes =
  let want = max 0 (lanes - 1) in
  let spawned = ref [] in
  (* The runtime caps live domains; degrade to fewer workers rather than
     fail the engine if the cap is hit mid-spawn. *)
  (try
     for i = 1 to want do
       let w =
         {
           w_mutex = Mutex.create ();
           w_cond = Condition.create ();
           w_wake = false;
           w_stop = false;
           w_pool = None;
         }
       in
       let d = Domain.spawn (fun () -> worker_main w i) in
       spawned := (w, d) :: !spawned
     done
   with _ -> ());
  let pairs = Array.of_list (List.rev !spawned) in
  let lanes = Array.length pairs + 1 in
  let t =
    {
      lanes;
      deques = Array.init lanes (fun _ -> deque_make ());
      workers = Array.map fst pairs;
      doms = Array.map snd pairs;
      live = true;
      active = Atomic.make 0;
      owner_busy = Atomic.make false;
      wake_rr = Atomic.make 0;
      n_dispatches = Atomic.make 0;
      n_sequential = Atomic.make 0;
      n_fb_grain = Atomic.make 0;
      n_fb_nested = Atomic.make 0;
      n_fb_disabled = Atomic.make 0;
      n_steals = Atomic.make 0;
      n_inline = Atomic.make 0;
    }
  in
  Array.iter
    (fun w ->
      Mutex.lock w.w_mutex;
      w.w_pool <- Some t;
      Condition.signal w.w_cond;
      Mutex.unlock w.w_mutex)
    t.workers;
  t

let lanes t = t.lanes

let shutdown t =
  if t.live then begin
    t.live <- false;
    Array.iter
      (fun w ->
        Mutex.lock w.w_mutex;
        w.w_stop <- true;
        Condition.signal w.w_cond;
        Mutex.unlock w.w_mutex)
      t.workers;
    Array.iter Domain.join t.doms;
    t.lanes <- 1
  end

(* --- parallel_for --- *)

(* Oversubscription target: enough tasks per lane that stealing can
   rebalance skew, few enough that per-task overhead stays negligible.
   Lanes beyond the physical core count contribute no extra throughput,
   only task-handoff overhead, so the balance term is capped at the
   machine's recommended domain count — a 4-lane pool on a 2-core box
   chunks like a 2-lane pool instead of doubling its task count. *)
let tasks_per_lane = 4
let max_tasks = 256
let max_depth = 2

type fb_reason = Fb_grain | Fb_nested | Fb_disabled

let sequential t reason n body =
  Atomic.incr t.n_sequential;
  Functs_obs.Metrics.incr seq_fallbacks_c;
  (match reason with
  | Fb_disabled ->
      Atomic.incr t.n_fb_disabled;
      Functs_obs.Metrics.incr fb_disabled_c
  | Fb_nested ->
      Atomic.incr t.n_fb_nested;
      Functs_obs.Metrics.incr fb_nested_c
  | Fb_grain ->
      Atomic.incr t.n_fb_grain;
      Functs_obs.Metrics.incr fb_grain_c);
  body 0 n;
  false

let dispatch t ctx ~n ~chunk ~ntasks body =
  (* Which deque do we own?  Workers of this pool dispatch through
     their own deque; any other domain claims deque 0 (and keeps it
     across nested dispatches it issues while helping).  A second
     concurrent external dispatcher loses the claim and runs
     sequentially (counted as nested — the pool is already driven). *)
  let is_worker = match ctx.c_pool with Some p -> p == t | None -> false in
  let holds_owner =
    match ctx.c_owner with Some p -> p == t | None -> false
  in
  let qi = if is_worker then ctx.c_index else 0 in
  let claimed =
    (not is_worker) && not holds_owner
    && Atomic.compare_and_set t.owner_busy false true
  in
  if claimed then ctx.c_owner <- Some t;
  if (not is_worker) && not holds_owner && not claimed then
    sequential t Fb_nested n body
  else begin
    Functs_obs.Tracer.span_args "pool.dispatch"
      ~args:(fun () ->
        [ ("n", string_of_int n); ("chunks", string_of_int ntasks) ])
    @@ fun () ->
    let job =
      {
        j_body = body;
        j_depth = ctx.c_depth + 1;
        j_under = ntasks < t.lanes;
        j_pending = Atomic.make ntasks;
        j_err = Atomic.make None;
        j_fin_m = Mutex.create ();
        j_fin_c = Condition.create ();
      }
    in
    Atomic.incr t.active;
    let q = t.deques.(qi) in
    (* push high ranges first: the owner pops ascending (cache-warm
       continuation of whatever produced the data), thieves steal the
       far end *)
    for k = ntasks - 1 downto 0 do
      let lo = k * chunk and hi = min n ((k + 1) * chunk) in
      let tk = { tk_lo = lo; tk_hi = hi; tk_job = job } in
      if not (deque_push q tk) then run_task t tk ~stolen:false
    done;
    wake_workers t 1;
    let rec drain () =
      match deque_take q with
      | Some tk ->
          run_task t tk ~stolen:false;
          drain ()
      | None -> ()
    in
    drain ();
    (* whatever remains was stolen; help other jobs while waiting, and
       block (don't spin) once everything left is claimed — on an
       oversubscribed machine the claimant needs this CPU *)
    let rec wait () =
      if Atomic.get job.j_pending > 0 then begin
        (match steal_any t ~self:qi with
        | Stolen tk ->
            cascade t;
            run_task t tk ~stolen:true
        | Contended -> Domain.cpu_relax ()
        | Empty ->
            Mutex.lock job.j_fin_m;
            while Atomic.get job.j_pending > 0 do
              Condition.wait job.j_fin_c job.j_fin_m
            done;
            Mutex.unlock job.j_fin_m);
        wait ()
      end
    in
    wait ();
    Atomic.decr t.active;
    if claimed then begin
      ctx.c_owner <- None;
      Atomic.set t.owner_busy false
    end;
    Atomic.incr t.n_dispatches;
    Functs_obs.Metrics.incr dispatches_c;
    (match Atomic.get job.j_err with Some e -> raise e | None -> ());
    true
  end

let parallel_for ?(bytes_per_iter = 0) t ~grain ~n body =
  if n <= 0 then false
  else begin
    let grain = max 1 grain in
    let ctx = Domain.DLS.get ctx_key in
    (* cache-aware granularity: as many iterations as fit the per-lane
       cache budget, floored by the caller's grain, capped so each lane
       still sees several stealable tasks *)
    let chunk =
      let by_bytes =
        if bytes_per_iter > 0 then
          max 1 (chunk_bytes () / bytes_per_iter)
        else max_int
      in
      let denom = tasks_per_lane * min t.lanes (Lazy.force cores) in
      let balance = max 1 ((n + denom - 1) / denom) in
      max grain (min by_bytes balance)
    in
    let chunk = max chunk ((n + max_tasks - 1) / max_tasks) in
    let ntasks = (n + chunk - 1) / chunk in
    if (not t.live) || t.lanes < 2 then sequential t Fb_disabled n body
    else if
      ctx.c_depth >= max_depth
      || (ctx.c_depth >= 1 && not ctx.c_nested_ok)
    then sequential t Fb_nested n body
    else if ntasks < 2 then sequential t Fb_grain n body
    else dispatch t ctx ~n ~chunk ~ntasks body
  end

let dispatches t = Atomic.get t.n_dispatches
let seq_fallbacks t = Atomic.get t.n_sequential
let fallback_grain t = Atomic.get t.n_fb_grain
let fallback_nested t = Atomic.get t.n_fb_nested
let fallback_disabled t = Atomic.get t.n_fb_disabled
let steals t = Atomic.get t.n_steals
let inline_runs t = Atomic.get t.n_inline

(* --- shared pools --- *)

let shared_tbl : (int, t) Hashtbl.t = Hashtbl.create 4
let shared_mutex = Mutex.create ()
let () = at_exit (fun () -> Hashtbl.iter (fun _ p -> shutdown p) shared_tbl)

let shared ~lanes =
  let lanes = max 1 lanes in
  Mutex.lock shared_mutex;
  let p =
    match Hashtbl.find_opt shared_tbl lanes with
    | Some p when p.live -> p
    | _ ->
        let p = create ~lanes in
        Hashtbl.replace shared_tbl lanes p;
        p
  in
  Mutex.unlock shared_mutex;
  p

(* Bring-up: from source to the first verified result of each program.

   The same code runs in three kinds of process, all started with one
   artifact directory per benchmark run:

   - the cold child, on the empty directory (cold compile);
   - restart children, on the populated directory — a fresh process is
     what a restarting user gets, and only a fresh process that lowers the
     same programs in the same order reproduces the artifact digests (they
     are built from process-global value ids, so an in-process re-lowering
     never hits the disk cache);
   - the parent, which keeps what it brought up for the timed phase.

   Nothing may lower a graph before bring-up in any of them, or the ids
   (and so the digests) shift.

   In a traced process, each program is brought up by calling the layer
   functions one by one, in the order [Engine.prepare] composes them, so
   the JIT's share is timed directly (spans named [<layer>.<step>]). *)

open Functs

(* Times are wall seconds. *)
type outcome = {
  first_s : float;  (** source → first results, init included *)
  setup_s : float;  (** init plus every set-up call before the first request *)
  refs : float list;
      (** the references taken around the bring-up ({!reference}), in
          {!Probe.compile} seconds or {!Probe.compute} ms *)
  firsts : (string * Oracle.flat list option) list;
      (** program label → first result ([None]: it raised or was refused) *)
  counters : (string * int) list;  (** counter deltas over bring-up *)
  spans : Spans.span list;  (** traced processes only *)
  ir_nodes : int;
  kernels : int;
  offered : int;  (** groups offered to the JIT *)
  armed : int;  (** groups the JIT armed *)
  rss_mb : float;  (** the process's peak resident set after bring-up *)
}

(* Which host-speed reference a process takes: compile references (the
   cold child: two before the first program, one after each program and
   one more at the end) or compute references (restart children: ten
   before the bring-up and five after). *)
type reference = No_reference | Compile of string | Compute

type live = Engines of (Oracle.program * Engine.t) list | Session of Session.t

let count_nodes g =
  let n = ref 0 in
  Graph.iter_nodes g (fun _ -> incr n);
  !n

type layer_counts = {
  mutable nodes : int;
  mutable kernels : int;
  mutable offered : int;
  mutable armed : int;
}

(* The traced decomposition of [Engine.prepare] on an already
   functionalized graph. *)
let decompose (cfg : Config.t) lc g ~inputs =
  Spans.with_span "core.graph_stats" (fun () ->
      lc.nodes <- lc.nodes + count_nodes g);
  let plan =
    Spans.with_span "core.fusion" (fun () ->
        Fusion.plan ~fence_loop_assigns:true Compiler_profile.tensorssa g)
  in
  let shapes =
    Spans.with_span "ir.shape_infer" (fun () -> Shape_infer.infer g ~inputs)
  in
  let kernels =
    Spans.with_span "core.codegen" (fun () -> Codegen.emit g plan ~shapes)
  in
  lc.kernels <- lc.kernels + List.length kernels;
  let cands =
    Spans.with_span "exec.kernel_compile" (fun () ->
        List.filter
          (fun k -> Result.is_ok (Kernel_compile.compile k ~shapes))
          kernels)
  in
  lc.offered <- lc.offered + List.length cands;
  let armed =
    Spans.with_span "jit.prepare_groups" (fun () ->
        Jit.prepare_groups ~mode:cfg.Config.jit ~dir:cfg.Config.jit_dir
          ~kernels:cands ~shapes)
  in
  lc.armed <- lc.armed + List.length armed;
  Spans.with_span "exec.prepare" (fun () ->
      ignore (Engine.prepare ~jit:Jit.Off ~cache:false g ~inputs))

let first_result run (r : Oracle.request) =
  match run r.Oracle.r_args with
  | outs -> Some (List.map Oracle.flatten outs)
  | exception _ -> None

(* Bring up engines for [programs] ([firsts]: each program's first
   request, in program order). *)
let engines cfg ~trace ~between (firsts : Oracle.request list) lc =
  let first = ref 0. and setup = ref 0. in
  let live =
    List.map
      (fun (r : Oracle.request) ->
        let p = r.Oracle.r_program in
        let t0 = Util.now () in
        let g =
          Spans.with_span "frontend.lower" (fun () ->
              Workload.graph p.w ~batch:p.batch ~seq:p.seq)
        in
        Spans.with_span "core.tensorssa" (fun () ->
            ignore (Passes.tensorssa_pipeline g));
        let inputs = Engine.input_shapes r.Oracle.r_args in
        if trace then decompose cfg lc g ~inputs;
        let eng =
          Spans.with_span "exec.arm" (fun () -> Engine.prepare g ~inputs)
        in
        let t1 = Util.now () in
        let out =
          Spans.with_span "exec.first_run" (fun () ->
              first_result (Engine.run eng) r)
        in
        first := !first +. (Util.now () -. t0);
        setup := !setup +. (t1 -. t0);
        between ();
        ((p, eng), (p.Oracle.label, out)))
      firsts
  in
  (Engines (List.map fst live), List.map snd live, (!first, !setup))

(* Bring up one session for the single program of [firsts].  Traced
   processes then run the decomposition over the graphs the session
   builds (one per batch bucket), so the layer split is visible; it comes
   after the session so the session's own value ids (and so its artifact
   digests) are the same as in an untraced process. *)
let session (cfg : Config.t) ~trace ~between (firsts : Oracle.request list) lc =
  let r = List.hd firsts in
  let p = r.Oracle.r_program in
  let t0 = Util.now () in
  let sess =
    Spans.with_span "serve.create" (fun () ->
        match Session.create ~config:cfg ~batch:p.batch ~seq:p.seq p.w with
        | Ok s -> s
        | Error e -> failwith (Error.to_string e))
  in
  let t1 = Util.now () in
  let out =
    Spans.with_span "serve.first_run" (fun () ->
        first_result
          (fun args ->
            match Session.run sess args with
            | Ok outs -> outs
            | Error e -> failwith (Error.to_string e))
          r)
  in
  let t2 = Util.now () in
  between ();
  if trace then
    List.iter
      (fun k ->
        let g =
          Spans.with_span "frontend.lower" (fun () ->
              Workload.graph p.w ~batch:(k * p.batch) ~seq:p.seq)
        in
        Spans.with_span "core.tensorssa" (fun () ->
            ignore (Passes.tensorssa_pipeline g));
        let args = p.w.Workload.inputs ~batch:(k * p.batch) ~seq:p.seq in
        decompose cfg lc g ~inputs:(Engine.input_shapes args))
      cfg.Config.batch_buckets;
  (Session sess, [ (p.Oracle.label, out) ], (t2 -. t0, t1 -. t0))

(* [run ~serve ~trace ~reference ~init cfg firsts]: bring everything up
   under one [bench.bringup] root span; [init] is the wall time
   [Functs.init] took.  References are taken outside every timed
   interval. *)
let run ~serve ~trace ~reference ~init:init_s cfg firsts =
  let refs = ref [] in
  let take () =
    match reference with
    | No_reference -> ()
    | Compile dir -> refs := Probe.compile ~dir :: !refs
    | Compute -> refs := !refs @ List.init 5 (fun _ -> Probe.compute ())
  in
  take ();
  take ();
  (* inside a traced bring-up the references show as their own layer *)
  let between () =
    match reference with
    | Compile _ -> Spans.with_span "probe.compile" take
    | _ -> ()
  in
  if trace then Spans.start ();
  let c0 = Counters.take () in
  let lc = { nodes = 0; kernels = 0; offered = 0; armed = 0 } in
  let live, outs, (first_s, setup_s) =
    Spans.with_span "bench.bringup" (fun () ->
        if serve then session cfg ~trace ~between firsts lc
        else engines cfg ~trace ~between firsts lc)
  in
  take ();
  let c1 = Counters.take () in
  let spans = Spans.all () in
  Spans.stop ();
  ( live,
    {
      first_s = init_s +. first_s;
      setup_s = init_s +. setup_s;
      refs = List.rev !refs;
      firsts = outs;
      counters = Counters.diff c0 c1;
      spans;
      ir_nodes = lc.nodes;
      kernels = lc.kernels;
      offered = lc.offered;
      armed = lc.armed;
      rss_mb = Util.peak_rss_mb ();
    } )

let close = function
  | Session s -> Session.close s
  | Engines _ -> ()

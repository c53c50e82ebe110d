(* Differential validation of the fused execution engine: random
   imperative programs (including prim::If / prim::Loop) and every
   registered workload must produce the interpreter's outputs through the
   engine, sequentially and with horizontal parallelization; plus units
   for the storage pool, assign donation, and the slot-consistency rule of
   parallel-loop detection. *)

open Functs_ir
open Functs_core
open Functs_interp
open Functs_exec
open Functs_frontend
module T = Functs_tensor.Tensor

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let rows = Generators.rows

let inputs seed =
  let state = Random.State.make [| seed |] in
  [ Value.Tensor (T.rand state [| rows; rows |]); Value.Int 1 ]

let fresh_args seed () =
  List.map
    (function
      | Value.Tensor t -> Value.Tensor (T.clone t)
      | (Value.Int _ | Value.Float _ | Value.Bool _ | Value.List _) as v -> v)
    (inputs seed)

let engines_of g args =
  let fg = Graph.clone g in
  ignore (Passes.tensorssa_pipeline fg);
  let shapes = Engine.input_shapes args in
  ( Engine.prepare ~parallel:false fg ~inputs:shapes,
    Engine.prepare ~parallel:true ~domains:2 fg ~inputs:shapes )

let agrees g args_fn =
  let expected = Eval.run g (args_fn ()) in
  let eng, engp = engines_of g (args_fn ()) in
  let ok got = List.for_all2 Value.bits_equal expected got in
  (* repeated-call mode: the second run reuses pooled buffers, tuned
     kernel modes and (process-wide) the compile cache — it must agree
     exactly like the first *)
  ok (Engine.run eng (args_fn ()))
  && ok (Engine.run eng (args_fn ()))
  && ok (Engine.run engp (args_fn ()))
  && ok (Engine.run engp (args_fn ()))

(* One artifact directory for every native-lane engine of this suite
   (cleaned at exit), so a property run pays one cc per program. *)
let jit_dir =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "functs-exec-jit-%d" (Unix.getpid ()))
  in
  at_exit (fun () ->
      match Sys.readdir d with
      | files ->
          Array.iter
            (fun f -> try Sys.remove (Filename.concat d f) with _ -> ())
            files;
          (try Unix.rmdir d with _ -> ())
      | exception _ -> ());
  d

let native_engine ?(domains = 2) fg args =
  Engine.prepare ~parallel:true ~domains ~cache:false
    ~jit:Functs_jit.Jit.Auto ~jit_dir fg ~inputs:(Engine.input_shapes args)

(* Bitwise, except that vectorised transcendentals in fused kernels
   (libmvec, <= 4 ulp of scalar libm) may miss by a relative 1e-9; the
   per-node path above stays bitwise. *)
let native_equal expected got =
  List.length expected = List.length got
  && List.for_all2
       (fun e g ->
         match (e, g) with
         | Value.Tensor te, Value.Tensor tg ->
             T.to_flat_array te = T.to_flat_array tg
             || T.allclose ~atol:1e-12 ~rtol:1e-9 te tg
         | _ -> Value.equal ~atol:1e-4 e g)
       expected got

(* Native launches seen by the random-program leg below. *)
let native_runs = ref 0

let agrees_native g args_fn =
  let expected = Eval.run g (args_fn ()) in
  let fg = Graph.clone g in
  ignore (Passes.tensorssa_pipeline fg);
  let eng = native_engine fg (args_fn ()) in
  let ok = native_equal expected (Engine.run eng (args_fn ())) in
  let ok = ok && native_equal expected (Engine.run eng (args_fn ())) in
  native_runs := !native_runs + (Engine.stats eng).Scheduler.jit_runs;
  ok

(* --- units --- *)

let test_pool_reuse () =
  let pool = Buffer_plan.create_pool () in
  let t1 = Buffer_plan.alloc pool [| 4; 4 |] in
  Buffer_plan.release pool t1;
  Buffer_plan.release pool t1;
  (* double release is ignored *)
  let t2 = Buffer_plan.alloc pool [| 2; 8 |] in
  check "released storage is recycled across shapes" true
    (T.same_storage t1 t2);
  check_int "one fresh allocation" 1 (Buffer_plan.fresh_allocs pool);
  check_int "one reuse" 1 (Buffer_plan.reuses pool);
  let t3 = Buffer_plan.alloc pool [| 4; 4 |] in
  check "no free storage left" false (T.same_storage t1 t3);
  Buffer_plan.release pool (T.ones [| 4; 4 |])
(* foreign tensors are ignored *)

let test_pool_foreign_not_recycled () =
  let pool = Buffer_plan.create_pool () in
  let mine = T.ones [| 16 |] in
  Buffer_plan.release pool mine;
  let t = Buffer_plan.alloc pool [| 16 |] in
  check "pool never recycles storage it did not allocate" false
    (T.same_storage mine t)

(* --- domain pool --- *)

let test_pool_exception () =
  let pool = Pool.create ~lanes:2 in
  let touched = Array.make 8 false in
  let raised =
    try
      ignore
        (Pool.parallel_for pool ~grain:1 ~n:8 (fun lo hi ->
             for i = lo to hi - 1 do
               touched.(i) <- true
             done;
             if lo >= 4 then failwith "chunk boom"));
      false
    with Failure m -> m = "chunk boom"
  in
  check "worker exception re-raised on the caller" true raised;
  check "every chunk still ran before the re-raise" true
    (Array.for_all (fun b -> b) touched);
  (* the pool survives a failed dispatch *)
  let acc = Atomic.make 0 in
  ignore
    (Pool.parallel_for pool ~grain:1 ~n:4 (fun lo hi ->
         ignore (Atomic.fetch_and_add acc (hi - lo))));
  check_int "subsequent dispatch covers the whole range" 4 (Atomic.get acc);
  Pool.shutdown pool

let test_pool_nested () =
  let pool = Pool.create ~lanes:2 in
  let acc = Array.make 16 0 in
  ignore
    (Pool.parallel_for pool ~grain:1 ~n:4 (fun lo hi ->
         for i = lo to hi - 1 do
           (* a dispatch from a worker must degrade to sequential; one from
              the caller while the worker is busy must run inline — either
              way no deadlock and every element exactly once *)
           ignore
             (Pool.parallel_for pool ~grain:1 ~n:4 (fun l h ->
                  for j = l to h - 1 do
                    acc.((i * 4) + j) <- acc.((i * 4) + j) + 1
                  done))
         done));
  check "nested dispatch touched every element exactly once" true
    (Array.for_all (fun v -> v = 1) acc);
  Pool.shutdown pool

let test_pool_bitwise_kernels () =
  let module Scalar = Functs_tensor.Scalar in
  let state = Random.State.make [| 11 |] in
  let a = T.rand state [| 37; 65 |] in
  let b = T.rand state [| 37; 65 |] in
  let m = T.rand state [| 19; 33 |] in
  let n = T.rand state [| 33; 21 |] in
  let seq f =
    Fastops.set_parallel None ~grain:8192;
    f ()
  in
  let par f =
    let pool = Pool.create ~lanes:3 in
    Fastops.set_parallel (Some pool) ~grain:16;
    let r = f () in
    Fastops.set_parallel None ~grain:8192;
    Pool.shutdown pool;
    r
  in
  let same name f =
    check
      (name ^ " is bitwise identical under intra-kernel chunking")
      true
      (T.to_flat_array (seq f) = T.to_flat_array (par f))
  in
  same "binary add" (fun () -> Fastops.binary Scalar.Add a b);
  same "matmul" (fun () -> Fastops.matmul m n);
  same "softmax" (fun () -> Fastops.softmax a ~dim:1);
  same "sum_dim" (fun () -> Fastops.sum_dim a ~dim:1 ~keepdim:false)

(* Every per-node elementwise map against the reference operators, bit
   for bit, over the layouts the strided iterator must handle — contiguous,
   transposed, step-sliced, broadcast (stride 0), size-1 dims, 0-d, empty,
   a rank-broadcast operand and a 4-d view that does not coalesce — with
   the float edge values (NaN payloads, signed zeros, infinities) in
   every operand, sequentially and chunked across a pool. *)
let edge_values =
  [|
    Float.nan;
    Int64.float_of_bits 0x7ff8000000000123L;
    Int64.float_of_bits 0xfff8000000000000L;
    0.0;
    -0.0;
    Float.infinity;
    Float.neg_infinity;
    1.5;
    -2.5;
    0.25;
  |]

(* [fill seed t] writes edge value [(i / seed + i) mod n] at logical
   element [i], so two operands with distinct seeds meet in many
   pairs. *)
let fill seed (t : T.t) =
  let n = Array.length edge_values and i = ref 0 in
  Functs_tensor.Shape.iter_indices (T.shape t) (fun ix ->
      T.set t ix edge_values.(((!i / seed) + !i) mod n);
      incr i);
  t

let s4 = [| 3; 5; 2; 4 |]

(* (name, fresh view) pairs; every view but the last four has shape [s4]. *)
let layouts =
  [
    ("contiguous", fun () -> T.zeros s4);
    ( "transposed",
      fun () -> T.transpose (T.zeros [| 3; 5; 4; 2 |]) ~dim0:2 ~dim1:3 );
    ( "step-sliced",
      fun () ->
        let t =
          T.slice (T.zeros [| 6; 5; 2; 8 |]) ~dim:0 ~start:1 ~stop:6 ~step:2
        in
        T.slice t ~dim:3 ~start:0 ~stop:8 ~step:2 );
    ("expanded", fun () -> T.expand (T.zeros [| 3; 1; 2; 1 |]) s4);
    ( "4-d uncoalescable",
      fun () -> T.permute (T.zeros [| 2; 3; 4; 5 |]) [| 1; 3; 0; 2 |] );
    ("rank-broadcast", fun () -> T.zeros [| 5; 1; 4 |]);
    ( "size-1 dims",
      fun () ->
        let t = T.narrow (T.zeros [| 3; 2; 5; 3; 4 |]) ~dim:1 ~start:1 ~len:1 in
        T.narrow t ~dim:3 ~start:2 ~len:1 );
    ("0-d", fun () -> T.scalar 0.0);
    ("empty", fun () -> T.zeros [| 3; 0; 4 |]);
  ]

let test_fastops_layouts () =
  let module Scalar = Functs_tensor.Scalar in
  let module Shape = Functs_tensor.Shape in
  let module Ops = Functs_tensor.Ops in
  let same name expected got =
    if not (Value.bits_equal (Value.Tensor expected) (Value.Tensor got)) then
      Alcotest.failf "%s differs from the reference" name
  in
  let broadcast ts =
    match List.fold_left (fun s t -> Shape.broadcast s (T.shape t)) [||] ts with
    | s -> Some s
    | exception Invalid_argument _ -> None
  in
  (* a destination view of [mk] inside a sentinel-filled base *)
  let dst mk =
    let v = mk () in
    let storage = v.T.storage in
    let base = T.of_storage storage [| Functs_tensor.Storage.length storage |] in
    T.mapi_inplace base (fun _ _ -> -7.0);
    (base, v)
  in
  let check_all mode =
    List.iter
      (fun (ln, mk) ->
        let a = fill 1 (mk ()) in
        List.iter
          (fun fn ->
            same
              (Printf.sprintf "%s %s (%s)" (Scalar.unary_name fn) ln mode)
              (Ops.unary fn a) (Fastops.unary fn a))
          Scalar.all_unary;
        same
          (Printf.sprintf "clone %s (%s)" ln mode)
          (T.clone a) (Fastops.clone a);
        List.iter
          (fun (ln', mk') ->
            let b = fill 10 (mk' ()) and c = fill 3 (mk ()) in
            if broadcast [ a; b ] <> None then
              List.iter
                (fun fn ->
                  same
                    (Printf.sprintf "%s %s x %s (%s)" (Scalar.binary_name fn) ln
                       ln' mode)
                    (Ops.binary fn a b) (Fastops.binary fn a b))
                Scalar.all_binary;
            if broadcast [ c; a; b ] <> None then
              same
                (Printf.sprintf "where %s x %s (%s)" ln ln' mode)
                (Ops.where c a b) (Fastops.where c a b);
            let rb, rv = dst mk' and fb, fv = dst mk' in
            if broadcast [ a; rv ] = Some (T.shape rv) then begin
              ignore (Functs_tensor.Inplace.copy_ rv a);
              Fastops.copy_into fv a;
              same (Printf.sprintf "copy_into %s <- %s (%s)" ln' ln mode) rb fb
            end)
          layouts)
      layouts
  in
  Fastops.set_parallel None ~grain:8192;
  check_all "sequential";
  let pool = Pool.create ~lanes:2 in
  Fun.protect
    ~finally:(fun () ->
      Fastops.set_parallel None ~grain:8192;
      Pool.shutdown pool)
    (fun () ->
      Fastops.set_parallel (Some pool) ~grain:4;
      check_all "chunked")

let test_pool_shutdown_joins () =
  (* 150 create/shutdown cycles would blow OCaml's live-domain limit
     (~128) if shutdown leaked its workers. *)
  for _ = 1 to 150 do
    let pool = Pool.create ~lanes:2 in
    let acc = Atomic.make 0 in
    ignore
      (Pool.parallel_for pool ~grain:1 ~n:4 (fun lo hi ->
           ignore (Atomic.fetch_and_add acc (hi - lo))));
    check_int "range covered" 4 (Atomic.get acc);
    Pool.shutdown pool;
    Pool.shutdown pool (* idempotent *)
  done;
  let pool = Pool.create ~lanes:2 in
  Pool.shutdown pool;
  let covered = ref 0 in
  let went_parallel =
    Pool.parallel_for pool ~grain:1 ~n:8 (fun lo hi ->
        covered := !covered + (hi - lo))
  in
  check "post-shutdown dispatch degrades to sequential" false went_parallel;
  check_int "and still executes the whole range" 8 !covered

(* Multi-producer steal contention: an under-subscribed outer dispatch
   lets every task nested-dispatch, so up to four deques carry tasks at
   once and idle lanes steal across all of them.  Every (outer, inner)
   pair must run exactly once, and the steal/inline counters must
   account for the traffic. *)
let test_pool_steal_stress () =
  let pool = Pool.create ~lanes:4 in
  Pool.set_chunk_bytes 64;
  Fun.protect
    ~finally:(fun () ->
      Pool.set_chunk_bytes 0;
      Pool.shutdown pool)
    (fun () ->
      let outer = 3 and inner = 1365 in
      let hits = Array.init outer (fun _ -> Array.make inner 0) in
      let steals0 = Pool.steals pool and inline0 = Pool.inline_runs pool in
      for _ = 1 to 5 do
        Array.iter (fun row -> Array.fill row 0 inner 0) hits;
        ignore
          (Pool.parallel_for pool ~grain:1 ~n:outer (fun lo hi ->
               for i = lo to hi - 1 do
                 ignore
                   (Pool.parallel_for pool ~bytes_per_iter:8 ~grain:1
                      ~n:inner (fun l h ->
                        for j = l to h - 1 do
                          hits.(i).(j) <- hits.(i).(j) + 1
                        done))
               done));
        check "steal stress: every index exactly once" true
          (Array.for_all (Array.for_all (fun v -> v = 1)) hits)
      done;
      check "steal stress: tasks were executed and counted" true
        (Pool.steals pool - steals0 + (Pool.inline_runs pool - inline0) > 0))

(* Range-coverage property at the grain edges, under a chunk budget
   small enough that the cost model, not the lane count, decides the
   task count. *)
let test_pool_grain_edges () =
  let pool = Pool.create ~lanes:4 in
  Pool.set_chunk_bytes 128;
  Fun.protect
    ~finally:(fun () ->
      Pool.set_chunk_bytes 0;
      Pool.shutdown pool)
    (fun () ->
      let state = Random.State.make [| 2024 |] in
      let grain = 7 in
      let cases =
        [ 0; 1; grain; (2 * grain) - 1; 2 * grain ]
        @ List.init 8 (fun _ -> Random.State.int state 5000)
      in
      List.iter
        (fun n ->
          let hits = Array.make (max n 1) 0 in
          let went =
            Pool.parallel_for pool ~bytes_per_iter:16 ~grain ~n
              (fun lo hi ->
                for i = lo to hi - 1 do
                  hits.(i) <- hits.(i) + 1
                done)
          in
          if n = 0 then
            check "empty range never dispatches" false went;
          check
            (Printf.sprintf "n=%d covered exactly once" n)
            true
            (Array.for_all (fun v -> v = 1) (Array.sub hits 0 n)))
        cases)

(* Depth-limited nesting: tasks of an under-subscribed dispatch may
   dispatch again (the pool has idle lanes to offer), but depth 2 always
   degrades to sequential. *)
let test_pool_nested_undersubscribed () =
  let pool = Pool.create ~lanes:4 in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let inner_went = Array.make 2 false in
      let deep_went = ref false in
      let hits = Array.make 128 0 in
      ignore
        (Pool.parallel_for pool ~grain:1 ~n:2 (fun lo hi ->
             for i = lo to hi - 1 do
               inner_went.(i) <-
                 Pool.parallel_for pool ~grain:1 ~n:64 (fun l h ->
                     for j = l to h - 1 do
                       hits.((i * 64) + j) <- hits.((i * 64) + j) + 1;
                       if
                         Pool.parallel_for pool ~grain:1 ~n:4 (fun _ _ -> ())
                       then deep_went := true
                     done)
             done));
      check "under-subscribed outer lets both tasks dispatch" true
        (Array.for_all (fun b -> b) inner_went);
      check "depth-2 dispatch degrades to sequential" false !deep_went;
      check "nested ranges covered exactly once" true
        (Array.for_all (fun v -> v = 1) hits))

(* A carried-store loop: the lstm pattern whose per-iteration whole-tensor
   clone the donation path eliminates.  Engine output must still match. *)
let carried_store_graph () =
  let b =
    Builder.create "carried"
      ~params:[ ("x", Dtype.Tensor); ("n", Dtype.Scalar Dtype.Int) ]
  in
  let x = Builder.param b 0 and n = Builder.param b 1 in
  let t = Builder.clone b x in
  let one = Builder.float b 1.0 in
  let outs =
    Builder.loop b ~trip:n ~init:[ t ]
      ~body:(fun ~i ~carried ->
        match carried with
        | [ v ] ->
            let row = Builder.op1 b (Op.Access (Op.Select { dim = 0 })) [ v; i ] in
            let s = Builder.add b row one in
            let v' =
              Builder.op1 b (Op.Assign (Op.Select { dim = 0 })) [ v; s; i ]
            in
            [ v' ]
        | _ -> assert false)
  in
  Builder.return b outs;
  Builder.graph b

(* --- compile cache --- *)

let cache_counters () =
  let c = Compiler_profile.cache_snapshot () in
  ( c.Compiler_profile.cache_hits,
    c.Compiler_profile.cache_misses,
    c.Compiler_profile.cache_evictions )

let test_cache_hit_same_shape () =
  Engine.clear_cache ();
  Compiler_profile.reset_compile_cache ();
  let g = carried_store_graph () in
  let fg = Graph.clone g in
  ignore (Passes.tensorssa_pipeline fg);
  let args () = [ Value.Tensor (T.ones [| 6; 4 |]); Value.Int 6 ] in
  let shapes = Engine.input_shapes (args ()) in
  let e1 = Engine.prepare ~parallel:false fg ~inputs:shapes in
  let e2 = Engine.prepare ~parallel:false fg ~inputs:shapes in
  let hits, misses, _ = cache_counters () in
  check_int "first prepare misses" 1 misses;
  check_int "second prepare hits" 1 hits;
  check "the hit returns the already-lowered engine" true (e1 == e2);
  let expected = Eval.run g (args ()) in
  let ok got = List.for_all2 (Value.equal ~atol:1e-6) expected got in
  check "cold engine matches the interpreter" true
    (ok (Engine.run e1 (args ())));
  check "warm engine matches the interpreter" true
    (ok (Engine.run e2 (args ())))

let test_cache_shape_miss () =
  Engine.clear_cache ();
  Compiler_profile.reset_compile_cache ();
  let g = carried_store_graph () in
  let fg = Graph.clone g in
  ignore (Passes.tensorssa_pipeline fg);
  let args shape trip = [ Value.Tensor (T.ones shape); Value.Int trip ] in
  let prep shape trip =
    Engine.prepare ~parallel:false fg
      ~inputs:(Engine.input_shapes (args shape trip))
  in
  let e1 = prep [| 6; 4 |] 6 in
  let e2 = prep [| 9; 3 |] 9 in
  let hits, misses, _ = cache_counters () in
  check_int "a changed input shape misses" 2 misses;
  check_int "and never hits" 0 hits;
  check "the recompile is a distinct engine" true (not (e1 == e2));
  let expected = Eval.run g (args [| 9; 3 |] 9) in
  check "the recompiled engine matches the interpreter on the new shape"
    true
    (List.for_all2 (Value.equal ~atol:1e-6) expected
       (Engine.run e2 (args [| 9; 3 |] 9)))

let test_cache_eviction () =
  let capacity = Engine.cache_capacity () in
  Engine.set_cache_capacity 2;
  Engine.clear_cache ();
  Compiler_profile.reset_compile_cache ();
  let fg = Graph.clone (carried_store_graph ()) in
  ignore (Passes.tensorssa_pipeline fg);
  let prep rows =
    ignore
      (Engine.prepare ~parallel:false fg
         ~inputs:
           (Engine.input_shapes
              [ Value.Tensor (T.ones [| rows; 4 |]); Value.Int rows ]))
  in
  List.iter prep [ 3; 4; 5; 6 ];
  let _, misses, evictions = cache_counters () in
  Engine.set_cache_capacity capacity;
  check_int "four distinct shapes all miss" 4 misses;
  check_int "capacity 2 evicts the two oldest" 2 evictions;
  check "residency is bounded by capacity" true (Engine.cache_entries () <= 2);
  Engine.clear_cache ()

let test_donation_loop () =
  let g = carried_store_graph () in
  let args () = [ Value.Tensor (T.ones [| 6; 4 |]); Value.Int 6 ] in
  let expected = Eval.run g (args ()) in
  let fg = Graph.clone g in
  ignore (Passes.tensorssa_pipeline fg);
  let eng = Engine.prepare ~parallel:false fg ~inputs:(Engine.input_shapes (args ())) in
  let got = Engine.run eng (args ()) in
  check "engine matches interpreter" true
    (List.for_all2 (Value.equal ~atol:1e-6) expected got);
  let s = Engine.stats eng in
  check "later iterations donate in place" true (s.Scheduler.donations >= 4)

let test_engine_never_mutates_args () =
  let g = carried_store_graph () in
  let input = T.ones [| 6; 4 |] in
  let fg = Graph.clone g in
  ignore (Passes.tensorssa_pipeline fg);
  let eng =
    Engine.prepare fg
      ~inputs:(Engine.input_shapes [ Value.Tensor input; Value.Int 6 ])
  in
  ignore (Engine.run eng [ Value.Tensor input; Value.Int 6 ]);
  check "caller tensor untouched" true
    (T.allclose input (T.ones [| 6; 4 |]))

(* Parallel-loop detection: returns must hand each slot its own version.
   A loop swapping its two carried tensors passes the per-use rules but
   has a genuine cross-iteration dependence. *)
let two_carried_graph ~swap =
  let b =
    Builder.create
      (if swap then "swap" else "straight")
      ~params:[ ("x", Dtype.Tensor); ("n", Dtype.Scalar Dtype.Int) ]
  in
  let x = Builder.param b 0 and n = Builder.param b 1 in
  let a = Builder.clone b x in
  let c = Builder.clone b x in
  let one = Builder.float b 1.0 in
  let outs =
    Builder.loop b ~trip:n ~init:[ a; c ]
      ~body:(fun ~i ~carried ->
        match carried with
        | [ p; q ] ->
            let row = Builder.op1 b (Op.Access (Op.Select { dim = 0 })) [ p; i ] in
            let s = Builder.add b row one in
            let p' =
              Builder.op1 b (Op.Assign (Op.Select { dim = 0 })) [ p; s; i ]
            in
            if swap then [ q; p' ] else [ p'; q ]
        | _ -> assert false)
  in
  Builder.return b outs;
  Builder.graph b

let loop_node g =
  List.find (fun (n : Graph.node) -> n.n_op = Op.Loop) (Graph.all_nodes g)

let test_parallel_slot_consistency () =
  let straight = two_carried_graph ~swap:false in
  let swapped = two_carried_graph ~swap:true in
  let plan g = Fusion.plan Compiler_profile.tensorssa g in
  check "slot-consistent loop parallelizes" true
    (Fusion.is_parallel_loop (plan straight) (loop_node straight));
  check "slot-crossing loop is sequential" false
    (Fusion.is_parallel_loop (plan swapped) (loop_node swapped));
  (* and both still execute correctly through the engine *)
  let args () = [ Value.Tensor (T.ones [| 5; 4 |]); Value.Int 5 ] in
  check "swap semantics preserved" true (agrees swapped args);
  check "straight semantics preserved" true (agrees straight args)

(* --- adversarial dependence analysis ---
   Each graph below is crafted to look batchable while hiding a genuine
   cross-iteration dependence; the classifier must refuse (with a reason)
   and the engine must still match the interpreter through the
   sequential path. *)

let seq_reason g =
  let plan = Fusion.plan Compiler_profile.tensorssa g in
  match Fusion.loop_verdict plan (loop_node g) with
  | Loop_par.Sequential m -> Some m
  | Loop_par.Parallel _ | Loop_par.Reduction _ -> None

(* Iteration i writes rows [i, i+2): consecutive iterations overlap on a
   shared row, so iteration order is observable. *)
let overlapping_slice_graph () =
  let b =
    Builder.create "overlap"
      ~params:[ ("x", Dtype.Tensor); ("n", Dtype.Scalar Dtype.Int) ]
  in
  let x = Builder.param b 0 and n = Builder.param b 1 in
  let t = Builder.clone b x in
  let one = Builder.float b 1.0 in
  let outs =
    Builder.loop b ~trip:n ~init:[ t ]
      ~body:(fun ~i ~carried ->
        match carried with
        | [ v ] ->
            let hi = Builder.scalar_binary b Functs_tensor.Scalar.Add i (Builder.int b 2) in
            let win =
              Builder.op1 b (Op.Access (Op.Slice { dim = 0; step = 1 })) [ v; i; hi ]
            in
            let s = Builder.add b win one in
            [ Builder.op1 b (Op.Assign (Op.Slice { dim = 0; step = 1 })) [ v; s; i; hi ] ]
        | _ -> assert false)
  in
  Builder.return b outs;
  Builder.graph b

(* Iteration i writes rows {i, i+2} through a step-2 slice: iterations i
   and i+2 alias even though each window looks i-indexed. *)
let strided_alias_graph () =
  let b =
    Builder.create "strided"
      ~params:[ ("x", Dtype.Tensor); ("n", Dtype.Scalar Dtype.Int) ]
  in
  let x = Builder.param b 0 and n = Builder.param b 1 in
  let t = Builder.clone b x in
  let one = Builder.float b 1.0 in
  let outs =
    Builder.loop b ~trip:n ~init:[ t ]
      ~body:(fun ~i ~carried ->
        match carried with
        | [ v ] ->
            let hi = Builder.scalar_binary b Functs_tensor.Scalar.Add i (Builder.int b 4) in
            let win =
              Builder.op1 b (Op.Access (Op.Slice { dim = 0; step = 2 })) [ v; i; hi ]
            in
            let s = Builder.add b win one in
            [ Builder.op1 b (Op.Assign (Op.Slice { dim = 0; step = 2 })) [ v; s; i; hi ] ]
        | _ -> assert false)
  in
  Builder.return b outs;
  Builder.graph b

(* acc = acc - x[i] is order-sensitive: Sub must not be treated as an
   associative reduction. *)
let reduction_graph op =
  let b =
    Builder.create
      ("red_" ^ Functs_tensor.Scalar.binary_name op)
      ~params:[ ("x", Dtype.Tensor); ("n", Dtype.Scalar Dtype.Int) ]
  in
  let x = Builder.param b 0 and n = Builder.param b 1 in
  let acc0 =
    Builder.clone b
      (Builder.op1 b (Op.Access (Op.Select { dim = 0 })) [ x; Builder.int b 0 ])
  in
  let outs =
    Builder.loop b ~trip:n ~init:[ acc0 ]
      ~body:(fun ~i ~carried ->
        match carried with
        | [ acc ] ->
            let row = Builder.op1 b (Op.Access (Op.Select { dim = 0 })) [ x; i ] in
            [ Builder.binary b op acc row ]
        | _ -> assert false)
  in
  Builder.return b outs;
  Builder.graph b

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let test_adversarial_sequential () =
  let expect name g sub =
    match seq_reason g with
    | Some m ->
        check (name ^ " reason mentions " ^ sub) true (contains ~sub m)
    | None -> Alcotest.fail (name ^ " wrongly classified batchable")
  in
  expect "overlapping slices" (overlapping_slice_graph ()) "disjoint";
  expect "stride-aliased views" (strided_alias_graph ()) "disjoint";
  expect "non-associative accumulator"
    (reduction_graph Functs_tensor.Scalar.Sub)
    "non-associative";
  (* crossed carried slots (the swap graph of the slot-consistency test) *)
  expect "crossed carried slots" (two_carried_graph ~swap:true) "crossed";
  (* and every refused loop still executes correctly (sequential path) *)
  let args () = [ Value.Tensor (T.ones [| 8; 4 |]); Value.Int 4 ] in
  check "overlap semantics preserved" true (agrees (overlapping_slice_graph ()) args);
  check "strided semantics preserved" true (agrees (strided_alias_graph ()) args);
  let rargs () = [ Value.Tensor (T.ones [| 8; 4 |]); Value.Int 8 ] in
  check "sub-accumulator semantics preserved" true
    (agrees (reduction_graph Functs_tensor.Scalar.Sub) rargs)

(* Batched execution must be bitwise-identical: a Parallel loop and a
   reduction at domains=1 (sequential path) vs domains=4 (batched), and
   an Add reduction across two batched domain counts (same fixed chunk
   grid, same merge order). *)
let bitwise_outputs g ~domains args =
  let fg = Graph.clone g in
  ignore (Passes.tensorssa_pipeline fg);
  let eng =
    Engine.prepare ~parallel:true ~domains ~cache:false fg
      ~inputs:(Engine.input_shapes args)
  in
  let out = Engine.run eng args in
  (out, Engine.stats eng)

let flat = function
  | Value.Tensor t -> T.to_flat_array t
  | _ -> Alcotest.fail "expected tensor output"

let test_batched_bitwise () =
  let state = Random.State.make [| 99 |] in
  let x = T.rand state [| 12; 16 |] in
  let args trip () = [ Value.Tensor (T.clone x) ; Value.Int trip ] in
  (* A tiny per-task cache budget forces many stealable tasks, so these
     gates exercise the work-stealing path, not just the two-chunk
     split. *)
  Pool.set_chunk_bytes 256;
  Fun.protect ~finally:(fun () -> Pool.set_chunk_bytes 0)
  @@ fun () ->
  let bitwise name g trip d1 d2 =
    let o1, s1 = bitwise_outputs g ~domains:d1 (args trip ()) in
    let o2, s2 = bitwise_outputs g ~domains:d2 (args trip ()) in
    check
      (Printf.sprintf "%s bitwise at domains=%d vs %d" name d1 d2)
      true
      (List.for_all2 (fun a b -> flat a = flat b) o1 o2);
    (name, s1, s2)
  in
  let _, _, sp = bitwise "parallel loop" (carried_store_graph ()) 12 1 4 in
  check "domains=4 run batched the loop" true
    (sp.Scheduler.last_parallel_loops >= 1);
  let _, _, sm = bitwise "max reduction" (reduction_graph Functs_tensor.Scalar.Max) 12 1 4 in
  check "max reduction ran as a batched reduction" true
    (sm.Scheduler.last_reduction_loops >= 1);
  (* Add is only associative up to rounding, so compare the two batched
     engines (identical chunk grid) rather than batched vs sequential. *)
  ignore (bitwise "add reduction" (reduction_graph Functs_tensor.Scalar.Add) 12 2 4);
  (* batched max still equals the interpreter exactly: elementwise Max is
     exactly associative *)
  let g = reduction_graph Functs_tensor.Scalar.Max in
  let expected = Eval.run g (args 12 ()) in
  let got, _ = bitwise_outputs g ~domains:4 (args 12 ()) in
  check "max reduction bitwise vs interpreter" true
    (List.for_all2 (fun a b -> flat a = flat b) expected got)

let test_workloads_equivalent () =
  List.iter
    (fun (o : Equiv.outcome) ->
      check
        (Printf.sprintf "%s (%s)" o.Equiv.o_workload o.Equiv.o_detail)
        true o.Equiv.o_ok)
    (Equiv.check_all ())

let test_kernels_actually_compile () =
  (* The harness only proves agreement; this pins that the native kernel
     path really runs on a fusion-rich workload (with the JIT off every
     group runs per node, so there is no kernel to run). *)
  let w =
    match Functs_workloads.Registry.find "attention" with
    | Some w -> w
    | None -> Alcotest.fail "attention workload missing"
  in
  let batch = w.Functs_workloads.Workload.default_batch
  and seq = w.Functs_workloads.Workload.default_seq in
  let g = Functs_workloads.Workload.graph w ~batch ~seq in
  ignore (Passes.tensorssa_pipeline g);
  let args = w.Functs_workloads.Workload.inputs ~batch ~seq in
  let eng = native_engine g args in
  ignore (Engine.run eng args);
  let s = Engine.stats eng in
  if Functs_jit.Jit.c_toolchain_available () then begin
    check "some groups armed natively" true (s.Scheduler.compiled > 0);
    check "native kernels executed" true (s.Scheduler.kernel_runs > 0)
  end
  else check_int "no C compiler: nothing armed" 0 s.Scheduler.compiled

(* --- properties --- *)

let prop_engine_matches_interp =
  QCheck2.Test.make
    ~name:"engine matches the interpreter on random programs (if/loop)"
    ~count:150 ~print:Generators.print_program Generators.gen_program
    (fun p ->
      let g = Lower.program p in
      agrees g (fresh_args 42))

let prop_engine_matches_interp_straightline =
  QCheck2.Test.make
    ~name:"engine matches the interpreter on straight-line programs"
    ~count:150 ~print:Generators.print_program
    Generators.gen_straightline_program
    (fun p ->
      let g = Lower.program p in
      agrees g (fresh_args 7))

(* The native lane on random programs.  Each program is one cc compile
   (about 0.5 s at -O3 for the host's ISA on a 2-core x86 host), so the
   count keeps the leg short, and a fixed seed keeps it reproducible. *)
let prop_native_matches_interp =
  QCheck2.Test.make
    ~name:"native lane matches the interpreter on random programs"
    ~count:12 ~print:Generators.print_program Generators.gen_program
    (fun p ->
      let g = Lower.program p in
      agrees_native g (fresh_args 11))

let test_native_ran () =
  if Functs_jit.Jit.c_toolchain_available () then
    check "native kernels ran on random programs" true (!native_runs > 0)

let () =
  Alcotest.run "exec"
    [
      ( "buffers",
        [
          Alcotest.test_case "pool reuse" `Quick test_pool_reuse;
          Alcotest.test_case "foreign storage" `Quick
            test_pool_foreign_not_recycled;
        ] );
      ( "pool",
        [
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exception;
          Alcotest.test_case "nested dispatch" `Quick test_pool_nested;
          Alcotest.test_case "bitwise-identical kernels" `Quick
            test_pool_bitwise_kernels;
          Alcotest.test_case "elementwise layouts x float edges" `Quick
            test_fastops_layouts;
          Alcotest.test_case "shutdown joins all domains" `Quick
            test_pool_shutdown_joins;
          Alcotest.test_case "steal contention stress" `Quick
            test_pool_steal_stress;
          Alcotest.test_case "grain edges covered" `Quick
            test_pool_grain_edges;
          Alcotest.test_case "nested under-subscribed dispatch" `Quick
            test_pool_nested_undersubscribed;
        ] );
      ( "cache",
        [
          Alcotest.test_case "same shape hits" `Quick
            test_cache_hit_same_shape;
          Alcotest.test_case "changed shape misses" `Quick
            test_cache_shape_miss;
          Alcotest.test_case "LRU eviction" `Quick test_cache_eviction;
        ] );
      ( "engine",
        [
          Alcotest.test_case "donation loop" `Quick test_donation_loop;
          Alcotest.test_case "args never mutated" `Quick
            test_engine_never_mutates_args;
          Alcotest.test_case "parallel slot consistency" `Quick
            test_parallel_slot_consistency;
          Alcotest.test_case "kernel path exercised" `Quick
            test_kernels_actually_compile;
          Alcotest.test_case "workload equivalence" `Slow
            test_workloads_equivalent;
        ] );
      ( "adversarial",
        [
          Alcotest.test_case "hidden dependences stay sequential" `Quick
            test_adversarial_sequential;
          Alcotest.test_case "batched loops bitwise" `Quick
            test_batched_bitwise;
        ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_engine_matches_interp_straightline;
            prop_engine_matches_interp;
          ]
        @ [
            QCheck_alcotest.to_alcotest
              ~rand:(Random.State.make [| 20261017 |])
              prop_native_matches_interp;
            Alcotest.test_case "native lane ran" `Quick test_native_ran;
          ] );
    ]

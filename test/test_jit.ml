(* The native JIT backend: differential equivalence of every registered
   workload under FUNCTS_JIT=auto — once, and repeatedly through the
   tuner's arms — against the reference interpreter, a
   bitwise edge table for the float operations whose NaN and signed-zero
   rules C does not share with OCaml, graceful per-group fallback when
   the toolchain is missing, fails to compile (wholly or in one part), or
   the artifact directory is unusable, the split compile (one artifact
   from [min nfns cores] concurrently compiled parts), the on-disk
   artifact cache (warm loads and re-lowered programs compile nothing;
   stale, retired-lane and foreign-target artifacts are evicted), and
   the tuner's journal (units, engine tags).

   Every test degrades to a meaningful assertion when the host has no C
   compiler: the differential legs then prove the fallback ladder
   (identical outputs, zero armed groups, fallback ticks). *)

open Functs

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let rec rm_rf d =
  match Sys.readdir d with
  | files ->
      Array.iter
        (fun f ->
          let p = Filename.concat d f in
          try if Sys.is_directory p then rm_rf p else Sys.remove p
          with _ -> ())
        files;
      (try Unix.rmdir d with _ -> ())
  | exception _ -> ()

(* A scratch artifact directory per run: tests must exercise cold
   compiles, and a developer's real cache must not absorb them. *)
let jit_dir =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "functs-jit-test-%d" (Unix.getpid ()))
  in
  at_exit (fun () -> rm_rf d);
  d

let counter name =
  let c = Metrics.counter name in
  fun () -> Metrics.value c

let hits = counter "jit.c.hit"
let misses = counter "jit.c.miss"
let compiles = counter "jit.c.compiles"
let evicted = counter "jit.c.evicted"
let fallbacks = counter "jit.c.fallback"
let parts = counter "jit.c.compile_parts"

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let dir_entries dir = try Array.to_list (Sys.readdir dir) with _ -> []

let artifacts_in dir =
  List.filter
    (fun f ->
      String.starts_with
        ~prefix:(Printf.sprintf "functs_cjit_v%d_" Jit.version)
        f
      && Filename.check_suffix f ".so")
    (dir_entries dir)

let build_dirs_in dir =
  List.filter (String.starts_with ~prefix:"build-") (dir_entries dir)

let bitwise expected got =
  List.length expected = List.length got
  && List.for_all2 Value.bits_equal expected got

(* Bitwise when both sides are tensors (the emitter reproduces the
   interpreter's operation order exactly) — except that vectorised
   transcendentals go through glibc's libmvec, whose kernels are
   specified to <= 4 ulp of scalar libm, so a bitwise miss falls back to
   a 1e-9 relative tolerance.  Non-tensor values compare within 1e-4. *)
let bitwise_or_epsilon expected got =
  List.length expected = List.length got
  && List.for_all2
       (fun e g ->
         match (e, g) with
         | Value.Tensor te, Value.Tensor tg ->
             Value.bits_equal e g || Tensor.allclose ~atol:1e-12 ~rtol:1e-9 te tg
         | _ -> Value.equal ~atol:1e-4 e g)
       expected got

let clone_args =
  List.map (function
    | Value.Tensor t -> Value.Tensor (Tensor.clone t)
    | (Value.Int _ | Value.Float _ | Value.Bool _ | Value.List _) as v -> v)

let functionalized (w : Workload.t) =
  let batch = w.Workload.default_batch and seq = w.Workload.default_seq in
  let g = Workload.graph w ~batch ~seq in
  let fg = Graph.clone g in
  ignore (Passes.tensorssa_pipeline fg);
  (g, fg, fun () -> w.Workload.inputs ~batch ~seq)

let jit_engine ?(mode = Jit.Auto) ?(dir = jit_dir) fg args =
  Engine.prepare ~parallel:false ~cache:false ~jit:mode ~jit_dir:dir fg
    ~inputs:(Engine.input_shapes args)

let kernels_of fg args =
  let plan = Fusion.plan ~fence_loop_assigns:true Compiler_profile.tensorssa fg in
  let shapes = Shape_infer.infer fg ~inputs:(Engine.input_shapes args) in
  (Codegen.emit fg plan ~shapes, shapes)

(* --- differential: every workload, FUNCTS_JIT=auto vs interpreter --- *)

let test_differential () =
  let armed = ref 0 and native_runs = ref 0 in
  List.iter
    (fun (w : Workload.t) ->
      let g, fg, args_fn = functionalized w in
      let expected = Eval.run g (clone_args (args_fn ())) in
      let eng = jit_engine fg (args_fn ()) in
      let got = Engine.run eng (args_fn ()) in
      check
        (Printf.sprintf "%s: jit outputs equal the interpreter"
           w.Workload.name)
        true
        (bitwise_or_epsilon expected got);
      let s = Engine.stats eng in
      armed := !armed + s.Scheduler.jit_groups;
      native_runs := !native_runs + s.Scheduler.jit_runs)
    (Registry.all @ Registry.extensions);
  if Jit.c_toolchain_available () then begin
    check "some groups were armed natively" true (!armed > 0);
    check "native kernels actually ran" true (!native_runs > 0)
  end
  else check_int "no toolchain: nothing armed" 0 !armed;
  (* tmax's groups need Float.max and a max reduction in C *)
  let w = Result.get_ok (Functs.find_workload "tmax") in
  let _, fg, args_fn = functionalized w in
  let kernels, shapes = kernels_of fg (args_fn ()) in
  List.iter
    (fun (k : Codegen.kernel) ->
      check
        (Printf.sprintf "tmax %s is accepted by the emitter" k.Codegen.k_name)
        true
        (Result.is_ok (Kernel_compile.compile k ~shapes)))
    kernels

(* --- C lane differential: every workload under FUNCTS_JIT=auto,
   repeated so the tuner samples both arms (the C launch and per-node)
   and then runs its pinned winner; every run must match --- *)

let test_c_differential () =
  let runs = 8 in
  let armed = ref 0 and native_runs = ref 0 and fb0 = fallbacks () in
  List.iter
    (fun (w : Workload.t) ->
      let g, fg, args_fn = functionalized w in
      let expected = Eval.run g (clone_args (args_fn ())) in
      let eng = jit_engine ~mode:Jit.Auto fg (args_fn ()) in
      for r = 1 to runs do
        let got = Engine.run eng (args_fn ()) in
        check
          (Printf.sprintf "%s run %d: C-lane outputs equal the interpreter"
             w.Workload.name r)
          true
          (bitwise_or_epsilon expected got)
      done;
      let s = Engine.stats eng in
      check_int
        (Printf.sprintf "%s: no C launch fell back" w.Workload.name)
        0 s.Scheduler.jit_fallbacks;
      armed := !armed + s.Scheduler.jit_groups;
      native_runs := !native_runs + s.Scheduler.jit_runs)
    (Registry.all @ Registry.extensions);
  if Jit.c_toolchain_available () then begin
    check "some groups compiled a C kernel" true (!armed > 0);
    check "C kernels actually ran" true (!native_runs > 0)
  end
  else begin
    check_int "no C compiler: no C kernels" 0 !armed;
    check "no C compiler: C fallbacks were recorded" true (fallbacks () > fb0)
  end

(* --- bitwise edge tables: Float.max/min/equal, `Max reductions, NaN
   literals, and add/mul of two NaNs with distinct payloads, over NaN
   payloads, signed zeros and infinities --- *)

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
  |]

(* Run one table: a graph of [x] and [y] built by [outputs], over every
   (x, y) edge pair — x varies along rows, y along columns — compiled
   natively and compared bit for bit against the interpreter.  The table
   repeats twice in each direction so rows are long enough for the
   kernels' vectorised loops. *)
let edge_table name outputs =
  let n = Array.length edge_values in
  let b =
    Builder.create name ~params:[ ("x", Dtype.Tensor); ("y", Dtype.Tensor) ]
  in
  Builder.return b (outputs b (Builder.param b 0) (Builder.param b 1));
  let g = Builder.graph b in
  let m = 2 * n in
  let grid f =
    let t = Tensor.zeros [| m; m |] in
    for i = 0 to m - 1 do
      for j = 0 to m - 1 do
        Tensor.set t [| i; j |] (f (i mod n) (j mod n))
      done
    done;
    Value.Tensor t
  in
  let args () =
    [ grid (fun i _ -> edge_values.(i)); grid (fun _ j -> edge_values.(j)) ]
  in
  let expected = Eval.run g (args ()) in
  let fg = Graph.clone g in
  ignore (Passes.tensorssa_pipeline fg);
  let kernels, shapes = kernels_of fg (args ()) in
  check (name ^ ": the table fuses into kernels") true (kernels <> []);
  List.iter
    (fun (k : Codegen.kernel) ->
      match Kernel_compile.compile k ~shapes with
      | Ok () -> ()
      | Error reason ->
          Alcotest.failf "emitter rejected %s: %s" k.Codegen.k_name reason)
    kernels;
  if Jit.c_toolchain_available () then begin
    let eng = jit_engine fg (args ()) in
    (* the tuner samples the native arm first *)
    let got = Engine.run eng (args ()) in
    let s = Engine.stats eng in
    check_int "every kernel armed" (List.length kernels) s.Scheduler.compiled;
    check "native kernels ran" true (s.Scheduler.jit_runs > 0);
    check_int "no launch fell back" 0 s.Scheduler.jit_fallbacks;
    List.iteri
      (fun i (e, g) ->
        check
          (Printf.sprintf "%s output %d bitwise-equal to the interpreter" name
             i)
          true
          (bitwise [ e ] [ g ]))
      (List.combine expected got)
  end

let test_float_edges () =
  let lit = Int64.float_of_bits 0x7ff80000deadbeefL in
  edge_table "float_edges" (fun b x y ->
      let bin op u v = Builder.binary b op u v in
      [
        bin Scalar.Max x y;
        bin Scalar.Min x y;
        bin Scalar.Eq x y;
        Builder.relu b x;
        bin Scalar.Max x (Builder.float b lit);
        bin Scalar.Min (Builder.float b lit) y;
        bin Scalar.Eq x (Builder.float b lit);
        Builder.max_dim b x ~dim:1 ~keepdim:false;
        Builder.max_dim b y ~dim:1 ~keepdim:false;
      ]);
  (* both operands NaN with distinct payloads: OCaml's [x +. y] and
     [x *. y] return the first operand's, which plain C [+]/[*] does not
     promise once GCC commutes them in a vectorised loop *)
  edge_table "nan_order" (fun b x y ->
      let bin op u v = Builder.binary b op u v in
      [
        bin Scalar.Add x y;
        bin Scalar.Mul x y;
        bin Scalar.Add y x;
        bin Scalar.Mul y x;
        (* a computed first operand, not a plain read *)
        bin Scalar.Add (bin Scalar.Sub x y) y;
        bin Scalar.Mul (bin Scalar.Div x y) y;
      ])

(* --- forced fallback: missing toolchain --- *)

let test_fallback_missing_toolchain () =
  let w = Result.get_ok (Functs.find_workload "attention") in
  let g, fg, args_fn = functionalized w in
  let expected = Eval.run g (clone_args (args_fn ())) in
  let fb0 = fallbacks () and co0 = compiles () in
  Jit.clear_loaded ();
  Jit.set_c_compiler "functs-definitely-missing-cc";
  let got, stats =
    Fun.protect
      ~finally:(fun () ->
        Jit.set_c_compiler "cc";
        Jit.clear_loaded ())
      (fun () ->
        (* a fresh directory: a disk hit would need no compiler *)
        let dir = jit_dir ^ "-nocc" in
        Fun.protect
          ~finally:(fun () -> rm_rf dir)
          (fun () ->
            let eng = jit_engine ~mode:Jit.Auto ~dir fg (args_fn ()) in
            (Engine.run eng (args_fn ()), Engine.stats eng)))
  in
  check "outputs still equal the interpreter" true
    (bitwise_or_epsilon expected got);
  check_int "no group armed without a toolchain" 0 stats.Scheduler.jit_groups;
  check "every rejected group was recorded as a fallback" true
    (fallbacks () > fb0);
  check_int "the missing compiler was never invoked" 0 (compiles () - co0)

(* --- forced C-compile failure: the compiler answers the probe but
   rejects every unit; each group demotes to the per-node OCaml lane ---
   *)

let test_c_compile_failure_demotion () =
  let w = Result.get_ok (Functs.find_workload "attention") in
  let g, fg, args_fn = functionalized w in
  let expected = Eval.run g (clone_args (args_fn ())) in
  let fake = Filename.temp_file "functs-failing-cc" ".sh" in
  let oc = open_out fake in
  output_string oc "#!/bin/sh\ncase \"$1\" in --version) exit 0 ;; esac\nexit 1\n";
  close_out oc;
  Unix.chmod fake 0o755;
  let fb0 = fallbacks () and m0 = misses () and co0 = compiles () in
  Jit.clear_loaded ();
  Jit.set_c_compiler (Filename.quote fake);
  let got, stats =
    Fun.protect
      ~finally:(fun () ->
        Jit.set_c_compiler "cc";
        Jit.clear_loaded ();
        try Sys.remove fake with _ -> ())
      (fun () ->
        check "the failing compiler passes the probe" true
          (Jit.c_toolchain_available ());
        (* a fresh directory: a disk hit would skip the compile *)
        let dir = jit_dir ^ "-badcc" in
        Fun.protect
          ~finally:(fun () -> rm_rf dir)
          (fun () ->
            let eng = jit_engine ~mode:Jit.Auto ~dir fg (args_fn ()) in
            (Engine.run eng (args_fn ()), Engine.stats eng)))
  in
  check "outputs still equal the interpreter" true
    (bitwise_or_epsilon expected got);
  check_int "no C kernel from a failing compile" 0 stats.Scheduler.jit_groups;
  check_int "no native launch ran" 0 stats.Scheduler.jit_runs;
  check "the compiler was reached" true (misses () > m0);
  check_int "no artifact was installed" 0 (compiles () - co0);
  check "the C-lane failures were recorded" true (fallbacks () > fb0)

(* --- C artifact cache: the .so artifacts on disk serve a second
   "process" under FUNCTS_JIT=auto --- *)

let test_c_artifact_disk_hit () =
  if not (Jit.c_toolchain_available ()) then ()
  else begin
    let dir = jit_dir ^ "-cdisk" in
    Fun.protect
      ~finally:(fun () -> rm_rf dir)
      (fun () ->
        let artifacts () = List.sort compare (artifacts_in dir) in
        let w = Result.get_ok (Functs.find_workload "attention") in
        let _, fg, args_fn = functionalized w in
        Jit.clear_loaded ();
        let eng = jit_engine ~mode:Jit.Auto ~dir fg (args_fn ()) in
        ignore (Engine.run eng (args_fn ()));
        check "cold prepare compiled C kernels" true
          ((Engine.stats eng).Scheduler.jit_groups > 0);
        let cold = artifacts () in
        check "the cold prepare installed a C artifact" true (cold <> []);
        Jit.clear_loaded ();
        let h0 = hits () and m0 = misses () and co0 = compiles () in
        let eng2 = jit_engine ~mode:Jit.Auto ~dir fg (args_fn ()) in
        ignore (Engine.run eng2 (args_fn ()));
        check "warm prepare armed the C kernels too" true
          ((Engine.stats eng2).Scheduler.jit_groups > 0);
        check "the C artifact was found on disk" true (hits () > h0);
        check_int "no C recompile on the warm path" 0 (compiles () - co0);
        check_int "no C cache miss on the warm path" 0 (misses () - m0);
        check "the warm path left the artifact set unchanged" true
          (artifacts () = cold))
  end

(* --- split compile: one artifact from min(nfns, cores) parts --- *)

let test_split_compile () =
  if Jit.c_toolchain_available () then begin
    let dir = jit_dir ^ "-split" in
    Fun.protect
      ~finally:(fun () -> rm_rf dir)
      (fun () ->
        let w = Result.get_ok (Functs.find_workload "nasrnn") in
        let g, fg, args_fn = functionalized w in
        let expected = Eval.run g (clone_args (args_fn ())) in
        Jit.clear_loaded ();
        let p0 = parts () and co0 = compiles () in
        let eng = jit_engine ~dir fg (args_fn ()) in
        let got = Engine.run eng (args_fn ()) in
        let s = Engine.stats eng in
        check "several groups armed" true (s.Scheduler.jit_groups >= 2);
        check "native kernels ran" true (s.Scheduler.jit_runs > 0);
        check "armed groups match the interpreter" true
          (bitwise_or_epsilon expected got);
        check_int "one compile" 1 (compiles () - co0);
        check_int "parts = min(nfns, recommended_domain_count)"
          (min s.Scheduler.jit_groups (Domain.recommended_domain_count ()))
          (parts () - p0);
        check_int "exactly one artifact installed" 1
          (List.length (artifacts_in dir));
        check "no build directory left behind" true (build_dirs_in dir = []))
  end

(* --- one part fails to compile: the whole unit degrades per group,
   nothing is installed, every child is reaped --- *)

let test_partial_compile_failure () =
  if Jit.c_toolchain_available () then begin
    let w = Result.get_ok (Functs.find_workload "nasrnn") in
    let g, fg, args_fn = functionalized w in
    let expected = Eval.run g (clone_args (args_fn ())) in
    (* on a single core the unit is one part, and that one fails *)
    let failing =
      if Domain.recommended_domain_count () >= 2 then "part1" else "part0"
    in
    let fake = Filename.temp_file "functs-partial-cc" ".sh" in
    let oc = open_out fake in
    Printf.fprintf oc
      "#!/bin/sh\n\
       case \"$*\" in\n\
       \  *--version*) exit 0 ;;\n\
       \  *%s*) exit 1 ;;\n\
       esac\n\
       exec cc \"$@\"\n"
      failing;
    close_out oc;
    Unix.chmod fake 0o755;
    let dir = jit_dir ^ "-partial" in
    let fb0 = fallbacks () and co0 = compiles () and p0 = parts () in
    Jit.clear_loaded ();
    Jit.set_c_compiler (Filename.quote fake);
    let got, stats =
      Fun.protect
        ~finally:(fun () ->
          Jit.set_c_compiler "cc";
          Jit.clear_loaded ();
          (try Sys.remove fake with _ -> ());
          rm_rf dir)
        (fun () ->
          let eng = jit_engine ~mode:Jit.Auto ~dir fg (args_fn ()) in
          let got = Engine.run eng (args_fn ()) in
          check "no artifact installed" true (artifacts_in dir = []);
          check "the build directory was removed" true (build_dirs_in dir = []);
          (got, Engine.stats eng))
    in
    check "outputs equal the interpreter" true
      (bitwise_or_epsilon expected got);
    check_int "no group armed" 0 stats.Scheduler.jit_groups;
    check "every group fell back" true (fallbacks () > fb0);
    check "the unit was compiled in parts" true
      (parts () - p0 >= min 2 (Domain.recommended_domain_count ()));
    check_int "nothing counted as compiled" 0 (compiles () - co0);
    check "no unreaped compiler child" true
      (match Unix.waitpid [ Unix.WNOHANG ] (-1) with
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
      | _ -> false)
  end

(* --- the compile target is part of the digest and the handshake --- *)

let test_target_in_digest () =
  let w = Result.get_ok (Functs.find_workload "attention") in
  let _, fg, args_fn = functionalized w in
  let kernels, shapes = kernels_of fg (args_fn ()) in
  let emitted =
    List.filter_map
      (fun k -> Result.to_option (Functs_jit.Jit_emit_c.emit k ~shapes))
      kernels
  in
  check "attention emits kernels" true (emitted <> []);
  let module C = Functs_jit.Jit_cache in
  let d_avx, p_avx = Jit.render_source ~target:C.Avx2 emitted
  and d_gen, p_gen = Jit.render_source ~target:C.Generic emitted in
  check "two targets, two digests" true (d_avx <> d_gen);
  let h_avx = C.header ~target:C.Avx2 d_avx
  and h_gen = C.header ~target:C.Generic d_gen in
  check "two targets, two headers" true (h_avx <> h_gen);
  check "part 0 carries its own header" true
    (contains (List.hd p_avx) h_avx && contains (List.hd p_gen) h_gen);
  check "the digest is stable" true
    (fst (Jit.render_source ~target:C.Avx2 emitted) = d_avx);
  if Jit.c_toolchain_available () then begin
    let dir = jit_dir ^ "-target" in
    Fun.protect
      ~finally:(fun () -> rm_rf dir)
      (fun () ->
        let nfns = List.length emitted in
        Jit.clear_loaded ();
        (* a generic build runs anywhere; it poses as the AVX2 artifact *)
        check "the generic unit builds" true
          (Result.is_ok
             (C.get_or_build ~dir ~target:C.Generic ~digest:d_gen ~parts:p_gen
                ~nfns));
        let foreign = C.artifact_path ~dir ~digest:d_avx in
        let ic = open_in_bin (C.artifact_path ~dir ~digest:d_gen)
        and oc = open_out_bin foreign in
        output_string oc (really_input_string ic (in_channel_length ic));
        close_in ic;
        close_out oc;
        Jit.clear_loaded ();
        let ev0 = evicted () and co0 = compiles () in
        check "the foreign-target artifact is rejected at load" true
          (Result.is_error
             (C.get_or_build ~dir ~target:C.Avx2 ~digest:d_avx ~parts:p_avx
                ~nfns));
        check "the foreign-target artifact is deleted" false
          (Sys.file_exists foreign);
        check_int "the rejection is counted" 1 (evicted () - ev0);
        check_int "nothing was compiled in its place" 0 (compiles () - co0))
  end

(* --- id-free digest: a re-lowered program reuses its artifact --- *)

let test_relowered_digest_hit () =
  if Jit.c_toolchain_available () then begin
    let dir = jit_dir ^ "-relower" in
    Fun.protect
      ~finally:(fun () -> rm_rf dir)
      (fun () ->
        let w = Result.get_ok (Functs.find_workload "attention") in
        let _, fg, args_fn = functionalized w in
        Jit.clear_loaded ();
        let eng = jit_engine ~mode:Jit.Auto ~dir fg (args_fn ()) in
        check "the first lowering armed groups" true
          ((Engine.stats eng).Scheduler.jit_groups > 0);
        (* a fresh lowering: new graph, new process-global value ids *)
        let g2, fg2, args_fn2 = functionalized w in
        let expected = Eval.run g2 (clone_args (args_fn2 ())) in
        Jit.clear_loaded ();
        let h0 = hits () and m0 = misses () and co0 = compiles () in
        let eng2 = jit_engine ~mode:Jit.Auto ~dir fg2 (args_fn2 ()) in
        let got = Engine.run eng2 (args_fn2 ()) in
        check "the second lowering armed groups" true
          ((Engine.stats eng2).Scheduler.jit_groups > 0);
        check "the artifact was a hit" true (hits () > h0);
        check_int "no cache miss" 0 (misses () - m0);
        check_int "no recompile" 0 (compiles () - co0);
        check "outputs equal the interpreter" true
          (bitwise_or_epsilon expected got))
  end

(* --- forced fallback: unusable artifact directory --- *)

let test_fallback_bogus_dir () =
  let w = Result.get_ok (Functs.find_workload "attention") in
  let g, fg, args_fn = functionalized w in
  let expected = Eval.run g (clone_args (args_fn ())) in
  (* a path below a regular file can never become a directory *)
  let blocker = Filename.temp_file "functs-jit" ".blk" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove blocker with _ -> ())
    (fun () ->
      let fb0 = fallbacks () in
      Jit.clear_loaded ();
      let eng =
        jit_engine ~mode:Jit.Auto ~dir:(Filename.concat blocker "jit") fg
          (args_fn ())
      in
      let got = Engine.run eng (args_fn ()) in
      Jit.clear_loaded ();
      check "outputs still equal the interpreter" true
        (bitwise_or_epsilon expected got);
      check_int "no group armed in an unusable dir" 0
        (Engine.stats eng).Scheduler.jit_groups;
      if Jit.c_toolchain_available () then
        check "fallbacks were recorded" true (fallbacks () > fb0))

(* --- artifact cache: the second "process" is a disk hit --- *)

let test_artifact_disk_hit () =
  if not (Jit.c_toolchain_available ()) then () (* covered by fallback tests *)
  else begin
    let w = Result.get_ok (Functs.find_workload "nasrnn") in
    let _, fg, args_fn = functionalized w in
    let eng = jit_engine fg (args_fn ()) in
    ignore (Engine.run eng (args_fn ()));
    check "cold prepare armed the groups" true
      ((Engine.stats eng).Scheduler.jit_groups > 0);
    (* Forget every in-process table: the next prepare behaves like a
       fresh process against the same artifact directory. *)
    Jit.clear_loaded ();
    let h0 = hits () and m0 = misses () and co0 = compiles () in
    let eng2 = jit_engine fg (args_fn ()) in
    ignore (Engine.run eng2 (args_fn ()));
    check "warm prepare armed the groups too" true
      ((Engine.stats eng2).Scheduler.jit_groups > 0);
    check "the artifact was found on disk" true (hits () > h0);
    check_int "no recompile on the warm path" 0 (compiles () - co0);
    check_int "no cache miss on the warm path" 0 (misses () - m0)
  end

(* --- hygiene: stale artifacts are evicted on first use --- *)

let with_stale_dir files f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "functs-jit-stale-%d" (Unix.getpid ()))
  in
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let paths =
        List.map
          (fun name ->
            let path = Filename.concat dir name in
            let oc = open_out path in
            output_string oc "stale";
            close_out oc;
            path)
          files
      in
      let ev0 = evicted () and j0 = Journal.recorded () in
      Jit.clear_loaded ();
      let w = Result.get_ok (Functs.find_workload "nasrnn") in
      let _, fg, args_fn = functionalized w in
      ignore (jit_engine ~dir fg (args_fn ()));
      Jit.clear_loaded ();
      let journaled =
        List.filter
          (fun (e : Journal.entry) -> e.Journal.j_kind = Journal.Cache_evict)
          (List.filteri
             (fun i _ -> i >= j0 - Journal.dropped ())
             (Journal.entries ()))
      in
      f paths (evicted () - ev0) journaled)

let test_stale_version_eviction () =
  if Jit.c_toolchain_available () then
    with_stale_dir [ "functs_cjit_v0_deadbeef.so" ] (fun paths n _ ->
        List.iter
          (fun p -> check "the stale artifact is gone" false (Sys.file_exists p))
          paths;
        check "the eviction was counted" true (n >= 1))

(* Artifacts and locks of the retired OCaml-source lane are evicted,
   counted and journaled like any other stale artifact. *)
let test_retired_lane_eviction () =
  if Jit.c_toolchain_available () then
    let files =
      [ "functs_jit_v2_deadbeef.cmxs"; "functs_jit_v2_deadbeef.cmxs.lock" ]
    in
    with_stale_dir files (fun paths n journaled ->
        List.iter
          (fun p ->
            check (Filename.basename p ^ " is gone") false (Sys.file_exists p))
          paths;
        check_int "each eviction was counted" 2 n;
        List.iter
          (fun f ->
            check (f ^ " eviction was journaled") true
              (List.exists
                 (fun (e : Journal.entry) -> e.Journal.j_detail = f)
                 journaled))
          files)

(* --- journal: expire values are µs like the samples --- *)

let test_expire_units () =
  if Jit.c_toolchain_available () then begin
    let w = Result.get_ok (Functs.find_workload "tmax") in
    let _, fg, args_fn = functionalized w in
    let j0 = Journal.recorded () in
    let eng = jit_engine fg (args_fn ()) in
    (* 6 interleaved samples, a 16-launch pin, then the expiry *)
    for _ = 1 to 30 do
      ignore (Engine.run eng (args_fn ()))
    done;
    let mine =
      List.filteri
        (fun i _ -> i >= j0 - Journal.dropped ())
        (Journal.entries ())
      |> List.filter (fun (e : Journal.entry) ->
             e.Journal.j_engine = Engine.id eng)
    in
    let values kind site id =
      List.filter_map
        (fun (e : Journal.entry) ->
          if e.j_kind = kind && e.j_site = site && e.j_id = id then
            Some e.j_value
          else None)
        mine
    in
    let expiries =
      List.filter (fun (e : Journal.entry) -> e.j_kind = Journal.Tuner_expire) mine
    in
    check "some pin expired" true (expiries <> []);
    List.iter
      (fun (e : Journal.entry) ->
        let samples = values Journal.Tuner_sample e.j_site e.j_id in
        check "the site sampled" true (samples <> []);
        let lo = List.fold_left Float.min infinity samples
        and hi = List.fold_left Float.max 0. samples in
        check
          (Printf.sprintf "%s#%d expire %g within 1000x of samples [%g, %g]"
             e.j_site e.j_id e.j_value lo hi)
          true
          (e.j_value >= lo /. 1000. && e.j_value <= hi *. 1000.))
      expiries
  end

(* --- journal and attribution name their engine --- *)

let test_bucket_engine_tags () =
  if Jit.c_toolchain_available () then begin
    let w = Result.get_ok (Functs.find_workload "lstm") in
    let config =
      {
        Config.default with
        Config.jit = Jit.Auto;
        jit_dir;
        batch_buckets = [ 1; 2 ];
        domains = 1;
      }
    in
    let j0 = Journal.recorded () in
    let batch = w.Workload.default_batch and seq = w.Workload.default_seq in
    match Functs.compile ~config ~batch ~seq w with
    | Error e -> Alcotest.fail (Error.to_string e)
    | Ok s ->
        Fun.protect
          ~finally:(fun () -> Session.close s)
          (fun () ->
            let input = Session.input (w.Workload.inputs ~batch ~seq) in
            let await tk =
              match Session.await tk with
              | Ok _ -> ()
              | Error e -> Alcotest.fail (Error.to_string e)
            in
            let submit () =
              match Session.submit s input with
              | Ok tk -> tk
              | Error e -> Alcotest.fail (Error.to_string e)
            in
            for _ = 1 to 4 do
              (* a pair fills bucket 2 ... *)
              Session.pause s;
              let a = submit () and b = submit () in
              Session.resume s;
              await a;
              await b;
              (* ... and a single runs at bucket 1 *)
              await (submit ())
            done;
            let engines =
              List.filter
                (fun (_, _, rows) -> rows <> [])
                (Session.attribution s)
            in
            let buckets = List.map (fun (b, _, _) -> b) engines in
            check "both buckets report winners" true
              (List.mem 1 buckets && List.mem 2 buckets);
            let ids = List.sort_uniq compare (List.map (fun (_, e, _) -> e) engines) in
            check_int "one engine per bucket" (List.length engines)
              (List.length ids);
            let tagged =
              List.filteri
                (fun i _ -> i >= j0 - Journal.dropped ())
                (Journal.entries ())
              |> List.filter_map (fun (e : Journal.entry) ->
                     if e.j_site = "scheduler.group" then Some e.j_engine
                     else None)
              |> List.sort_uniq compare
            in
            List.iter
              (fun id ->
                check
                  (Printf.sprintf "engine e%d journals under its own tag" id)
                  true (List.mem id tagged))
              ids)
  end

let () =
  Alcotest.run "jit"
    [
      ( "jit",
        [
          Alcotest.test_case "differential vs interpreter" `Slow
            test_differential;
          Alcotest.test_case "C lane differential vs interpreter" `Slow
            test_c_differential;
          Alcotest.test_case "C compile failure demotes to the OCaml lane"
            `Quick test_c_compile_failure_demotion;
          Alcotest.test_case "C artifact cache: warm disk hit" `Quick
            test_c_artifact_disk_hit;
          Alcotest.test_case "float edge table bitwise vs interpreter" `Quick
            test_float_edges;
          Alcotest.test_case "split compile: one artifact, k parts" `Quick
            test_split_compile;
          Alcotest.test_case "partial compile failure degrades" `Quick
            test_partial_compile_failure;
          Alcotest.test_case "target in the digest and header" `Quick
            test_target_in_digest;
          Alcotest.test_case "re-lowered program hits its artifact" `Quick
            test_relowered_digest_hit;
          Alcotest.test_case "fallback: missing toolchain" `Quick
            test_fallback_missing_toolchain;
          Alcotest.test_case "fallback: unusable artifact dir" `Quick
            test_fallback_bogus_dir;
          Alcotest.test_case "artifact cache: warm disk hit" `Quick
            test_artifact_disk_hit;
          Alcotest.test_case "stale-version eviction" `Quick
            test_stale_version_eviction;
          Alcotest.test_case "retired-lane artifacts evicted" `Quick
            test_retired_lane_eviction;
          Alcotest.test_case "journal: expire values in us" `Quick
            test_expire_units;
          Alcotest.test_case "journal: bucket engines tagged" `Quick
            test_bucket_engine_tags;
        ] );
    ]

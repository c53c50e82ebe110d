(* Host-speed references.

   On a shared host the same work takes up to twice as long in a busy
   period as in a quiet one, for minutes at a time, and CPU time drifts
   with it (the kernel books little steal then: the host runs the same
   instructions slower).  So every gated time is reported at a reference host speed: the
   benchmark runs a fixed reference task interleaved with the measured
   work, and scales the measured time by [nominal / reference] (for the
   closed loops' engine runs, by a fitted power of it: {!engine_power}),
   where [nominal] is the reference task's time on a quiet host.  Two
   kinds of reference, matched to the work they normalise:

   - [compute]: fixed float work with allocation and libm calls, split in
     phases across two domains (the system's default domain count) that
     meet at the end of each phase, for engine runs, serving and set-up;
   - [compile]: one fixed C unit through [cc] and one fixed OCaml unit
     through [ocamlfind ocamlopt -shared], for the JIT's cold compiles.

   Both references are fixed here, not taken from the library, so a
   change to the program's own compile flags or kernels moves the
   measured time and not its reference. *)

(* --- compute --- *)

let compute_nominal_ms = 0.060

(* One slice of fixed float work with allocation and libm calls. *)
let work () =
  let n = 1024 in
  let a = Array.make n 1.0 in
  let b = Array.init n (fun i -> float_of_int (i land 63) *. 0.01) in
  for _ = 1 to 6 do
    for i = 0 to n - 1 do
      a.(i) <- (a.(i) *. 0.999) +. (b.(i) *. exp (-.b.(i)))
    done
  done;
  ignore (Sys.opaque_identity a)

(* A helper domain that runs one slice per phase in step with the caller,
   the way a parallel loop splits work across the system's two domains:
   each phase ends when both halves are done, and the helper sleeps on a
   condition between phases (as the system's pool workers park), so a
   descheduled or slowed domain delays the phase as it would a loop. *)
type helper = {
  m : Mutex.t;
  c : Condition.t;
  mutable posted : int;  (** phases handed to the helper *)
  mutable finished : int;  (** phases the helper completed *)
}

let helper =
  lazy
    (let h = { m = Mutex.create (); c = Condition.create (); posted = 0; finished = 0 } in
     let rec loop seen =
       Mutex.lock h.m;
       while h.posted = seen do
         Condition.wait h.c h.m
       done;
       let phase = h.posted in
       Mutex.unlock h.m;
       work ();
       Mutex.lock h.m;
       h.finished <- phase;
       Condition.broadcast h.c;
       Mutex.unlock h.m;
       loop phase
     in
     ignore (Domain.spawn (fun () -> loop 0));
     h)

let phases = 16

(* One compute reference, in ms per phase. *)
let compute () =
  let h = Lazy.force helper in
  let t0 = Util.now () in
  for _ = 1 to phases do
    Mutex.lock h.m;
    h.posted <- h.posted + 1;
    let phase = h.posted in
    Condition.broadcast h.c;
    Mutex.unlock h.m;
    work ();
    Mutex.lock h.m;
    while h.finished < phase do
      Condition.wait h.c h.m
    done;
    Mutex.unlock h.m
  done;
  (Util.now () -. t0) *. 1e3 /. float_of_int phases

(* [t] measured while the compute reference read [ref_ms], at the
   reference speed: [t] scaled by [(nominal / ref_ms) ** power].  With
   [power] 1 the work is taken to slow exactly as the reference does. *)
let at_compute_speed ?(power = 1.) t ~ref_ms =
  if ref_ms <= 0. then t else t *. ((compute_nominal_ms /. ref_ms) ** power)

(* How the closed loops' [Engine.run] wall follows the compute reference:
   the least-squares slope of log wall on log reference over 90 runs of
   cold-start and warm-cv spanning quiet and busy periods (0.73 and 0.83
   apiece; the reference read 0.053-0.122 ms).  In a busy period the
   reference's phase barriers lose more than the engines do, so a full
   scaling (power 1) read cold-start 17% low there. *)
let engine_power = 0.78



(* --- compile --- *)

let compile_nominal_s = 0.34

let c_source =
  let b = Buffer.create 16384 in
  Buffer.add_string b "#include <math.h>\n";
  for f = 0 to 23 do
    Printf.bprintf b
      "void k%d(double *restrict o, const double *restrict a, const double \
       *restrict c, long n, long m) {\n\
      \  for (long i = 0; i < n; i++)\n\
      \    for (long j = 0; j < m; j++) {\n\
      \      double x = a[i * m + j] * %d.5 + c[j];\n\
      \      o[i * m + j] = x > 0 ? x * tanh(x) : exp(x) - %d.0;\n\
      \    }\n\
       }\n"
      f (f + 1) f
  done;
  Buffer.contents b

let ml_source =
  let b = Buffer.create 16384 in
  for f = 0 to 23 do
    Printf.bprintf b
      "let k%d (o : float array) (a : float array) (c : float array) n m =\n\
      \  for i = 0 to n - 1 do\n\
      \    for j = 0 to m - 1 do\n\
      \      let x = (a.((i * m) + j) *. %d.5) +. c.(j) in\n\
      \      o.((i * m) + j) <- (if x > 0. then x *. tanh x else exp x -. %d.0)\n\
      \    done\n\
      \  done\n"
      f (f + 1) f
  done;
  Buffer.contents b

let write path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

(* One compile reference, in seconds: both units, one after the other, as
   the JIT compiles a group. *)
let compile ~dir =
  let c = Filename.concat dir "probe_ref.c" in
  let ml = Filename.concat dir "probe_ref.ml" in
  write c c_source;
  write ml ml_source;
  let run cmd =
    if Sys.command cmd <> 0 then failwith ("reference compile failed: " ^ cmd)
  in
  let t0 = Util.now () in
  run
    (Printf.sprintf
       "cc -O3 -shared -fPIC -ffp-contract=off -o %s %s -lm >/dev/null 2>&1"
       (Filename.quote (Filename.concat dir "probe_ref.so"))
       (Filename.quote c));
  run
    (Printf.sprintf
       "cd %s && ocamlfind ocamlopt -shared -w -a -o probe_ref.cmxs \
        probe_ref.ml >/dev/null 2>&1"
       (Filename.quote dir));
  Util.now () -. t0

let at_compile_speed t ~ref_s = t *. Util.ratio compile_nominal_s ref_s

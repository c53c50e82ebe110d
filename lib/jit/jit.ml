open Functs_ir
open Functs_tensor
open Functs_core
module Tracer = Functs_obs.Tracer
module Metrics = Functs_obs.Metrics

(* Front end of the native JIT backend: emits every eligible kernel of an
   engine preparation into one C unit ({!Jit_emit_c}) for the host's
   ISA, split into one part per core, obtains the compiled launch table
   through {!Jit_cache} (memory → disk → concurrent [cc -O3 -c] of the
   parts and one link), and exposes a per-group [run] that validates
   tensor bindings before handing plain [float array]s to the native
   code.

   Nothing here raises across the engine API: [prepare_groups] turns
   every failure (no toolchain, emitter rejection, compile error,
   corrupt artifact) into an empty/partial result plus a
   [jit.c.fallback] tick, and [run] raises only {!Fallback}, which the
   scheduler converts into a per-node replay of the group. *)

type mode = Off | Auto

let mode_of_string = function
  | "off" -> Some Off
  | "auto" -> Some Auto
  | _ -> None

let mode_to_string = function Off -> "off" | Auto -> "auto"

let fallback_c = Metrics.counter "jit.c.fallback"
let groups_c = Metrics.counter "jit.c.groups"
let runs_c = Metrics.counter "exec.jit_runs"
let c_runs_c = Metrics.counter "jit.c.runs"

exception Fallback of string

let fb fmt = Format.kasprintf (fun msg -> raise (Fallback msg)) fmt

type entry = {
  en_em : Jit_emit_c.emitted;
  en_fn : Jit_cache.cfn;
  (* launch scratch, owned by the preparing engine (engines dispatch
     kernels from one domain at a time, so one scratch per entry) *)
  en_bufs : float array array;
  en_ints : int array;
  en_local : int array;
      (* per site: index of the statement whose output it reads, or -1
         for tensors bound from the caller's environment *)
  en_nonempty : bool array;
      (* per site: the owning statement writes at least one element (the
         bounds precheck is skipped for empty outputs) *)
  en_seen : Tensor.t option array;
      (* per site: the binding that last passed the bounds precheck —
         loop bodies relaunch against the same pooled buffers, so a
         physical-equality hit skips the range arithmetic *)
  en_nsites : int array;
      (* per statement: read sites it owns (drives the launch's
         bytes-per-iteration estimate) *)
  en_scratch : Tensor.t option array;
      (* per statement: a cached output tensor for unstored statements.
         An [e_store = false] output never escapes the group (the
         scheduler releases it right after binding results), so instead
         of a pool round trip per launch it writes into this per-entry
         buffer, allocated on first use.  [Buffer_plan.release] is
         owner-checked, so handing these back is a no-op. *)
}

let version = Jit_cache.version
let set_c_compiler = Jit_cache.set_c_compiler
let c_toolchain_available = Jit_cache.c_toolchain_available
let clear_loaded = Jit_cache.clear_loaded

let default_dir () = Filename.concat (Filename.get_temp_dir_name ()) "functs-jit"
let resolve_dir = function "" -> default_dir () | d -> d

let check k ~shapes = Result.map ignore (Jit_emit_c.emit k ~shapes)

(* Shared by every part: the vector-libm declarations must precede the
   kernels that call exp/log/tanh/pow. *)
let prelude =
  "#include <math.h>\n\n\
   /* Vector transcendentals: these declarations let GCC compile\n\
   \   exp/log/tanh/pow calls in vectorised loops down to glibc's\n\
   \   libmvec kernels (_ZGVdN4v_exp &c., <= 4 ulp of scalar libm —\n\
   \   far inside the engine's epsilon gate).  The JIT links\n\
   \   -lmvec when available and retries with FUNCTS_NO_VECLIBM\n\
   \   (bitwise scalar libm) when not.  sqrt and fabs stay bare:\n\
   \   they vectorise to exact IEEE instructions anyway. */\n\
   #if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) \
   && !defined(FUNCTS_NO_VECLIBM)\n\
   __attribute__((__simd__(\"notinbranch\"))) double exp(double);\n\
   __attribute__((__simd__(\"notinbranch\"))) double log(double);\n\
   __attribute__((__simd__(\"notinbranch\"))) double tanh(double);\n\
   __attribute__((__simd__(\"notinbranch\"))) double pow(double, double);\n\
   #endif\n\n"

let signature i =
  Printf.sprintf
    "long functs_cjit_k%d(double **bufs, const long *ints, long stmt, long \
     lo, long hi)"
    i

(* One unit in [k = min(nfns, cores)] parts that compile concurrently:
   functions go longest first into the lightest part, and part 0 also
   carries the handshake and the launch table, reaching the other
   parts' functions through extern prototypes.  The kernels share no
   static helpers, so the parts are independent.  The digest covers the
   version, the target and the functions in table order — not [k], so
   hosts with different core counts share artifacts. *)
let render_source ~target emitted =
  let fns =
    Array.of_list
      (List.mapi
         (fun i (em : Jit_emit_c.emitted) ->
           Printf.sprintf "/* %s : group %d */\n%s\n{\n%s}\n\n" em.e_name
             em.e_group (signature i) em.e_fn)
         emitted)
  in
  let n = Array.length fns in
  let digest =
    Digest.to_hex
      (Digest.string
         (Printf.sprintf "cv%d\n%s\n%s" Jit_cache.version
            (Jit_cache.target_name target)
            (String.concat "" (Array.to_list fns))))
  in
  let k = max 1 (min n (Domain.recommended_domain_count ())) in
  let load = Array.make k 0 and members = Array.make k [] in
  List.init n Fun.id
  |> List.stable_sort (fun a b ->
         compare (String.length fns.(b)) (String.length fns.(a)))
  |> List.iter (fun i ->
         let p = ref 0 in
         Array.iteri (fun q l -> if l < load.(!p) then p := q) load;
         load.(!p) <- load.(!p) + String.length fns.(i);
         members.(!p) <- i :: members.(!p));
  let part p =
    let own = List.sort compare members.(p) in
    let b = Buffer.create 4096 in
    Buffer.add_string b
      (Printf.sprintf
         "/* generated by functs cjit · codegen v%d · %s · digest %s · part \
          %d of %d */\n"
         Jit_cache.version
         (Jit_cache.target_name target)
         digest p k);
    Buffer.add_string b prelude;
    List.iter (fun i -> Buffer.add_string b fns.(i)) own;
    if p = 0 then begin
      for i = 0 to n - 1 do
        if not (List.mem i own) then
          Buffer.add_string b (Printf.sprintf "extern %s;\n" (signature i))
      done;
      Buffer.add_string b
        (Printf.sprintf
           "const char functs_cjit_header[] = %S;\n\
            const long functs_cjit_nfns = %d;\n\
            typedef long (*functs_cjit_fn)(double **, const long *, long, \
            long, long);\n\
            functs_cjit_fn const functs_cjit_table[] = { %s };\n"
           (Jit_cache.header ~target digest)
           n
           (String.concat ", "
              (List.init n (Printf.sprintf "functs_cjit_k%d"))))
    end;
    Buffer.contents b
  in
  (digest, List.init k part)

let make_entry (em : Jit_emit_c.emitted) fn =
  let local (s : Jit_emit_c.esite) =
    let found = ref (-1) in
    Array.iteri
      (fun j (st : Jit_emit_c.estmt) ->
        if st.e_out.Graph.v_id = s.e_value.Graph.v_id then found := j)
      em.e_stmts;
    !found
  in
  let nsites = Array.make (Array.length em.e_stmts) 0 in
  Array.iter
    (fun (s : Jit_emit_c.esite) -> nsites.(s.e_stmt) <- nsites.(s.e_stmt) + 1)
    em.e_sites;
  {
    en_em = em;
    en_fn = fn;
    en_bufs = Array.make (Jit_emit_c.nbufs em) [||];
    en_ints = Array.make (max 1 em.e_nints) 0;
    en_local = Array.map local em.e_sites;
    en_nonempty =
      Array.map
        (fun (s : Jit_emit_c.esite) ->
          Shape.numel em.e_stmts.(s.e_stmt).e_shape > 0)
        em.e_sites;
    en_seen = Array.make (Array.length em.e_sites) None;
    en_nsites = nsites;
    en_scratch = Array.make (Array.length em.e_stmts) None;
  }

let prepare_groups ~mode ~dir ~kernels ~shapes =
  match (mode, kernels) with
  | Off, _ | _, [] -> []
  | Auto, _ -> (
      let emitted =
        Tracer.span "jit.c.emit" @@ fun () ->
        List.filter_map
          (fun (k : Codegen.kernel) ->
            match Jit_emit_c.emit k ~shapes with
            | Ok em -> Some em
            | Error reason ->
                Metrics.incr fallback_c;
                Tracer.instant "jit.c.reject"
                  ~args:[ ("kernel", k.k_name); ("reason", reason) ];
                None)
          kernels
      in
      match emitted with
      | [] -> []
      | _ -> (
          let n = List.length emitted in
          let target = Jit_cache.host_target in
          let digest, parts = render_source ~target emitted in
          match
            Jit_cache.get_or_build ~dir:(resolve_dir dir) ~target ~digest
              ~parts ~nfns:n
          with
          | Error _ ->
              Metrics.incr ~by:n fallback_c;
              []
          | Ok tbl ->
              Metrics.incr ~by:n groups_c;
              List.mapi
                (fun i (em : Jit_emit_c.emitted) ->
                  (em.e_group, make_entry em { Jit_cache.c_tbl = tbl; c_idx = i }))
                emitted))

(* Launch-time validation: unsafe access in the generated code is only
   reachable when every statically-bounded site passes the stride/extent
   check against the tensor actually bound this run.  Anything that does
   not line up raises {!Fallback} before the native code runs.

   [par] (when provided) must cover the whole range [0, n) with disjoint
   [body lo hi] calls, sequentially or not — {!Pool.parallel_for}'s
   contract.  Each statement's outermost baked loop is then split across
   stolen ranges; statements still run in order (the launch joins before
   the next statement), so cross-statement reads stay ordered, and every
   output element is written by exactly one range, so results are
   bitwise-identical to a sequential launch. *)
let run ?par ?(grain = 8192) (e : entry) ~alloc ~lookup ~scalar =
  let em = e.en_em in
  let nstmts = Array.length em.e_stmts in
  let bufs = e.en_bufs and ints = e.en_ints in
  Array.iteri
    (fun k name ->
      match scalar name with
      | Some v -> ints.(em.e_scalar_pos + k) <- v
      | None -> fb "unbound scalar %s" name)
    em.e_free;
  let outs =
    Array.mapi
      (fun j (st : Jit_emit_c.estmt) ->
        let t : Tensor.t =
          if st.e_store then alloc st.e_shape
          else
            match e.en_scratch.(j) with
            | Some t -> t
            | None ->
                (* every element is written before any site reads it, so
                   the first launch may start from uninitialised memory *)
                let t = Tensor.uninit st.e_shape in
                e.en_scratch.(j) <- Some t;
                t
        in
        bufs.(j) <- Storage.data t.Tensor.storage;
        ints.(st.e_out_pos) <- t.Tensor.offset;
        t)
      em.e_stmts
  in
  Array.iteri
    (fun i (s : Jit_emit_c.esite) ->
      let t =
        match e.en_local.(i) with
        | j when j >= 0 -> outs.(j)
        | _ -> (
            match lookup s.e_value with
            | Some t -> t
            | None -> fb "unbound tensor %s" (Codegen.value_ref s.e_value))
      in
      if Tensor.ndim t <> s.e_rank then
        fb "rank mismatch on %s" (Codegen.value_ref s.e_value);
      let data = Storage.data t.Tensor.storage in
      (match s.e_bounds with
      | None -> ()  (* the kernel checks this site itself *)
      | Some bounds ->
          let same_as_last =
            match e.en_seen.(i) with
            | Some p ->
                Storage.data p.Tensor.storage == data
                && p.Tensor.offset = t.Tensor.offset
                && p.Tensor.strides = t.Tensor.strides
            | None -> false
          in
          if e.en_nonempty.(i) && not same_as_last then begin
            let lo = ref t.Tensor.offset and hi = ref t.Tensor.offset in
            Array.iteri
              (fun k (l, h) ->
                let st = t.Tensor.strides.(k) in
                if st >= 0 then begin
                  lo := !lo + (st * l);
                  hi := !hi + (st * h)
                end
                else begin
                  lo := !lo + (st * h);
                  hi := !hi + (st * l)
                end)
              bounds;
            if !lo < 0 || !hi >= Array.length data then
              fb "index range out of bounds on %s"
                (Codegen.value_ref s.e_value);
            e.en_seen.(i) <- Some t
          end);
      bufs.(nstmts + s.e_slot) <- data;
      ints.(s.e_ints_pos) <- t.Tensor.offset;
      for k = 0 to s.e_rank - 1 do
        ints.(s.e_ints_pos + 1 + k) <- t.Tensor.strides.(k)
      done;
      ints.(s.e_ints_pos + 1 + s.e_rank) <- Array.length data)
    em.e_sites;
  let launch j lo hi =
    if Jit_cache.call_c e.en_fn bufs ints j lo hi <> 0 then begin
      Array.fill bufs 0 (Array.length bufs) [||];
      fb "dynamic index out of bounds in group %d" em.e_group
    end
  in
  (* when no statement is worth a parallel split, the whole group runs
     in one native call ([stmt = -1] falls through every case at full
     extent) — per-call stub overhead is paid once, not once per
     statement *)
  let split (st : Jit_emit_c.estmt) =
    let numel = Shape.numel st.e_shape in
    let outer = if Array.length st.e_shape = 0 then 1 else st.e_shape.(0) in
    outer >= 2 && numel >= 2 * grain
  in
  (match par with
  | Some par when Array.exists split em.e_stmts ->
      Array.iteri
        (fun j (st : Jit_emit_c.estmt) ->
          let outer =
            if Array.length st.e_shape = 0 then 1 else st.e_shape.(0)
          in
          if split st then begin
            (* a guard tripped inside a task is raised on this domain *)
            let tripped = ref false in
            let inner = Shape.numel st.e_shape / outer in
            par
              ~grain:(max 1 (grain / max 1 inner))
              ~bytes_per_iter:(8 * (1 + e.en_nsites.(j)) * inner)
              ~n:outer
              (fun lo hi ->
                if Jit_cache.call_c e.en_fn bufs ints j lo hi <> 0 then
                  tripped := true);
            if !tripped then begin
              Array.fill bufs 0 (Array.length bufs) [||];
              fb "dynamic index out of bounds in group %d" em.e_group
            end
          end
          else launch j 0 outer)
        em.e_stmts
  | _ -> launch (-1) 0 0);
  Array.fill bufs 0 (Array.length bufs) [||];
  Metrics.incr runs_c;
  Metrics.incr c_runs_c;
  Array.to_list
    (Array.mapi
       (fun j (st : Jit_emit_c.estmt) -> (st.e_out, outs.(j), st.e_store))
       em.e_stmts)

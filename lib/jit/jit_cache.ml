module Tracer = Functs_obs.Tracer
module Metrics = Functs_obs.Metrics

(* On-disk artifact store for JIT-compiled kernel groups.

   One [.so] holds every kernel of one engine preparation; the file name
   carries the codegen [version] stamp and the MD5 digest of the
   generated source, so a warm process (or a second process) loads the
   artifact instead of recompiling — the digest covers the compile
   target, baked shapes, statement structure and the emitter version,
   which is exactly the compile-cache key material.  Artifacts are
   compiled by [cc] from {!Jit_emit_c} output — the unit's parts
   concurrently, one [cc -c] each, then one link — and loaded with
   dlopen through the [cjit_stubs.c] host stubs.

   Hygiene: artifacts of other codegen versions (and the [.cmxs]
   artifacts of the retired OCaml-source lane) are evicted the first
   time a directory is used, and an artifact whose handshake fails at
   load is deleted and counted the same way; concurrent same-digest
   compiles are serialized by a [.lock] file (O_CREAT|O_EXCL) with
   stale-lock breaking, and the compile itself happens in a private
   build directory followed by an atomic rename, so readers never
   observe a half-written artifact. *)

(* cv2: entry points return a guard status (0 ok, nonzero = a
   dynamically-indexed read would have gone out of bounds), and buffer
   lengths ride in an ints tail.  cv3: simd declarations route
   transcendentals through libmvec.  cv4: clone set capped at AVX2 —
   the launches here are too short for 512-bit lanes to pay for
   themselves (measured call times were flat), and skipping the
   avx512f clone sidesteps its downclocking risk on server parts.
   cv5: the emitter owns the launch layout (each site's buffer length
   follows its strides; free scalars bind to locals) and covers
   Float.max/min/equal, [`Max] reductions and NaN literals.  cv6: no
   function clones — each unit is compiled once for the host's
   {!target} (the clone the ifunc resolver used to pick), in parts
   compiled concurrently; the target is in the digest and the header. *)
let version = 6

(* A kernel: index [c_idx] of one artifact's launch table.  The table
   pointer is a raw [dlsym] result (never freed), so the handle is just
   a nativeint. *)
type cfn = { c_tbl : nativeint; c_idx : int }

external cjit_load : string -> string -> int -> nativeint = "functs_cjit_load"
external host_avx2 : unit -> bool = "functs_cjit_host_avx2"
external cjit_last_error : unit -> string = "functs_cjit_error"

external cjit_call :
  nativeint -> int -> float array array -> int array -> int -> int -> int ->
  int = "functs_cjit_call_bytecode" "functs_cjit_call"
[@@noalloc]

let call_c c bufs ints stmt lo hi = cjit_call c.c_tbl c.c_idx bufs ints stmt lo hi

let hit_c = Metrics.counter "jit.c.hit"
let miss_c = Metrics.counter "jit.c.miss"
let compiles_c = Metrics.counter "jit.c.compiles"
let parts_c = Metrics.counter "jit.c.compile_parts"
let evicted_c = Metrics.counter "jit.c.evicted"

(* The ISA a unit is compiled for.  [Avx2] is exactly the clone that
   [target_clones("avx2","default")] resolved to on an AVX2 host, so the
   machine code that runs, and every result bit, is what it was under
   clones: [-mavx2] enables no FMA, and [-ffp-contract=off] stays. *)
type target = Avx2 | Generic

let target_name = function Avx2 -> "avx2" | Generic -> "generic"
let target_flags = function Avx2 -> " -mavx2" | Generic -> ""
let host_target = if host_avx2 () then Avx2 else Generic

(* The compiler probe shells out once per distinct command and caches
   the verdict for the process lifetime; [set_c_compiler] drops the
   stale memo entry so a replaced toolchain is re-probed (tests swap in
   a deliberately missing compiler and back).  The default is plain
   [cc]; [FUNCTS_JIT_CC] overrides it through [Config.of_env]. *)
let lock = Mutex.create ()
let probes : (string, bool) Hashtbl.t = Hashtbl.create 4
let c_cmd = ref "cc"
let probe_cmd cmd = cmd ^ " --version >/dev/null 2>&1"

let set_c_compiler cmd =
  Mutex.protect lock (fun () ->
      c_cmd := cmd;
      Hashtbl.remove probes (probe_cmd cmd))

(* Callers hold [lock]. *)
let c_available_locked () =
  let cmd = probe_cmd !c_cmd in
  match Hashtbl.find_opt probes cmd with
  | Some ok -> ok
  | None ->
      let ok = Sys.command cmd = 0 in
      Hashtbl.replace probes cmd ok;
      ok

let c_toolchain_available () = Mutex.protect lock c_available_locked
let loaded : (string, nativeint) Hashtbl.t = Hashtbl.create 8
let prepared_dirs : (string, unit) Hashtbl.t = Hashtbl.create 4

(* Test hook: forgetting the in-process tables simulates a fresh
   process, so the disk-hit path can be exercised in one binary. *)
let clear_loaded () =
  Mutex.protect lock (fun () ->
      Hashtbl.reset loaded;
      Hashtbl.reset prepared_dirs)

let prefix = "functs_cjit_v"
let artifact_base digest = Printf.sprintf "%s%d_%s" prefix version digest
let artifact_name digest = artifact_base digest ^ ".so"
let artifact_path ~dir ~digest = Filename.concat dir (artifact_name digest)

let header ~target digest =
  Printf.sprintf "functs-cjit/v%d/%s/%s" version (target_name target) digest

let rec mkdir_p d =
  if d = "" || d = "/" || d = "." || Sys.file_exists d then ()
  else begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let evict path =
  Sys.remove path;
  Metrics.incr evicted_c;
  Functs_obs.Journal.record Cache_evict "jit.artifact_cache"
    ~detail:(Filename.basename path)

(* Drop every artifact (and leftover lock) stamped with a different
   codegen version, and everything the retired OCaml-source lane left
   behind ([functs_jit_v*] plugins and their locks): their layout
   assumptions no longer hold, and nothing will ever load them again. *)
let evict_stale dir =
  match Sys.readdir dir with
  | exception _ -> ()
  | files ->
      let keep = Printf.sprintf "%s%d_" prefix version in
      Array.iter
        (fun f ->
          if
            (String.starts_with ~prefix f && not (String.starts_with ~prefix:keep f))
            || String.starts_with ~prefix:"functs_jit_v" f
          then try evict (Filename.concat dir f) with _ -> ())
        files

let read_excerpt path =
  match open_in path with
  | exception _ -> ""
  | ic ->
      let n = min 400 (in_channel_length ic) in
      let b = really_input_string ic n in
      close_in ic;
      String.map (function '\n' -> ' ' | c -> c) b

(* Same-key compiles across processes serialize on a lockfile; a holder
   that died leaves a lock older than [stale_after], which the next
   waiter breaks.  Waiters poll for the artifact itself, so the winner's
   atomic rename releases everyone at once. *)
let stale_after = 60.0
let lock_wait = 10.0

let acquire_or_wait ~lockpath ~final =
  let try_acquire () =
    match Unix.openfile lockpath Unix.[ O_CREAT; O_EXCL; O_WRONLY ] 0o644 with
    | fd ->
        Unix.close fd;
        `Acquired
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> `Held
    | exception _ -> `Acquired
    (* an unwritable directory surfaces as the real compile error *)
  in
  match try_acquire () with
  | `Acquired -> `Acquired
  | `Held ->
      let deadline = Unix.gettimeofday () +. lock_wait in
      let rec wait () =
        if Sys.file_exists final then `Appeared
        else if Unix.gettimeofday () > deadline then `Timeout
        else begin
          (match Unix.stat lockpath with
          | st when Unix.gettimeofday () -. st.Unix.st_mtime > stale_after -> (
              try Sys.remove lockpath with _ -> ())
          | _ -> ()
          | exception _ -> ());
          match try_acquire () with
          | `Acquired -> `Acquired
          | `Held ->
              Unix.sleepf 0.05;
              wait ()
        end
      in
      wait ()

(* [-ffp-contract=off] keeps every multiply-add as two IEEE operations
   (bitwise parity with the interpreter, same discipline as
   gemm_stubs.c); [-fno-math-errno]/[-fno-trapping-math] change no bit
   patterns but let GCC vectorise sqrt/div.  Transcendental calls are
   the one sanctioned departure from bitwise: the generated unit
   declares simd variants of exp/log/tanh/pow, so the first attempt
   links [-lmvec] (glibc's vector libm, <= 4 ulp of scalar); when that
   compile or link fails the retry defines [FUNCTS_NO_VECLIBM] and the
   same source compiles back down to bitwise scalar libm. *)
let compile_flags =
  "-O3 -fPIC -ffp-contract=off -fno-math-errno -fno-trapping-math"

(* [Sys.command] semantics without the wait: [cmd] runs under
   [/bin/sh -c], so a compiler string may carry its own arguments. *)
let spawn cmd =
  Unix.create_process "/bin/sh" [| "/bin/sh"; "-c"; cmd |] Unix.stdin
    Unix.stdout Unix.stderr

let rec reap pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED rc -> rc
  | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> 255
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid

(* Start every command, then reap every child: the first nonzero exit
   status, or 0. *)
let run_all cmds =
  let started =
    List.map (fun cmd -> try Some (spawn cmd) with _ -> None) cmds
  in
  List.fold_left
    (fun acc pid ->
      let rc = match pid with Some pid -> reap pid | None -> 127 in
      if acc <> 0 then acc else rc)
    0 started

let compile_artifact ~dir ~target ~digest ~parts =
  Tracer.span "jit.c.compile" @@ fun () ->
  let base = artifact_base digest in
  let final = artifact_path ~dir ~digest in
  let build =
    Filename.concat dir
      (Printf.sprintf "build-%d-c-%s" (Unix.getpid ()) digest)
  in
  try
    mkdir_p build;
    if not (Sys.file_exists build && Sys.is_directory build) then
      Error ("cannot create build directory " ^ build)
    else begin
      let file i ext =
        Filename.concat build (Printf.sprintf "%s.part%d.%s" base i ext)
      in
      List.iteri
        (fun i part ->
          let oc = open_out (file i "c") in
          output_string oc part;
          close_out oc)
        parts;
      Metrics.incr ~by:(List.length parts) parts_c;
      let out = Filename.concat build (base ^ ".so") in
      let link_log = Filename.concat build "link.log" in
      let logs = List.mapi (fun i _ -> file i "log") parts @ [ link_log ] in
      let compiler = !c_cmd in
      let attempt extra libs =
        let compile i _ =
          Printf.sprintf "%s %s%s %s -c -o %s %s > %s 2>&1" compiler
            compile_flags (target_flags target) extra
            (Filename.quote (file i "o"))
            (Filename.quote (file i "c"))
            (Filename.quote (file i "log"))
        in
        match run_all (List.mapi compile parts) with
        | 0 ->
            let objs =
              String.concat " "
                (List.mapi (fun i _ -> Filename.quote (file i "o")) parts)
            in
            run_all
              [
                Printf.sprintf "%s -shared -o %s %s %s > %s 2>&1" compiler
                  (Filename.quote out) objs libs (Filename.quote link_log);
              ]
        | rc -> rc
      in
      let rc =
        match attempt "" "-lmvec -lm" with
        | 0 -> 0
        | _ -> attempt "-DFUNCTS_NO_VECLIBM" "-lm"
      in
      let cleanup () =
        Array.iter
          (fun f -> try Sys.remove (Filename.concat build f) with _ -> ())
          (try Sys.readdir build with _ -> [||]);
        try Unix.rmdir build with _ -> ()
      in
      if rc <> 0 then begin
        let excerpt =
          List.find_map
            (fun log -> match read_excerpt log with "" -> None | e -> Some e)
            logs
          |> Option.value ~default:""
        in
        cleanup ();
        Error (Printf.sprintf "%s failed (rc %d): %s" compiler rc excerpt)
      end
      else begin
        Metrics.incr compiles_c;
        match Sys.rename out final with
        | () ->
            cleanup ();
            Ok ()
        | exception e ->
            cleanup ();
            Error ("artifact install: " ^ Printexc.to_string e)
      end
    end
  with e -> Error ("artifact compile: " ^ Printexc.to_string e)

let load_artifact path ~expect_header ~nfns =
  Tracer.span "jit.c.load" @@ fun () ->
  let tbl = cjit_load path expect_header nfns in
  if tbl = 0n then Error (Printf.sprintf "%s: %s" path (cjit_last_error ()))
  else Ok tbl

let get_or_build ~dir ~target ~digest ~parts ~nfns =
  Mutex.protect lock @@ fun () ->
  match Hashtbl.find_opt loaded digest with
  | Some tbl ->
      Metrics.incr hit_c;
      Ok tbl
  | None ->
      (* An unusable directory (no permission, path under a file, …)
         must degrade, not raise: the compile step below reports the
         real error as an [Error _]. *)
      (try mkdir_p dir with _ -> ());
      if not (Hashtbl.mem prepared_dirs dir) then begin
        Hashtbl.replace prepared_dirs dir ();
        evict_stale dir
      end;
      let expect_header = header ~target digest in
      let final = artifact_path ~dir ~digest in
      let finish path =
        match load_artifact path ~expect_header ~nfns with
        | Ok tbl ->
            Hashtbl.replace loaded digest tbl;
            Ok tbl
        | Error e ->
            (* a corrupt or foreign artifact would otherwise wedge every
               process *)
            (try evict path with _ -> ());
            Error e
      in
      if Sys.file_exists final then begin
        Metrics.incr hit_c;
        finish final
      end
      else if not (c_available_locked ()) then Error "C toolchain unavailable"
      else begin
        Metrics.incr miss_c;
        let lockpath = final ^ ".lock" in
        match acquire_or_wait ~lockpath ~final with
        | `Appeared -> finish final
        | `Timeout -> Error "timed out waiting for concurrent compile"
        | `Acquired ->
            Fun.protect
              ~finally:(fun () -> try Sys.remove lockpath with _ -> ())
              (fun () ->
                if Sys.file_exists final then finish final
                else
                  match compile_artifact ~dir ~target ~digest ~parts with
                  | Ok () -> finish final
                  | Error e -> Error e)
      end

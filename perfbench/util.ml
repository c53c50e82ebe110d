(* Small helpers shared by the workloads: wall clock, order statistics,
   process memory and the private working directory. *)

let now = Unix.gettimeofday

(* [time f] is [f ()] and its wall time in seconds. *)
let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* --- order statistics --- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear-interpolated quantile, [q] in [0, 1]; 0 on an empty sample. *)
let quantile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

let geomean = function
  | [] -> 0.
  | xs ->
      exp
        (List.fold_left (fun acc x -> acc +. log (Float.max x 1e-12)) 0. xs
        /. float_of_int (List.length xs))

let sum = List.fold_left ( +. ) 0.
let ratio a b = if b = 0. then 0. else a /. b
let mean xs = ratio (sum xs) (float_of_int (List.length xs))

(* --- process memory --- *)

(* Peak resident set size in MB, from the kernel's high-water mark. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %f" (fun kb -> kb /. 1024.)
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v

(* Reset the kernel's high-water mark to the current resident set, so a
   later {!peak_rss_mb} covers only what ran in between. *)
let reset_peak_rss () =
  match open_out "/proc/self/clear_refs" with
  | exception Sys_error _ -> ()
  | oc -> ( try output_string oc "5"; close_out oc with Sys_error _ -> ())

(* --- the private working directory --- *)

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      (try Unix.rmdir p with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove p with Sys_error _ -> ())

(* Total size in KB of the regular files under [p]. *)
let rec du_kb p =
  match Unix.lstat p with
  | exception Unix.Unix_error _ -> 0.
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left
        (fun acc f -> acc +. du_kb (Filename.concat p f))
        0. (Sys.readdir p)
  | { Unix.st_kind = Unix.S_REG; st_size; _ } -> float_of_int st_size /. 1024.
  | _ -> 0.

(* Every file the benchmark writes lives under this directory of the
   checkout it runs in (ignored by git); [PERFBENCH_WORK] overrides it. *)
let work_root () =
  match Sys.getenv_opt "PERFBENCH_WORK" with
  | Some d when d <> "" -> d
  | _ -> ".perfbench_work"

(* A fresh directory private to this process, removed at exit. *)
let scratch_dir name =
  let d =
    Filename.concat (work_root ())
      (Printf.sprintf "%s-%d-%d" name (Unix.getpid ())
         (int_of_float (now () *. 1e3) land 0xffffff))
  in
  rm_rf d;
  mkdir_p d;
  at_exit (fun () -> rm_rf d);
  d

(* --- progress on standard error --- *)

(* CPU time the hypervisor gave to other guests, in clock ticks, summed
   over all CPUs ("steal" in /proc/stat). *)
let steal_ticks () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> 0
  | ic ->
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      (match String.split_on_char ' ' line |> List.filter (( <> ) "") with
      | _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ ->
          Option.value (int_of_string_opt steal) ~default:0
      | _ -> 0)

(* Steal ticks over [wall] seconds as a percentage of the host's CPU time
   (the kernel counts 100 ticks per CPU-second). *)
let steal_pct ~ticks ~wall =
  100. *. ratio (float_of_int ticks)
    (100. *. float_of_int (Domain.recommended_domain_count ()) *. wall)

let t_start = now ()
let steal_start = steal_ticks ()

let progress fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "[perfbench %6.1fs steal %d] %s\n%!" (now () -. t_start)
        (steal_ticks () - steal_start) msg)
    fmt

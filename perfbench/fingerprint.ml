(* What a result depends on besides the code under test.  Every result
   is stamped with this record, and [compare] flags any comparison whose
   two sides differ in it: a number from another host, toolchain, domain
   count or program version is not a like-for-like baseline.  (yolact
   runs 11.9 ms per run at 1 domain and 0.76 ms at 2 on the same box.) *)

open Functs

let read_file path =
  match open_in path with
  | exception Sys_error _ -> ""
  | ic ->
      let b = Buffer.create 4096 in
      (try
         while true do
           Buffer.add_channel b ic 1
         done
       with End_of_file -> ());
      close_in ic;
      Buffer.contents b

let cpu_flags () =
  let info = read_file "/proc/cpuinfo" in
  let lines = String.split_on_char '\n' info in
  let flags =
    List.find_opt
      (fun l -> String.length l > 5 && String.sub l 0 5 = "flags")
      lines
    |> Option.map (fun l -> String.split_on_char ' ' l)
    |> Option.value ~default:[]
  in
  let nproc =
    List.length
      (List.filter
         (fun l -> String.length l > 9 && String.sub l 0 9 = "processor")
         lines)
  in
  (nproc, List.mem "avx2" flags, List.mem "avx512f" flags)

(* First line of [cmd]'s output; the child is reaped before returning. *)
let first_line cmd =
  match Unix.open_process_in (cmd ^ " 2>/dev/null") with
  | exception Unix.Unix_error _ -> "unavailable"
  | ic ->
      let line = try input_line ic with End_of_file -> "unavailable" in
      ignore (Unix.close_process_in ic);
      line

(* Digest of a program's printed graph: changes whenever the workload's
   program (or the frontend that lowers it) changes. *)
let graph_digest (w : Workload.t) ~batch ~seq =
  Digest.to_hex
    (Digest.string (Printer.to_string (Workload.graph w ~batch ~seq)))

type t = (string * string) list

let make ~domains ~programs : t =
  let nproc, avx2, avx512 = cpu_flags () in
  [
    ("nproc", string_of_int nproc);
    ("recommended_domains", string_of_int (Domain.recommended_domain_count ()));
    ("domains", string_of_int domains);
    ("avx2", string_of_bool avx2);
    ("avx512", string_of_bool avx512);
    ("cc", first_line "cc --version");
    ("ocaml", Sys.ocaml_version);
    ("jit_version", string_of_int Jit.version);
  ]
  @ List.map
      (fun (label, w, batch, seq) ->
        ("graph." ^ label, String.sub (graph_digest w ~batch ~seq) 0 16))
      programs

let to_json (fp : t) = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) fp)

let of_json j : t =
  match j with
  | Json.Obj kvs ->
      List.filter_map
        (function k, Json.Str v -> Some (k, v) | _ -> None)
        kvs
  | _ -> []

(* Keys whose values differ, or that only one side has. *)
let mismatches (a : t) (b : t) =
  let keys =
    List.sort_uniq compare (List.map fst a @ List.map fst b)
  in
  List.filter_map
    (fun k ->
      let va = List.assoc_opt k a and vb = List.assoc_opt k b in
      if va = vb then None
      else
        let show = Option.value ~default:"(absent)" in
        Some (k, show va, show vb))
    keys

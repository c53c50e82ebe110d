(* Windows over the counters and the decision journal the program already
   keeps: snapshot before, snapshot after, take the difference. *)

open Functs

type snap = {
  counters : (string * int) list;
  journal_t : float;  (** journal timestamp (µs since its epoch) at the snapshot *)
  wall : float;
  gc : Gc.stat;
}

let take () =
  let journal_t =
    match List.rev (Journal.entries ()) with e :: _ -> e.Journal.j_ts | [] -> 0.
  in
  {
    counters = (Metrics.snapshot ()).Metrics.counters;
    journal_t;
    wall = Util.now ();
    gc = Gc.quick_stat ();
  }

let get s name = Option.value (List.assoc_opt name s.counters) ~default:0

(* [delta a b name]: counter growth from snapshot [a] to the later [b]. *)
let delta a b name = float_of_int (get b name - get a name)

(* Journal entries of [kind] recorded after snapshot [a]. *)
let journal_count a kind =
  List.length
    (List.filter
       (fun e -> e.Journal.j_kind = kind && e.Journal.j_ts > a.journal_t)
       (Journal.entries ()))

(* Words allocated by this domain between two snapshots, in MB. *)
let alloc_mb a b =
  let words s = s.gc.Gc.minor_words +. s.gc.Gc.major_words -. s.gc.Gc.promoted_words in
  (words b -. words a) *. float_of_int (Sys.word_size / 8) /. 1e6

let major_gcs a b =
  float_of_int (b.gc.Gc.major_collections - a.gc.Gc.major_collections)

(* Counter deltas as an association list (for a child's report). *)
let diff a b =
  List.filter_map
    (fun (k, v) ->
      let d = v - get a k in
      if d <> 0 then Some (k, d) else None)
    b.counters

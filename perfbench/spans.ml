(* The benchmark's own in-memory span recorder, used only by traced runs.

   It records spans around the benchmark's calls into each layer's public
   functions (never inside the program: [Functs.Tracer] stays off, so the
   program's internal spans cost nothing).  A span has a name, a start, an
   end, a parent and a request id; the spans of one served request share
   its ticket id.  A layer's self time is its span's duration minus the
   part of that interval its child spans cover.

   Recording is single-threaded: spans open and close on the calling
   thread, and spans measured elsewhere (a served request's stages) are
   added after the fact with {!add}. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root *)
  req : int;  (** ticket id, -1 when the span belongs to no request *)
  t0 : float;
  t1 : float;
}

let on = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let open_stack : int list ref = ref []

let start () =
  on := true;
  recorded := [];
  open_stack := []

let stop () = on := false

(* Suspend / continue recording without dropping what was recorded. *)
let pause () = on := false
let resume () = on := true

let fresh () =
  let id = !next_id in
  incr next_id;
  id

let current () = match !open_stack with p :: _ -> p | [] -> -1

(* [with_span name f] runs [f] inside a span named [name]; a plain call
   when recording is off. *)
let with_span ?(req = -1) name f =
  if not !on then f ()
  else begin
    let id = fresh () in
    let parent = current () in
    open_stack := id :: !open_stack;
    let t0 = Util.now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Util.now () in
        open_stack := List.tl !open_stack;
        recorded := { id; name; parent; req; t0; t1 } :: !recorded)
      f
  end

(* Record a span measured outside [with_span]; returns its id so children
   can name it as their parent. *)
let add ?(req = -1) ?parent name ~t0 ~t1 =
  if not !on then -1
  else begin
    let id = fresh () in
    let parent = match parent with Some p -> p | None -> current () in
    recorded := { id; name; parent; req; t0; t1 } :: !recorded;
    id
  end

let all () = List.rev !recorded

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        if b <= reach then (acc, reach)
        else (acc +. (b -. Float.max a reach), b))
      (0., neg_infinity) sorted
  in
  total

(* Self time in seconds of every span, keyed by span id. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.t0, s.t1)
          :: Option.value (Hashtbl.find_opt children s.parent) ~default:[]))
    spans;
  List.map
    (fun s ->
      let kids = Option.value (Hashtbl.find_opt children s.id) ~default:[] in
      (s, s.t1 -. s.t0 -. covered ~lo:s.t0 ~hi:s.t1 kids))
    spans

(* Summed self time (seconds) of the spans named [name]. *)
let self_s spans name =
  List.fold_left
    (fun acc (s, self) -> if s.name = name then acc +. self else acc)
    0. (self_times spans)

(* The layer ledger: per-layer self times, where a span's layer is the
   part of its name before the first '.'.  Spans named [root] are the
   benchmark's own frame around the timed phase; their self time is the
   time no layer span covers, reported as the unattributed remainder. *)
type ledger = {
  layers : (string * float) list;  (** layer → self seconds *)
  layer_sum_s : float;
  root_s : float;  (** wall time of the root spans *)
  unattributed_s : float;
}

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let ledger ~root spans =
  let tbl = Hashtbl.create 8 in
  let unattributed = ref 0. and root_s = ref 0. in
  List.iter
    (fun (s, self) ->
      if s.name = root then begin
        unattributed := !unattributed +. self;
        root_s := !root_s +. (s.t1 -. s.t0)
      end
      else
        let l = layer_of s.name in
        Hashtbl.replace tbl l
          (self +. Option.value (Hashtbl.find_opt tbl l) ~default:0.))
    (self_times spans);
  let layers =
    Hashtbl.fold (fun l v acc -> (l, v) :: acc) tbl [] |> List.sort compare
  in
  {
    layers;
    layer_sum_s = List.fold_left (fun acc (_, v) -> acc +. v) 0. layers;
    root_s = !root_s;
    unattributed_s = !unattributed;
  }

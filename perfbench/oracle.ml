(* Programs, the seeded request generator and the reference oracle.

   A request is one input set for one program.  Input sets are drawn from
   the workload seed: only the per-request tensors (the declared
   batch-axis arguments) are redrawn with [Workload.rand_tensor]; shared
   arguments (weights, anchor tables, thresholds, scalars) are reused as
   the very same values, so requests stay bucketable — the serving layer
   only batches requests whose shared arguments are physically equal.  A
   program without a batching declaration is one request per call, so all
   of its tensors are redrawn.

   Expected outputs come from the reference interpreter ([Eval.run]) on a
   graph lowered independently of the one the engine compiles, computed
   before the timed phase and outside set-up. *)

open Functs

type program = {
  label : string;  (** e.g. ["yolov3"], ["lstm@64"] *)
  w : Workload.t;
  batch : int;
  seq : int;
}

let program ?seq name =
  match Functs.find_workload name with
  | Error e -> failwith (Error.to_string e)
  | Ok w ->
      let label, seq =
        match seq with
        | Some s -> (Printf.sprintf "%s@%d" name s, s)
        | None -> (name, w.Workload.default_seq)
      in
      { label; w; batch = w.Workload.default_batch; seq }

let native_args p = p.w.Workload.inputs ~batch:p.batch ~seq:p.seq

(* Which arguments a request owns (redrawn per request). *)
let per_request p args =
  match p.w.Workload.batching with
  | Some bx -> List.map Option.is_some bx.Workload.input_axes
  | None ->
      List.map (function Value.Tensor _ -> true | _ -> false) args

(* Outputs in plain data, so they can cross a process boundary. *)
type flat =
  | T of int array * float array  (** shape, row-major contents *)
  | I of int
  | F of float
  | B of bool
  | L of flat list

let rec flatten = function
  | Value.Tensor t -> T (Array.copy t.Tensor.shape, Tensor.to_flat_array t)
  | Value.Int i -> I i
  | Value.Float f -> F f
  | Value.Bool b -> B b
  | Value.List vs -> L (List.map flatten vs)

type request = {
  r_program : program;
  r_set : int;  (** index of the input set within its program *)
  r_args : Value.t list;
  mutable r_expected : flat list;
}

let input_sets ~seed p ~k =
  let base = native_args p in
  let owned = per_request p base in
  Array.init k (fun i ->
      let st = Random.State.make [| seed; Hashtbl.hash p.label; i |] in
      let args =
        List.map2
          (fun own v ->
            match (own, v) with
            | true, Value.Tensor t -> Workload.rand_tensor st t.Tensor.shape
            | _ -> v)
          owned base
      in
      { r_program = p; r_set = i; r_args = args; r_expected = [] })

let clone_args =
  List.map (function
    | Value.Tensor t -> Value.Tensor (Tensor.clone t)
    | v -> v)

(* Fill [r_expected] for every request; returns the interpreter's wall
   time per request in seconds.  The interpreter may write through its
   arguments (imperative semantics), so it gets copies. *)
let compute_expected (reqs : request array) =
  let graphs = Hashtbl.create 8 in
  Array.to_list
    (Array.map
       (fun r ->
         let p = r.r_program in
         let g =
           match Hashtbl.find_opt graphs p.label with
           | Some g -> g
           | None ->
               let g = Workload.graph p.w ~batch:p.batch ~seq:p.seq in
               Hashtbl.add graphs p.label g;
               g
         in
         let args = clone_args r.r_args in
         let out, dt = Util.time (fun () -> Eval.run g args) in
         r.r_expected <- List.map flatten out;
         dt)
       reqs)

(* --- the check --- *)

(* Bitwise equality, or the C lane's declared tolerance: its vectorised
   transcendentals go through glibc's libmvec, specified to within 4 ulp
   of scalar libm, which [atol 1e-12, rtol 1e-9] bounds with margin. *)
let close a b =
  a = b
  || Float.abs (a -. b) <= 1e-12 +. (1e-9 *. Float.abs a)
  || (Float.is_nan a && Float.is_nan b)

let arrays_match (a : float array) (b : float array) =
  Array.length a = Array.length b
  &&
  let ok = ref true and i = ref 0 in
  while !ok && !i < Array.length a do
    ok := close (Array.unsafe_get a !i) (Array.unsafe_get b !i);
    incr i
  done;
  !ok

let rec flat_matches expected got =
  match (expected, got) with
  | T (sa, a), T (sb, b) -> sa = sb && arrays_match a b
  | I a, I b -> a = b
  | B a, B b -> a = b
  | F a, F b -> close a b
  | L a, L b -> List.length a = List.length b && List.for_all2 flat_matches a b
  | _ -> false

(* The same check straight on an engine output, without copying it. *)
let rec value_matches expected got =
  match (expected, got) with
  | T (sa, a), Value.Tensor t
    when Tensor.is_contiguous t && Array.length a = Tensor.numel t ->
      sa = t.Tensor.shape
      &&
      let st = t.Tensor.storage and off = t.Tensor.offset in
      let ok = ref true and i = ref 0 in
      while !ok && !i < Array.length a do
        ok :=
          close (Array.unsafe_get a !i) (Functs_tensor.Storage.get st (off + !i));
        incr i
      done;
      !ok
  | L a, Value.List b ->
      List.length a = List.length b && List.for_all2 value_matches a b
  | _ -> flat_matches expected (flatten got)

let matches_flat r got =
  List.length r.r_expected = List.length got
  && List.for_all2 flat_matches r.r_expected got

let matches r got =
  List.length r.r_expected = List.length got
  && List.for_all2 value_matches r.r_expected got

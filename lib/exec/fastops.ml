(* Direct-storage kernels for the executor's per-node path.

   The interpreter's Ops are the semantic reference and stay naive: every
   element goes through an index array and a strided linear-index
   computation.  The executor replaces the hot operators with loops over
   the raw storage arrays — every elementwise map through one strided
   iterator over native inner loops, matmul / softmax / reductions as
   direct loops — and falls back to the interpreter for everything else.
   Operations and accumulation orders match the reference exactly, so
   outputs are bitwise identical. *)

open Functs_ir
open Functs_tensor
open Functs_interp

let data (t : Tensor.t) = Storage.data t.Tensor.storage

(* --- intra-kernel data parallelism ---

   Large kernels chunk their outermost independent dimension across the
   engine's persistent domain pool.  Every parallelized operator writes
   each output element from exactly one chunk and accumulates per element
   in the reference order, so results stay bitwise identical to
   sequential execution.  [set_parallel] is (re)bound by [Scheduler.run];
   nested dispatch from a pool worker degrades to sequential inside
   {!Pool.parallel_for}. *)

let grain = 8192
let par_pool : Pool.t option ref = ref None
let par_grain = ref grain

let set_parallel pool ~grain =
  par_pool := pool;
  par_grain := max 1 grain

(* Chunk [n] outer iterations covering [total] elements: parallel only
   when at least two grains of elements exist, with the grain converted
   to outer-iteration units so each chunk stays above it.
   [bytes_per_iter] (traffic per outer iteration) feeds the pool's
   cache-aware task sizing. *)
let pchunk ?(bytes_per_iter = 0) ~total n body =
  match !par_pool with
  | Some p when total >= 2 * !par_grain && n >= 2 ->
      ignore
        (Pool.parallel_for p ~bytes_per_iter
           ~grain:(max 1 (!par_grain / max 1 (total / n)))
           ~n body)
  | _ -> body 0 n

(* Stride of [t] along dim [d] of an [out_nd]-dim broadcast result:
   missing leading dimensions and size-1 dimensions read index 0. *)
let bstride (t : Tensor.t) out_nd d =
  let j = d - (out_nd - Array.length t.Tensor.shape) in
  if j < 0 || t.Tensor.shape.(j) = 1 then 0 else t.Tensor.strides.(j)

(* --- native strided maps (gemm_stubs.c) ---

   One row-form inner loop per arity: [rows] iterations of [n] elements,
   each operand at its own offset, element step and row stride.  The
   stubs apply exactly the reference's operations (same libm symbols,
   Float.max/min/equal spelled operand for operand), so results are
   bitwise identical. *)

(* kind, a, offset, step, row stride, dst, offset, step, row stride,
   rows, n *)
external unary_map :
  int -> float array -> int -> int -> int ->
  float array -> int -> int -> int ->
  int -> int -> unit = "functs_unary_map_bytecode" "functs_unary_map"
[@@noalloc]

(* kind, a (4), b (4), dst (4), rows, n *)
external binary_map :
  int -> float array -> int -> int -> int ->
  float array -> int -> int -> int ->
  float array -> int -> int -> int ->
  int -> int -> unit = "functs_binary_map_bytecode" "functs_binary_map"
[@@noalloc]

(* c (4), a (4), b (4), dst (4), rows, n *)
external where_map :
  float array -> int -> int -> int ->
  float array -> int -> int -> int ->
  float array -> int -> int -> int ->
  float array -> int -> int -> int ->
  int -> int -> unit = "functs_where_map_bytecode" "functs_where_map"
[@@noalloc]

let unary_code : Scalar.unary -> int = function
  | Scalar.Neg -> 0
  | Scalar.Abs -> 1
  | Scalar.Exp -> 2
  | Scalar.Log -> 3
  | Scalar.Sqrt -> 4
  | Scalar.Sigmoid -> 5
  | Scalar.Tanh -> 6
  | Scalar.Relu -> 7

let copy_code = 8

let binary_code : Scalar.binary -> int = function
  | Scalar.Add -> 0
  | Scalar.Sub -> 1
  | Scalar.Mul -> 2
  | Scalar.Div -> 3
  | Scalar.Pow -> 4
  | Scalar.Max -> 5
  | Scalar.Min -> 6
  | Scalar.Lt -> 7
  | Scalar.Gt -> 8
  | Scalar.Eq -> 9

(* --- the elementwise iterator ---

   Every elementwise operator iterates its output's shape with each
   operand at its own (broadcast) strides; [ops] holds the output first,
   then the inputs.  Size-1 dims are dropped and adjacent dims merge
   whenever every operand's outer stride is the inner extent times its
   inner stride (TensorIterator-style coalescing), so contiguous,
   broadcast and chained views become one flat run.  The outermost
   remaining dim is chunked across the pool (elements when one dim is
   left, so a [3; 100000] view splits into cache-sized tasks), dims
   beyond two loop here, and the last two run in the stub's rows form:
   [kern ops offs st inner row rows n] launches it with operand [op] at
   offset [offs.(op)], element step [st.(inner + op)] and row stride
   [st.(row + op)].  [offs] is mutated between launches. *)
let map_strided kern (ops : Tensor.t array) =
  let shape = ops.(0).Tensor.shape in
  let total = Shape.numel shape in
  if total > 0 then begin
    let nd = Array.length shape and nops = Array.length ops in
    (* coalesced dims, innermost first: extent [ext.(j)], stride of
       operand [op] at [st.((j * nops) + op)] *)
    let ext = Array.make (max 1 nd) 1 and st = Array.make (max 1 nd * nops) 0 in
    let k = ref 0 in
    for d = nd - 1 downto 0 do
      let n = shape.(d) in
      if n > 1 then begin
        let j = !k - 1 in
        let op = ref 0 in
        if j >= 0 then
          while
            !op < nops
            && bstride ops.(!op) nd d = ext.(j) * st.((j * nops) + !op)
          do
            incr op
          done;
        if j >= 0 && !op = nops then ext.(j) <- ext.(j) * n
        else begin
          for op = 0 to nops - 1 do
            st.((!k * nops) + op) <- bstride ops.(op) nd d
          done;
          ext.(!k) <- n;
          incr k
        end
      end
    done;
    let k = max 1 !k in
    let outer = k - 1 in
    let n0 = ext.(outer) in
    let chunk_offs lo =
      let offs = Array.make nops 0 in
      for op = 0 to nops - 1 do
        offs.(op) <- ops.(op).Tensor.offset + (lo * st.((outer * nops) + op))
      done;
      offs
    in
    let advance offs d times =
      for op = 0 to nops - 1 do
        offs.(op) <- offs.(op) + (times * st.((d * nops) + op))
      done
    in
    if k = 1 then
      pchunk ~bytes_per_iter:(8 * nops) ~total n0 (fun lo hi ->
          kern ops (chunk_offs lo) st 0 0 1 (hi - lo))
    else
      pchunk ~bytes_per_iter:(8 * nops * (total / n0)) ~total n0 (fun lo hi ->
          let offs = chunk_offs lo in
          if k = 2 then kern ops offs st 0 nops (hi - lo) ext.(0)
          else
            let rec go d =
              if d = 1 then kern ops offs st 0 nops ext.(1) ext.(0)
              else begin
                for _ = 1 to ext.(d) do
                  go (d - 1);
                  advance offs d 1
                done;
                advance offs d (-ext.(d))
              end
            in
            for _ = lo to hi - 1 do
              go (outer - 1);
              advance offs outer 1
            done)
  end

let unary_kern code ops offs st i r rows n =
  unary_map code (data ops.(1)) offs.(1) st.(i + 1) st.(r + 1) (data ops.(0))
    offs.(0) st.(i) st.(r) rows n

let binary_kern code ops offs st i r rows n =
  binary_map code (data ops.(1)) offs.(1) st.(i + 1) st.(r + 1) (data ops.(2))
    offs.(2) st.(i + 2) st.(r + 2) (data ops.(0)) offs.(0) st.(i) st.(r) rows n

let where_kern ops offs st i r rows n =
  where_map (data ops.(1)) offs.(1) st.(i + 1) st.(r + 1) (data ops.(2))
    offs.(2) st.(i + 2) st.(r + 2) (data ops.(3)) offs.(3) st.(i + 3)
    st.(r + 3) (data ops.(0)) offs.(0) st.(i) st.(r) rows n

(* --- the operators --- *)

(* Output allocation: the scheduler's per-node path passes the engine's
   storage pool via [?alloc] so intermediates recycle instead of hitting
   the major heap on every node.  Every operator below overwrites the
   whole output, so the pool's unspecified contents never leak into
   results.  Without an allocator (worker-domain bodies, external
   callers) outputs are plain zero-filled tensors, as before. *)
let fresh alloc shape =
  match alloc with Some a -> a shape | None -> Tensor.zeros shape

let clone ?alloc t =
  let out = fresh alloc (Tensor.shape t) in
  map_strided (unary_kern copy_code) [| out; t |];
  out

let contig t = if Tensor.is_contiguous t then t else clone t

(* dst <- src (broadcast to dst's shape) when the two share no storage
   and no element of dst aliases another — chunks may then write in any
   order; otherwise defer to the snapshotting reference implementation. *)
let copy_into (dst : Tensor.t) (src : Tensor.t) =
  let ds = Tensor.shape dst and ss = Tensor.shape src in
  if
    Shape.broadcastable ss ds
    && Shape.equal (Shape.broadcast ss ds) ds
    && (not (Tensor.same_storage dst src))
    && not (Array.exists2 (fun n s -> n > 1 && s = 0) ds dst.Tensor.strides)
  then map_strided (unary_kern copy_code) [| dst; src |]
  else ignore (Inplace.copy_ dst src)

(* 0-d operands short-circuit the broadcast/stride machinery entirely:
   overhead-bound workloads (nms) compute on scalar tensors almost
   exclusively. *)
let scalar0 (t : Tensor.t) = (data t).(t.Tensor.offset)

let unary ?alloc fn a =
  if Tensor.ndim a = 0 then Tensor.scalar (Scalar.apply_unary fn (scalar0 a))
  else begin
    let out = fresh alloc (Tensor.shape a) in
    map_strided (unary_kern (unary_code fn)) [| out; a |];
    out
  end

let binary ?alloc fn a b =
  if Tensor.ndim a = 0 && Tensor.ndim b = 0 then
    Tensor.scalar (Scalar.apply_binary fn (scalar0 a) (scalar0 b))
  else begin
    let out = fresh alloc (Shape.broadcast (Tensor.shape a) (Tensor.shape b)) in
    map_strided (binary_kern (binary_code fn)) [| out; a; b |];
    out
  end

let where ?alloc c a b =
  if Tensor.ndim c = 0 && Tensor.ndim a = 0 && Tensor.ndim b = 0 then
    Tensor.scalar (if scalar0 c <> 0.0 then scalar0 a else scalar0 b)
  else begin
    let shape =
      Shape.broadcast
        (Shape.broadcast (Tensor.shape c) (Tensor.shape a))
        (Tensor.shape b)
    in
    let out = fresh alloc shape in
    map_strided where_kern [| out; c; a; b |];
    out
  end

(* Native row-block GEMM (gemm_stubs.c): i-l-j loop order, so each
   output element accumulates its k terms in reference order — bitwise
   identical to the interpreter — while the unit-stride j loop
   vectorizes. *)
external gemm_rows :
  float array ->
  int ->
  float array ->
  int ->
  float array ->
  int ->
  int ->
  int ->
  int ->
  unit = "functs_gemm_bytecode" "functs_gemm"
[@@noalloc]

(* 2-d matmul into a contiguous destination view; [a] and [b] must be
   contiguous.  The l-loop accumulates per output element in the same
   order as the reference, so results are bitwise identical. *)
let matmul2d_into (dst : Tensor.t) (a : Tensor.t) (b : Tensor.t) =
  let m = a.Tensor.shape.(0) and k = a.Tensor.shape.(1) in
  let k' = b.Tensor.shape.(0) and n = b.Tensor.shape.(1) in
  if k <> k' then
    invalid_arg
      (Printf.sprintf "Ops.matmul: inner dimensions %d and %d differ" k k');
  let ad = data a and bd = data b and od = data dst in
  let ao = a.Tensor.offset and bo = b.Tensor.offset and oo = dst.Tensor.offset in
  (* Row blocks are independent and each output element accumulates over
     l in reference order, so chunking rows is bitwise-exact. *)
  (* per row: a row of [a], a row of the output, and [b] streamed once
     (amortized across rows, so only the k + n unique floats count) *)
  pchunk ~bytes_per_iter:(8 * (k + n)) ~total:(m * n * k) m (fun row_lo row_hi ->
      gemm_rows ad
        (ao + (row_lo * k))
        bd bo od
        (oo + (row_lo * n))
        (row_hi - row_lo) k n)

let matmul2d ?alloc a b =
  let a = contig a and b = contig b in
  let out = fresh alloc [| a.Tensor.shape.(0); b.Tensor.shape.(1) |] in
  matmul2d_into out a b;
  out

let matmul ?alloc a b =
  match (Tensor.ndim a, Tensor.ndim b) with
  | 2, 2 -> matmul2d ?alloc a b
  | 3, 2 ->
      let a = contig a and b = contig b in
      let batch = a.Tensor.shape.(0) in
      let m = a.Tensor.shape.(1) and n = b.Tensor.shape.(1) in
      let out = fresh alloc [| batch; m; n |] in
      for i = 0 to batch - 1 do
        matmul2d_into (Tensor.select out ~dim:0 i) (Tensor.select a ~dim:0 i) b
      done;
      out
  | 3, 3 ->
      let ba = a.Tensor.shape.(0) and bb = b.Tensor.shape.(0) in
      if ba <> bb && ba <> 1 && bb <> 1 then
        invalid_arg "Ops.matmul: batch dimensions incompatible";
      let a = contig a and b = contig b in
      let batch = max ba bb in
      let m = a.Tensor.shape.(1) and n = b.Tensor.shape.(2) in
      let out = fresh alloc [| batch; m; n |] in
      for i = 0 to batch - 1 do
        matmul2d_into
          (Tensor.select out ~dim:0 i)
          (Tensor.select a ~dim:0 (if ba = 1 then 0 else i))
          (Tensor.select b ~dim:0 (if bb = 1 then 0 else i))
      done;
      out
  | 1, 2 -> Tensor.select (matmul2d ?alloc (Tensor.unsqueeze a ~dim:0) b) ~dim:0 0
  | 2, 1 -> Tensor.select (matmul2d ?alloc a (Tensor.unsqueeze b ~dim:1)) ~dim:1 0
  | _ -> Ops.matmul a b

(* Lane-wise softmax over the innermost dimension of a contiguous tensor;
   the max / exp-sum / divide sequence matches the reference op-for-op. *)
let softmax ?alloc t ~dim =
  let nd = Tensor.ndim t in
  let dim = Shape.normalize_dim ~ndim:nd dim in
  if nd = 0 || dim <> nd - 1 || not (Tensor.is_contiguous t) then
    Ops.softmax t ~dim
  else begin
    let ext = t.Tensor.shape.(dim) in
    let out = fresh alloc (Tensor.shape t) in
    let td = data t and od = data out in
    let lanes = if ext = 0 then 0 else Tensor.numel t / ext in
    (* Each lane's max / exp-sum / divide is self-contained: chunking the
       outer (lane) dimension preserves the reference order exactly. *)
    pchunk ~bytes_per_iter:(16 * ext) ~total:(lanes * ext) lanes
      (fun lane_lo lane_hi ->
        for lane = lane_lo to lane_hi - 1 do
          let base = t.Tensor.offset + (lane * ext) and ob = lane * ext in
          let m = ref Float.neg_infinity in
          for j = 0 to ext - 1 do
            m := Float.max !m td.(base + j)
          done;
          let s = ref 0.0 in
          for j = 0 to ext - 1 do
            let e = Stdlib.exp (td.(base + j) -. !m) in
            od.(ob + j) <- e;
            s := !s +. e
          done;
          for j = 0 to ext - 1 do
            od.(ob + j) <- od.(ob + j) /. !s
          done
        done);
    out
  end

let reduce_last ?alloc t ~keepdim ~init ~f =
  let nd = Tensor.ndim t in
  let ext = t.Tensor.shape.(nd - 1) in
  let out_shape = Array.init nd (fun i -> if i = nd - 1 then 1 else t.Tensor.shape.(i)) in
  let out = fresh alloc out_shape in
  let td = data t and od = data out in
  let lanes = if ext = 0 then 0 else Tensor.numel t / ext in
  (* One output element per lane, accumulated in reference order. *)
  pchunk ~bytes_per_iter:(8 * ext) ~total:(lanes * ext) lanes
    (fun lane_lo lane_hi ->
      for lane = lane_lo to lane_hi - 1 do
        let base = t.Tensor.offset + (lane * ext) in
        let acc = ref init in
        for j = 0 to ext - 1 do
          acc := f !acc td.(base + j)
        done;
        od.(lane) <- !acc
      done);
  if keepdim then out else Tensor.squeeze out ~dim:(nd - 1)

let reduce_dim ?alloc t ~dim ~keepdim ~init ~f ~fallback =
  let nd = Tensor.ndim t in
  if nd = 0 then fallback t ~dim ~keepdim
  else
    let d = Shape.normalize_dim ~ndim:nd dim in
    if d = nd - 1 && Tensor.is_contiguous t then
      reduce_last ?alloc t ~keepdim ~init ~f
    else fallback t ~dim ~keepdim

let sum_dim ?alloc t ~dim ~keepdim =
  reduce_dim ?alloc t ~dim ~keepdim ~init:0.0 ~f:( +. ) ~fallback:Ops.sum_dim

let max_dim ?alloc t ~dim ~keepdim =
  reduce_dim ?alloc t ~dim ~keepdim ~init:Float.neg_infinity ~f:Float.max
    ~fallback:Ops.max_dim

let sum t =
  let acc = ref 0.0 in
  if Tensor.is_contiguous t then begin
    let td = data t and n = Tensor.numel t in
    for i = 0 to n - 1 do
      acc := !acc +. td.(t.Tensor.offset + i)
    done
  end
  else Tensor.iteri t (fun _ v -> acc := !acc +. v);
  Tensor.scalar !acc

(* Scalar-like operands (0-d tensors and Int/Float/Bool constants) skip
   [Value.to_tensor] promotion — the promoted 0-d tensor would be read back
   out one instruction later.  [is_scal]/[scal_val] split the test from the
   read so the fast arms allocate nothing but the result. *)
let is_scal = function
  | Value.Tensor t -> Tensor.ndim t = 0
  | Value.List _ -> false
  | Value.Int _ | Value.Float _ | Value.Bool _ -> true

let scal_val = function
  | Value.Tensor t -> scalar0 t
  | Value.Int i -> float_of_int i
  | Value.Float f -> f
  | Value.Bool b -> if b then 1.0 else 0.0
  | Value.List _ -> invalid_arg "Fastops.scal_val: list value"

let apply_op ?alloc (node : Graph.node) (inputs : Value.t list) =
  let tin i = Value.to_tensor (List.nth inputs i) in
  match node.n_op with
  | Op.Unary fn -> (
      match inputs with
      | [ a ] when is_scal a ->
          [ Value.Tensor (Tensor.scalar (Scalar.apply_unary fn (scal_val a))) ]
      | _ -> [ Value.Tensor (unary ?alloc fn (tin 0)) ])
  | Op.Binary fn -> (
      match inputs with
      | [ a; b ] when is_scal a && is_scal b ->
          [
            Value.Tensor
              (Tensor.scalar (Scalar.apply_binary fn (scal_val a) (scal_val b)));
          ]
      | _ -> [ Value.Tensor (binary ?alloc fn (tin 0) (tin 1)) ])
  | Op.Matmul -> [ Value.Tensor (matmul ?alloc (tin 0) (tin 1)) ]
  | Op.Softmax { dim } -> [ Value.Tensor (softmax ?alloc (tin 0) ~dim) ]
  | Op.Sum_dim { dim; keepdim } ->
      [ Value.Tensor (sum_dim ?alloc (tin 0) ~dim ~keepdim) ]
  | Op.Max_dim { dim; keepdim } ->
      [ Value.Tensor (max_dim ?alloc (tin 0) ~dim ~keepdim) ]
  | Op.Sum -> [ Value.Tensor (sum (tin 0)) ]
  | Op.Where -> (
      match inputs with
      | [ c; a; b ] when is_scal c && is_scal a && is_scal b ->
          [
            Value.Tensor
              (Tensor.scalar
                 (if scal_val c <> 0.0 then scal_val a else scal_val b));
          ]
      | _ -> [ Value.Tensor (where ?alloc (tin 0) (tin 1) (tin 2)) ])
  | Op.Clone -> [ Value.Tensor (clone ?alloc (tin 0)) ]
  | _ -> Eval.apply_op node inputs

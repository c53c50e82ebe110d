open Functs_ir
open Functs_tensor
open Functs_core
open Codegen

(* Lowers one fused kernel to C: per statement, a flat nested loop over
   the baked output shape with [lo, hi) splitting the outermost
   dimension, reads and writes through caller-bound buffers.  The
   generated unit is standalone C over <math.h> — it never includes
   OCaml runtime headers — and is compiled with [-ffp-contract=off] so
   every emitted operation maps to exactly the IEEE operation the
   interpreter performs (the same discipline as [gemm_stubs.c]).

   The rendered function is position-independent: every tensor binding
   arrives through two caller-built arrays,

     bufs : double *[]   statement outputs, then read sites
     ints : long []      per read site [offset; strides; buffer length],
                         per statement the output offset, then the free
                         scalars

   and the emitter computes that launch layout itself while it walks the
   kernel ({!emitted}: site slots, ints positions, static index bounds,
   free scalars), so the artifact depends only on the kernel's structure
   and baked shapes, never on runtime addresses.

   Every site address decomposes into a hoisted base (offset plus
   constant and free-scalar parts) plus one integer coefficient per loop
   variable, because the index grammar ([Codegen.ix]) is purely affine.
   The innermost loop is emitted twice behind a runtime guard on the
   innermost coefficients: when every innermost-dependent site has
   stride 1 the fast variant indexes [b[p + i]] — contiguous, so GCC
   auto-vectorises it — and otherwise a generic [b[p + i*c]] variant
   runs.  Both orders are element-identical, so the guard never changes
   results.  Root reductions additionally block the innermost *output*
   dimension by 4 with independent accumulators: each output element
   still folds its reduction terms in ascending order (bitwise identical
   to the scalar loop), but the four chains break the serial dependence
   and SLP-vectorise on the unit-stride path.

   Safety.  A site whose indices use only loop and reduction variables
   has statically known per-dimension index ranges ([e_bounds]); the
   launcher ([Jit.run]) checks them against the bound tensor's strides
   before every launch.  A site with a free scalar in its index (dynamic select/slice
   operands) gets an emitted {e launch guard}: the min/max flat index
   over the full baked iteration space, computed from the actual strides
   and scalar values, is compared against the buffer length and the
   kernel returns a nonzero status instead of touching memory when the
   range does not fit.  Reads inside a [Ccond] branch may never execute
   at a given point, so instead they get a per-access range check that
   returns the same status.  [Jit.run] maps a nonzero status to
   [Jit.Fallback].

   Float semantics.  [Max]/[Min]/[Eq] binaries and the [Relu] unary are
   spelled out exactly as OCaml's [Float.max]/[Float.min]/[Float.equal]
   (stdlib float.ml), so NaN propagation (which operand's payload wins)
   and signed zeros match the interpreter bit for bit; C's
   fmax/fmin/[==] do not.  Add and Mul feed a NaN first operand to both
   sides, so the first operand's payload wins as in OCaml even where
   GCC commutes them.  [`Max] reductions fold from [-inf] with the same
   [Float.max] in ascending order.  NaN literals are emitted by bit
   pattern.  Neg, Abs, Exp, Log, Sqrt, Tanh, Pow, Sigmoid, Sub, Div, Lt
   and Gt map to the same libm symbols / IEEE operations the interpreter
   uses. *)

exception Reject of string

let fail fmt = Format.kasprintf (fun msg -> raise (Reject msg)) fmt

type esite = {
  e_value : Graph.value;
  e_slot : int;  (* read-site index; its buffer is bufs[nstmts + slot] *)
  e_rank : int;  (* number of index expressions *)
  e_stmt : int;  (* owning statement *)
  e_ints_pos : int;  (* ints position of [offset; strides; length] *)
  e_bounds : (int * int) array option;
      (* per-dimension inclusive index range when statically known;
         [None] for dynamically-indexed or branch-guarded sites, which
         the kernel checks itself *)
}

type estmt = {
  e_out : Graph.value;
  e_store : bool;
  e_shape : int array;
  e_out_pos : int;  (* ints position of the output offset *)
}

type emitted = {
  e_group : int;
  e_name : string;
  e_fn : string;
      (* body of "long k(double **bufs, const long *ints, long stmt,
         long lo, long hi)" — one switch case per statement, returning
         0 or a nonzero guard status *)
  e_sites : esite array;
  e_stmts : estmt array;
  e_free : string array;  (* free scalar symbols, in ints-tail order *)
  e_scalar_pos : int;  (* ints position of the first free scalar *)
  e_nints : int;  (* required length of the ints array *)
}

let nbufs em = Array.length em.e_stmts + Array.length em.e_sites

let ident_ok name =
  name <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '_')
       name

(* [i<d>] with [d] below the statement rank is an output loop variable. *)
let index_dim ~rank name =
  if String.length name >= 2 && name.[0] = 'i' then
    match int_of_string_opt (String.sub name 1 (String.length name - 1)) with
    | Some d when d >= 0 && d < rank -> Some d
    | _ -> None
  else None

let concrete_shape shapes (v : Graph.value) =
  match Shape_infer.shape_of shapes v with
  | Some dims
    when Array.for_all
           (function Shape_infer.Known _ -> true | Shape_infer.Unknown -> false)
           dims ->
      Array.map
        (function Shape_infer.Known n -> n | Shape_infer.Unknown -> 0)
        dims
  | _ -> fail "unknown shape for %s" (value_ref v)

(* Hex float literals are exact in C99 just as %h is in OCaml; a NaN
   keeps its payload through a union pun of its bit pattern. *)
let float_lit f =
  if Float.is_nan f then
    Printf.sprintf
      "(((union { unsigned long long u; double d; }){ .u = 0x%LxULL }).d)"
      (Int64.bits_of_float f)
  else if f = Float.infinity then "(1.0 / 0.0)"
  else if f = Float.neg_infinity then "(-1.0 / 0.0)"
  else Printf.sprintf "(%h)" f

(* OCaml's [Float.max x y] / [Float.min x y] / [Float.equal x y]
   (stdlib float.ml), operand for operand.  The statement expression
   scopes the temporaries, so nested uses stay legal. *)
let float_max x y =
  Printf.sprintf
    "({ const double x_ = %s, y_ = %s; (y_ > x_ || (!signbit(y_) && \
     signbit(x_))) ? (x_ != x_ ? x_ : y_) : (y_ != y_ ? y_ : x_); })"
    x y

let float_min x y =
  Printf.sprintf
    "({ const double x_ = %s, y_ = %s; (y_ > x_ || (!signbit(y_) && \
     signbit(x_))) ? (y_ != y_ ? y_ : x_) : (x_ != x_ ? x_ : y_); })"
    x y

let float_equal x y =
  Printf.sprintf
    "({ const double x_ = %s, y_ = %s; (x_ == y_ || (x_ != x_ && y_ != \
     y_)) ? 1.0 : 0.0; })"
    x y


(* Kernel-wide launch layout, grown as the walk discovers read sites,
   statement outputs and free scalars. *)
type layout = {
  mutable n_sites : int;
  mutable next_int : int;
  mutable sites : esite list;  (* reversed *)
  free : (string, int) Hashtbl.t;  (* scalar symbol -> sc<k> index *)
  mutable free_order : string list;  (* reversed discovery order *)
  all_outs : (int, unit) Hashtbl.t;
  computed : (int, unit) Hashtbl.t;  (* outputs of earlier statements *)
}

type env = {
  lay : layout;
  rank : int;
  nstmts : int;
  stmt_idx : int;
  shape : int array;  (* the statement's baked output shape *)
  red : (string * int) option;  (* reduction variable and extent *)
  guarded : bool;
      (* inside a [Ccond] branch: reads there may never execute at a
         given point, so they get per-access checks instead of the
         full-range launch guard (which would trip spuriously) *)
  site_binds : Buffer.t;
  level_binds : string list ref array;  (* hoists for loop levels 0..rank-2 *)
  red_binds : string list ref;  (* hoists for the reduction loop (reversed) *)
  inner_sites : int list ref;  (* slots with innermost terms (reversed) *)
}

(* A render function: the expression text, given the textual innermost
   index (e.g. "i1" or "(i1 + 2)") and which addressing variant is being
   emitted. *)
type render = inner:string -> fast:bool -> string

(* One index expression as integer coefficients: constant part, one per
   output loop variable, one for the reduction variable, and one per
   free scalar ([(sc index, coefficient)], nonzero only).  Any other
   identifier becomes a new free scalar of the kernel. *)
type affine = {
  a_cst : int;
  a_loops : int array;
  a_red : int;
  a_scals : (int * int) list;
}

let scalar_index lay name =
  match Hashtbl.find_opt lay.free name with
  | Some k -> k
  | None ->
      let k = Hashtbl.length lay.free in
      Hashtbl.replace lay.free name k;
      lay.free_order <- name :: lay.free_order;
      k

let affine env (ix : Codegen.ix) =
  let cst = ref 0 in
  let loops = Array.make (max 1 env.rank) 0 in
  let red = ref 0 in
  let scals = ref [] in
  let rec go sign = function
    | Iconst c -> cst := !cst + (sign * c)
    | Ivar name -> (
        if not (ident_ok name) then fail "non-affine index %S" name;
        match index_dim ~rank:env.rank name with
        | Some d -> loops.(d) <- loops.(d) + sign
        | None -> (
            match env.red with
            | Some (rname, _) when String.equal rname name ->
                red := !red + sign
            | _ ->
                let k = scalar_index env.lay name in
                let n = Option.value (List.assoc_opt k !scals) ~default:0 in
                scals := (k, n + sign) :: List.remove_assoc k !scals))
    | Iadd (a, b) ->
        go sign a;
        go sign b
    | Isub (a, b) ->
        go sign a;
        go (-sign) b
  in
  go 1 ix;
  {
    a_cst = !cst;
    a_loops = loops;
    a_red = !red;
    a_scals = List.sort compare (List.filter (fun (_, n) -> n <> 0) !scals);
  }

(* Exact inclusive range of a scalar-free affine index over the baked
   iteration box (every term is independent, so per-term extremes add
   up).  Only consulted for non-empty statements. *)
let interval env a =
  let lo = ref a.a_cst and hi = ref a.a_cst in
  let span c extent =
    let t = c * (extent - 1) in
    if t < 0 then lo := !lo + t else hi := !hi + t
  in
  Array.iteri
    (fun d c -> if c <> 0 && d < env.rank then span c env.shape.(d))
    a.a_loops;
  (match env.red with Some (_, extent) when a.a_red <> 0 -> span a.a_red extent | _ -> ());
  (!lo, !hi)

let emit_read env (v : Graph.value) ixs : render =
  let lay = env.lay in
  if
    Hashtbl.mem lay.all_outs v.Graph.v_id
    && not (Hashtbl.mem lay.computed v.Graph.v_id)
  then fail "forward read of %s" (value_ref v);
  let slot = lay.n_sites in
  lay.n_sites <- slot + 1;
  let parts = List.map (affine env) ixs in
  let rank = List.length parts in
  let pos = lay.next_int in
  lay.next_int <- pos + rank + 2;
  let len = Printf.sprintf "ints[%d]" (pos + 1 + rank) in
  let bounds =
    if env.guarded || List.exists (fun a -> a.a_scals <> []) parts then None
    else Some (Array.of_list (List.map (interval env) parts))
  in
  lay.sites <-
    {
      e_value = v;
      e_slot = slot;
      e_rank = rank;
      e_stmt = env.stmt_idx;
      e_ints_pos = pos;
      e_bounds = bounds;
    }
    :: lay.sites;
  (* base address: offset plus every constant and free-scalar
     contribution (scalars are launch constants), hoisted to statement
     entry *)
  let base = Buffer.create 64 in
  Buffer.add_string base (Printf.sprintf "ints[%d]" pos);
  List.iteri
    (fun k a ->
      if a.a_cst <> 0 then
        Buffer.add_string base
          (Printf.sprintf " + (%d) * ints[%d]" a.a_cst (pos + 1 + k));
      List.iter
        (fun (sk, n) ->
          Buffer.add_string base
            (Printf.sprintf " + (%d) * sc%d * ints[%d]" n sk (pos + 1 + k)))
        a.a_scals)
    parts;
  (* per-variable coefficient: sum of stride * integer factor over the
     site's dimensions; None when the site does not depend on it *)
  let coeff sel =
    let terms =
      List.concat
        (List.mapi
           (fun k a ->
             let n = sel a in
             if n = 0 then []
             else if n = 1 then [ Printf.sprintf "ints[%d]" (pos + 1 + k) ]
             else [ Printf.sprintf "(%d) * ints[%d]" n (pos + 1 + k) ])
           parts)
    in
    match terms with [] -> None | ts -> Some (String.concat " + " ts)
  in
  let coeffs =
    Array.init (max 1 env.rank) (fun d -> coeff (fun a -> a.a_loops.(d)))
  in
  let rcoeff = coeff (fun a -> a.a_red) in
  Buffer.add_string env.site_binds
    (Printf.sprintf "    const double * restrict b%d = bufs[%d];\n" slot
       (env.nstmts + slot));
  Buffer.add_string env.site_binds
    (Printf.sprintf "    const long b%d_b = %s;\n" slot (Buffer.contents base));
  (* chain loop-level partials through the outer dimensions; the
     innermost term is applied at the access itself so the fast variant
     can drop the multiply *)
  let inner_dim = env.rank - 1 in
  let pre = ref (Printf.sprintf "b%d_b" slot) in
  Array.iteri
    (fun d c ->
      match c with
      | None -> ()
      | Some c ->
          let cv = Printf.sprintf "b%d_c%d" slot d in
          Buffer.add_string env.site_binds
            (Printf.sprintf "    const long %s = %s;\n" cv c);
          if d < inner_dim then begin
            let pv = Printf.sprintf "b%d_p%d" slot d in
            env.level_binds.(d) :=
              Printf.sprintf "const long %s = %s + i%d * %s;" pv !pre d cv
              :: !(env.level_binds.(d));
            pre := pv
          end)
    coeffs;
  let has_red =
    match rcoeff with
    | None -> false
    | Some c ->
        Buffer.add_string env.site_binds
          (Printf.sprintf "    const long b%d_cr = %s;\n" slot c);
        env.red_binds :=
          Printf.sprintf "const long b%d_pr = %s + rv0 * b%d_cr;" slot !pre
            slot
          :: !(env.red_binds);
        true
  in
  (* dynamically-indexed site (a free scalar participates): the launch
     guard — min/max flat index over the full baked iteration space,
     against the buffer length.  An unguarded site is evaluated at every
     iteration point, so the full-space range is exact.  Skipped when a
     baked extent is 0: the loops never run, so no access happens.
     Extent-1 dimensions contribute nothing to the range. *)
  (if
     bounds = None
     && (not env.guarded)
     && Array.for_all (fun e -> e > 0) env.shape
   then begin
     let b = env.site_binds in
     Buffer.add_string b
       (Printf.sprintf "    { long glo = b%d_b, ghi = b%d_b, gt;\n" slot slot);
     Array.iteri
       (fun d c ->
         match c with
         | Some _ when d < env.rank && env.shape.(d) > 1 ->
             Buffer.add_string b
               (Printf.sprintf
                  "      gt = b%d_c%d * %d; if (gt < 0) glo += gt; else ghi \
                   += gt;\n"
                  slot d
                  (env.shape.(d) - 1))
         | _ -> ())
       coeffs;
     (match (has_red, env.red) with
     | true, Some (_, extent) when extent > 1 ->
         Buffer.add_string b
           (Printf.sprintf
              "      gt = b%d_cr * %d; if (gt < 0) glo += gt; else ghi += \
               gt;\n"
              slot (extent - 1))
     | _ -> ());
     Buffer.add_string b
       (Printf.sprintf "      if (glo < 0 || ghi >= %s) return 1;\n" len);
     Buffer.add_string b "    }\n"
   end);
  let has_inner = inner_dim >= 0 && coeffs.(inner_dim) <> None in
  if has_inner then env.inner_sites := slot :: !(env.inner_sites);
  let basev = if has_red then Printf.sprintf "b%d_pr" slot else !pre in
  let idx ~inner ~fast =
    if has_inner then
      if fast then Printf.sprintf "%s + %s" basev inner
      else Printf.sprintf "%s + %s * b%d_c%d" basev inner slot inner_dim
    else basev
  in
  if env.guarded then
    (* checked access: the flat index is compared against the buffer
       length and the kernel returns the guard status.  The statement
       expression scopes the temporary, so a render instantiated
       several times in one block stays legal. *)
    fun ~inner ~fast ->
     Printf.sprintf
       "({ const long x%d_ = %s; if (x%d_ < 0 || x%d_ >= %s) return 1; \
        b%d[x%d_]; })"
       slot (idx ~inner ~fast) slot slot len slot slot
  else fun ~inner ~fast -> Printf.sprintf "b%d[%s]" slot (idx ~inner ~fast)

(* A condition index as a C long expression.  Dimension [rank-1] renders
   through the caller's [inner] text so conditions stay correct in every
   loop variant (fast/generic, blocked reduction lanes). *)
let cix env (ix : Codegen.ix) : inner:string -> string =
  let a = affine env ix in
  fun ~inner ->
    let b = Buffer.create 32 in
    let term n v =
      Buffer.add_string b
        (if n = 1 then Printf.sprintf " + %s" v
         else Printf.sprintf " + (%d) * %s" n v)
    in
    Buffer.add_string b (string_of_int a.a_cst);
    Array.iteri
      (fun d n ->
        if n <> 0 && d < env.rank then
          term n (if d = env.rank - 1 then inner else Printf.sprintf "i%d" d))
      a.a_loops;
    if a.a_red <> 0 then term a.a_red "rv0";
    List.iter (fun (k, n) -> term n (Printf.sprintf "sc%d" k)) a.a_scals;
    Printf.sprintf "(%s)" (Buffer.contents b)

(* Conditions compare integer index expressions, so C's operators match
   the interpreter exactly; [%] and OCaml's [mod] share truncated-division
   semantics. *)
let emit_cond env (c : Codegen.cond) : inner:string -> string =
  let cmp op a b =
    let ra = cix env a and rb = cix env b in
    fun ~inner -> Printf.sprintf "(%s %s %s)" (ra ~inner) op (rb ~inner)
  in
  match c with
  | Ceq (a, b) -> cmp "==" a b
  | Cge (a, b) -> cmp ">=" a b
  | Clt (a, b) -> cmp "<" a b
  | Cmod (a, b, s) ->
      let ra = cix env a and rb = cix env b in
      fun ~inner ->
        Printf.sprintf "(((%s - %s) %% %d) == 0)" (ra ~inner) (rb ~inner) s

(* OCaml's [x +. y] / [x *. y]: when both operands are NaN the result
   carries the first one's payload.  C lets GCC commute [+] and [*] (it
   does, in vectorised loops), so a NaN [x] is fed to both sides — the
   spelling of [gemm_stubs.c]'s [NAN_FIRST], which still vectorises.
   Two unguarded reads or literals have no effects, so they are repeated
   as text (GCC compiles that faster than temporaries); other operands
   are each evaluated once, as in the plain operator. *)
let nan_first env op (x : Codegen.cexpr) (y : Codegen.cexpr) sx sy =
  let leaf = function Clit _ | Cread _ -> not env.guarded | _ -> false in
  if leaf x && leaf y then fun ~inner ~fast ->
    let a = sx ~inner ~fast in
    Printf.sprintf "(%s %s (%s != %s ? %s : %s))" a op a a a (sy ~inner ~fast)
  else fun ~inner ~fast ->
    Printf.sprintf
      "({ const double x_ = %s, y_ = %s; x_ %s (x_ != x_ ? x_ : y_); })"
      (sx ~inner ~fast) (sy ~inner ~fast) op

let rec emit_expr env (e : Codegen.cexpr) : render =
  match e with
  | Clit f ->
      let s = float_lit f in
      fun ~inner:_ ~fast:_ -> s
  | Copaque what -> fail "opaque expression %s" what
  | Cread (v, ixs) -> emit_read env v ixs
  | Cunary (u, e) -> begin
      let s = emit_expr env e in
      let wrap fmt = fun ~inner ~fast -> Printf.sprintf fmt (s ~inner ~fast) in
      match u with
      | Scalar.Neg -> wrap "(- %s)"
      | Scalar.Abs -> wrap "fabs(%s)"
      | Scalar.Exp -> wrap "exp(%s)"
      | Scalar.Log -> wrap "log(%s)"
      | Scalar.Sqrt -> wrap "sqrt(%s)"
      | Scalar.Sigmoid -> wrap "(1.0 / (1.0 + exp(- %s)))"
      | Scalar.Tanh -> wrap "tanh(%s)"
      | Scalar.Relu -> fun ~inner ~fast -> float_max "0.0" (s ~inner ~fast)
    end
  | Cbinary (b, x, y) -> begin
      let sx = emit_expr env x in
      let sy = emit_expr env y in
      let wrap fmt =
       fun ~inner ~fast ->
        Printf.sprintf fmt (sx ~inner ~fast) (sy ~inner ~fast)
      in
      let call f ~inner ~fast = f (sx ~inner ~fast) (sy ~inner ~fast) in
      match b with
      | Scalar.Add -> nan_first env "+" x y sx sy
      | Scalar.Sub -> wrap "(%s - %s)"
      | Scalar.Mul -> nan_first env "*" x y sx sy
      | Scalar.Div -> wrap "(%s / %s)"
      | Scalar.Pow -> wrap "pow(%s, %s)"
      | Scalar.Lt -> wrap "((%s < %s) ? 1.0 : 0.0)"
      | Scalar.Gt -> wrap "((%s > %s) ? 1.0 : 0.0)"
      | Scalar.Max -> call float_max
      | Scalar.Min -> call float_min
      | Scalar.Eq -> call float_equal
    end
  | Ccond (conds, t, e) ->
      (* the C ternary short-circuits, so only the taken branch's reads
         execute *)
      let genv = { env with guarded = true } in
      let rc = List.map (emit_cond env) conds in
      let rt = emit_expr genv t in
      let re = emit_expr genv e in
      fun ~inner ~fast ->
        Printf.sprintf "(%s ? %s : %s)"
          (String.concat " && " (List.map (fun r -> r ~inner) rc))
          (rt ~inner ~fast) (re ~inner ~fast)
  | Creduce _ -> fail "non-root reduction"

let emit_stmt ~buf lay ~nstmts ~stmt_idx shapes (s : Codegen.statement) =
  let shape = concrete_shape shapes s.s_out in
  let rank = Array.length shape in
  if rank <> s.s_rank then fail "rank mismatch for %s" (value_ref s.s_out);
  let site_binds = Buffer.create 256 in
  let level_binds = Array.init (max 1 rank) (fun _ -> ref []) in
  let red_binds = ref [] in
  let inner_sites = ref [] in
  let env =
    {
      lay;
      rank;
      nstmts;
      stmt_idx;
      shape;
      red = None;
      guarded = false;
      site_binds;
      level_binds;
      red_binds;
      inner_sites;
    }
  in
  let root =
    match s.s_expr with
    | Creduce (kind, rname, extent, body) ->
        if extent <= 0 then fail "unknown reduction extent for %s" rname;
        if not (ident_ok rname) then fail "bad reduction variable %S" rname;
        if index_dim ~rank rname <> None then
          fail "reduction variable %S shadows an output index" rname;
        let render = emit_expr { env with red = Some (rname, extent) } body in
        (* init and combine of the ascending fold *)
        let init, combine =
          match kind with
          | `Sum -> ("0.0", fun acc x -> Printf.sprintf "%s + %s" acc x)
          | `Max -> ("(-1.0 / 0.0)", float_max)
        in
        `Reduce (extent, render, init, combine)
    | e -> `Map (emit_expr env e)
  in
  Hashtbl.replace lay.computed s.s_out.Graph.v_id ();
  let out_pos = lay.next_int in
  lay.next_int <- out_pos + 1;
  let add = Buffer.add_string buf in
  (* [stmt = -1] is the whole-kernel entry: the driver makes one native
     call when no statement is split across pool tasks, and the cases
     run in order by switch fallthrough ([if (stmt >= 0) break;] at each
     seam), each over its full baked extent ([sl, sh)). *)
  if stmt_idx = 0 then add "  case -1: /* whole kernel */\n";
  (* the label omits the value id: ids are process-global, and the
     source must be a function of the code alone for its digest to hit
     the artifact cache when a program is lowered again *)
  add
    (Printf.sprintf "  case %d: { /* %s : %s */\n" stmt_idx
       s.s_out.Graph.v_name (Shape.to_string shape));
  add
    (Printf.sprintf
       "    const long sl = stmt < 0 ? 0 : lo, sh = stmt < 0 ? %d : hi;\n"
       (if rank = 0 then 1 else shape.(0)));
  add (Buffer.contents site_binds);
  add (Printf.sprintf "    double * restrict o = bufs[%d];\n" stmt_idx);
  add (Printf.sprintf "    const long ob = ints[%d];\n" out_pos);
  (* dense output strides are baked literals (innermost is 1) *)
  let os = Array.make (max 1 rank) 1 in
  for d = rank - 2 downto 0 do
    os.(d) <- os.(d + 1) * shape.(d + 1)
  done;
  let lo_of d = if d = 0 then "sl" else "0" in
  let hi_of d = if d = 0 then "sh" else string_of_int shape.(d) in
  let pad d = String.make (4 + (2 * d)) ' ' in
  let opre = ref "ob" in
  for d = 0 to rank - 2 do
    add
      (Printf.sprintf "%sfor (long i%d = %s; i%d < %s; i%d++) {\n" (pad d) d
         (lo_of d) d (hi_of d) d);
    List.iter
      (fun line -> add (Printf.sprintf "%s%s\n" (pad (d + 1)) line))
      (List.rev !(level_binds.(d)));
    let pv = Printf.sprintf "o_p%d" d in
    add
      (Printf.sprintf "%sconst long %s = %s + i%d * %d;\n" (pad (d + 1)) pv
         !opre d os.(d));
    opre := pv
  done;
  (* all innermost-dependent sites contiguous -> the fast variant's
     unit-stride accesses vectorise; both variants compute identical
     element orders *)
  let guard =
    String.concat " && "
      (List.rev_map
         (fun slot -> Printf.sprintf "b%d_c%d == 1" slot (rank - 1))
         !inner_sites)
  in
  (match root with
  | `Map render when rank = 0 ->
      add
        (Printf.sprintf "    if (sl <= 0 && sh >= 1) { o[ob] = %s; }\n"
           (render ~inner:"0" ~fast:false))
  | `Map render ->
      let l = rank - 1 in
      let iv = Printf.sprintf "i%d" l in
      let loop fast p =
        add
          (Printf.sprintf "%sfor (long %s = %s; %s < %s; %s++) {\n" p iv
             (lo_of l) iv (hi_of l) iv);
        add
          (Printf.sprintf "%s  o[%s + %s] = %s;\n" p !opre iv
             (render ~inner:iv ~fast));
        add (Printf.sprintf "%s}\n" p)
      in
      if guard = "" then loop true (pad l)
      else begin
        add (Printf.sprintf "%sif (%s) {\n" (pad l) guard);
        loop true (pad (l + 1));
        add (Printf.sprintf "%s} else {\n" (pad l));
        loop false (pad (l + 1));
        add (Printf.sprintf "%s}\n" (pad l))
      end
  | `Reduce (extent, render, init, combine) when rank = 0 ->
      add "    if (sl <= 0 && sh >= 1) {\n";
      add (Printf.sprintf "      double acc = %s;\n" init);
      add (Printf.sprintf "      for (long rv0 = 0; rv0 < %d; rv0++) {\n" extent);
      List.iter
        (fun line -> add (Printf.sprintf "        %s\n" line))
        (List.rev !red_binds);
      add
        (Printf.sprintf "        acc = %s;\n"
           (combine "acc" (render ~inner:"0" ~fast:false)));
      add "      }\n";
      add "      o[ob] = acc;\n";
      add "    }\n"
  | `Reduce (extent, render, init, combine) ->
      (* block the innermost output dimension by 4: each element still
         folds its reduction terms in ascending order (bitwise identical
         to the scalar remainder loop), but the four independent
         accumulators break the serial chain and SLP-vectorise on the
         unit-stride path *)
      let l = rank - 1 in
      let iv = Printf.sprintf "i%d" l in
      let jhi = hi_of l in
      add (Printf.sprintf "%slong %s = %s;\n" (pad l) iv (lo_of l));
      if guard <> "" then add (Printf.sprintf "%sif (%s) {\n" (pad l) guard);
      let bp = if guard <> "" then pad (l + 1) else pad l in
      add (Printf.sprintf "%sfor (; %s + 4 <= %s; %s += 4) {\n" bp iv jhi iv);
      add
        (Printf.sprintf "%s  double a0 = %s, a1 = %s, a2 = %s, a3 = %s;\n" bp
           init init init init);
      add (Printf.sprintf "%s  for (long rv0 = 0; rv0 < %d; rv0++) {\n" bp extent);
      List.iter
        (fun line -> add (Printf.sprintf "%s    %s\n" bp line))
        (List.rev !red_binds);
      for k = 0 to 3 do
        let inner =
          if k = 0 then iv else Printf.sprintf "(%s + %d)" iv k
        in
        let a = Printf.sprintf "a%d" k in
        add
          (Printf.sprintf "%s    %s = %s;\n" bp a
             (combine a (render ~inner ~fast:true)))
      done;
      add (Printf.sprintf "%s  }\n" bp);
      for k = 0 to 3 do
        let at = if k = 0 then iv else Printf.sprintf "%s + %d" iv k in
        add (Printf.sprintf "%s  o[%s + %s] = a%d;\n" bp !opre at k)
      done;
      add (Printf.sprintf "%s}\n" bp);
      if guard <> "" then add (Printf.sprintf "%s}\n" (pad l));
      (* scalar remainder, and the whole range when the guard fails *)
      add (Printf.sprintf "%sfor (; %s < %s; %s++) {\n" (pad l) iv jhi iv);
      add (Printf.sprintf "%s  double acc = %s;\n" (pad l) init);
      add
        (Printf.sprintf "%s  for (long rv0 = 0; rv0 < %d; rv0++) {\n" (pad l)
           extent);
      List.iter
        (fun line -> add (Printf.sprintf "%s    %s\n" (pad l) line))
        (List.rev !red_binds);
      add
        (Printf.sprintf "%s    acc = %s;\n" (pad l)
           (combine "acc" (render ~inner:iv ~fast:false)));
      add (Printf.sprintf "%s  }\n" (pad l));
      add (Printf.sprintf "%s  o[%s + %s] = acc;\n" (pad l) !opre iv);
      add (Printf.sprintf "%s}\n" (pad l)));
  for d = rank - 2 downto 0 do
    add (Printf.sprintf "%s}\n" (pad d))
  done;
  add "  } if (stmt >= 0) break;\n";
  { e_out = s.s_out; e_store = s.s_store; e_shape = shape; e_out_pos = out_pos }

let emit (k : Codegen.kernel) ~shapes : (emitted, string) result =
  try
    let lay =
      {
        n_sites = 0;
        next_int = 0;
        sites = [];
        free = Hashtbl.create 8;
        free_order = [];
        all_outs = Hashtbl.create 8;
        computed = Hashtbl.create 8;
      }
    in
    List.iter
      (fun (s : Codegen.statement) ->
        Hashtbl.replace lay.all_outs s.s_out.Graph.v_id ())
      k.k_stmts;
    let nstmts = List.length k.k_stmts in
    if Hashtbl.length lay.all_outs <> nstmts then
      fail "duplicate statement output";
    let body = Buffer.create 2048 in
    let stmts =
      List.mapi
        (fun stmt_idx s ->
          emit_stmt ~buf:body lay ~nstmts ~stmt_idx shapes s)
        k.k_stmts
    in
    (* free scalars ride at the ints tail, after every site and output
       position; the body names them [sc<k>], bound once per launch *)
    let scalar_pos = lay.next_int in
    let free = Array.of_list (List.rev lay.free_order) in
    let fn = Buffer.create (Buffer.length body + 256) in
    Array.iteri
      (fun j _ ->
        Buffer.add_string fn
          (Printf.sprintf "  const long sc%d = ints[%d];\n" j (scalar_pos + j)))
      free;
    Buffer.add_string fn "  switch (stmt) {\n";
    Buffer.add_buffer fn body;
    Buffer.add_string fn "  default: break;\n  }\n  return 0;\n";
    Ok
      {
        e_group = k.k_group;
        e_name = k.k_name;
        e_fn = Buffer.contents fn;
        e_sites = Array.of_list (List.rev lay.sites);
        e_stmts = Array.of_list stmts;
        e_free = free;
        e_scalar_pos = scalar_pos;
        e_nints = scalar_pos + Array.length free;
      }
  with Reject msg -> Error msg

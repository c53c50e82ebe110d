/* Native inner kernel for Fastops.matmul2d_into.
 *
 * Row-major GEMM over OCaml float arrays (unboxed double payloads).
 * Each output element o[i,j] accumulates its k terms in ascending-l
 * order, exactly like the reference interpreter's per-element sum, so
 * results are bitwise-identical; the l-loop is unrolled by four with
 * the partial sums added *sequentially* (never re-associated into
 * independent accumulators), which keeps the reference order while
 * giving the compiler a unit-stride j-vectorizable body.
 *
 * The l-dimension is processed in panels of 8 rows of [b] (32 KB at
 * n = 512): within a panel every row of the output is updated before
 * moving on, so the panel of [b] stays L1-resident and is streamed
 * from L2 once per call instead of once per output row.  Panels run in
 * ascending l and each o[i,j] is accumulated incrementally across
 * panels, so the per-element order is still exactly l-ascending.
 *
 * Compiled with -ffp-contract=off (see lib/exec/dune) so mul+add pairs
 * are never contracted into FMAs, which would change rounding.  On
 * x86-64, target_clones lets the loader pick an AVX-512/AVX2 clone at
 * run time without baking -march into the build.
 */
#include <caml/mlvalues.h>

#define PANEL 8

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
__attribute__((target_clones("avx512f", "avx2", "default")))
#endif
static void gemm(const double *restrict a, const double *restrict b,
                 double *restrict o, long m, long k, long n)
{
  for (long i = 0; i < m; i++) {
    double *oi = o + i * n;
    for (long j = 0; j < n; j++) oi[j] = 0.0;
  }
  for (long l0 = 0; l0 < k; l0 += PANEL) {
    const long lhi = (l0 + PANEL <= k) ? l0 + PANEL : k;
    for (long i = 0; i < m; i++) {
      const double *ai = a + i * k;
      double *oi = o + i * n;
      long l = l0;
      for (; l + 4 <= lhi; l += 4) {
        const double a0 = ai[l], a1 = ai[l + 1], a2 = ai[l + 2],
                     a3 = ai[l + 3];
        const double *b0 = b + l * n;
        const double *b1 = b0 + n, *b2 = b1 + n, *b3 = b2 + n;
        for (long j = 0; j < n; j++)
          oi[j] = (((oi[j] + a0 * b0[j]) + a1 * b1[j]) + a2 * b2[j])
                  + a3 * b3[j];
      }
      for (; l < lhi; l++) {
        const double al = ai[l];
        const double *bl = b + l * n;
        for (long j = 0; j < n; j++) oi[j] += al * bl[j];
      }
    }
  }
}

CAMLprim value functs_gemm(value va, value vao, value vb, value vbo,
                           value vo, value voo, value vm, value vk,
                           value vn)
{
  gemm((const double *)va + Long_val(vao), (const double *)vb + Long_val(vbo),
       (double *)vo + Long_val(voo), Long_val(vm), Long_val(vk),
       Long_val(vn));
  return Val_unit;
}

CAMLprim value functs_gemm_bytecode(value *argv, int argn)
{
  (void)argn;
  return functs_gemm(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                     argv[6], argv[7], argv[8]);
}

/* --- strided elementwise maps ---
 *
 * The inner loops of every Fastops elementwise operator (unary, binary,
 * where, clone, copy_into).  Fastops coalesces the view dimensions and
 * hands over at most two: [rows] outer iterations of [n] elements, each
 * operand advancing its own element step and row stride.  Each case
 * applies exactly the operation the OCaml reference applies — the same
 * libm calls (exp, log, tanh, pow compile to the identical symbols
 * Float.exp &c. call), the same IEEE primitives, and Float.max / min /
 * equal spelled operand for operand as stdlib float.ml (and
 * Jit_emit_c.float_max / float_min / float_equal) — so results are
 * bitwise-identical, NaN payloads and signed zeros included.
 *
 * Codes follow Scalar.unary / Scalar.binary constructor order; unary
 * U_COPY is the identity (clone, copy_into). */
#include <math.h>

#define U_NEG 0
#define U_ABS 1
#define U_EXP 2
#define U_LOG 3
#define U_SQRT 4
#define U_SIGMOID 5
#define U_TANH 6
#define U_RELU 7
#define U_COPY 8

/* Float.max x y / Float.min x y / Float.equal x y of stdlib float.ml. */
#define FMAX(x, y)                                                          \
  (((y) > (x) || (!signbit(y) && signbit(x))) ? ((x) != (x) ? (x) : (y))    \
                                              : ((y) != (y) ? (y) : (x)))
#define FMIN(x, y)                                                          \
  (((y) > (x) || (!signbit(y) && signbit(x))) ? ((y) != (y) ? (y) : (x))    \
                                              : ((x) != (x) ? (x) : (y)))
/* OCaml's [x +. y] is one addsd, whose result is the first operand's
   (quieted) NaN when both are NaN; C lets the compiler commute + and *,
   so [x op NAN_FIRST(x, y)] feeds a NaN [x] to both sides.  With one
   NaN operand, or none, operand order does not change the result. */
#define NAN_FIRST(x, y) ((x) != (x) ? (x) : (y))
#define FEQ(x, y) (((x) == (y) || ((x) != (x) && (y) != (y))) ? 1.0 : 0.0)

#define UN_LOOP(expr)                                                       \
  do {                                                                      \
    if (os == 1 && as == 1)                                                 \
      for (long i = 0; i < n; i++) {                                        \
        const double x = a[i];                                              \
        o[i] = (expr);                                                      \
      }                                                                     \
    else                                                                    \
      for (long i = 0; i < n; i++) {                                        \
        const double x = a[i * as];                                         \
        o[i * os] = (expr);                                                 \
      }                                                                     \
  } while (0)

CAMLprim value functs_unary_map(value vkind, value va, value vao, value vas,
                                value var, value vo, value voo, value vos,
                                value vor, value vrows, value vn)
{
  const double *ab = (const double *)va + Long_val(vao);
  double *ob = (double *)vo + Long_val(voo);
  const long as = Long_val(vas), ar = Long_val(var);
  const long os = Long_val(vos), orow = Long_val(vor);
  const long rows = Long_val(vrows), n = Long_val(vn);
  const long kind = Long_val(vkind);
  for (long r = 0; r < rows; r++) {
    const double *a = ab + r * ar;
    double *o = ob + r * orow;
    switch (kind) {
    case U_NEG: UN_LOOP(-x); break;
    case U_ABS: UN_LOOP(fabs(x)); break;
    case U_EXP: UN_LOOP(exp(x)); break;
    case U_LOG: UN_LOOP(log(x)); break;
    case U_SQRT: UN_LOOP(sqrt(x)); break;
    case U_SIGMOID: UN_LOOP(1.0 / (1.0 + exp(-x))); break;
    case U_TANH: UN_LOOP(tanh(x)); break;
    case U_RELU: UN_LOOP(FMAX(0.0, x)); break;
    case U_COPY: UN_LOOP(x); break;
    }
  }
  return Val_unit;
}

CAMLprim value functs_unary_map_bytecode(value *argv, int argn)
{
  (void)argn;
  return functs_unary_map(argv[0], argv[1], argv[2], argv[3], argv[4],
                          argv[5], argv[6], argv[7], argv[8], argv[9],
                          argv[10]);
}

#define B_ADD 0
#define B_SUB 1
#define B_MUL 2
#define B_DIV 3
#define B_POW 4
#define B_MAX 5
#define B_MIN 6
#define B_LT 7
#define B_GT 8
#define B_EQ 9

/* Contiguous output with unit-step or broadcast operands gets its own
   loop, so the common layouts vectorize. */
#define BIN_LOOP(expr)                                                      \
  do {                                                                      \
    if (os == 1 && as == 1 && bs == 1)                                      \
      for (long i = 0; i < n; i++) {                                        \
        const double x = a[i], y = b[i];                                    \
        o[i] = (expr);                                                      \
      }                                                                     \
    else if (os == 1 && as == 1 && bs == 0)                                 \
      for (long i = 0; i < n; i++) {                                        \
        const double x = a[i], y = b[0];                                    \
        o[i] = (expr);                                                      \
      }                                                                     \
    else if (os == 1 && as == 0 && bs == 1)                                 \
      for (long i = 0; i < n; i++) {                                        \
        const double x = a[0], y = b[i];                                    \
        o[i] = (expr);                                                      \
      }                                                                     \
    else                                                                    \
      for (long i = 0; i < n; i++) {                                        \
        const double x = a[i * as], y = b[i * bs];                          \
        o[i * os] = (expr);                                                 \
      }                                                                     \
  } while (0)

CAMLprim value functs_binary_map(value vkind, value va, value vao, value vas,
                                 value var, value vb, value vbo, value vbs,
                                 value vbr, value vo, value voo, value vos,
                                 value vor, value vrows, value vn)
{
  const double *ab = (const double *)va + Long_val(vao);
  const double *bb = (const double *)vb + Long_val(vbo);
  double *ob = (double *)vo + Long_val(voo);
  const long as = Long_val(vas), bs = Long_val(vbs), os = Long_val(vos);
  const long ar = Long_val(var), br = Long_val(vbr), orow = Long_val(vor);
  const long rows = Long_val(vrows), n = Long_val(vn);
  const long kind = Long_val(vkind);
  for (long r = 0; r < rows; r++) {
    const double *a = ab + r * ar;
    const double *b = bb + r * br;
    double *o = ob + r * orow;
    switch (kind) {
    case B_ADD: BIN_LOOP(x + NAN_FIRST(x, y)); break;
    case B_SUB: BIN_LOOP(x - y); break;
    case B_MUL: BIN_LOOP(x * NAN_FIRST(x, y)); break;
    case B_DIV: BIN_LOOP(x / y); break;
    case B_POW: BIN_LOOP(pow(x, y)); break;
    case B_MAX: BIN_LOOP(FMAX(x, y)); break;
    case B_MIN: BIN_LOOP(FMIN(x, y)); break;
    case B_LT: BIN_LOOP((x < y) ? 1.0 : 0.0); break;
    case B_GT: BIN_LOOP((x > y) ? 1.0 : 0.0); break;
    case B_EQ: BIN_LOOP(FEQ(x, y)); break;
    }
  }
  return Val_unit;
}

CAMLprim value functs_binary_map_bytecode(value *argv, int argn)
{
  (void)argn;
  return functs_binary_map(argv[0], argv[1], argv[2], argv[3], argv[4],
                           argv[5], argv[6], argv[7], argv[8], argv[9],
                           argv[10], argv[11], argv[12], argv[13], argv[14]);
}

/* where(c, a, b): the reference's [if c <> 0.0 then a else b]. */
CAMLprim value functs_where_map(value vc, value vco, value vcs, value vcr,
                                value va, value vao, value vas, value var,
                                value vb, value vbo, value vbs, value vbr,
                                value vo, value voo, value vos, value vor,
                                value vrows, value vn)
{
  const double *cb = (const double *)vc + Long_val(vco);
  const double *ab = (const double *)va + Long_val(vao);
  const double *bb = (const double *)vb + Long_val(vbo);
  double *ob = (double *)vo + Long_val(voo);
  const long cs = Long_val(vcs), as = Long_val(vas), bs = Long_val(vbs);
  const long os = Long_val(vos);
  const long cr = Long_val(vcr), ar = Long_val(var), br = Long_val(vbr);
  const long orow = Long_val(vor);
  const long rows = Long_val(vrows), n = Long_val(vn);
  for (long r = 0; r < rows; r++) {
    const double *c = cb + r * cr, *a = ab + r * ar, *b = bb + r * br;
    double *o = ob + r * orow;
    for (long i = 0; i < n; i++)
      o[i * os] = (c[i * cs] != 0.0) ? a[i * as] : b[i * bs];
  }
  return Val_unit;
}

CAMLprim value functs_where_map_bytecode(value *argv, int argn)
{
  (void)argn;
  return functs_where_map(argv[0], argv[1], argv[2], argv[3], argv[4],
                          argv[5], argv[6], argv[7], argv[8], argv[9],
                          argv[10], argv[11], argv[12], argv[13], argv[14],
                          argv[15], argv[16], argv[17]);
}

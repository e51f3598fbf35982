// Scalar reference tier + runtime dispatch for the SIMD primitives.
//
// The scalar functions are the semantics every vector tier is tested
// against (tests/simd_test.cc) and the baseline bench_simd_kernel measures
// speedups over. They are pinned to genuinely scalar code — on GCC the
// optimizer is told not to auto-vectorize them — so "scalar vs SIMD"
// numbers compare one element per operation against real vector code, not
// against whatever the compiler managed to vectorize on its own.

#include "linalg/simd.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <mutex>

#include "linalg/simd_exp.h"

namespace otclean::linalg::simd {

namespace {

#if defined(__GNUC__) && !defined(__clang__)
#define OTCLEAN_NOVEC __attribute__((optimize("no-tree-vectorize")))
#else
#define OTCLEAN_NOVEC
#endif

OTCLEAN_NOVEC double ScalarDot(const double* a, const double* b, size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

OTCLEAN_NOVEC double ScalarDot3(const double* a, const double* b,
                                const double* c, size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += (a[i] * b[i]) * c[i];
  return s;
}

OTCLEAN_NOVEC double ScalarSum(const double* a, size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += a[i];
  return s;
}

OTCLEAN_NOVEC double ScalarGatherDot(const double* vals, const size_t* idx,
                                     const double* x, size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += vals[i] * x[idx[i]];
  return s;
}

OTCLEAN_NOVEC double ScalarGatherDot3(const double* a, const double* b,
                                      const size_t* idx, const double* x,
                                      size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += (a[i] * b[i]) * x[idx[i]];
  return s;
}

OTCLEAN_NOVEC void ScalarAxpy(double c, const double* a, double* y,
                              size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += c * a[i];
}

OTCLEAN_NOVEC void ScalarAxpyRows(const double* coeffs, const double* base,
                                  size_t row_stride, size_t num_rows,
                                  double* y, size_t n) {
  // Plain row-at-a-time sweep — the seed's ApplyTranspose inner loop, and
  // the bench's honest "before" baseline. The vector tiers' two-row
  // blocking accumulates identically per element (see simd_impl.h).
  for (size_t r = 0; r < num_rows; ++r) {
    const double c = coeffs[r];
    if (c == 0.0) continue;  // zero rows are skipped in every tier (simd.h)
    const double* a = base + r * row_stride;
    for (size_t i = 0; i < n; ++i) y[i] += c * a[i];
  }
}

OTCLEAN_NOVEC void ScalarHadamard(const double* a, const double* b,
                                  double* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

OTCLEAN_NOVEC void ScalarScaledHadamard(double s, const double* a,
                                        const double* b, double* out,
                                        size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = (s * a[i]) * b[i];
}

OTCLEAN_NOVEC void ScalarGatherScaledHadamard(double s, const double* vals,
                                              const size_t* idx,
                                              const double* x, double* out,
                                              size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = (s * vals[i]) * x[idx[i]];
}

// Log-domain scalar tier: one element at a time through the shared
// PolyExp (simd_exp.h) — the same polynomial the vector tiers run per
// lane, so scalar-vs-vector differences are confined to the sum order of
// the exp-sum reductions (the max reductions are bit-identical).

OTCLEAN_NOVEC double ScalarMaxReduce(const double* a, size_t n) {
  double r = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < n; ++i) r = a[i] > r ? a[i] : r;
  return r;
}

OTCLEAN_NOVEC double ScalarAddMaxReduce(const double* a, const double* b,
                                        size_t n) {
  double r = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < n; ++i) {
    const double t = a[i] + b[i];
    r = t > r ? t : r;
  }
  return r;
}

OTCLEAN_NOVEC double ScalarGatherAddMaxReduce(const double* vals,
                                              const size_t* idx,
                                              const double* x, size_t n) {
  double r = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < n; ++i) {
    const double t = vals[i] + x[idx[i]];
    r = t > r ? t : r;
  }
  return r;
}

OTCLEAN_NOVEC double ScalarExpSumShifted(const double* a, double shift,
                                         size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += PolyExp(a[i] - shift);
  return s;
}

OTCLEAN_NOVEC double ScalarAddExpSumShifted(const double* a, const double* b,
                                            double shift, size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += PolyExp(a[i] + b[i] - shift);
  return s;
}

OTCLEAN_NOVEC double ScalarGatherAddExpSumShifted(const double* vals,
                                                  const size_t* idx,
                                                  const double* x,
                                                  double shift, size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += PolyExp(vals[i] + x[idx[i]] - shift);
  return s;
}

OTCLEAN_NOVEC void ScalarAddMaxAccumulate(double c, const double* a,
                                          double* mx, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const double t = a[i] + c;
    if (t > mx[i]) mx[i] = t;
  }
}

OTCLEAN_NOVEC void ScalarAddExpSumAccumulate(double c, const double* a,
                                             const double* shift, double* acc,
                                             size_t n) {
  for (size_t i = 0; i < n; ++i) acc[i] += PolyExp(a[i] + c - shift[i]);
}

OTCLEAN_NOVEC void ScalarAddExpWrite(double shift, const double* a,
                                     const double* b, double* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = PolyExp(a[i] + b[i] + shift);
}

// f32 kernel-tier scalar reference: each float widens to double (exactly)
// before any arithmetic, so these are the f64 scalar bodies applied to the
// widened values — the semantics the f32 vector recipes are tested against.

OTCLEAN_NOVEC double ScalarDotF32(const float* a, const double* b, size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += static_cast<double>(a[i]) * b[i];
  return s;
}

OTCLEAN_NOVEC double ScalarDot3F32(const double* a, const float* b,
                                   const double* c, size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) {
    s += (a[i] * static_cast<double>(b[i])) * c[i];
  }
  return s;
}

OTCLEAN_NOVEC double ScalarGatherDotF32(const float* vals, const size_t* idx,
                                        const double* x, size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += static_cast<double>(vals[i]) * x[idx[i]];
  return s;
}

OTCLEAN_NOVEC double ScalarGatherDot3F32(const double* a, const float* b,
                                         const size_t* idx, const double* x,
                                         size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) {
    s += (a[i] * static_cast<double>(b[i])) * x[idx[i]];
  }
  return s;
}

OTCLEAN_NOVEC void ScalarAxpyRowsF32(const double* coeffs, const float* base,
                                     size_t row_stride, size_t num_rows,
                                     double* y, size_t n) {
  for (size_t r = 0; r < num_rows; ++r) {
    const double c = coeffs[r];
    if (c == 0.0) continue;  // zero rows are skipped in every tier (simd.h)
    const float* a = base + r * row_stride;
    for (size_t i = 0; i < n; ++i) y[i] += c * static_cast<double>(a[i]);
  }
}

OTCLEAN_NOVEC void ScalarScaledHadamardF32(double s, const float* a,
                                           const double* b, double* out,
                                           size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = (s * static_cast<double>(a[i])) * b[i];
  }
}

OTCLEAN_NOVEC void ScalarGatherScaledHadamardF32(double s, const float* vals,
                                                 const size_t* idx,
                                                 const double* x, double* out,
                                                 size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = (s * static_cast<double>(vals[i])) * x[idx[i]];
  }
}

OTCLEAN_NOVEC double ScalarAddMaxReduceF32(const float* a, const double* b,
                                           size_t n) {
  double r = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(a[i]) + b[i];
    r = t > r ? t : r;
  }
  return r;
}

OTCLEAN_NOVEC double ScalarAddExpSumShiftedF32(const float* a,
                                               const double* b, double shift,
                                               size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) {
    s += PolyExp(static_cast<double>(a[i]) + b[i] - shift);
  }
  return s;
}

OTCLEAN_NOVEC double ScalarGatherAddMaxReduceF32(const float* vals,
                                                 const size_t* idx,
                                                 const double* x, size_t n) {
  double r = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(vals[i]) + x[idx[i]];
    r = t > r ? t : r;
  }
  return r;
}

OTCLEAN_NOVEC double ScalarGatherAddExpSumShiftedF32(const float* vals,
                                                     const size_t* idx,
                                                     const double* x,
                                                     double shift, size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) {
    s += PolyExp(static_cast<double>(vals[i]) + x[idx[i]] - shift);
  }
  return s;
}

OTCLEAN_NOVEC void ScalarAddMaxAccumulateF32(double c, const float* a,
                                             double* mx, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(a[i]) + c;
    if (t > mx[i]) mx[i] = t;
  }
}

OTCLEAN_NOVEC void ScalarAddExpSumAccumulateF32(double c, const float* a,
                                                const double* shift,
                                                double* acc, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    acc[i] += PolyExp(static_cast<double>(a[i]) + c - shift[i]);
  }
}

OTCLEAN_NOVEC void ScalarAddExpWriteF32(double shift, const float* a,
                                        const double* b, double* out,
                                        size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = PolyExp(static_cast<double>(a[i]) + b[i] + shift);
  }
}

OTCLEAN_NOVEC double ScalarRelaxedScaling(const double* marginal,
                                          const double* denom,
                                          double exponent, const double* prev,
                                          double* out, size_t n,
                                          const OverRelaxation& relax) {
  double delta = 0.0;
  for (size_t i = 0; i < n; ++i) {
    out[i] = relax.omega == 1.0
                 ? RelaxedScale(marginal[i], denom[i], exponent)
                 : OverRelaxedScale(marginal[i], denom[i], exponent, prev[i],
                                    relax.omega, relax.t_lo, relax.t_hi);
    const double d = std::fabs(out[i] - prev[i]);
    if (d > delta) delta = d;
  }
  return delta;
}

#undef OTCLEAN_NOVEC

/// True when the running CPU can execute `isa` (independent of whether the
/// tier was compiled in).
bool CpuSupports(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
#if defined(__x86_64__) && defined(__GNUC__)
    case Isa::kAvx2:
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    case Isa::kAvx512:
      return __builtin_cpu_supports("avx512f");
#else
    case Isa::kAvx2:
    case Isa::kAvx512:
      return false;
#endif
    case Isa::kNeon:
#if defined(__aarch64__)
      return true;
#else
      return false;
#endif
  }
  return false;
}

const detail::SimdOps* OpsFor(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return detail::GetScalarOps();
    case Isa::kAvx2:
      return detail::GetAvx2Ops();
    case Isa::kAvx512:
      return detail::GetAvx512Ops();
    case Isa::kNeon:
      return detail::GetNeonOps();
  }
  return nullptr;
}

/// Widest supported tier, honoring an OTCLEAN_SIMD env override. An
/// unsupported or unknown request degrades to the best supported tier.
Isa SelectIsa() {
  if (const char* env = std::getenv("OTCLEAN_SIMD")) {
    Isa requested = Isa::kScalar;
    bool known = true;
    if (std::strcmp(env, "scalar") == 0) {
      requested = Isa::kScalar;
    } else if (std::strcmp(env, "avx2") == 0) {
      requested = Isa::kAvx2;
    } else if (std::strcmp(env, "avx512") == 0) {
      requested = Isa::kAvx512;
    } else if (std::strcmp(env, "neon") == 0) {
      requested = Isa::kNeon;
    } else {
      known = false;
    }
    if (known && IsaSupported(requested)) return requested;
  }
  for (Isa isa : {Isa::kAvx512, Isa::kAvx2, Isa::kNeon}) {
    if (IsaSupported(isa)) return isa;
  }
  return Isa::kScalar;
}

struct Dispatch {
  std::atomic<const detail::SimdOps*> ops{nullptr};
  std::atomic<Isa> isa{Isa::kScalar};
};

Dispatch& ActiveDispatch() {
  static Dispatch dispatch;
  return dispatch;
}

const detail::SimdOps& Active() {
  Dispatch& d = ActiveDispatch();
  const detail::SimdOps* ops = d.ops.load(std::memory_order_acquire);
  if (ops == nullptr) {
    static std::once_flag init;
    std::call_once(init, [&d] {
      const Isa isa = SelectIsa();
      d.isa.store(isa, std::memory_order_relaxed);
      d.ops.store(OpsFor(isa), std::memory_order_release);
    });
    ops = d.ops.load(std::memory_order_acquire);
  }
  return *ops;
}

}  // namespace

namespace detail {
const SimdOps* GetScalarOps() {
  static const SimdOps ops = [] {
    SimdOps o;
    o.dot = ScalarDot;
    o.dot3 = ScalarDot3;
    o.sum = ScalarSum;
    o.gather_dot = ScalarGatherDot;
    o.gather_dot3 = ScalarGatherDot3;
    o.axpy = ScalarAxpy;
    o.axpy_rows = ScalarAxpyRows;
    o.hadamard = ScalarHadamard;
    o.scaled_hadamard = ScalarScaledHadamard;
    o.gather_scaled_hadamard = ScalarGatherScaledHadamard;
    o.max_reduce = ScalarMaxReduce;
    o.add_max_reduce = ScalarAddMaxReduce;
    o.gather_add_max_reduce = ScalarGatherAddMaxReduce;
    o.exp_sum_shifted = ScalarExpSumShifted;
    o.add_exp_sum_shifted = ScalarAddExpSumShifted;
    o.gather_add_exp_sum_shifted = ScalarGatherAddExpSumShifted;
    o.add_max_accumulate = ScalarAddMaxAccumulate;
    o.add_exp_sum_accumulate = ScalarAddExpSumAccumulate;
    o.add_exp_write = ScalarAddExpWrite;
    o.relaxed_scaling = ScalarRelaxedScaling;
    o.dot_f32 = ScalarDotF32;
    o.dot3_f32 = ScalarDot3F32;
    o.gather_dot_f32 = ScalarGatherDotF32;
    o.gather_dot3_f32 = ScalarGatherDot3F32;
    o.axpy_rows_f32 = ScalarAxpyRowsF32;
    o.scaled_hadamard_f32 = ScalarScaledHadamardF32;
    o.gather_scaled_hadamard_f32 = ScalarGatherScaledHadamardF32;
    o.add_max_reduce_f32 = ScalarAddMaxReduceF32;
    o.add_exp_sum_shifted_f32 = ScalarAddExpSumShiftedF32;
    o.gather_add_max_reduce_f32 = ScalarGatherAddMaxReduceF32;
    o.gather_add_exp_sum_shifted_f32 = ScalarGatherAddExpSumShiftedF32;
    o.add_max_accumulate_f32 = ScalarAddMaxAccumulateF32;
    o.add_exp_sum_accumulate_f32 = ScalarAddExpSumAccumulateF32;
    o.add_exp_write_f32 = ScalarAddExpWriteF32;
    return o;
  }();
  return &ops;
}
}  // namespace detail

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
    case Isa::kNeon:
      return "neon";
  }
  return "unknown";
}

bool IsaSupported(Isa isa) {
  // CpuSupports MUST short-circuit first: OpsFor() executes the ISA TU's
  // table getter, whose static-init code the compiler emits with that
  // ISA's instructions (e.g. zmm moves in GetAvx512Ops) — calling it on a
  // CPU without the ISA is itself an illegal instruction.
  return CpuSupports(isa) && OpsFor(isa) != nullptr;
}

std::vector<Isa> SupportedIsas() {
  std::vector<Isa> out;
  for (Isa isa : {Isa::kScalar, Isa::kNeon, Isa::kAvx2, Isa::kAvx512}) {
    if (IsaSupported(isa)) out.push_back(isa);
  }
  return out;
}

Isa ActiveIsa() {
  Active();  // force dispatch selection
  return ActiveDispatch().isa.load(std::memory_order_relaxed);
}

const char* ActiveIsaName() { return IsaName(ActiveIsa()); }

bool SetIsa(Isa isa) {
  if (!IsaSupported(isa)) return false;
  Dispatch& d = ActiveDispatch();
  d.isa.store(isa, std::memory_order_relaxed);
  d.ops.store(OpsFor(isa), std::memory_order_release);
  return true;
}

double Dot(const double* a, const double* b, size_t n) {
  return Active().dot(a, b, n);
}

double Dot3(const double* a, const double* b, const double* c, size_t n) {
  return Active().dot3(a, b, c, n);
}

double Sum(const double* a, size_t n) { return Active().sum(a, n); }

double GatherDot(const double* vals, const size_t* idx, const double* x,
                 size_t n) {
  return Active().gather_dot(vals, idx, x, n);
}

double GatherDotSequential(const double* vals, const size_t* idx,
                           const double* x, size_t n) {
  // Not dispatched: the strictly sequential mul+add chain is the same code
  // in every tier (lane parallelism cannot help a length-n dependency
  // chain), and pinning one implementation keeps it bit-identical to the
  // AxpyRows element chain everywhere.
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += vals[i] * x[idx[i]];
  return s;
}

double GatherDot3(const double* a, const double* b, const size_t* idx,
                  const double* x, size_t n) {
  return Active().gather_dot3(a, b, idx, x, n);
}

void Axpy(double c, const double* a, double* y, size_t n) {
  Active().axpy(c, a, y, n);
}

void AxpyRows(const double* coeffs, const double* base, size_t row_stride,
              size_t num_rows, double* y, size_t n) {
  Active().axpy_rows(coeffs, base, row_stride, num_rows, y, n);
}

void Hadamard(const double* a, const double* b, double* out, size_t n) {
  Active().hadamard(a, b, out, n);
}

void ScaledHadamard(double s, const double* a, const double* b, double* out,
                    size_t n) {
  Active().scaled_hadamard(s, a, b, out, n);
}

void GatherScaledHadamard(double s, const double* vals, const size_t* idx,
                          const double* x, double* out, size_t n) {
  Active().gather_scaled_hadamard(s, vals, idx, x, out, n);
}

double MaxReduce(const double* a, size_t n) {
  return Active().max_reduce(a, n);
}

double AddMaxReduce(const double* a, const double* b, size_t n) {
  return Active().add_max_reduce(a, b, n);
}

double GatherAddMaxReduce(const double* vals, const size_t* idx,
                          const double* x, size_t n) {
  return Active().gather_add_max_reduce(vals, idx, x, n);
}

double ExpSumShifted(const double* a, double shift, size_t n) {
  return Active().exp_sum_shifted(a, shift, n);
}

double AddExpSumShifted(const double* a, const double* b, double shift,
                        size_t n) {
  return Active().add_exp_sum_shifted(a, b, shift, n);
}

double GatherAddExpSumShifted(const double* vals, const size_t* idx,
                              const double* x, double shift, size_t n) {
  return Active().gather_add_exp_sum_shifted(vals, idx, x, shift, n);
}

void AddMaxAccumulate(double c, const double* a, double* mx, size_t n) {
  Active().add_max_accumulate(c, a, mx, n);
}

void AddExpSumAccumulate(double c, const double* a, const double* shift,
                         double* acc, size_t n) {
  Active().add_exp_sum_accumulate(c, a, shift, acc, n);
}

void AddExpWrite(double shift, const double* a, const double* b, double* out,
                 size_t n) {
  Active().add_exp_write(shift, a, b, out, n);
}

double RelaxedScaling(const double* marginal, const double* denom,
                      double exponent, const double* prev, double* out,
                      size_t n, const OverRelaxation& relax) {
  return Active().relaxed_scaling(marginal, denom, exponent, prev, out, n,
                                  relax);
}

double DotF32(const float* a, const double* b, size_t n) {
  return Active().dot_f32(a, b, n);
}

double Dot3F32(const double* a, const float* b, const double* c, size_t n) {
  return Active().dot3_f32(a, b, c, n);
}

double GatherDotF32(const float* vals, const size_t* idx, const double* x,
                    size_t n) {
  return Active().gather_dot_f32(vals, idx, x, n);
}

double GatherDot3F32(const double* a, const float* b, const size_t* idx,
                     const double* x, size_t n) {
  return Active().gather_dot3_f32(a, b, idx, x, n);
}

void AxpyRowsF32(const double* coeffs, const float* base, size_t row_stride,
                 size_t num_rows, double* y, size_t n) {
  Active().axpy_rows_f32(coeffs, base, row_stride, num_rows, y, n);
}

void ScaledHadamardF32(double s, const float* a, const double* b, double* out,
                       size_t n) {
  Active().scaled_hadamard_f32(s, a, b, out, n);
}

void GatherScaledHadamardF32(double s, const float* vals, const size_t* idx,
                             const double* x, double* out, size_t n) {
  Active().gather_scaled_hadamard_f32(s, vals, idx, x, out, n);
}

double AddMaxReduceF32(const float* a, const double* b, size_t n) {
  return Active().add_max_reduce_f32(a, b, n);
}

double AddExpSumShiftedF32(const float* a, const double* b, double shift,
                           size_t n) {
  return Active().add_exp_sum_shifted_f32(a, b, shift, n);
}

double GatherAddMaxReduceF32(const float* vals, const size_t* idx,
                             const double* x, size_t n) {
  return Active().gather_add_max_reduce_f32(vals, idx, x, n);
}

double GatherAddExpSumShiftedF32(const float* vals, const size_t* idx,
                                 const double* x, double shift, size_t n) {
  return Active().gather_add_exp_sum_shifted_f32(vals, idx, x, shift, n);
}

void AddMaxAccumulateF32(double c, const float* a, double* mx, size_t n) {
  Active().add_max_accumulate_f32(c, a, mx, n);
}

void AddExpSumAccumulateF32(double c, const float* a, const double* shift,
                            double* acc, size_t n) {
  Active().add_exp_sum_accumulate_f32(c, a, shift, acc, n);
}

void AddExpWriteF32(double shift, const float* a, const double* b,
                    double* out, size_t n) {
  Active().add_exp_write_f32(shift, a, b, out, n);
}

}  // namespace otclean::linalg::simd

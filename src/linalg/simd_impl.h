#ifndef OTCLEAN_LINALG_SIMD_IMPL_H_
#define OTCLEAN_LINALG_SIMD_IMPL_H_
// otclean-lint: internal-header — implementation detail of the SIMD layer,
// included only by its ISA translation units; deliberately NOT exported
// through the umbrella header.

// Lane-pack-templated bodies of every SIMD primitive. Each ISA translation
// unit (simd_avx2.cc, simd_avx512.cc, simd_neon.cc) defines a Pack type —
//
//   struct Pack {
//     using V = <vector register type>;
//     static constexpr size_t kLanes;
//     static V Zero();
//     static V Set1(double);
//     static V Load(const double*);            // unaligned
//     static V LoadF32(const float*);          // unaligned, widen to double
//     static void Store(double*, V);           // unaligned
//     static V Add(V, V);
//     static V Mul(V, V);
//     static V Fma(V a, V b, V acc);           // acc + a·b, single rounding
//     static V Gather(const double* base, const size_t* idx);
//     static V GatherF32(const float* base, const size_t* idx);  // widen
//     static double ReduceAdd(V);              // fixed-order lane sum
//   };
//
// — and instantiates these templates into its detail::SimdOps table.
// Writing every body exactly once is what guarantees the contiguous and
// gather variants of a reduction share the same accumulation recipe (see
// the determinism contract in simd.h): GatherDot with identity indices is
// bit-identical to Dot because both ARE the same template, modulo the load.
//
// The f32 kernel-tier variants are the SAME templates instantiated with a
// float element type for the kernel operand: LoadAs/GatherAs below resolve
// to the widening LoadF32/GatherF32, float→double conversion is exact, and
// everything downstream of the load is untouched — so each f32 primitive
// inherits its f64 twin's accumulation recipe and determinism contract by
// construction rather than by parallel maintenance.
//
// Scalar tails use std::fma so the last partial elements round the same
// way the vector body does.

// Log-domain primitives additionally require:
//
//     static V Sub(V, V);
//     static V Div(V, V);
//     static V Max(V, V);
//     static V Min(V, V);
//     static V Floor(V);
//     static double ReduceMax(V);              // order-free lane max
//     static V ScaleByPow2(V x, V n);          // x·2^n, n integral doubles
//                                              // (exponent-field add; x and
//                                              // the result must be normal)
//     static V ZeroIfBelow(V v, V x, V lim);   // lanes of v where x ≥ lim,
//                                              // else exact 0 (NaN x → 0)
//
// which ExpPdImpl composes into the shared PolyExp polynomial of
// simd_exp.h — same coefficients, same fma/mul/div sequence — so a lane
// of any vector tier's exp is bit-identical to the scalar PolyExp.
//
// The relaxed scaling step (RelaxedScalingImpl) further requires:
//
//     static V Logb(V x);                      // ⌊log2 x⌋ as a double
//     static V HalfMantissa(V x);              // x·2^-k in [0.5, 1)
//                                              // (both: positive normal x;
//                                              // exact bit manipulations)
//     static V ZeroIfZero(V v, V x);           // lanes of v where x != 0,
//                                              // else exact 0 (NaN x keeps v)
//
// from which LogPdImpl builds the shared PolyLog of simd_exp.h the same
// way (OverRelaxedLanes takes one more PolyLog, of the previous
// potential, from the same ops).

#include <cmath>
#include <cstddef>
#include <limits>

#include "linalg/simd_exp.h"

namespace otclean::linalg::simd::impl {

// Element-type-directed loads: double pointers take the plain lane load,
// float pointers take the widening one. The widening conversion is exact,
// so a body instantiated at float differs from its double twin ONLY in how
// many bytes the load touches.
template <class P>
inline typename P::V LoadAs(const double* p) {
  return P::Load(p);
}
template <class P>
inline typename P::V LoadAs(const float* p) {
  return P::LoadF32(p);
}
template <class P>
inline typename P::V GatherAs(const double* base, const size_t* idx) {
  return P::Gather(base, idx);
}
template <class P>
inline typename P::V GatherAs(const float* base, const size_t* idx) {
  return P::GatherF32(base, idx);
}

template <class P, class TA = double>
double DotImpl(const TA* a, const double* b, size_t n) {
  constexpr size_t L = P::kLanes;
  typename P::V s0 = P::Zero(), s1 = P::Zero(), s2 = P::Zero(),
                s3 = P::Zero();
  size_t i = 0;
  for (; i + 4 * L <= n; i += 4 * L) {
    s0 = P::Fma(LoadAs<P>(a + i), P::Load(b + i), s0);
    s1 = P::Fma(LoadAs<P>(a + i + L), P::Load(b + i + L), s1);
    s2 = P::Fma(LoadAs<P>(a + i + 2 * L), P::Load(b + i + 2 * L), s2);
    s3 = P::Fma(LoadAs<P>(a + i + 3 * L), P::Load(b + i + 3 * L), s3);
  }
  typename P::V s = P::Add(P::Add(s0, s1), P::Add(s2, s3));
  for (; i + L <= n; i += L) s = P::Fma(LoadAs<P>(a + i), P::Load(b + i), s);
  double r = P::ReduceAdd(s);
  for (; i < n; ++i) r = std::fma(static_cast<double>(a[i]), b[i], r);
  return r;
}

template <class P, class TV = double>
double GatherDotImpl(const TV* vals, const size_t* idx, const double* x,
                     size_t n) {
  constexpr size_t L = P::kLanes;
  typename P::V s0 = P::Zero(), s1 = P::Zero(), s2 = P::Zero(),
                s3 = P::Zero();
  size_t i = 0;
  for (; i + 4 * L <= n; i += 4 * L) {
    s0 = P::Fma(LoadAs<P>(vals + i), P::Gather(x, idx + i), s0);
    s1 = P::Fma(LoadAs<P>(vals + i + L), P::Gather(x, idx + i + L), s1);
    s2 = P::Fma(LoadAs<P>(vals + i + 2 * L), P::Gather(x, idx + i + 2 * L),
                s2);
    s3 = P::Fma(LoadAs<P>(vals + i + 3 * L), P::Gather(x, idx + i + 3 * L),
                s3);
  }
  typename P::V s = P::Add(P::Add(s0, s1), P::Add(s2, s3));
  for (; i + L <= n; i += L) {
    s = P::Fma(LoadAs<P>(vals + i), P::Gather(x, idx + i), s);
  }
  double r = P::ReduceAdd(s);
  for (; i < n; ++i) {
    r = std::fma(static_cast<double>(vals[i]), x[idx[i]], r);
  }
  return r;
}

template <class P, class TB = double>
double Dot3Impl(const double* a, const TB* b, const double* c, size_t n) {
  constexpr size_t L = P::kLanes;
  typename P::V s0 = P::Zero(), s1 = P::Zero(), s2 = P::Zero(),
                s3 = P::Zero();
  size_t i = 0;
  for (; i + 4 * L <= n; i += 4 * L) {
    s0 = P::Fma(P::Mul(P::Load(a + i), LoadAs<P>(b + i)), P::Load(c + i), s0);
    s1 = P::Fma(P::Mul(P::Load(a + i + L), LoadAs<P>(b + i + L)),
                P::Load(c + i + L), s1);
    s2 = P::Fma(P::Mul(P::Load(a + i + 2 * L), LoadAs<P>(b + i + 2 * L)),
                P::Load(c + i + 2 * L), s2);
    s3 = P::Fma(P::Mul(P::Load(a + i + 3 * L), LoadAs<P>(b + i + 3 * L)),
                P::Load(c + i + 3 * L), s3);
  }
  typename P::V s = P::Add(P::Add(s0, s1), P::Add(s2, s3));
  for (; i + L <= n; i += L) {
    s = P::Fma(P::Mul(P::Load(a + i), LoadAs<P>(b + i)), P::Load(c + i), s);
  }
  double r = P::ReduceAdd(s);
  for (; i < n; ++i) {
    r = std::fma(a[i] * static_cast<double>(b[i]), c[i], r);
  }
  return r;
}

template <class P, class TB = double>
double GatherDot3Impl(const double* a, const TB* b, const size_t* idx,
                      const double* x, size_t n) {
  constexpr size_t L = P::kLanes;
  typename P::V s0 = P::Zero(), s1 = P::Zero(), s2 = P::Zero(),
                s3 = P::Zero();
  size_t i = 0;
  for (; i + 4 * L <= n; i += 4 * L) {
    s0 = P::Fma(P::Mul(P::Load(a + i), LoadAs<P>(b + i)),
                P::Gather(x, idx + i), s0);
    s1 = P::Fma(P::Mul(P::Load(a + i + L), LoadAs<P>(b + i + L)),
                P::Gather(x, idx + i + L), s1);
    s2 = P::Fma(P::Mul(P::Load(a + i + 2 * L), LoadAs<P>(b + i + 2 * L)),
                P::Gather(x, idx + i + 2 * L), s2);
    s3 = P::Fma(P::Mul(P::Load(a + i + 3 * L), LoadAs<P>(b + i + 3 * L)),
                P::Gather(x, idx + i + 3 * L), s3);
  }
  typename P::V s = P::Add(P::Add(s0, s1), P::Add(s2, s3));
  for (; i + L <= n; i += L) {
    s = P::Fma(P::Mul(P::Load(a + i), LoadAs<P>(b + i)),
               P::Gather(x, idx + i), s);
  }
  double r = P::ReduceAdd(s);
  for (; i < n; ++i) {
    r = std::fma(a[i] * static_cast<double>(b[i]), x[idx[i]], r);
  }
  return r;
}

template <class P>
double SumImpl(const double* a, size_t n) {
  constexpr size_t L = P::kLanes;
  typename P::V s0 = P::Zero(), s1 = P::Zero(), s2 = P::Zero(),
                s3 = P::Zero();
  size_t i = 0;
  for (; i + 4 * L <= n; i += 4 * L) {
    s0 = P::Add(s0, P::Load(a + i));
    s1 = P::Add(s1, P::Load(a + i + L));
    s2 = P::Add(s2, P::Load(a + i + 2 * L));
    s3 = P::Add(s3, P::Load(a + i + 3 * L));
  }
  typename P::V s = P::Add(P::Add(s0, s1), P::Add(s2, s3));
  for (; i + L <= n; i += L) s = P::Add(s, P::Load(a + i));
  double r = P::ReduceAdd(s);
  for (; i < n; ++i) r += a[i];
  return r;
}

// Elementwise bodies use Mul-then-Add (NOT Fma): a separately rounded
// multiply and add per element is exactly what the scalar tier computes,
// so these primitives are bit-identical across every tier — the property
// the dense/sparse ApplyTranspose exactness rests on (see simd.h).

template <class P, class TA = double>
void AxpyImpl(double c, const TA* a, double* y, size_t n) {
  constexpr size_t L = P::kLanes;
  const typename P::V cv = P::Set1(c);
  size_t i = 0;
  for (; i + L <= n; i += L) {
    P::Store(y + i, P::Add(P::Load(y + i), P::Mul(cv, LoadAs<P>(a + i))));
  }
  for (; i < n; ++i) y[i] += c * static_cast<double>(a[i]);
}

template <class P, class TB = double>
void AxpyRowsImpl(const double* coeffs, const TB* base, size_t row_stride,
                  size_t num_rows, double* y, size_t n) {
  constexpr size_t L = P::kLanes;
  size_t r = 0;
  // Two rows per pass: one load+store of y per pair instead of per row.
  // Each y element still accumulates the rows in ascending order with one
  // rounded multiply and add per row — the blocking is traffic-only.
  // Zero-coefficient rows are skipped INDIVIDUALLY, exactly as the scalar
  // tier skips them: a mixed pair degrades to a single-row Axpy, so tiers
  // agree bit for bit even on non-finite row data (0·inf never happens in
  // any tier).
  for (; r + 2 <= num_rows; r += 2) {
    if (coeffs[r] == 0.0 || coeffs[r + 1] == 0.0) {
      if (coeffs[r] != 0.0) {
        AxpyImpl<P>(coeffs[r], base + r * row_stride, y, n);
      } else if (coeffs[r + 1] != 0.0) {
        AxpyImpl<P>(coeffs[r + 1], base + (r + 1) * row_stride, y, n);
      }
      continue;
    }
    const typename P::V c0 = P::Set1(coeffs[r]);
    const typename P::V c1 = P::Set1(coeffs[r + 1]);
    const TB* a0 = base + r * row_stride;
    const TB* a1 = base + (r + 1) * row_stride;
    size_t i = 0;
    for (; i + L <= n; i += L) {
      typename P::V acc = P::Load(y + i);
      acc = P::Add(acc, P::Mul(c0, LoadAs<P>(a0 + i)));
      acc = P::Add(acc, P::Mul(c1, LoadAs<P>(a1 + i)));
      P::Store(y + i, acc);
    }
    for (; i < n; ++i) {
      y[i] += coeffs[r] * static_cast<double>(a0[i]);
      y[i] += coeffs[r + 1] * static_cast<double>(a1[i]);
    }
  }
  if (r < num_rows && coeffs[r] != 0.0) {
    AxpyImpl<P>(coeffs[r], base + r * row_stride, y, n);
  }
}

template <class P>
void HadamardImpl(const double* a, const double* b, double* out, size_t n) {
  constexpr size_t L = P::kLanes;
  size_t i = 0;
  for (; i + L <= n; i += L) {
    P::Store(out + i, P::Mul(P::Load(a + i), P::Load(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

template <class P, class TA = double>
void ScaledHadamardImpl(double s, const TA* a, const double* b, double* out,
                        size_t n) {
  constexpr size_t L = P::kLanes;
  const typename P::V sv = P::Set1(s);
  size_t i = 0;
  for (; i + L <= n; i += L) {
    P::Store(out + i, P::Mul(P::Mul(sv, LoadAs<P>(a + i)), P::Load(b + i)));
  }
  for (; i < n; ++i) out[i] = (s * static_cast<double>(a[i])) * b[i];
}

template <class P, class TV = double>
void GatherScaledHadamardImpl(double s, const TV* vals, const size_t* idx,
                              const double* x, double* out, size_t n) {
  constexpr size_t L = P::kLanes;
  const typename P::V sv = P::Set1(s);
  size_t i = 0;
  for (; i + L <= n; i += L) {
    P::Store(out + i,
             P::Mul(P::Mul(sv, LoadAs<P>(vals + i)), P::Gather(x, idx + i)));
  }
  for (; i < n; ++i) out[i] = (s * static_cast<double>(vals[i])) * x[idx[i]];
}

// ------------------------------------------------------------ log-domain --

/// Lane-pack PolyExp (simd_exp.h): identical clamp → argument reduction →
/// rational polynomial → power-of-two scale sequence, one lane per
/// element. See the domain contract in simd_exp.h.
template <class P>
typename P::V ExpPdImpl(typename P::V x) {
  using V = typename P::V;
  const V lo = P::Set1(kPolyExpLo);
  const V xc = P::Max(P::Min(x, P::Set1(kPolyExpHi)), lo);
  const V n = P::Floor(P::Fma(xc, P::Set1(kPolyExpLog2E), P::Set1(0.5)));
  V r = P::Fma(n, P::Set1(-kPolyExpC1), xc);
  r = P::Fma(n, P::Set1(-kPolyExpC2), r);
  const V rr = P::Mul(r, r);
  V p = P::Set1(kPolyExpP0);
  p = P::Fma(p, rr, P::Set1(kPolyExpP1));
  p = P::Fma(p, rr, P::Set1(kPolyExpP2));
  const V rp = P::Mul(r, p);
  V q = P::Set1(kPolyExpQ0);
  q = P::Fma(q, rr, P::Set1(kPolyExpQ1));
  q = P::Fma(q, rr, P::Set1(kPolyExpQ2));
  q = P::Fma(q, rr, P::Set1(kPolyExpQ3));
  const V e = P::Div(rp, P::Sub(q, rp));
  const V res = P::ScaleByPow2(P::Fma(e, P::Set1(2.0), P::Set1(1.0)), n);
  return P::ZeroIfBelow(res, x, lo);  // underflow, -inf, NaN → exact 0
}

/// Lane-pack PolyLog (simd_exp.h): identical exponent/mantissa split →
/// reduced argument → rational polynomial → e·ln 2 sequence, one lane per
/// element. Lanes outside PolyLog's domain (non-normal, negative, NaN)
/// yield garbage the caller masks.
template <class P>
typename P::V LogPdImpl(typename P::V x) {
  using V = typename P::V;
  const V one = P::Set1(1.0);
  const V m = P::HalfMantissa(x);
  // 1 where m < √½ (mantissa doubles, exponent drops by one), else 0.
  const V small =
      P::Sub(one, P::ZeroIfBelow(one, m, P::Set1(kPolyLogSqrtHalf)));
  const V k = P::Sub(P::Add(P::Logb(x), one), small);
  const V f = P::Fma(m, small, P::Sub(m, one));
  const V z = P::Mul(f, f);
  V p = P::Set1(kPolyLogP0);
  p = P::Fma(p, f, P::Set1(kPolyLogP1));
  p = P::Fma(p, f, P::Set1(kPolyLogP2));
  p = P::Fma(p, f, P::Set1(kPolyLogP3));
  p = P::Fma(p, f, P::Set1(kPolyLogP4));
  p = P::Fma(p, f, P::Set1(kPolyLogP5));
  V q = P::Add(f, P::Set1(kPolyLogQ0));
  q = P::Fma(q, f, P::Set1(kPolyLogQ1));
  q = P::Fma(q, f, P::Set1(kPolyLogQ2));
  q = P::Fma(q, f, P::Set1(kPolyLogQ3));
  q = P::Fma(q, f, P::Set1(kPolyLogQ4));
  V y = P::Mul(f, P::Div(P::Mul(z, p), q));
  y = P::Fma(k, P::Set1(kPolyLogC2), y);
  y = P::Fma(z, P::Set1(-0.5), y);
  return P::Fma(k, P::Set1(kPolyLogC1), P::Add(f, y));
}

/// Lane-pack OverRelaxedScale (simd_exp.h) of the ratio lanes `s` against
/// the previous potential lanes `pv`. The guard is a 0/1 flag lane: an
/// entry outside it gets step coefficient 0 AND a zeroed t, so
/// fma(0, 0, ln u*) returns ln u* exactly — the scalar element's plain
/// step — even where ln prev is garbage (non-normal prev).
template <class P>
typename P::V OverRelaxedLanes(typename P::V s, typename P::V pv,
                               double exponent, const OverRelaxation& relax) {
  using V = typename P::V;
  const V one = P::Set1(1.0);
  const V min_normal = P::Set1(std::numeric_limits<double>::min());
  const V ls = P::Mul(
      P::Set1(exponent),
      LogPdImpl<P>(P::Min(s, P::Set1(std::numeric_limits<double>::max()))));
  const V t = P::Sub(LogPdImpl<P>(pv), ls);
  V g = P::ZeroIfBelow(one, pv, min_normal);
  g = P::ZeroIfBelow(g, P::Sub(P::Set1(kScalingMax), pv), min_normal);
  g = P::ZeroIfBelow(g, t, P::Set1(relax.t_lo));
  g = P::ZeroIfBelow(g, P::Sub(P::Set1(relax.t_hi), t), P::Zero());
  const V x = P::Fma(P::Mul(g, P::Set1(1.0 - relax.omega)),
                     P::ZeroIfBelow(t, g, one), ls);
  const V r = P::Min(ExpPdImpl<P>(x), P::Set1(kScalingMax));
  return P::ZeroIfBelow(r, s, min_normal);
}

/// out[i] = RelaxedScale(marginal[i], denom[i], exponent) (simd_exp.h) —
/// or OverRelaxedScale(…, prev[i], relax) when relax.omega != 1 —
/// returning max_i |out[i] − prev[i]| with NaN differences ignored — the
/// Vector::NormInf of (out − prev), fused into the same pass. Every lane
/// follows the scalar element's semantics exactly and max is exact, so
/// output and return value are bit-identical across tiers.
template <class P>
double RelaxedScalingImpl(const double* marginal, const double* denom,
                          double exponent, const double* prev, double* out,
                          size_t n, const OverRelaxation& relax) {
  using V = typename P::V;
  constexpr size_t L = P::kLanes;
  const V zero = P::Zero();
  const V ceiling = P::Set1(kScalingMax);
  const V min_ratio = P::Set1(std::numeric_limits<double>::min());
  const V max_finite = P::Set1(std::numeric_limits<double>::max());
  const V ev = P::Set1(exponent);
  const bool classic = exponent == 1.0;
  const bool over = relax.omega != 1.0;
  V acc = zero;
  size_t i = 0;
  for (; i + L <= n; i += L) {
    const V d = P::Load(denom + i);
    const V s = P::ZeroIfZero(P::Div(P::Load(marginal + i), d), d);
    const V pv = P::Load(prev + i);
    V r;
    if (over) {
      r = OverRelaxedLanes<P>(s, pv, exponent, relax);
    } else if (classic) {
      r = P::Min(P::ZeroIfBelow(s, s, zero), ceiling);
    } else {
      const V sc = P::Min(s, max_finite);
      r = ExpPdImpl<P>(P::Mul(ev, LogPdImpl<P>(sc)));
      r = P::ZeroIfBelow(P::Min(r, ceiling), s, min_ratio);
    }
    P::Store(out + i, r);
    const V ad = P::Max(P::Sub(r, pv), P::Sub(pv, r));
    acc = P::Max(P::ZeroIfBelow(ad, ad, zero), acc);  // NaN Δ ignored
  }
  double delta = P::ReduceMax(acc);
  for (; i < n; ++i) {
    out[i] = over ? OverRelaxedScale(marginal[i], denom[i], exponent, prev[i],
                                     relax.omega, relax.t_lo, relax.t_hi)
                  : RelaxedScale(marginal[i], denom[i], exponent);
    const double d = std::fabs(out[i] - prev[i]);
    if (d > delta) delta = d;
  }
  return delta;
}

// The max reductions reuse the 4-accumulator blocking of the sums. Max is
// exactly associative and commutative (no NaN inputs by contract), so —
// unlike the sums — any blocking gives the bit-identical result the
// scalar tier computes.

template <class P>
double MaxReduceImpl(const double* a, size_t n) {
  constexpr size_t L = P::kLanes;
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  typename P::V s0 = P::Set1(kNegInf), s1 = s0, s2 = s0, s3 = s0;
  size_t i = 0;
  for (; i + 4 * L <= n; i += 4 * L) {
    s0 = P::Max(s0, P::Load(a + i));
    s1 = P::Max(s1, P::Load(a + i + L));
    s2 = P::Max(s2, P::Load(a + i + 2 * L));
    s3 = P::Max(s3, P::Load(a + i + 3 * L));
  }
  typename P::V s = P::Max(P::Max(s0, s1), P::Max(s2, s3));
  for (; i + L <= n; i += L) s = P::Max(s, P::Load(a + i));
  double r = P::ReduceMax(s);
  for (; i < n; ++i) r = a[i] > r ? a[i] : r;
  return r;
}

template <class P, class TA = double>
double AddMaxReduceImpl(const TA* a, const double* b, size_t n) {
  constexpr size_t L = P::kLanes;
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  typename P::V s0 = P::Set1(kNegInf), s1 = s0, s2 = s0, s3 = s0;
  size_t i = 0;
  for (; i + 4 * L <= n; i += 4 * L) {
    s0 = P::Max(s0, P::Add(LoadAs<P>(a + i), P::Load(b + i)));
    s1 = P::Max(s1, P::Add(LoadAs<P>(a + i + L), P::Load(b + i + L)));
    s2 = P::Max(s2, P::Add(LoadAs<P>(a + i + 2 * L), P::Load(b + i + 2 * L)));
    s3 = P::Max(s3, P::Add(LoadAs<P>(a + i + 3 * L), P::Load(b + i + 3 * L)));
  }
  typename P::V s = P::Max(P::Max(s0, s1), P::Max(s2, s3));
  for (; i + L <= n; i += L) {
    s = P::Max(s, P::Add(LoadAs<P>(a + i), P::Load(b + i)));
  }
  double r = P::ReduceMax(s);
  for (; i < n; ++i) {
    const double t = static_cast<double>(a[i]) + b[i];
    r = t > r ? t : r;
  }
  return r;
}

template <class P, class TV = double>
double GatherAddMaxReduceImpl(const TV* vals, const size_t* idx,
                              const double* x, size_t n) {
  constexpr size_t L = P::kLanes;
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  typename P::V s0 = P::Set1(kNegInf), s1 = s0, s2 = s0, s3 = s0;
  size_t i = 0;
  for (; i + 4 * L <= n; i += 4 * L) {
    s0 = P::Max(s0, P::Add(LoadAs<P>(vals + i), P::Gather(x, idx + i)));
    s1 = P::Max(s1,
                P::Add(LoadAs<P>(vals + i + L), P::Gather(x, idx + i + L)));
    s2 = P::Max(s2, P::Add(LoadAs<P>(vals + i + 2 * L),
                           P::Gather(x, idx + i + 2 * L)));
    s3 = P::Max(s3, P::Add(LoadAs<P>(vals + i + 3 * L),
                           P::Gather(x, idx + i + 3 * L)));
  }
  typename P::V s = P::Max(P::Max(s0, s1), P::Max(s2, s3));
  for (; i + L <= n; i += L) {
    s = P::Max(s, P::Add(LoadAs<P>(vals + i), P::Gather(x, idx + i)));
  }
  double r = P::ReduceMax(s);
  for (; i < n; ++i) {
    const double t = static_cast<double>(vals[i]) + x[idx[i]];
    r = t > r ? t : r;
  }
  return r;
}

template <class P>
double ExpSumShiftedImpl(const double* a, double shift, size_t n) {
  constexpr size_t L = P::kLanes;
  const typename P::V sh = P::Set1(shift);
  typename P::V s0 = P::Zero(), s1 = P::Zero(), s2 = P::Zero(),
                s3 = P::Zero();
  size_t i = 0;
  for (; i + 4 * L <= n; i += 4 * L) {
    s0 = P::Add(s0, ExpPdImpl<P>(P::Sub(P::Load(a + i), sh)));
    s1 = P::Add(s1, ExpPdImpl<P>(P::Sub(P::Load(a + i + L), sh)));
    s2 = P::Add(s2, ExpPdImpl<P>(P::Sub(P::Load(a + i + 2 * L), sh)));
    s3 = P::Add(s3, ExpPdImpl<P>(P::Sub(P::Load(a + i + 3 * L), sh)));
  }
  typename P::V s = P::Add(P::Add(s0, s1), P::Add(s2, s3));
  for (; i + L <= n; i += L) {
    s = P::Add(s, ExpPdImpl<P>(P::Sub(P::Load(a + i), sh)));
  }
  double r = P::ReduceAdd(s);
  for (; i < n; ++i) r += PolyExp(a[i] - shift);
  return r;
}

template <class P, class TA = double>
double AddExpSumShiftedImpl(const TA* a, const double* b, double shift,
                            size_t n) {
  constexpr size_t L = P::kLanes;
  const typename P::V sh = P::Set1(shift);
  typename P::V s0 = P::Zero(), s1 = P::Zero(), s2 = P::Zero(),
                s3 = P::Zero();
  size_t i = 0;
  for (; i + 4 * L <= n; i += 4 * L) {
    s0 = P::Add(s0, ExpPdImpl<P>(
                        P::Sub(P::Add(LoadAs<P>(a + i), P::Load(b + i)), sh)));
    s1 = P::Add(s1,
                ExpPdImpl<P>(P::Sub(
                    P::Add(LoadAs<P>(a + i + L), P::Load(b + i + L)), sh)));
    s2 = P::Add(s2,
                ExpPdImpl<P>(P::Sub(
                    P::Add(LoadAs<P>(a + i + 2 * L), P::Load(b + i + 2 * L)),
                    sh)));
    s3 = P::Add(s3,
                ExpPdImpl<P>(P::Sub(
                    P::Add(LoadAs<P>(a + i + 3 * L), P::Load(b + i + 3 * L)),
                    sh)));
  }
  typename P::V s = P::Add(P::Add(s0, s1), P::Add(s2, s3));
  for (; i + L <= n; i += L) {
    s = P::Add(s,
               ExpPdImpl<P>(P::Sub(P::Add(LoadAs<P>(a + i), P::Load(b + i)),
                                   sh)));
  }
  double r = P::ReduceAdd(s);
  for (; i < n; ++i) r += PolyExp(static_cast<double>(a[i]) + b[i] - shift);
  return r;
}

template <class P, class TV = double>
double GatherAddExpSumShiftedImpl(const TV* vals, const size_t* idx,
                                  const double* x, double shift, size_t n) {
  constexpr size_t L = P::kLanes;
  const typename P::V sh = P::Set1(shift);
  typename P::V s0 = P::Zero(), s1 = P::Zero(), s2 = P::Zero(),
                s3 = P::Zero();
  size_t i = 0;
  for (; i + 4 * L <= n; i += 4 * L) {
    s0 = P::Add(s0, ExpPdImpl<P>(P::Sub(
                        P::Add(LoadAs<P>(vals + i), P::Gather(x, idx + i)),
                        sh)));
    s1 = P::Add(s1, ExpPdImpl<P>(P::Sub(P::Add(LoadAs<P>(vals + i + L),
                                               P::Gather(x, idx + i + L)),
                                        sh)));
    s2 = P::Add(s2, ExpPdImpl<P>(P::Sub(P::Add(LoadAs<P>(vals + i + 2 * L),
                                               P::Gather(x, idx + i + 2 * L)),
                                        sh)));
    s3 = P::Add(s3, ExpPdImpl<P>(P::Sub(P::Add(LoadAs<P>(vals + i + 3 * L),
                                               P::Gather(x, idx + i + 3 * L)),
                                        sh)));
  }
  typename P::V s = P::Add(P::Add(s0, s1), P::Add(s2, s3));
  for (; i + L <= n; i += L) {
    s = P::Add(s, ExpPdImpl<P>(P::Sub(
                      P::Add(LoadAs<P>(vals + i), P::Gather(x, idx + i)),
                      sh)));
  }
  double r = P::ReduceAdd(s);
  for (; i < n; ++i) {
    r += PolyExp(static_cast<double>(vals[i]) + x[idx[i]] - shift);
  }
  return r;
}

template <class P, class TA = double>
void AddMaxAccumulateImpl(double c, const TA* a, double* mx, size_t n) {
  constexpr size_t L = P::kLanes;
  const typename P::V cv = P::Set1(c);
  size_t i = 0;
  for (; i + L <= n; i += L) {
    P::Store(mx + i,
             P::Max(P::Load(mx + i), P::Add(LoadAs<P>(a + i), cv)));
  }
  for (; i < n; ++i) {
    const double t = static_cast<double>(a[i]) + c;
    if (t > mx[i]) mx[i] = t;
  }
}

template <class P, class TA = double>
void AddExpSumAccumulateImpl(double c, const TA* a, const double* shift,
                             double* acc, size_t n) {
  constexpr size_t L = P::kLanes;
  const typename P::V cv = P::Set1(c);
  size_t i = 0;
  for (; i + L <= n; i += L) {
    const typename P::V t =
        P::Sub(P::Add(LoadAs<P>(a + i), cv), P::Load(shift + i));
    P::Store(acc + i, P::Add(P::Load(acc + i), ExpPdImpl<P>(t)));
  }
  for (; i < n; ++i) {
    acc[i] += PolyExp(static_cast<double>(a[i]) + c - shift[i]);
  }
}

template <class P, class TA = double>
void AddExpWriteImpl(double shift, const TA* a, const double* b,
                     double* out, size_t n) {
  constexpr size_t L = P::kLanes;
  const typename P::V sh = P::Set1(shift);
  size_t i = 0;
  for (; i + L <= n; i += L) {
    P::Store(out + i, ExpPdImpl<P>(P::Add(
                          P::Add(LoadAs<P>(a + i), P::Load(b + i)), sh)));
  }
  for (; i < n; ++i) out[i] = PolyExp(static_cast<double>(a[i]) + b[i] + shift);
}

/// The table every ISA TU exports, filled from one Pack type.
template <class P>
detail::SimdOps MakeOps() {
  detail::SimdOps ops;
  ops.dot = DotImpl<P>;
  ops.dot3 = Dot3Impl<P>;
  ops.sum = SumImpl<P>;
  ops.gather_dot = GatherDotImpl<P>;
  ops.gather_dot3 = GatherDot3Impl<P>;
  ops.axpy = AxpyImpl<P>;
  ops.axpy_rows = AxpyRowsImpl<P>;
  ops.hadamard = HadamardImpl<P>;
  ops.scaled_hadamard = ScaledHadamardImpl<P>;
  ops.gather_scaled_hadamard = GatherScaledHadamardImpl<P>;
  ops.max_reduce = MaxReduceImpl<P>;
  ops.add_max_reduce = AddMaxReduceImpl<P>;
  ops.gather_add_max_reduce = GatherAddMaxReduceImpl<P>;
  ops.exp_sum_shifted = ExpSumShiftedImpl<P>;
  ops.add_exp_sum_shifted = AddExpSumShiftedImpl<P>;
  ops.gather_add_exp_sum_shifted = GatherAddExpSumShiftedImpl<P>;
  ops.add_max_accumulate = AddMaxAccumulateImpl<P>;
  ops.add_exp_sum_accumulate = AddExpSumAccumulateImpl<P>;
  ops.add_exp_write = AddExpWriteImpl<P>;
  ops.relaxed_scaling = RelaxedScalingImpl<P>;
  // f32 kernel tier: the same templates at float, widening through
  // LoadF32/GatherF32.
  ops.dot_f32 = DotImpl<P, float>;
  ops.dot3_f32 = Dot3Impl<P, float>;
  ops.gather_dot_f32 = GatherDotImpl<P, float>;
  ops.gather_dot3_f32 = GatherDot3Impl<P, float>;
  ops.axpy_rows_f32 = AxpyRowsImpl<P, float>;
  ops.scaled_hadamard_f32 = ScaledHadamardImpl<P, float>;
  ops.gather_scaled_hadamard_f32 = GatherScaledHadamardImpl<P, float>;
  ops.add_max_reduce_f32 = AddMaxReduceImpl<P, float>;
  ops.add_exp_sum_shifted_f32 = AddExpSumShiftedImpl<P, float>;
  ops.gather_add_max_reduce_f32 = GatherAddMaxReduceImpl<P, float>;
  ops.gather_add_exp_sum_shifted_f32 = GatherAddExpSumShiftedImpl<P, float>;
  ops.add_max_accumulate_f32 = AddMaxAccumulateImpl<P, float>;
  ops.add_exp_sum_accumulate_f32 = AddExpSumAccumulateImpl<P, float>;
  ops.add_exp_write_f32 = AddExpWriteImpl<P, float>;
  return ops;
}

}  // namespace otclean::linalg::simd::impl

#endif  // OTCLEAN_LINALG_SIMD_IMPL_H_

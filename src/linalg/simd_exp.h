#ifndef OTCLEAN_LINALG_SIMD_EXP_H_
#define OTCLEAN_LINALG_SIMD_EXP_H_
// otclean-lint: internal-header — implementation detail of the SIMD layer,
// included only by its ISA translation units; deliberately NOT exported
// through the umbrella header.

// The ONE exponential and the ONE logarithm every SIMD tier evaluates —
// scalar reference included. The log-domain LSE reductions (simd.h:
// ExpSumShifted and friends) need e^x inside their inner loops, and the
// relaxed Sinkhorn scaling step (simd.h: RelaxedScaling) needs s^e =
// e^{e·ln s} on every potential entry, where libm's exp()/pow() are both
// slow and unvectorizable. This header defines the shared Cephes-style
// rational approximations (~1 ulp over the reduced range) as plain scalar
// code, and simd_impl.h instantiates the identical operation sequences on
// lane packs. Because every tier — scalar included — evaluates the same
// polynomials with the same fma/multiply/divide structure, per-element
// results are bit-identical across tiers; only the *sum* order of the
// surrounding reductions differs (the usual few-ULP lane-accumulator
// reordering).
//
// Domain contract (shared by PolyExp and the vector ExpPd template):
//  - x < kPolyExpLo (~-708.4, where e^x leaves the normal double range),
//    x = -inf, and x = NaN all return EXACT 0. The flush makes
//    exp(-inf) = 0 without a branch in the vector tiers — exactly the
//    "impossible move carries no mass" convention the log-domain kernels
//    need — at the price of losing subnormal outputs (< ~3e-308).
//  - x > kPolyExpHi (709) clamps to e^709 ≈ 8.2e307. The log-sum-exp
//    callers always shift by the max first, so their inputs are <= 0 and
//    never hit this clamp.
//
// PolyLog is defined for positive, NORMAL, finite x only (its callers
// zero every other lane first; see RelaxedScale and OverRelaxedScale
// below).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

namespace otclean::linalg::simd {

// Clamps chosen so the power-of-two scale at the end stays strictly in
// the NORMAL double range (exponent field in [1, 2046]) for every
// admissible n — that is what makes the vector tiers' integer
// exponent-add bit-exact against std::ldexp: e^-708 ≈ 3.3e-308 > DBL_MIN
// and e^709 ≈ 8.2e307 < DBL_MAX.
inline constexpr double kPolyExpLo = -708.0;
inline constexpr double kPolyExpHi = 709.0;
inline constexpr double kPolyExpLog2E = 1.4426950408889634073599;
// ln2 split for extended-precision argument reduction.
inline constexpr double kPolyExpC1 = 6.93145751953125E-1;
inline constexpr double kPolyExpC2 = 1.42860682030941723212E-6;
// Cephes exp() rational coefficients: e^r = 1 + 2r·P(r²)/(Q(r²) − r·P(r²)).
inline constexpr double kPolyExpP0 = 1.26177193074810590878E-4;
inline constexpr double kPolyExpP1 = 3.02994407707441961300E-2;
inline constexpr double kPolyExpP2 = 9.99999999999999999910E-1;
inline constexpr double kPolyExpQ0 = 3.00198505138664455042E-6;
inline constexpr double kPolyExpQ1 = 2.52448340349684104192E-3;
inline constexpr double kPolyExpQ2 = 2.27265548208155028766E-1;
inline constexpr double kPolyExpQ3 = 2.00000000000000000005E0;

/// e^x under the domain contract above. The scalar tier's exp, and the
/// per-lane semantics of the vector tiers' ExpPd — kept in exact
/// operation-for-operation correspondence with simd_impl.h's template.
inline double PolyExp(double x) {
  if (!(x >= kPolyExpLo)) return 0.0;  // underflow, -inf and NaN flush to 0
  const double xc = x < kPolyExpHi ? x : kPolyExpHi;
  const double n = std::floor(std::fma(xc, kPolyExpLog2E, 0.5));
  double r = std::fma(n, -kPolyExpC1, xc);
  r = std::fma(n, -kPolyExpC2, r);
  const double rr = r * r;
  double p = kPolyExpP0;
  p = std::fma(p, rr, kPolyExpP1);
  p = std::fma(p, rr, kPolyExpP2);
  const double rp = r * p;
  double q = kPolyExpQ0;
  q = std::fma(q, rr, kPolyExpQ1);
  q = std::fma(q, rr, kPolyExpQ2);
  q = std::fma(q, rr, kPolyExpQ3);
  const double e = rp / (q - rp);
  const double res = std::fma(e, 2.0, 1.0);
  // n ∈ [-1021, 1023] and res ∈ (0.7, 1.42), so res·2^n stays strictly
  // normal and the scale is ONE integer add into the exponent field —
  // exactly the operation the vector tiers' ScaleByPow2 performs (and
  // bit-identical to what std::ldexp would return, without the libm
  // call that would otherwise dominate this scalar path).
  uint64_t bits;
  std::memcpy(&bits, &res, sizeof(bits));
  bits += static_cast<uint64_t>(static_cast<int64_t>(n)) << 52;
  double out;
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

// Cephes log() rational coefficients for the reduced argument
// f ∈ [√½ − 1, √2 − 1): ln(1 + f) = f − f²/2 + f·f²·P(f)/Q(f), with Q
// monic; ln 2 split as kPolyLogC1 + kPolyLogC2 so e·ln 2 adds exactly.
inline constexpr double kPolyLogSqrtHalf = 0.70710678118654752440;
inline constexpr double kPolyLogC1 = 0.693359375;
inline constexpr double kPolyLogC2 = -2.121944400546905827679E-4;
inline constexpr double kPolyLogP0 = 1.01875663804580931796E-4;
inline constexpr double kPolyLogP1 = 4.97494994976747001425E-1;
inline constexpr double kPolyLogP2 = 4.70579119878881725854E0;
inline constexpr double kPolyLogP3 = 1.44989225341610930846E1;
inline constexpr double kPolyLogP4 = 1.79368678507819816313E1;
inline constexpr double kPolyLogP5 = 7.70838733755885391666E0;
inline constexpr double kPolyLogQ0 = 1.12873587189167450590E1;
inline constexpr double kPolyLogQ1 = 4.52279145837532221105E1;
inline constexpr double kPolyLogQ2 = 8.29875266912776603211E1;
inline constexpr double kPolyLogQ3 = 7.11544750618563894466E1;
inline constexpr double kPolyLogQ4 = 2.31251620126765340583E1;

/// ⌊log2 x⌋ of a positive normal x, as an (exact) double — the vector
/// tiers' Logb, read straight off the exponent field.
inline double PolyLogb(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return static_cast<double>(static_cast<int64_t>(bits >> 52) - 1023);
}

/// x scaled by a power of two into [0.5, 1) — the vector tiers'
/// HalfMantissa: the exponent field replaced by that of 0.5.
inline double PolyHalfMantissa(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  bits = (bits & 0x000FFFFFFFFFFFFFull) | 0x3FE0000000000000ull;
  double m;
  std::memcpy(&m, &bits, sizeof(m));
  return m;
}

/// ln x for positive normal finite x. The scalar tier's log, and the
/// per-lane semantics of the vector tiers' LogPd — kept in exact
/// operation-for-operation correspondence with simd_impl.h's template.
/// Every step before the polynomial is exact: x = m·2^k with
/// m ∈ [0.5, 1) and k = ⌊log2 x⌋ + 1; below √½ the mantissa doubles (and
/// k drops by one) so the reduced argument f = m − 1 (+ m) lands in
/// [√½ − 1, √2 − 1), and ln x = ln(1 + f) + k·ln 2.
inline double PolyLog(double x) {
  const double m = PolyHalfMantissa(x);
  const double small = m < kPolyLogSqrtHalf ? 1.0 : 0.0;
  const double k = (PolyLogb(x) + 1.0) - small;
  const double f = std::fma(m, small, m - 1.0);
  const double z = f * f;
  double p = kPolyLogP0;
  p = std::fma(p, f, kPolyLogP1);
  p = std::fma(p, f, kPolyLogP2);
  p = std::fma(p, f, kPolyLogP3);
  p = std::fma(p, f, kPolyLogP4);
  p = std::fma(p, f, kPolyLogP5);
  double q = f + kPolyLogQ0;
  q = std::fma(q, f, kPolyLogQ1);
  q = std::fma(q, f, kPolyLogQ2);
  q = std::fma(q, f, kPolyLogQ3);
  q = std::fma(q, f, kPolyLogQ4);
  double y = f * ((z * p) / q);
  y = std::fma(k, kPolyLogC2, y);
  y = std::fma(z, -0.5, y);
  return std::fma(k, kPolyLogC1, f + y);
}

/// Ceiling of a Sinkhorn scaling entry (see RelaxedScale).
inline constexpr double kScalingMax = 1e150;

/// One entry of a Sinkhorn half-update: s = marginal/denom (0 when
/// denom == 0), raised to `exponent` and clamped. Exponent 1 (classic
/// mode) keeps the exact quotient; otherwise s^e = PolyExp(e·PolyLog(s)),
/// and 0, NaN, negative and subnormal ratios give exactly 0 (a +inf ratio
/// reads as DBL_MAX). Either way NaN and negative results become 0 and
/// results above kScalingMax clamp to it. The scalar tier's element, and
/// the per-lane semantics of simd_impl.h's RelaxedScalingImpl.
inline double RelaxedScale(double marginal, double denom, double exponent) {
  double s = denom != 0.0 ? marginal / denom : 0.0;
  if (exponent != 1.0) {
    if (!(s >= std::numeric_limits<double>::min())) return 0.0;
    s = std::min(s, std::numeric_limits<double>::max());
    s = PolyExp(exponent * PolyLog(s));
  }
  if (!(s >= 0.0)) return 0.0;  // NaN and negative: no mass
  return s < kScalingMax ? s : kScalingMax;
}

/// RelaxedScale over-relaxed in the log domain. With ln u* = e·PolyLog(s)
/// the plain update and t = ln prev − ln u*, the result is
/// PolyExp(ln u* + (1 − ω)·t) — i.e. ln u ← ln prev + ω·(ln u* − ln prev)
/// — where prev is a positive normal potential below kScalingMax and t
/// lies in the guard window [t_lo, t_hi]; every other entry takes the
/// plain step PolyExp(ln u*) (for e < 1 exactly RelaxedScale's value). Zero,
/// NaN, negative and subnormal ratios give 0 and results clamp to
/// kScalingMax, as in RelaxedScale. The scalar tier's element, and the
/// per-lane semantics of simd_impl.h's OverRelaxedLanes. (The comparisons
/// `prev < kScalingMax` and `t <= t_hi` are written there as
/// `kScalingMax − prev ≥ DBL_MIN` and `t_hi − t ≥ 0`; for finite t and
/// prev ∈ [DBL_MIN, ∞) the two forms agree exactly.)
inline double OverRelaxedScale(double marginal, double denom, double exponent,
                               double prev, double omega, double t_lo,
                               double t_hi) {
  const double s = denom != 0.0 ? marginal / denom : 0.0;
  if (!(s >= std::numeric_limits<double>::min())) return 0.0;
  const double ls =
      exponent * PolyLog(std::min(s, std::numeric_limits<double>::max()));
  double x = ls;
  if (prev >= std::numeric_limits<double>::min() && prev < kScalingMax) {
    const double t = PolyLog(prev) - ls;
    if (t >= t_lo && t <= t_hi) x = std::fma(1.0 - omega, t, ls);
  }
  const double r = PolyExp(x);
  return r < kScalingMax ? r : kScalingMax;
}

}  // namespace otclean::linalg::simd

#endif  // OTCLEAN_LINALG_SIMD_EXP_H_

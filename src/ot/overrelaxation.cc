#include "ot/overrelaxation.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace otclean::ot {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Bound on any reachable |t|: potentials live in [DBL_MIN, 1e150] and
/// ln u* within ±710, so |ln(u/u*)| < 1100.
constexpr double kMaxAbsT = 2048.0;

/// Absolute accuracy of a window edge, in t.
constexpr double kEdgeTolerance = 1e-6;

/// The guard itself: the over-relaxed step from t does not raise ψ. An
/// overflowed ψ after the step is treated as a rise (θ = 1 is always
/// safe).
bool Accepts(double t, double omega, double lambda, double epsilon) {
  const double after = ScalingDualRowTerm((1.0 - omega) * t, lambda, epsilon);
  return std::isfinite(after) &&
         after <= ScalingDualRowTerm(t, lambda, epsilon);
}

/// The edge of the accepted interval on the side `sign` (±1): doubling
/// from |t| = 1/4 brackets the first rejected point, bisection then
/// narrows it, and the accepted end of the final bracket is returned —
/// ±∞ when nothing up to kMaxAbsT is rejected.
double WindowEdge(double sign, double omega, double lambda, double epsilon) {
  double in = 0.0;
  double out = kInf;
  for (double t = 0.25; t <= kMaxAbsT; t *= 2.0) {
    if (!Accepts(sign * t, omega, lambda, epsilon)) {
      out = t;
      break;
    }
    in = t;
  }
  if (out == kInf) return sign * kInf;
  while (out - in > kEdgeTolerance) {
    const double mid = 0.5 * (in + out);
    (Accepts(sign * mid, omega, lambda, epsilon) ? in : out) = mid;
  }
  return sign * in;
}

}  // namespace

double ScalingDualRowTerm(double t, double lambda, double epsilon) {
  return (lambda / epsilon) * std::expm1(-(epsilon / lambda) * t) +
         std::expm1(t);
}

linalg::simd::OverRelaxation MakeOverRelaxation(double omega, double lambda,
                                                double epsilon) {
  linalg::simd::OverRelaxation relax;
  if (omega == 1.0) return relax;
  relax.omega = omega;
  relax.t_lo = WindowEdge(-1.0, omega, lambda, epsilon);
  // For t > 0 and ε ≤ λ: ψ(t) ≥ ψ(−t) (λ·sinh((ε/λ)t) ≤ ε·sinh t), and
  // ψ(−t) ≥ ψ((1 − ω)t) by convexity, (1 − ω)t lying between −t and 0 —
  // so the positive side never rejects and needs no search.
  relax.t_hi =
      epsilon <= lambda ? kInf : WindowEdge(1.0, omega, lambda, epsilon);
  return relax;
}

double NextOverRelaxationFactor(double omega, double rho) {
  // ρ ≤ ω − 1 is at or below the best rate ω can give (SOR's contraction
  // never beats ω − 1): nothing to correct.
  if (!(rho > omega - 1.0 && rho < 1.0)) return omega;
  const double mu2 = (rho + omega - 1.0) * (rho + omega - 1.0) /
                     (rho * omega * omega);
  if (!(mu2 < 1.0)) return kMaxOverRelaxation;
  return std::min(kMaxOverRelaxation, 2.0 / (1.0 + std::sqrt(1.0 - mu2)));
}

}  // namespace otclean::ot

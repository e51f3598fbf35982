#ifndef OTCLEAN_OT_OVERRELAXATION_H_
#define OTCLEAN_OT_OVERRELAXATION_H_

#include <cstddef>

#include "linalg/simd.h"

namespace otclean::ot {

/// Safeguarded over-relaxation of the relaxed Sinkhorn scaling updates
/// (Thibault et al. 2017, "Overrelaxed Sinkhorn–Knopp"; Lehmann et al.
/// 2022, "A note on overrelaxation in the Sinkhorn algorithm"). A
/// half-update moves each log-potential past the plain update u*:
/// ln u ← ln u + θ·(ln u* − ln u), with θ = ω inside a per-entry guard and
/// θ = 1 outside it. The engine loop (ot/sinkhorn.cc RunScalingLoop)
/// applies it in relaxed mode only.
///
/// The guard. With t = ln(u/u*), the row term of the relaxed dual,
/// divided by ε and shifted to vanish at its minimum t = 0, is
///   ψ(t) = (λ/ε)·(e^{−(ε/λ)t} − 1) + (e^t − 1)
/// (its λ → ∞ limit e^t − 1 − t is the classic one). The over-relaxed step
/// lands at t' = (1 − ω)·t, so it never loses dual value when
/// ψ((1 − ω)t) ≤ ψ(t). For ω ∈ (1, 2) that set is an interval
/// [t_lo, t_hi] around 0 (t_lo ≈ −0.33 at ω = 1.9; t_hi = +∞ whenever
/// ε ≤ λ), so it is found once per ω by root-finding and enforced per
/// entry by two compares.
///
/// Choosing ω. It starts at 1 and is re-estimated every
/// kOverRelaxationWindow iterations from the observed contraction of the
/// max-change (NextOverRelaxationFactor), so solves that converge within
/// one window run the plain update throughout.

/// Iterations between re-estimates of ω; the contraction is measured over
/// the second half of each window.
inline constexpr size_t kOverRelaxationWindow = 10;

/// Upper cap on ω (the iteration diverges at 2).
inline constexpr double kMaxOverRelaxation = 1.95;

/// ψ(t) above for the solve's λ and ε.
double ScalingDualRowTerm(double t, double lambda, double epsilon);

/// Factor ω with its guard window [t_lo, t_hi] for the solve's λ and ε;
/// the window is conservative (every accepted t satisfies
/// ψ((1 − ω)t) ≤ ψ(t)) and an infinite end means the guard never fails on
/// that side. ω == 1 returns the plain update.
linalg::simd::OverRelaxation MakeOverRelaxation(double omega, double lambda,
                                                double epsilon);

/// Hageman–Young re-estimate of ω from the observed per-iteration
/// contraction ρ of the max-change under the current ω: the plain rate is
/// μ² = (ρ + ω − 1)² / (ρ·ω²), and the optimal factor for it is
/// 2 / (1 + √(1 − μ²)), capped at kMaxOverRelaxation. A ρ that shows no
/// contraction (ρ ≥ 1) or already beats what ω can give (ρ ≤ ω − 1)
/// keeps the current ω.
double NextOverRelaxationFactor(double omega, double rho);

}  // namespace otclean::ot

#endif  // OTCLEAN_OT_OVERRELAXATION_H_

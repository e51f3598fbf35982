#include "prob/independence.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace otclean::prob {

namespace {
/// Concatenates attribute-position lists.
std::vector<size_t> Concat(const std::vector<size_t>& a,
                           const std::vector<size_t>& b) {
  std::vector<size_t> out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}
}  // namespace

double ConditionalMutualInformation(const JointDistribution& p,
                                    const CiSpec& ci) {
  const double mass = p.Mass();
  if (mass <= 0.0) return 0.0;

  const auto xz = Concat(ci.x, ci.z);
  const auto yz = Concat(ci.y, ci.z);
  const auto xyz = Concat(Concat(ci.x, ci.y), ci.z);

  const JointDistribution p_xyz = p.Marginal(xyz);
  const JointDistribution p_xz = p.Marginal(xz);
  const JointDistribution p_yz = p.Marginal(yz);
  const JointDistribution p_z =
      ci.z.empty() ? JointDistribution() : p.Marginal(ci.z);

  // Index arithmetic: within p_xyz's domain, attributes appear in order
  // [X..., Y..., Z...].
  const Domain& dom = p_xyz.domain();
  std::vector<size_t> x_pos(ci.x.size()), y_pos(ci.y.size()),
      z_pos(ci.z.size());
  for (size_t i = 0; i < ci.x.size(); ++i) x_pos[i] = i;
  for (size_t i = 0; i < ci.y.size(); ++i) y_pos[i] = ci.x.size() + i;
  for (size_t i = 0; i < ci.z.size(); ++i) {
    z_pos[i] = ci.x.size() + ci.y.size() + i;
  }
  const auto xz_pos = Concat(x_pos, z_pos);
  const auto yz_pos = Concat(y_pos, z_pos);

  double cmi = 0.0;
  for (size_t cell = 0; cell < p_xyz.size(); ++cell) {
    const double pxyz = p_xyz[cell] / mass;
    if (pxyz <= 0.0) continue;
    const double pxz = p_xz[dom.ProjectIndex(cell, xz_pos)] / mass;
    const double pyz = p_yz[dom.ProjectIndex(cell, yz_pos)] / mass;
    const double pz =
        ci.z.empty() ? 1.0 : p_z[dom.ProjectIndex(cell, z_pos)] / mass;
    // pxz, pyz > 0 whenever pxyz > 0 (they dominate it). While both
    // products are normal doubles the log of their quotient is exact near
    // independence (ratio ≈ 1). On tiny cells they are not: pxz·pyz
    // underflows to 0 for two 1e-170 marginals, turning a negligible term
    // into inf. There the log is the difference of the logs of pxyz/pxz
    // and pyz/pz — factors in (0, 1], each at least its own positive
    // numerator, so neither underflows to 0 nor overflows.
    const double num = pxyz * pz;
    const double den = pxz * pyz;
    cmi += pxyz * (std::isnormal(num) && std::isnormal(den)
                       ? std::log(num / den)
                       : std::log(pxyz / pxz) - std::log(pyz / pz));
  }
  // Numerical noise can push an exactly-independent case slightly negative.
  return cmi > 0.0 ? cmi : 0.0;
}

bool SatisfiesCi(const JointDistribution& p, const CiSpec& ci, double tol) {
  return ConditionalMutualInformation(p, ci) <= tol;
}

JointDistribution CiProjection(const JointDistribution& p, const CiSpec& ci) {
  const Domain& dom = p.domain();
  const double mass = p.Mass();
  JointDistribution out(dom);
  if (mass <= 0.0) return out;

  const auto xz = Concat(ci.x, ci.z);
  const auto yz = Concat(ci.y, ci.z);
  const auto xyz = Concat(Concat(ci.x, ci.y), ci.z);

  const JointDistribution p_xz = p.Marginal(xz);
  const JointDistribution p_yz = p.Marginal(yz);
  const JointDistribution p_z =
      ci.z.empty() ? JointDistribution() : p.Marginal(ci.z);
  // Conditional of the remaining attributes given (X,Y,Z): keeps the
  // projection well-defined for unsaturated constraints.
  const JointDistribution p_rest_given_xyz = p.ConditionalOn(xyz);

  for (size_t cell = 0; cell < dom.TotalSize(); ++cell) {
    const double pxz = p_xz[dom.ProjectIndex(cell, xz)] / mass;
    const double pyz = p_yz[dom.ProjectIndex(cell, yz)] / mass;
    if (pxz <= 0.0 || pyz <= 0.0) continue;
    const double pz =
        ci.z.empty() ? 1.0 : p_z[dom.ProjectIndex(cell, ci.z)] / mass;
    if (pz <= 0.0) continue;
    out[cell] = (pxz * pyz / pz) * p_rest_given_xyz[cell];
  }
  out.Normalize();
  return out;
}

double MutualInformation(const JointDistribution& p,
                         const std::vector<size_t>& x,
                         const std::vector<size_t>& y) {
  CiSpec ci;
  ci.x = x;
  ci.y = y;
  return ConditionalMutualInformation(p, ci);
}

JointDistribution MultiCiProjection(const JointDistribution& p,
                                    const std::vector<CiSpec>& cis,
                                    size_t max_sweeps, double tol) {
  JointDistribution q = p;
  if (cis.empty()) return q;
  for (size_t sweep = 0; sweep < max_sweeps; ++sweep) {
    for (const CiSpec& ci : cis) {
      q = CiProjection(q, ci);
    }
    if (MaxCmi(q, cis) <= tol) break;
  }
  return q;
}

double MaxCmi(const JointDistribution& p, const std::vector<CiSpec>& cis) {
  double mx = 0.0;
  for (const CiSpec& ci : cis) {
    mx = std::max(mx, ConditionalMutualInformation(p, ci));
  }
  return mx;
}

}  // namespace otclean::prob

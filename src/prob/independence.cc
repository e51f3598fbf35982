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

/// Index tables of one CI spec over one domain: for every cell its index
/// in the XZ, YZ, Z and XYZ marginal domains, and for every XYZ cell its
/// XZ, YZ and Z index. Built once, they replace the per-cell
/// Domain::ProjectIndex div/mod chains of every marginal, conditional and
/// CMI pass; the passes below visit cells in the same order as
/// JointDistribution::Marginal/ConditionalOn, so every sum is bit-identical
/// to theirs.
struct CiProjector::Index {
  std::vector<size_t> xz, yz, z, xyz;                 // per domain cell
  std::vector<size_t> xyz_to_xz, xyz_to_yz, xyz_to_z;  // per XYZ cell
  size_t xz_size = 0, yz_size = 0, z_size = 0;
  bool has_z = false;

  Index(const Domain& dom, const CiSpec& ci) : has_z(!ci.z.empty()) {
    const auto xz_attrs = Concat(ci.x, ci.z);
    const auto yz_attrs = Concat(ci.y, ci.z);
    const auto xyz_attrs = Concat(Concat(ci.x, ci.y), ci.z);
    xz_size = dom.Project(xz_attrs).TotalSize();
    yz_size = dom.Project(yz_attrs).TotalSize();
    z_size = has_z ? dom.Project(ci.z).TotalSize() : 1;
    const size_t cells = dom.TotalSize();
    const size_t xyz_size = dom.Project(xyz_attrs).TotalSize();
    xz.resize(cells);
    yz.resize(cells);
    z.assign(cells, 0);
    xyz.resize(cells);
    xyz_to_xz.resize(xyz_size);
    xyz_to_yz.resize(xyz_size);
    xyz_to_z.assign(xyz_size, 0);
    for (size_t cell = 0; cell < cells; ++cell) {
      xz[cell] = dom.ProjectIndex(cell, xz_attrs);
      yz[cell] = dom.ProjectIndex(cell, yz_attrs);
      if (has_z) z[cell] = dom.ProjectIndex(cell, ci.z);
      xyz[cell] = dom.ProjectIndex(cell, xyz_attrs);
      xyz_to_xz[xyz[cell]] = xz[cell];
      xyz_to_yz[xyz[cell]] = yz[cell];
      xyz_to_z[xyz[cell]] = z[cell];
    }
  }
};

namespace {
using CiIndex = CiProjector::Index;

/// JointDistribution::Marginal through an index table: nonzero cells
/// summed in cell order.
std::vector<double> IndexedMarginal(const JointDistribution& p,
                                    const std::vector<size_t>& index,
                                    size_t size) {
  std::vector<double> out(size, 0.0);
  for (size_t cell = 0; cell < p.size(); ++cell) {
    const double v = p[cell];
    if (v == 0.0) continue;
    out[index[cell]] += v;
  }
  return out;
}

double IndexedCmi(const JointDistribution& p, const CiIndex& ix) {
  const double mass = p.Mass();
  if (mass <= 0.0) return 0.0;
  const std::vector<double> p_xyz =
      IndexedMarginal(p, ix.xyz, ix.xyz_to_xz.size());
  const std::vector<double> p_xz = IndexedMarginal(p, ix.xz, ix.xz_size);
  const std::vector<double> p_yz = IndexedMarginal(p, ix.yz, ix.yz_size);
  const std::vector<double> p_z =
      ix.has_z ? IndexedMarginal(p, ix.z, ix.z_size) : std::vector<double>();

  double cmi = 0.0;
  for (size_t cell = 0; cell < p_xyz.size(); ++cell) {
    const double pxyz = p_xyz[cell] / mass;
    if (pxyz <= 0.0) continue;
    const double pxz = p_xz[ix.xyz_to_xz[cell]] / mass;
    const double pyz = p_yz[ix.xyz_to_yz[cell]] / mass;
    const double pz = ix.has_z ? p_z[ix.xyz_to_z[cell]] / mass : 1.0;
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

JointDistribution IndexedCiProjection(const JointDistribution& p,
                                      const CiIndex& ix) {
  const double mass = p.Mass();
  JointDistribution out(p.domain());
  if (mass <= 0.0) return out;

  const std::vector<double> p_xz = IndexedMarginal(p, ix.xz, ix.xz_size);
  const std::vector<double> p_yz = IndexedMarginal(p, ix.yz, ix.yz_size);
  const std::vector<double> p_z =
      ix.has_z ? IndexedMarginal(p, ix.z, ix.z_size) : std::vector<double>();
  // Slice mass per (X,Y,Z) value, as JointDistribution::ConditionalOn sums
  // it (zero cells included): the conditional of the remaining attributes
  // keeps the projection well-defined for unsaturated constraints.
  std::vector<double> slice_mass(ix.xyz_to_xz.size(), 0.0);
  for (size_t cell = 0; cell < p.size(); ++cell) {
    slice_mass[ix.xyz[cell]] += p[cell];
  }

  for (size_t cell = 0; cell < p.size(); ++cell) {
    const double pxz = p_xz[ix.xz[cell]] / mass;
    const double pyz = p_yz[ix.yz[cell]] / mass;
    if (pxz <= 0.0 || pyz <= 0.0) continue;
    const double pz = ix.has_z ? p_z[ix.z[cell]] / mass : 1.0;
    if (pz <= 0.0) continue;
    const double m = slice_mass[ix.xyz[cell]];
    const double rest = m > 0.0 ? p[cell] / m : 0.0;
    out[cell] = (pxz * pyz / pz) * rest;
  }
  out.Normalize();
  return out;
}
}  // namespace

double ConditionalMutualInformation(const JointDistribution& p,
                                    const CiSpec& ci) {
  return IndexedCmi(p, CiIndex(p.domain(), ci));
}

bool SatisfiesCi(const JointDistribution& p, const CiSpec& ci, double tol) {
  return ConditionalMutualInformation(p, ci) <= tol;
}

JointDistribution CiProjection(const JointDistribution& p, const CiSpec& ci) {
  return IndexedCiProjection(p, CiIndex(p.domain(), ci));
}

double MutualInformation(const JointDistribution& p,
                         const std::vector<size_t>& x,
                         const std::vector<size_t>& y) {
  CiSpec ci;
  ci.x = x;
  ci.y = y;
  return ConditionalMutualInformation(p, ci);
}

CiProjector::CiProjector(const Domain& domain,
                         const std::vector<CiSpec>& cis) {
  index_.reserve(cis.size());
  for (const CiSpec& ci : cis) index_.emplace_back(domain, ci);
}

CiProjector::~CiProjector() = default;

JointDistribution CiProjector::Project(const JointDistribution& p,
                                       size_t max_sweeps, double tol) const {
  JointDistribution q = p;
  if (index_.empty()) return q;
  for (size_t sweep = 0; sweep < max_sweeps; ++sweep) {
    for (const Index& ix : index_) q = IndexedCiProjection(q, ix);
    if (MaxCmi(q) <= tol) break;
  }
  return q;
}

double CiProjector::MaxCmi(const JointDistribution& p) const {
  double mx = 0.0;
  for (const Index& ix : index_) mx = std::max(mx, IndexedCmi(p, ix));
  return mx;
}

JointDistribution MultiCiProjection(const JointDistribution& p,
                                    const std::vector<CiSpec>& cis,
                                    size_t max_sweeps, double tol) {
  return CiProjector(p.domain(), cis).Project(p, max_sweeps, tol);
}

double MaxCmi(const JointDistribution& p, const std::vector<CiSpec>& cis) {
  return CiProjector(p.domain(), cis).MaxCmi(p);
}

}  // namespace otclean::prob

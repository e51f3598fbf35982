#ifndef OTCLEAN_PROB_INDEPENDENCE_H_
#define OTCLEAN_PROB_INDEPENDENCE_H_

#include <vector>

#include "prob/joint.h"

namespace otclean::prob {

/// Attribute-position sets for a CI statement X ⟂ Y | Z over a joint
/// distribution's domain. Z may be empty (marginal independence).
struct CiSpec {
  std::vector<size_t> x;
  std::vector<size_t> y;
  std::vector<size_t> z;
};

/// Conditional mutual information I(X;Y|Z) in nats — the paper's degree of
/// inconsistency δ_σ(P). Zero iff P |= (X ⟂ Y | Z). The input need not be
/// normalized.
double ConditionalMutualInformation(const JointDistribution& p,
                                    const CiSpec& ci);

/// Whether P satisfies X ⟂ Y | Z up to `tol` in CMI (nats).
bool SatisfiesCi(const JointDistribution& p, const CiSpec& ci,
                 double tol = 1e-9);

/// The I-projection of P onto the set of CI-consistent distributions:
/// Q(x,y,z,w) = P(z) · P(x|z) · P(y|z) · P(w|x,y,z) restricted to the
/// constraint attributes (for a saturated constraint there is no w).
///
/// For each z-slice this equals the rank-one (outer-product-of-marginals)
/// factorization, which is the unique KL-closest CI-consistent distribution
/// with the same Z-marginal — the closed form of the paper's inner NMF loop.
JointDistribution CiProjection(const JointDistribution& p, const CiSpec& ci);

/// Mutual information I(X;Y) in nats (CMI with empty Z).
double MutualInformation(const JointDistribution& p,
                         const std::vector<size_t>& x,
                         const std::vector<size_t>& y);

/// Approximate projection onto the intersection of several CI constraints
/// by cyclic I-projections (iterative proportional fitting style): sweeps
/// over the constraints, projecting onto each in turn, until the largest
/// CMI falls below `tol` or `max_sweeps` is exhausted. A single constraint
/// needs more than one CiProjection when P has zero cells: CiProjection
/// carries P(rest | x,y,z), which keeps those cells at zero, so its output
/// is generally not yet independent and the sweeps repeat — up to
/// `max_sweeps` when the zero pattern admits no CI-consistent fill.
/// The intersection is non-empty
/// (product distributions satisfy every CI), so the iteration is always
/// well-defined; convergence to the exact KL-closest point holds when the
/// constraints' closures form a compatible (e.g. decomposable) set.
JointDistribution MultiCiProjection(const JointDistribution& p,
                                    const std::vector<CiSpec>& cis,
                                    size_t max_sweeps = 60,
                                    double tol = 1e-10);

/// Largest CMI across a set of constraints (0 for an empty set).
double MaxCmi(const JointDistribution& p, const std::vector<CiSpec>& cis);

/// MultiCiProjection and MaxCmi over one fixed domain and constraint set,
/// with each constraint's cell-index tables built once at construction
/// instead of on every call — an iterative solver projects many
/// distributions over the same domain. Results are bit-identical to the
/// free functions (same sums, same order).
class CiProjector {
 public:
  CiProjector(const Domain& domain, const std::vector<CiSpec>& cis);
  ~CiProjector();

  /// MultiCiProjection(p, cis, max_sweeps, tol); `p` must be over the
  /// construction domain.
  JointDistribution Project(const JointDistribution& p,
                            size_t max_sweeps = 60, double tol = 1e-10) const;
  /// MaxCmi(p, cis).
  double MaxCmi(const JointDistribution& p) const;

  /// One spec's cell-index tables (defined in independence.cc).
  struct Index;

 private:
  std::vector<Index> index_;
};

}  // namespace otclean::prob

#endif  // OTCLEAN_PROB_INDEPENDENCE_H_

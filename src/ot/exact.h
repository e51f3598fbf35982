#ifndef OTCLEAN_OT_EXACT_H_
#define OTCLEAN_OT_EXACT_H_

#include <cstddef>

#include "common/exec_context.h"
#include "common/result.h"
#include "ot/cost.h"
#include "prob/joint.h"

namespace otclean::linalg {
class ThreadPool;
}  // namespace otclean::linalg

namespace otclean::ot {

/// Engine knobs for the exact solve: pooled pivot pricing, mirroring the
/// Sinkhorn path's options surface.
struct ExactOtOptions {
  /// Worker lanes for the network-simplex pricing scan (0 = hardware
  /// concurrency, 1 = serial). Results are identical across thread counts.
  size_t num_threads = 1;
  /// Optional shared pool; must outlive the call.
  linalg::ThreadPool* thread_pool = nullptr;
  /// Pivot cap forwarded to the network simplex.
  size_t max_pivots = 100000;
};

/// Exact (LP-based) optimal transport distance between two distributions
/// over the same domain — the Earth Mover's Distance used by the
/// statistical-distortion evaluation (Fig. 9, Dasu & Loh framework).
///
/// Support is restricted to cells with nonzero mass on either side, and
/// costs stream through a linalg::CostProvider into the network simplex —
/// no dense support×support cost matrix is materialized. Non-finite cost
/// entries are rejected with a row/col-indexed InvalidArgument, matching
/// ValidateInputs on the Sinkhorn path. `ctx`'s token and deadline are
/// polled once per simplex pivot.
Result<double> ExactOtDistance(const prob::JointDistribution& p,
                               const prob::JointDistribution& q,
                               const CostFunction& cost,
                               const ExactOtOptions& options = {},
                               const ExecContext& ctx = {});

}  // namespace otclean::ot

#endif  // OTCLEAN_OT_EXACT_H_

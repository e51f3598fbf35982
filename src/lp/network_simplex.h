#ifndef OTCLEAN_LP_NETWORK_SIMPLEX_H_
#define OTCLEAN_LP_NETWORK_SIMPLEX_H_

#include <cstddef>
#include <vector>

#include "common/exec_context.h"
#include "common/result.h"
#include "linalg/cost_provider.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace otclean::linalg {
class ThreadPool;
}  // namespace otclean::linalg

namespace otclean::lp {

/// Specialized solver for the balanced transportation problem
///   minimize  Σ_ij C_ij π_ij   s.t.  Σ_j π_ij = p_i,  Σ_i π_ij = q_j, π ≥ 0
/// using the classical MODI (u–v potentials) method: a northwest-corner
/// initial basic feasible solution followed by stepping-stone pivots along
/// the unique cycle each entering cell closes in the basis tree.
///
/// This is the O(d³ log d)-class method the paper cites for exact OT; it is
/// typically orders of magnitude faster than the dense two-phase simplex in
/// transport_lp.h on the same instances (see bench_ablation_transport).
///
/// Costs stream through linalg::CostProvider: the engine touches cost rows
/// tile-by-tile during pivot pricing and O(m + n) individual entries for
/// basis maintenance, so no dense cost or flow matrix is materialized on
/// the streaming entry points.
struct NetworkSimplexOptions {
  size_t max_pivots = 100000;
  /// Reduced-cost optimality tolerance.
  double tol = 1e-10;
  /// Worker lanes for the pivot pricing scan (0 = hardware concurrency,
  /// 1 = serial). The entering arc is deterministic across thread counts:
  /// chunk-local minima merge in chunk order with lowest-index tie-breaks.
  size_t num_threads = 1;
  /// Optional shared pool for the pricing scan; must outlive the call.
  linalg::ThreadPool* thread_pool = nullptr;
};

struct NetworkSimplexResult {
  linalg::Matrix plan;
  double cost = 0.0;
  size_t pivots = 0;
};

/// One nonzero of a sparse transport plan.
struct SparsePlanEntry {
  size_t row = 0;
  size_t col = 0;
  double value = 0.0;
};

/// Result of the streaming entry points: only the nonzero flows (at most
/// m + n − 1 of them — a basic solution), never a dense m×n plan.
struct SparseNetworkSimplexResult {
  std::vector<SparsePlanEntry> entries;  ///< row-major sorted nonzeros
  double cost = 0.0;
  size_t pivots = 0;
};

/// Solves the transportation problem over a streamed cost oracle on the
/// full m×n grid. `p` and `q` must be non-negative with equal total mass
/// (within `mass_tol`). Every entry point polls `ctx`'s token and deadline
/// once per pivot.
Result<SparseNetworkSimplexResult> SolveTransportNetwork(
    const linalg::CostProvider& cost, const linalg::Vector& p,
    const linalg::Vector& q, const NetworkSimplexOptions& options = {},
    double mass_tol = 1e-6, const ExecContext& ctx = {});

/// Support-restricted variant: arcs exist only on the kept-set
/// `arc_cols[i]` (sorted, deduplicated column ids per row — e.g. a
/// truncation kept-set). Costs for kept arcs are gathered once (O(nnz));
/// no other cost entries are read. If the kept arcs cannot carry the
/// marginals the solve fails with InvalidArgument rather than silently
/// routing mass off-support.
Result<SparseNetworkSimplexResult> SolveTransportNetworkRestricted(
    const linalg::CostProvider& cost,
    const std::vector<std::vector<size_t>>& arc_cols, const linalg::Vector& p,
    const linalg::Vector& q, const NetworkSimplexOptions& options = {},
    double mass_tol = 1e-6, const ExecContext& ctx = {});

/// Dense convenience wrapper: adapts `cost` with linalg::MatrixCostProvider,
/// runs the streaming engine, and scatters the sparse result into a dense
/// plan for callers that want one.
Result<NetworkSimplexResult> SolveTransportNetwork(
    const linalg::Matrix& cost, const linalg::Vector& p,
    const linalg::Vector& q, const NetworkSimplexOptions& options = {},
    double mass_tol = 1e-6, const ExecContext& ctx = {});

}  // namespace otclean::lp

#endif  // OTCLEAN_LP_NETWORK_SIMPLEX_H_

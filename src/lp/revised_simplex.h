#ifndef OTCLEAN_LP_REVISED_SIMPLEX_H_
#define OTCLEAN_LP_REVISED_SIMPLEX_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "common/exec_context.h"
#include "common/result.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace otclean::lp {

/// An implicit LP  min cᵀx  s.t.  Ax = b, x ≥ 0  exposed column-by-column.
///
/// The revised simplex never asks for A as a whole: it prices all columns
/// against the current duals y (where the oracle can exploit problem
/// structure — the QCLP oracle prices each of its m·n columns in O(1)
/// after an O(rows) precompute, streaming costs through a CostProvider),
/// and materializes only the single entering column per pivot. That is
/// what replaces the dense (rows × cols) tableau of transport_lp with an
/// O(rows²) working set.
///
/// Implementations must be thread-safe for concurrent const calls if they
/// parallelize PriceEntering internally.
class ColumnOracle {
 public:
  virtual ~ColumnOracle() = default;

  virtual size_t num_rows() const = 0;
  virtual size_t num_cols() const = 0;

  /// Objective coefficient c_j.
  virtual double Cost(size_t col) const = 0;

  /// Overwrites `out` with the sparse entries (row, coefficient) of
  /// column A_j. Rows may appear in any order but at most once.
  virtual void Column(size_t col,
                      std::vector<std::pair<size_t, double>>& out) const = 0;

  /// Returns the column with the most negative reduced cost
  /// (phase1 ? 0 : c_j) − yᵀA_j strictly below −tol, breaking ties toward
  /// the lowest index; num_cols() when none qualifies. Must be
  /// deterministic for a given y regardless of internal parallelism.
  virtual size_t PriceEntering(const std::vector<double>& y, double tol,
                               bool phase1) const = 0;
};

struct RevisedSimplexOptions {
  size_t max_iterations = 200000;
  /// Reduced-cost / pivot tolerance.
  double tol = 1e-9;
};

struct RevisedSimplexResult {
  /// Basic variables at the optimum: (column id, value), value ≥ 0. At
  /// most num_rows entries; every non-listed column is 0.
  std::vector<std::pair<size_t, double>> basic;
  double objective = 0.0;
  size_t iterations = 0;
  /// Bytes of the factorization working set (B⁻¹ + per-pivot scratch) —
  /// the LP memory-scaling quantity that replaces the dense-tableau
  /// footprint in reports and benches.
  size_t working_set_bytes = 0;
};

/// Two-phase revised simplex with a dense product-form basis inverse.
/// Starts from the artificial identity basis, so `b` must be non-negative
/// (the transport/QCLP right-hand sides are). Phase 1 drives the
/// artificials out (InvalidArgument if the system is infeasible); phase 2
/// optimizes the true objective, forcing any residual degenerate
/// artificials out with zero-length pivots so they never re-acquire mass.
/// `ctx`'s token and deadline are polled once per pivot.
Result<RevisedSimplexResult> SolveRevisedSimplex(
    const ColumnOracle& oracle, const linalg::Vector& b,
    const RevisedSimplexOptions& options = {}, const ExecContext& ctx = {});

}  // namespace otclean::lp

#endif  // OTCLEAN_LP_REVISED_SIMPLEX_H_

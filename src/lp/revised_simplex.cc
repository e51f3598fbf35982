#include "lp/revised_simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace otclean::lp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

Result<RevisedSimplexResult> SolveRevisedSimplex(
    const ColumnOracle& oracle, const linalg::Vector& b,
    const RevisedSimplexOptions& options, const ExecContext& ctx) {
  const size_t rows = oracle.num_rows();
  const size_t cols = oracle.num_cols();
  if (b.size() != rows) {
    return Status::InvalidArgument("SolveRevisedSimplex: rhs size mismatch");
  }
  double b_norm = 0.0;
  for (size_t r = 0; r < rows; ++r) {
    if (b[r] < -options.tol) {
      return Status::InvalidArgument(
          "SolveRevisedSimplex: rhs must be non-negative (artificial "
          "identity start)");
    }
    b_norm += std::fabs(b[r]);
  }
  const double feas_tol = options.tol * (1.0 + b_norm);

  // Artificial identity start: basis column `cols + r` is the r-th unit
  // vector; B⁻¹ = I and x_B = b, which is feasible because b ≥ 0.
  std::vector<size_t> basis(rows);
  for (size_t r = 0; r < rows; ++r) basis[r] = cols + r;
  linalg::Matrix binv = linalg::Matrix::Identity(rows);
  std::vector<double> xb(rows);
  for (size_t r = 0; r < rows; ++r) xb[r] = std::max(b[r], 0.0);

  std::vector<double> y(rows), d(rows), cb(rows);
  std::vector<std::pair<size_t, double>> column;

  RevisedSimplexResult result;
  result.working_set_bytes =
      rows * rows * sizeof(double) + 5 * rows * sizeof(double);

  bool phase1 = true;
  size_t iter = 0;
  for (; iter < options.max_iterations; ++iter) {
    OTCLEAN_RETURN_NOT_OK(CheckStop(ctx, "SolveRevisedSimplex: pivot"));

    if (phase1) {
      double artificial_mass = 0.0;
      for (size_t k = 0; k < rows; ++k) {
        if (basis[k] >= cols) artificial_mass += xb[k];
      }
      if (artificial_mass <= feas_tol) phase1 = false;
    }

    // Duals y = B⁻ᵀ c_B for the active phase's objective.
    for (size_t k = 0; k < rows; ++k) {
      if (phase1) {
        cb[k] = basis[k] >= cols ? 1.0 : 0.0;
      } else {
        cb[k] = basis[k] >= cols ? 0.0 : oracle.Cost(basis[k]);
      }
    }
    for (size_t r = 0; r < rows; ++r) {
      double acc = 0.0;
      for (size_t k = 0; k < rows; ++k) acc += cb[k] * binv(k, r);
      y[r] = acc;
    }

    const size_t enter = oracle.PriceEntering(y, options.tol, phase1);
    if (enter >= cols) {
      if (phase1) {
        // No entering column but artificial mass remains: infeasible.
        return Status::InvalidArgument(
            "SolveRevisedSimplex: constraints are infeasible");
      }
      break;  // optimal
    }

    // Direction d = B⁻¹ A_e from the sparse entering column.
    oracle.Column(enter, column);
    std::fill(d.begin(), d.end(), 0.0);
    for (const auto& [row, coef] : column) {
      for (size_t k = 0; k < rows; ++k) d[k] += binv(k, row) * coef;
    }

    // Leaving row. Degenerate artificials whose direction component would
    // let them re-acquire mass in phase 2 are forced out first with a
    // zero-length pivot; otherwise the standard ratio test applies with a
    // lowest-column tie-break against cycling.
    size_t leave = rows;
    double theta = kInf;
    if (!phase1) {
      for (size_t k = 0; k < rows; ++k) {
        if (basis[k] >= cols && xb[k] <= feas_tol &&
            std::fabs(d[k]) > options.tol) {
          leave = k;
          theta = 0.0;
          break;
        }
      }
    }
    if (leave == rows) {
      for (size_t k = 0; k < rows; ++k) {
        if (d[k] <= options.tol) continue;
        const double ratio = xb[k] / d[k];
        if (ratio < theta - options.tol ||
            (ratio < theta + options.tol &&
             (leave == rows || basis[k] < basis[leave]))) {
          theta = ratio;
          leave = k;
        }
      }
    }
    if (leave == rows) {
      return Status::Internal(
          "SolveRevisedSimplex: unbounded direction (transport-class "
          "problems are bounded; check the oracle's columns)");
    }

    // Pivot: eta-update of B⁻¹ and the basic solution.
    const double pivot = d[leave];
    const double inv_pivot = 1.0 / pivot;
    for (size_t r = 0; r < rows; ++r) binv(leave, r) *= inv_pivot;
    for (size_t k = 0; k < rows; ++k) {
      if (k == leave || d[k] == 0.0) continue;
      const double factor = d[k];
      for (size_t r = 0; r < rows; ++r) {
        binv(k, r) -= factor * binv(leave, r);
      }
      xb[k] -= theta * factor;
      if (xb[k] < 0.0) xb[k] = 0.0;  // numerical guard
    }
    xb[leave] = theta;
    basis[leave] = enter;
  }
  if (iter >= options.max_iterations) {
    return Status::NotConverged("SolveRevisedSimplex: iteration cap reached");
  }

  result.iterations = iter;
  for (size_t k = 0; k < rows; ++k) {
    if (basis[k] >= cols) continue;  // degenerate artificial, value ~0
    result.objective += oracle.Cost(basis[k]) * xb[k];
    if (xb[k] > 0.0) result.basic.emplace_back(basis[k], xb[k]);
  }
  std::sort(result.basic.begin(), result.basic.end());
  return result;
}

}  // namespace otclean::lp

#include "linalg/sparse_matrix.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "linalg/simd.h"

namespace otclean::linalg {

SparseMatrix SparseMatrix::FromDense(const Matrix& dense, double threshold) {
  SparseMatrix out(dense.rows(), dense.cols());
  for (size_t r = 0; r < dense.rows(); ++r) {
    for (size_t c = 0; c < dense.cols(); ++c) {
      const double v = dense(r, c);
      if (std::fabs(v) > threshold) {
        out.col_index_.push_back(c);
        out.values_.push_back(v);
      }
    }
    out.row_ptr_[r + 1] = out.values_.size();
  }
  return out;
}

namespace {

/// The ONE truncated-Gibbs streaming loop: tiles the cost provider,
/// computes l = −C/ε and k = e^l per entry, keeps the entry iff
/// k ≥ cutoff, and stores `store_log ? l : k`. The linear and log
/// kernels sharing this loop — same tiling, same keep test — is what
/// makes their kept-sets identical by construction (the invariant
/// CheckTruncatedKernelSupport and the shared plan sparsity pattern rest
/// on), rather than by two hand-synchronized copies.
///
/// Entries with C > c_max cannot pass the keep test, so they skip the
/// division and exp. c_max sits above r_cut = −ε·ln(cutoff) by a margin
/// of 1e-9·(|r_cut| + ε): in l = −C/ε units that is ≥
/// 1e-9·(|ln cutoff| + 1), orders of magnitude more than the few ulps
/// that rounding in r_cut, in −C/ε and in exp can move. So every skipped
/// entry would have failed k ≥ cutoff, and the kept set is the
/// exp-then-test one, bit for bit.
/// Cutoff 0 gives c_max = +inf (nothing skipped).
void StreamTruncatedGibbs(const CostProvider& cost, double epsilon,
                          double cutoff, bool store_log,
                          std::vector<size_t>& col_index,
                          std::vector<double>& values,
                          std::vector<size_t>& row_ptr) {
  const size_t rows = cost.rows();
  const size_t cols = cost.cols();
  const double r_cut = -epsilon * std::log(cutoff);
  const double c_max = r_cut + 1e-9 * (std::fabs(r_cut) + epsilon);
  std::vector<double> tile(std::min(cols, kCostStreamTileCols));
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c0 = 0; c0 < cols; c0 += tile.size()) {
      const size_t c1 = std::min(cols, c0 + tile.size());
      cost.Fill(r, c0, c1, tile.data());
      for (size_t c = c0; c < c1; ++c) {
        if (tile[c - c0] > c_max) continue;
        const double l = -tile[c - c0] / epsilon;
        const double k = std::exp(l);
        if (k >= cutoff) {
          col_index.push_back(c);
          values.push_back(store_log ? l : k);
        }
      }
    }
    row_ptr[r + 1] = values.size();
  }
}

}  // namespace

SparseMatrix SparseMatrix::GibbsKernel(const Matrix& cost, double epsilon,
                                       double cutoff) {
  return GibbsKernel(MatrixCostProvider(cost), epsilon, cutoff);
}

SparseMatrix SparseMatrix::GibbsKernel(const CostProvider& cost,
                                       double epsilon, double cutoff) {
  assert(epsilon > 0.0);
  SparseMatrix out(cost.rows(), cost.cols());
  StreamTruncatedGibbs(cost, epsilon, cutoff, /*store_log=*/false,
                       out.col_index_, out.values_, out.row_ptr_);
  return out;
}

SparseMatrix SparseMatrix::LogGibbsKernel(const Matrix& cost, double epsilon,
                                          double cutoff) {
  return LogGibbsKernel(MatrixCostProvider(cost), epsilon, cutoff);
}

SparseMatrix SparseMatrix::LogGibbsKernel(const CostProvider& cost,
                                          double epsilon, double cutoff) {
  assert(epsilon > 0.0);
  SparseMatrix out(cost.rows(), cost.cols());
  StreamTruncatedGibbs(cost, epsilon, cutoff, /*store_log=*/true,
                       out.col_index_, out.values_, out.row_ptr_);
  return out;
}

Vector SparseMatrix::MatVec(const Vector& x) const {
  assert(x.size() == cols_);
  Vector y(rows_);
  const double* xdata = x.begin();
  for (size_t r = 0; r < rows_; ++r) {
    const size_t k0 = row_ptr_[r];
    y[r] = simd::GatherDot(values_.data() + k0, col_index_.data() + k0, xdata,
                           row_ptr_[r + 1] - k0);
  }
  return y;
}

Vector SparseMatrix::TransposeMatVec(const Vector& x) const {
  assert(x.size() == rows_);
  Vector y(cols_);
  for (size_t r = 0; r < rows_; ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    for (size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      y[col_index_[k]] += values_[k] * xr;
    }
  }
  return y;
}

Vector SparseMatrix::RowSums() const {
  Vector y(rows_);
  for (size_t r = 0; r < rows_; ++r) {
    const size_t k0 = row_ptr_[r];
    y[r] = simd::Sum(values_.data() + k0, row_ptr_[r + 1] - k0);
  }
  return y;
}

Vector SparseMatrix::ColSums() const {
  Vector y(cols_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      y[col_index_[k]] += values_[k];
    }
  }
  return y;
}

SparseMatrix SparseMatrix::ScaleRowsCols(const Vector& u,
                                         const Vector& v) const {
  assert(u.size() == rows_ && v.size() == cols_);
  SparseMatrix out = *this;
  const double* vdata = v.begin();
  for (size_t r = 0; r < rows_; ++r) {
    const size_t k0 = row_ptr_[r];
    simd::GatherScaledHadamard(u[r], values_.data() + k0,
                               col_index_.data() + k0, vdata,
                               out.values_.data() + k0, row_ptr_[r + 1] - k0);
  }
  return out;
}

double SparseMatrix::FrobeniusDotDense(const Matrix& dense) const {
  assert(dense.rows() == rows_ && dense.cols() == cols_);
  double s = 0.0;
  const double* ddata = dense.data().data();
  for (size_t r = 0; r < rows_; ++r) {
    const size_t k0 = row_ptr_[r];
    s += simd::GatherDot(values_.data() + k0, col_index_.data() + k0,
                         ddata + r * cols_, row_ptr_[r + 1] - k0);
  }
  return s;
}

Matrix SparseMatrix::ToDense() const {
  Matrix out(rows_, cols_, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      out(r, col_index_[k]) = values_[k];
    }
  }
  return out;
}

}  // namespace otclean::linalg

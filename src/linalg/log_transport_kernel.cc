#include "linalg/log_transport_kernel.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "linalg/parallel_for.h"
#include "linalg/simd.h"
#include "linalg/simd_exp.h"
#include "linalg/thread_pool.h"

namespace otclean::linalg {

namespace {

template <typename T>
using Lanes = simd::StorageLanes<T>;

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Σ_k costs[k]·e^{(vals[k] + lv[col(k)]) + lu_r} over one stored row —
/// the shared inner loop of the sparse TransportCost and
/// SupportTransportCost, written once so the streamed and cached variants
/// are bit-identical.
template <typename T>
double RowLogCost(const double* costs, const T* vals, const size_t* cols,
                  const double* lv, double lu_r, size_t len) {
  double s = 0.0;
  for (size_t k = 0; k < len; ++k) {
    s += costs[k] *
         simd::PolyExp(static_cast<double>(vals[k]) + lv[cols[k]] + lu_r);
  }
  return s;
}

/// L = −C/ε in double, streamed from the provider — the build both storage
/// scalars start from (the f32 kernel narrows the finished matrix).
Matrix BuildLogKernel(const CostProvider& cost, double epsilon,
                      size_t num_threads, ThreadPool* pool) {
  assert(epsilon > 0.0);
  const size_t m = cost.rows();
  const size_t n = cost.cols();
  Matrix log_kernel(m, n);
  double* dst = log_kernel.data().data();
  if (const Matrix* dense = cost.AsMatrix()) {
    const double* src = dense->data().data();
    for (size_t i = 0; i < dense->size(); ++i) dst[i] = -src[i] / epsilon;
    return log_kernel;
  }
  // Rows are disjoint and the provider is thread-safe for const calls, so
  // the build parallelizes deterministically; L is filled in place, the
  // raw cost never exists as a matrix.
  ParallelFor(
      m, ResolveThreadCount(num_threads),
      [&](size_t r0, size_t r1) {
        for (size_t r = r0; r < r1; ++r) {
          double* row = dst + r * n;
          cost.Fill(r, 0, n, row);
          for (size_t c = 0; c < n; ++c) row[c] = -row[c] / epsilon;
        }
      },
      GrainForWork(n), pool);
  return log_kernel;
}

}  // namespace

// ----------------------------------------------------------------- Dense --

template <typename T>
BasicDenseLogTransportKernel<T>::BasicDenseLogTransportKernel(
    Storage log_kernel, size_t num_threads, ThreadPool* pool)
    : BasicDenseLogTransportKernel(
          std::make_shared<const Storage>(std::move(log_kernel)), num_threads,
          pool) {}

template <typename T>
BasicDenseLogTransportKernel<T>::BasicDenseLogTransportKernel(
    std::shared_ptr<const Storage> log_kernel, size_t num_threads,
    ThreadPool* pool)
    : log_kernel_(std::move(log_kernel)),
      threads_(ResolveThreadCount(num_threads)),
      pool_(pool) {}

template <typename T>
BasicDenseLogTransportKernel<T> BasicDenseLogTransportKernel<T>::FromCost(
    const Matrix& cost, double epsilon, size_t num_threads, ThreadPool* pool) {
  return FromCost(MatrixCostProvider(cost), epsilon, num_threads, pool);
}

template <typename T>
BasicDenseLogTransportKernel<T> BasicDenseLogTransportKernel<T>::FromCost(
    const CostProvider& cost, double epsilon, size_t num_threads,
    ThreadPool* pool) {
  return BasicDenseLogTransportKernel(
      Storage(BuildLogKernel(cost, epsilon, num_threads, pool)), num_threads,
      pool);
}

template <typename T>
void BasicDenseLogTransportKernel<T>::LogApply(const Vector& lv,
                                               Vector& out) const {
  const size_t m = log_kernel_->rows();
  const size_t n = log_kernel_->cols();
  assert(lv.size() == n);
  if (out.size() != m) out = Vector(m);
  const T* data = log_kernel_->data().data();
  const double* lvdata = lv.begin();
  ParallelFor(
      m, threads_,
      [&](size_t r0, size_t r1) {
        for (size_t r = r0; r < r1; ++r) {
          const T* row = data + r * n;
          const double mx = Lanes<T>::AddMaxReduce(row, lvdata, n);
          out[r] = mx == kNegInf
                       ? kNegInf
                       : mx + std::log(Lanes<T>::AddExpSumShifted(
                                  row, lvdata, mx, n));
        }
      },
      GrainForWork(n), pool_);
}

template <typename T>
void BasicDenseLogTransportKernel<T>::LogApplyTranspose(const Vector& lu,
                                                        Vector& out) const {
  const size_t m = log_kernel_->rows();
  const size_t n = log_kernel_->cols();
  assert(lu.size() == m);
  if (out.size() != n) out = Vector(n);
  const T* data = log_kernel_->data().data();
  // Column strips, two passes each (max, then shifted exp-sum): every
  // output column accumulates the rows in ascending order with the
  // bit-identical-across-tiers strip accumulators of simd.h, while the
  // matrix is still walked row-major — the streamed-LSE answer to the
  // transpose's cache problem. Strips are worker-owned → deterministic.
  ParallelFor(
      n, threads_,
      [&](size_t c0, size_t c1) {
        std::vector<double> mx(std::min(c1 - c0, kCostStreamTileCols));
        std::vector<double> acc(mx.size());
        for (size_t s0 = c0; s0 < c1; s0 += mx.size()) {
          const size_t s1 = std::min(c1, s0 + mx.size());
          const size_t w = s1 - s0;
          std::fill(mx.begin(), mx.begin() + w, kNegInf);
          std::fill(acc.begin(), acc.begin() + w, 0.0);
          for (size_t r = 0; r < m; ++r) {
            // −inf rows carry no mass in any column; skipping them keeps
            // the max pass from ever being the only finite contribution.
            if (lu[r] == kNegInf) continue;
            Lanes<T>::AddMaxAccumulate(lu[r], data + r * n + s0, mx.data(), w);
          }
          for (size_t r = 0; r < m; ++r) {
            if (lu[r] == kNegInf) continue;
            Lanes<T>::AddExpSumAccumulate(lu[r], data + r * n + s0,
                                          mx.data(), acc.data(), w);
          }
          for (size_t c = 0; c < w; ++c) {
            out[s0 + c] =
                mx[c] == kNegInf ? kNegInf : mx[c] + std::log(acc[c]);
          }
        }
      },
      GrainForWork(m), pool_);
}

template <typename T>
Matrix BasicDenseLogTransportKernel<T>::ScaleToPlan(const Vector& lu,
                                                    const Vector& lv) const {
  const size_t m = log_kernel_->rows();
  const size_t n = log_kernel_->cols();
  assert(lu.size() == m && lv.size() == n);
  Matrix plan(m, n);
  const T* data = log_kernel_->data().data();
  const double* lvdata = lv.begin();
  double* out = plan.data().data();
  ParallelFor(
      m, threads_,
      [&](size_t r0, size_t r1) {
        for (size_t r = r0; r < r1; ++r) {
          Lanes<T>::AddExpWrite(lu[r], data + r * n, lvdata, out + r * n, n);
        }
      },
      GrainForWork(n), pool_);
  return plan;
}

template <typename T>
double BasicDenseLogTransportKernel<T>::TransportCost(const CostProvider& cost,
                                                      const Vector& lu,
                                                      const Vector& lv) const {
  const size_t m = log_kernel_->rows();
  const size_t n = log_kernel_->cols();
  assert(cost.rows() == m && cost.cols() == n);
  assert(lu.size() == m && lv.size() == n);
  const T* data = log_kernel_->data().data();
  const double* lvdata = lv.begin();
  const Matrix* dense_cost = cost.AsMatrix();
  return BlockedReduce(
      m, threads_,
      [&](size_t r0, size_t r1) {
        // Per-block scratch: exp'd plan row (and a streamed cost tile when
        // the provider has no dense backing).
        std::vector<double> w(std::min(n, kCostStreamTileCols));
        std::vector<double> ctile(dense_cost == nullptr ? w.size() : 0);
        double s = 0.0;
        for (size_t r = r0; r < r1; ++r) {
          if (lu[r] == kNegInf) continue;
          double row_sum = 0.0;
          for (size_t c0 = 0; c0 < n; c0 += w.size()) {
            const size_t c1 = std::min(n, c0 + w.size());
            Lanes<T>::AddExpWrite(lu[r], data + r * n + c0, lvdata + c0,
                                  w.data(), c1 - c0);
            const double* crow;
            if (dense_cost != nullptr) {
              crow = dense_cost->data().data() + r * n + c0;
            } else {
              cost.Fill(r, c0, c1, ctile.data());
              crow = ctile.data();
            }
            row_sum += simd::Dot(crow, w.data(), c1 - c0);
          }
          s += row_sum;
        }
        return s;
      },
      pool_);
}

// ---------------------------------------------------------------- Sparse --

template <typename T>
BasicSparseLogTransportKernel<T>::BasicSparseLogTransportKernel(
    Csr log_kernel, size_t num_threads, ThreadPool* pool)
    : BasicSparseLogTransportKernel(
          std::make_shared<const Storage>(std::move(log_kernel)), num_threads,
          pool) {}

template <typename T>
BasicSparseLogTransportKernel<T>::BasicSparseLogTransportKernel(
    std::shared_ptr<const Storage> storage, size_t num_threads,
    ThreadPool* pool)
    : storage_(std::move(storage)),
      threads_(ResolveThreadCount(num_threads)),
      pool_(pool) {}

template <typename T>
BasicSparseLogTransportKernel<T> BasicSparseLogTransportKernel<T>::FromCost(
    const Matrix& cost, double epsilon, double cutoff, size_t num_threads,
    ThreadPool* pool) {
  return FromCost(MatrixCostProvider(cost), epsilon, cutoff, num_threads,
                  pool);
}

template <typename T>
BasicSparseLogTransportKernel<T> BasicSparseLogTransportKernel<T>::FromCost(
    const CostProvider& cost, double epsilon, double cutoff,
    size_t num_threads, ThreadPool* pool) {
  assert(epsilon > 0.0);
  return BasicSparseLogTransportKernel(
      Csr(SparseMatrix::LogGibbsKernel(cost, epsilon, cutoff)), num_threads,
      pool);
}

template <typename T>
void BasicSparseLogTransportKernel<T>::LogApply(const Vector& lv,
                                                Vector& out) const {
  const size_t m = kern().rows();
  assert(lv.size() == kern().cols());
  if (out.size() != m) out = Vector(m);
  const auto& row_ptr = kern().row_ptr();
  const size_t* cols = kern().col_index().data();
  const T* values = kern().values().data();
  const double* lvdata = lv.begin();
  ParallelFor(
      m, threads_,
      [&](size_t r0, size_t r1) {
        for (size_t r = r0; r < r1; ++r) {
          const size_t k0 = row_ptr[r];
          const size_t len = row_ptr[r + 1] - k0;
          const double mx =
              Lanes<T>::GatherAddMaxReduce(values + k0, cols + k0, lvdata, len);
          out[r] = mx == kNegInf
                       ? kNegInf
                       : mx + std::log(Lanes<T>::GatherAddExpSumShifted(
                                 values + k0, cols + k0, lvdata, mx, len));
        }
      },
      GrainForWork(kern().nnz() / (m == 0 ? 1 : m)), pool_);
}

template <typename T>
void BasicSparseLogTransportKernel<T>::LogApplyTranspose(const Vector& lu,
                                                         Vector& out) const {
  const size_t n = kern().cols();
  assert(lu.size() == kern().rows());
  if (out.size() != n) out = Vector(n);
  const T* csc_values = csc().values.data();
  const size_t* rows = csc().row_index.data();
  const double* ludata = lu.begin();
  // Each output column is owned by one worker and reduced over the CSC
  // mirror — empty columns (truncated away entirely) come out −inf.
  ParallelFor(
      n, threads_,
      [&](size_t c0, size_t c1) {
        for (size_t c = c0; c < c1; ++c) {
          const size_t k0 = csc().col_ptr[c];
          const size_t len = csc().col_ptr[c + 1] - k0;
          const double mx =
              Lanes<T>::GatherAddMaxReduce(csc_values + k0, rows + k0,
                                           ludata, len);
          out[c] = mx == kNegInf
                       ? kNegInf
                       : mx + std::log(Lanes<T>::GatherAddExpSumShifted(
                                 csc_values + k0, rows + k0, ludata, mx,
                                 len));
        }
      },
      GrainForWork(kern().nnz() / (n == 0 ? 1 : n)), pool_);
}

template <typename T>
Matrix BasicSparseLogTransportKernel<T>::ScaleToPlan(const Vector& lu,
                                                     const Vector& lv) const {
  const size_t m = kern().rows();
  const size_t n = kern().cols();
  assert(lu.size() == m && lv.size() == n);
  Matrix plan(m, n, 0.0);
  const auto& row_ptr = kern().row_ptr();
  const auto& col_index = kern().col_index();
  const auto& values = kern().values();
  ParallelFor(
      m, threads_,
      [&](size_t r0, size_t r1) {
        for (size_t r = r0; r < r1; ++r) {
          const double lur = lu[r];
          for (size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
            // Same (L + lv) + lu association as the dense AddExpWrite, so
            // cutoff-zero sparse plans match dense ones bit for bit.
            plan(r, col_index[k]) = simd::PolyExp(
                static_cast<double>(values[k]) + lv[col_index[k]] + lur);
          }
        }
      },
      GrainForWork(kern().nnz() / (m == 0 ? 1 : m)), pool_);
  return plan;
}

template <typename T>
SparseMatrix BasicSparseLogTransportKernel<T>::ScaleToPlanSparse(
    const Vector& lu, const Vector& lv) const {
  assert(lu.size() == kern().rows() && lv.size() == kern().cols());
  const auto& row_ptr = kern().row_ptr();
  const size_t* cols = kern().col_index().data();
  const T* values = kern().values().data();
  std::vector<double> out(kern().nnz());
  const size_t m = kern().rows();
  ParallelFor(
      m, threads_,
      [&](size_t r0, size_t r1) {
        for (size_t r = r0; r < r1; ++r) {
          const double lur = lu[r];
          for (size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
            out[k] =
                simd::PolyExp(static_cast<double>(values[k]) + lv[cols[k]] +
                              lur);
          }
        }
      },
      GrainForWork(kern().nnz() / (m == 0 ? 1 : m)), pool_);
  return SparseMatrix::FromParts(m, kern().cols(), row_ptr, kern().col_index(),
                                 std::move(out));
}

template <typename T>
std::vector<double> BasicSparseLogTransportKernel<T>::GatherSupportCosts(
    const CostProvider& cost) const {
  assert(cost.rows() == kern().rows() && cost.cols() == kern().cols());
  const auto& row_ptr = kern().row_ptr();
  const size_t* cols = kern().col_index().data();
  std::vector<double> out(kern().nnz());
  for (size_t r = 0; r < kern().rows(); ++r) {
    const size_t k0 = row_ptr[r];
    cost.Gather(r, cols + k0, row_ptr[r + 1] - k0, out.data() + k0);
  }
  return out;
}

template <typename T>
double BasicSparseLogTransportKernel<T>::SupportTransportCost(
    const std::vector<double>& support_costs, const Vector& lu,
    const Vector& lv) const {
  const size_t m = kern().rows();
  assert(support_costs.size() == kern().nnz());
  assert(lu.size() == m && lv.size() == kern().cols());
  const auto& row_ptr = kern().row_ptr();
  const size_t* cols = kern().col_index().data();
  const T* values = kern().values().data();
  const double* costs = support_costs.data();
  const double* lvdata = lv.begin();
  return BlockedReduce(
      m, threads_,
      [&](size_t r0, size_t r1) {
        double s = 0.0;
        for (size_t r = r0; r < r1; ++r) {
          if (lu[r] == kNegInf) continue;
          const size_t k0 = row_ptr[r];
          s += RowLogCost(costs + k0, values + k0, cols + k0, lvdata, lu[r],
                          row_ptr[r + 1] - k0);
        }
        return s;
      },
      pool_);
}

template <typename T>
double BasicSparseLogTransportKernel<T>::TransportCost(
    const CostProvider& cost, const Vector& lu, const Vector& lv) const {
  const size_t m = kern().rows();
  assert(cost.rows() == m && cost.cols() == kern().cols());
  assert(lu.size() == m && lv.size() == kern().cols());
  const auto& row_ptr = kern().row_ptr();
  const size_t* cols = kern().col_index().data();
  const T* values = kern().values().data();
  const double* lvdata = lv.begin();
  // O(nnz) cost evaluations at the kernel's support, per-block scratch.
  return BlockedReduce(
      m, threads_,
      [&](size_t r0, size_t r1) {
        std::vector<double> crow(csc().max_row_nnz);
        double s = 0.0;
        for (size_t r = r0; r < r1; ++r) {
          if (lu[r] == kNegInf) continue;
          const size_t k0 = row_ptr[r];
          const size_t len = row_ptr[r + 1] - k0;
          cost.Gather(r, cols + k0, len, crow.data());
          s += RowLogCost(crow.data(), values + k0, cols + k0, lvdata, lu[r],
                          len);
        }
        return s;
      },
      pool_);
}

template class BasicDenseLogTransportKernel<double>;
template class BasicDenseLogTransportKernel<float>;
template class BasicSparseLogTransportKernel<double>;
template class BasicSparseLogTransportKernel<float>;

}  // namespace otclean::linalg

#include "linalg/transport_kernel.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "linalg/parallel_for.h"
#include "linalg/simd.h"
#include "linalg/thread_pool.h"

namespace otclean::linalg {

namespace {

template <typename T>
using Lanes = simd::StorageLanes<T>;

template <typename Doubles>
std::vector<float> Narrow(const Doubles& src) {
  std::vector<float> out(src.size());
  for (size_t i = 0; i < src.size(); ++i) out[i] = static_cast<float>(src[i]);
  return out;
}

}  // namespace

FloatMatrix::FloatMatrix(const Matrix& m)
    : rows_(m.rows()), cols_(m.cols()), data_(Narrow(m.data())) {}

FloatSparseMatrix::FloatSparseMatrix(const SparseMatrix& m)
    : rows_(m.rows()),
      cols_(m.cols()),
      row_ptr_(m.row_ptr()),
      col_index_(m.col_index()),
      values_(Narrow(m.values())) {}

template <typename T>
BasicCscMirror<T>::BasicCscMirror(
    const typename KernelStorageTypes<T>::Csr& csr) {
  const size_t n = csr.cols();
  const auto& row_ptr = csr.row_ptr();
  const auto& col_index = csr.col_index();
  const auto& csr_values = csr.values();
  col_ptr.assign(n + 1, 0);
  for (size_t c : col_index) ++col_ptr[c + 1];
  for (size_t c = 0; c < n; ++c) col_ptr[c + 1] += col_ptr[c];
  row_index.resize(csr_values.size());
  values.resize(csr_values.size());
  std::vector<size_t> fill(col_ptr.begin(), col_ptr.end() - 1);
  // Row-order scan keeps each column's entries sorted by ascending row.
  for (size_t r = 0; r < csr.rows(); ++r) {
    max_row_nnz = std::max(max_row_nnz, row_ptr[r + 1] - row_ptr[r]);
    for (size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const size_t dst = fill[col_index[k]]++;
      row_index[dst] = r;
      values[dst] = csr_values[k];
    }
  }
}

// ----------------------------------------------------------------- Dense --

template <typename T>
BasicDenseTransportKernel<T>::BasicDenseTransportKernel(Storage kernel,
                                                        size_t num_threads,
                                                        ThreadPool* pool)
    : BasicDenseTransportKernel(
          std::make_shared<const Storage>(std::move(kernel)), num_threads,
          pool) {}

template <typename T>
BasicDenseTransportKernel<T>::BasicDenseTransportKernel(
    std::shared_ptr<const Storage> kernel, size_t num_threads,
    ThreadPool* pool)
    : kernel_(std::move(kernel)),
      threads_(ResolveThreadCount(num_threads)),
      pool_(pool) {}

template <typename T>
BasicDenseTransportKernel<T> BasicDenseTransportKernel<T>::FromCost(
    const Matrix& cost, double epsilon, size_t num_threads, ThreadPool* pool) {
  assert(epsilon > 0.0);
  return BasicDenseTransportKernel(Storage(cost.GibbsKernel(epsilon)),
                                   num_threads, pool);
}

template <typename T>
void BasicDenseTransportKernel<T>::Apply(const Vector& v, Vector& y) const {
  const size_t m = kernel_->rows();
  const size_t n = kernel_->cols();
  assert(v.size() == n);
  if (y.size() != m) y = Vector(m);
  const T* data = kernel_->data().data();
  const double* vdata = v.begin();
  ParallelFor(
      m, threads_,
      [&](size_t r0, size_t r1) {
        for (size_t r = r0; r < r1; ++r) {
          y[r] = Lanes<T>::Dot(data + r * n, vdata, n);
        }
      },
      GrainForWork(n), pool_);
}

template <typename T>
void BasicDenseTransportKernel<T>::ApplyTranspose(const Vector& u,
                                                  Vector& y) const {
  const size_t m = kernel_->rows();
  const size_t n = kernel_->cols();
  assert(u.size() == m);
  if (y.size() != n) y = Vector(n);
  const T* data = kernel_->data().data();
  // Column-blocked: each worker owns output range [c0, c1) and streams the
  // rows in ascending order (AxpyRows: two rows per pass in the vector
  // tiers, traffic-only blocking), so every y[c] accumulates the same
  // mul+add sequence for any thread count and any tier.
  ParallelFor(
      n, threads_,
      [&](size_t c0, size_t c1) {
        const size_t w = c1 - c0;
        double* out = y.begin() + c0;
        for (size_t c = 0; c < w; ++c) out[c] = 0.0;
        Lanes<T>::AxpyRows(u.begin(), data + c0, n, m, out, w);
      },
      GrainForWork(m), pool_);
}

template <typename T>
Matrix BasicDenseTransportKernel<T>::ScaleToPlan(const Vector& u,
                                                 const Vector& v) const {
  const size_t m = kernel_->rows();
  const size_t n = kernel_->cols();
  assert(u.size() == m && v.size() == n);
  Matrix plan(m, n);
  const T* data = kernel_->data().data();
  const double* vdata = v.begin();
  double* out = plan.data().data();
  ParallelFor(
      m, threads_,
      [&](size_t r0, size_t r1) {
        for (size_t r = r0; r < r1; ++r) {
          Lanes<T>::ScaledHadamard(u[r], data + r * n, vdata, out + r * n, n);
        }
      },
      GrainForWork(n), pool_);
  return plan;
}

template <typename T>
double BasicDenseTransportKernel<T>::TransportCost(const CostProvider& cost,
                                                   const Vector& u,
                                                   const Vector& v) const {
  const size_t m = kernel_->rows();
  const size_t n = kernel_->cols();
  assert(cost.rows() == m && cost.cols() == n);
  assert(u.size() == m && v.size() == n);
  const T* kdata = kernel_->data().data();
  const double* vdata = v.begin();
  if (const Matrix* dense_cost = cost.AsMatrix()) {
    // Zero-copy fast path: whole-row triple dots against the in-memory
    // cost.
    const double* cdata = dense_cost->data().data();
    return BlockedReduce(
        m, threads_,
        [&](size_t r0, size_t r1) {
          double s = 0.0;
          for (size_t r = r0; r < r1; ++r) {
            const double ur = u[r];
            if (ur == 0.0) continue;
            s += ur * Lanes<T>::Dot3(cdata + r * n, kdata + r * n, vdata, n);
          }
          return s;
        },
        pool_);
  }
  // Streamed path: pull cost rows tile-by-tile into an L1-sized scratch.
  // Each reduction block owns its scratch, so workers never share tiles.
  return BlockedReduce(
      m, threads_,
      [&](size_t r0, size_t r1) {
        std::vector<double> tile(std::min(n, kCostStreamTileCols));
        double s = 0.0;
        for (size_t r = r0; r < r1; ++r) {
          const double ur = u[r];
          if (ur == 0.0) continue;
          double row_sum = 0.0;
          for (size_t c0 = 0; c0 < n; c0 += tile.size()) {
            const size_t c1 = std::min(n, c0 + tile.size());
            cost.Fill(r, c0, c1, tile.data());
            row_sum +=
                Lanes<T>::Dot3(tile.data(), kdata + r * n + c0, vdata + c0,
                               c1 - c0);
          }
          s += ur * row_sum;
        }
        return s;
      },
      pool_);
}

// ---------------------------------------------------------------- Sparse --

template <typename T>
BasicSparseTransportKernel<T>::BasicSparseTransportKernel(Csr kernel,
                                                          size_t num_threads,
                                                          ThreadPool* pool)
    : BasicSparseTransportKernel(
          std::make_shared<const Storage>(std::move(kernel)), num_threads,
          pool) {}

template <typename T>
BasicSparseTransportKernel<T>::BasicSparseTransportKernel(
    std::shared_ptr<const Storage> storage, size_t num_threads,
    ThreadPool* pool)
    : storage_(std::move(storage)),
      threads_(ResolveThreadCount(num_threads)),
      pool_(pool) {}

template <typename T>
BasicSparseTransportKernel<T> BasicSparseTransportKernel<T>::FromCost(
    const Matrix& cost, double epsilon, double cutoff, size_t num_threads,
    ThreadPool* pool) {
  return FromCost(MatrixCostProvider(cost), epsilon, cutoff, num_threads,
                  pool);
}

template <typename T>
BasicSparseTransportKernel<T> BasicSparseTransportKernel<T>::FromCost(
    const CostProvider& cost, double epsilon, double cutoff,
    size_t num_threads, ThreadPool* pool) {
  assert(epsilon > 0.0);
  return BasicSparseTransportKernel(
      Csr(SparseMatrix::GibbsKernel(cost, epsilon, cutoff)), num_threads,
      pool);
}

template <typename T>
void BasicSparseTransportKernel<T>::Apply(const Vector& v, Vector& y) const {
  const size_t m = kern().rows();
  assert(v.size() == kern().cols());
  if (y.size() != m) y = Vector(m);
  const auto& row_ptr = kern().row_ptr();
  const size_t* cols = kern().col_index().data();
  const T* values = kern().values().data();
  const double* vdata = v.begin();
  ParallelFor(
      m, threads_,
      [&](size_t r0, size_t r1) {
        for (size_t r = r0; r < r1; ++r) {
          const size_t k0 = row_ptr[r];
          y[r] = Lanes<T>::GatherDot(values + k0, cols + k0, vdata,
                                     row_ptr[r + 1] - k0);
        }
      },
      GrainForWork(kern().nnz() / (m == 0 ? 1 : m)), pool_);
}

template <typename T>
void BasicSparseTransportKernel<T>::ApplyTranspose(const Vector& u,
                                                   Vector& y) const {
  const size_t n = kern().cols();
  assert(u.size() == kern().rows());
  if (y.size() != n) y = Vector(n);
  const T* csc_values = csc().values.data();
  const size_t* rows = csc().row_index.data();
  const double* udata = u.begin();
  // Gather over the CSC mirror: each output y[c] is owned by one worker
  // and accumulates its column's entries in ascending-row order. At f64
  // that is GatherDotSequential — one multiply-accumulate per entry, the
  // same per-element chain the dense ApplyTranspose applies, so at cutoff
  // zero sparse and dense transpose-applies are bit-identical; at f32 a
  // lane-parallel gather (StorageLanes::TransposeGatherDot).
  ParallelFor(
      n, threads_,
      [&](size_t c0, size_t c1) {
        for (size_t c = c0; c < c1; ++c) {
          const size_t k0 = csc().col_ptr[c];
          y[c] = Lanes<T>::TransposeGatherDot(
              csc_values + k0, rows + k0, udata, csc().col_ptr[c + 1] - k0);
        }
      },
      GrainForWork(kern().nnz() / (n == 0 ? 1 : n)), pool_);
}

template <typename T>
Matrix BasicSparseTransportKernel<T>::ScaleToPlan(const Vector& u,
                                                  const Vector& v) const {
  const size_t m = kern().rows();
  const size_t n = kern().cols();
  assert(u.size() == m && v.size() == n);
  Matrix plan(m, n, 0.0);
  const auto& row_ptr = kern().row_ptr();
  const auto& col_index = kern().col_index();
  const auto& values = kern().values();
  ParallelFor(
      m, threads_,
      [&](size_t r0, size_t r1) {
        for (size_t r = r0; r < r1; ++r) {
          const double ur = u[r];
          for (size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
            plan(r, col_index[k]) =
                (ur * static_cast<double>(values[k])) * v[col_index[k]];
          }
        }
      },
      GrainForWork(kern().nnz() / (m == 0 ? 1 : m)), pool_);
  return plan;
}

template <typename T>
SparseMatrix BasicSparseTransportKernel<T>::ScaleToPlanSparse(
    const Vector& u, const Vector& v) const {
  assert(u.size() == kern().rows() && v.size() == kern().cols());
  const auto& row_ptr = kern().row_ptr();
  const size_t* cols = kern().col_index().data();
  const T* values = kern().values().data();
  const double* vdata = v.begin();
  std::vector<double> out(kern().nnz());
  const size_t m = kern().rows();
  ParallelFor(
      m, threads_,
      [&](size_t r0, size_t r1) {
        for (size_t r = r0; r < r1; ++r) {
          const size_t k0 = row_ptr[r];
          Lanes<T>::GatherScaledHadamard(u[r], values + k0, cols + k0,
                                         vdata, out.data() + k0,
                                         row_ptr[r + 1] - k0);
        }
      },
      GrainForWork(kern().nnz() / (m == 0 ? 1 : m)), pool_);
  return SparseMatrix::FromParts(m, kern().cols(), row_ptr, kern().col_index(),
                                 std::move(out));
}

template <typename T>
std::vector<double> BasicSparseTransportKernel<T>::GatherSupportCosts(
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
double BasicSparseTransportKernel<T>::SupportTransportCost(
    const std::vector<double>& support_costs, const Vector& u,
    const Vector& v) const {
  const size_t m = kern().rows();
  assert(support_costs.size() == kern().nnz());
  assert(u.size() == m && v.size() == kern().cols());
  const auto& row_ptr = kern().row_ptr();
  const size_t* cols = kern().col_index().data();
  const T* values = kern().values().data();
  const double* costs = support_costs.data();
  const double* vdata = v.begin();
  return BlockedReduce(
      m, threads_,
      [&](size_t r0, size_t r1) {
        double s = 0.0;
        for (size_t r = r0; r < r1; ++r) {
          const double ur = u[r];
          if (ur == 0.0) continue;
          const size_t k0 = row_ptr[r];
          s += ur * Lanes<T>::GatherDot3(costs + k0, values + k0, cols + k0,
                                         vdata, row_ptr[r + 1] - k0);
        }
        return s;
      },
      pool_);
}

template <typename T>
double BasicSparseTransportKernel<T>::TransportCost(const CostProvider& cost,
                                                    const Vector& u,
                                                    const Vector& v) const {
  const size_t m = kern().rows();
  assert(cost.rows() == m && cost.cols() == kern().cols());
  assert(u.size() == m && v.size() == kern().cols());
  const auto& row_ptr = kern().row_ptr();
  const size_t* cols = kern().col_index().data();
  const T* values = kern().values().data();
  const double* vdata = v.begin();
  // O(nnz) cost evaluations: the provider is asked only for the kernel's
  // support. Each reduction block owns a max-row-nnz scratch for the
  // gathered cost entries.
  return BlockedReduce(
      m, threads_,
      [&](size_t r0, size_t r1) {
        std::vector<double> crow(csc().max_row_nnz);
        double s = 0.0;
        for (size_t r = r0; r < r1; ++r) {
          const double ur = u[r];
          if (ur == 0.0) continue;
          const size_t k0 = row_ptr[r];
          const size_t len = row_ptr[r + 1] - k0;
          cost.Gather(r, cols + k0, len, crow.data());
          s += ur * Lanes<T>::GatherDot3(crow.data(), values + k0,
                                         cols + k0, vdata, len);
        }
        return s;
      },
      pool_);
}

template struct BasicCscMirror<double>;
template struct BasicCscMirror<float>;
template class BasicDenseTransportKernel<double>;
template class BasicDenseTransportKernel<float>;
template class BasicSparseTransportKernel<double>;
template class BasicSparseTransportKernel<float>;

}  // namespace otclean::linalg

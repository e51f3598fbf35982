#ifndef OTCLEAN_LINALG_TRANSPORT_KERNEL_H_
#define OTCLEAN_LINALG_TRANSPORT_KERNEL_H_

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "linalg/cost_provider.h"
#include "linalg/matrix.h"
#include "linalg/precision.h"
#include "linalg/sparse_matrix.h"
#include "linalg/vector.h"

namespace otclean::linalg {

class ThreadPool;

/// Storage-agnostic view of a Gibbs kernel K = e^{−C/ε}, exposing exactly
/// the four primitives the Sinkhorn scaling loop needs. The solver engine
/// in ot/sinkhorn.cc is written once against this interface; dense and
/// CSR-sparse (truncated-kernel) storage plug in underneath, so every
/// future kernel optimization (truncation, blocking, SIMD) is a
/// single-implementation change.
///
/// All primitives are multi-threaded over row (or column) blocks.
/// `num_threads` is fixed at construction: 0 = hardware concurrency,
/// 1 = serial. Results are bit-compatible across thread counts — outputs
/// are either written to disjoint index ranges or reduced over fixed-size
/// blocks whose partial sums are combined in block order (see
/// BlockedReduce in thread_pool.h).
///
/// Inner loops run on the runtime-dispatched SIMD primitives of
/// linalg/simd.h. The SIMD layer's own determinism contract composes with
/// the threading one: for a fixed instruction set, pooled and serial runs
/// at any thread count are bit-identical, and dense vs cutoff-zero
/// sparse `Apply` share one accumulation recipe.
///
/// `pool`, when non-null, is a persistent worker pool (thread_pool.h) the
/// primitives dispatch on; when null they run serially on the calling
/// thread. The same chunk decomposition runs either way, so pooled results
/// stay bit-identical. The pool is borrowed, not owned: it must outlive the
/// kernel. Solvers create one pool per solve and reuse it across every
/// Sinkhorn iteration and outer step.
class TransportKernel {
 public:
  virtual ~TransportKernel() = default;

  virtual size_t rows() const = 0;
  virtual size_t cols() const = 0;
  /// Structural nonzeros of the kernel (rows·cols for dense storage).
  virtual size_t nnz() const = 0;
  /// Resolved worker count used by the primitives (>= 1).
  virtual size_t num_threads() const = 0;

  /// y = K·v (the Sinkhorn row update's denominator). Resizes y.
  virtual void Apply(const Vector& v, Vector& y) const = 0;
  /// y = Kᵀ·u (the column update's denominator). Resizes y.
  virtual void ApplyTranspose(const Vector& u, Vector& y) const = 0;
  /// The scaled plan π = diag(u)·K·diag(v), materialized densely.
  virtual Matrix ScaleToPlan(const Vector& u, const Vector& v) const = 0;
  /// ⟨C, π⟩ = Σ_{(i,j) in support} C_ij·u_i·K_ij·v_j over the kernel's
  /// support, without materializing π. The cost is *streamed* from the
  /// provider (tile- or support-wise); no dense rows×cols cost is needed.
  virtual double TransportCost(const CostProvider& cost, const Vector& u,
                               const Vector& v) const = 0;
  /// Convenience overload for an in-memory dense cost. Deprecated on the
  /// sparse kernel, where it forces callers that only have the kernel's
  /// support to materialize a rows×cols matrix — pass a CostProvider
  /// (e.g. ot::FunctionCostProvider) instead. Kept as a thin wrapper over
  /// the provider overload via MatrixCostProvider.
  double TransportCost(const Matrix& cost, const Vector& u,
                       const Vector& v) const {
    return TransportCost(MatrixCostProvider(cost), u, v);
  }
};

// -------------------------------------------------- storage scalars --
//
// Every concrete kernel (the four below and the two log-domain ones in
// log_transport_kernel.h) is one class template over its storage scalar
// T ∈ {double, float} — Precision::kFloat64 / kFloat32 (precision.h).
// Only what is STORED narrows: accumulation, potentials, plans and costs
// stay double, and every float load widens exactly before it enters a
// reduction. The f32 storages are built by narrowing an already-built f64
// kernel, so their values round once (relative error ≤ 2^-24) and a
// truncated f32 kernel keeps the kept-set decided in double — the f32 and
// f64 kernels of one (cost, ε, cutoff) share a sparsity pattern.
//
// The kernel code never branches on T: simd::StorageLanes<T> picks each
// hot loop's lane and carries the one per-scalar contract difference (the
// f32 sparse transpose is not bit-matched to the dense one). Determinism
// holds per (SIMD tier, T): bit-identical across thread counts, pool
// modes and cache hit/miss.

/// Row-major float copy of a built f64 kernel matrix — the dense storage of
/// the f32 kernels, with the Matrix accessors the kernel templates read.
class FloatMatrix {
 public:
  explicit FloatMatrix(const Matrix& m);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  const std::vector<float>& data() const { return data_; }

 private:
  size_t rows_;
  size_t cols_;
  std::vector<float> data_;
};

/// CSR float copy of a built f64 CSR kernel: structure copied verbatim,
/// values rounded to float. Mirrors the SparseMatrix accessors the kernel
/// templates read.
class FloatSparseMatrix {
 public:
  explicit FloatSparseMatrix(const SparseMatrix& m);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t nnz() const { return values_.size(); }
  size_t MemoryBytes() const {
    return values_.size() * (sizeof(float) + sizeof(size_t)) +
           row_ptr_.size() * sizeof(size_t);
  }
  const std::vector<size_t>& row_ptr() const { return row_ptr_; }
  const std::vector<size_t>& col_index() const { return col_index_; }
  const std::vector<float>& values() const { return values_; }

 private:
  size_t rows_;
  size_t cols_;
  std::vector<size_t> row_ptr_;
  std::vector<size_t> col_index_;
  std::vector<float> values_;
};

/// The containers a kernel with storage scalar T keeps its values in: the
/// f64 kernels keep the library's Matrix / SparseMatrix (their accessors
/// hand those out), the f32 kernels the narrowed copies above.
template <typename T>
struct KernelStorageTypes;
template <>
struct KernelStorageTypes<double> {
  using Dense = Matrix;
  using Csr = SparseMatrix;
};
template <>
struct KernelStorageTypes<float> {
  using Dense = FloatMatrix;
  using Csr = FloatSparseMatrix;
};

/// CSC mirror of a CSR matrix: column c's entries live at
/// [col_ptr[c], col_ptr[c+1]), sorted by ascending row. Shared by the
/// linear (SparseTransportKernel) and log-domain (SparseLogTransportKernel)
/// sparse kernels: with the mirror, every transpose-side primitive is a
/// gather over disjoint outputs that accumulates each column's entries in
/// ascending-row order regardless of threading — deterministic, never a
/// racy scatter.
template <typename T>
struct BasicCscMirror {
  BasicCscMirror() = default;
  explicit BasicCscMirror(const typename KernelStorageTypes<T>::Csr& csr);

  std::vector<size_t> col_ptr;
  std::vector<size_t> row_index;
  std::vector<T> values;
  /// Longest stored CSR row — sizes the per-block scratch of primitives
  /// that gather one row's worth of streamed data.
  size_t max_row_nnz = 0;

  /// Approximate heap footprint in bytes.
  size_t MemoryBytes() const {
    return col_ptr.size() * sizeof(size_t) +
           row_index.size() * sizeof(size_t) + values.size() * sizeof(T);
  }
};
using CscMirror = BasicCscMirror<double>;

/// An immutable built CSR kernel bundled with its CSC mirror — everything
/// a sparse kernel object needs beyond threading config. Held through
/// shared_ptr so many kernel objects (and core::SolveCache) can view one
/// storage: a repeated (cost, ε, truncation) never re-streams costs or
/// rebuilds the mirror. The linear and log-domain sparse kernels use the
/// same struct (the matrix holds K or L respectively).
template <typename T>
struct BasicSparseKernelStorage {
  using Csr = typename KernelStorageTypes<T>::Csr;

  explicit BasicSparseKernelStorage(Csr m)
      : matrix(std::move(m)), csc(matrix) {}

  Csr matrix;
  BasicCscMirror<T> csc;

  /// Approximate heap footprint (CSR + mirror).
  size_t MemoryBytes() const {
    return matrix.MemoryBytes() + csc.MemoryBytes();
  }
};
using SparseKernelStorage = BasicSparseKernelStorage<double>;

/// Dense row-major kernel storage.
///
/// The kernel matrix is held through a shared_ptr, so several kernel
/// objects (possibly with different thread counts / pools) can view one
/// immutable built storage — the mechanism core::SolveCache uses to share
/// a repeated (cost, ε) kernel across jobs without rebuilding it.
template <typename T>
class BasicDenseTransportKernel final : public TransportKernel {
 public:
  using Storage = typename KernelStorageTypes<T>::Dense;

  /// Wraps an already-built kernel matrix (e.g. cost.GibbsKernel(eps)).
  explicit BasicDenseTransportKernel(Storage kernel, size_t num_threads = 0,
                                     ThreadPool* pool = nullptr);

  /// Shares an immutable storage built elsewhere (no copy, no rebuild).
  explicit BasicDenseTransportKernel(std::shared_ptr<const Storage> kernel,
                                     size_t num_threads = 0,
                                     ThreadPool* pool = nullptr);

  /// Builds K = e^{−C/ε} from a cost matrix.
  static BasicDenseTransportKernel FromCost(const Matrix& cost,
                                            double epsilon,
                                            size_t num_threads = 0,
                                            ThreadPool* pool = nullptr);

  size_t rows() const override { return kernel_->rows(); }
  size_t cols() const override { return kernel_->cols(); }
  size_t nnz() const override { return kernel_->size(); }
  size_t num_threads() const override { return threads_; }

  void Apply(const Vector& v, Vector& y) const override;
  void ApplyTranspose(const Vector& u, Vector& y) const override;
  Matrix ScaleToPlan(const Vector& u, const Vector& v) const override;
  using TransportKernel::TransportCost;
  double TransportCost(const CostProvider& cost, const Vector& u,
                       const Vector& v) const override;

  const Storage& kernel() const { return *kernel_; }
  /// The underlying storage handle, for sharing (core::SolveCache).
  const std::shared_ptr<const Storage>& shared_storage() const {
    return kernel_;
  }

 private:
  std::shared_ptr<const Storage> kernel_;
  size_t threads_;
  ThreadPool* pool_;
};

/// CSR-sparse kernel storage for truncated Gibbs kernels (Section 6.5).
/// Construction also builds the transposed (CSC) index so that
/// ApplyTranspose is a gather over disjoint outputs — deterministic under
/// any thread count — instead of a racy scatter.
template <typename T>
class BasicSparseTransportKernel final : public TransportKernel {
 public:
  using Storage = BasicSparseKernelStorage<T>;
  using Csr = typename Storage::Csr;

  explicit BasicSparseTransportKernel(Csr kernel, size_t num_threads = 0,
                                      ThreadPool* pool = nullptr);

  /// Shares an immutable storage built elsewhere (no copy, no rebuild —
  /// the CSC mirror comes along for free).
  explicit BasicSparseTransportKernel(std::shared_ptr<const Storage> storage,
                                      size_t num_threads = 0,
                                      ThreadPool* pool = nullptr);

  /// Builds the truncated kernel: entries of e^{−C/ε} below `cutoff` are
  /// dropped. Cutoff 0 keeps every entry and matches the dense kernel
  /// exactly.
  static BasicSparseTransportKernel FromCost(const Matrix& cost,
                                             double epsilon, double cutoff,
                                             size_t num_threads = 0,
                                             ThreadPool* pool = nullptr);

  /// Same, with the cost *streamed* from a provider tile-by-tile — the
  /// dense rows×cols cost matrix is never materialized, so a truncated
  /// solve's memory is O(nnz) end to end.
  static BasicSparseTransportKernel FromCost(const CostProvider& cost,
                                             double epsilon, double cutoff,
                                             size_t num_threads = 0,
                                             ThreadPool* pool = nullptr);

  size_t rows() const override { return kern().rows(); }
  size_t cols() const override { return kern().cols(); }
  size_t nnz() const override { return kern().nnz(); }
  size_t num_threads() const override { return threads_; }

  void Apply(const Vector& v, Vector& y) const override;
  void ApplyTranspose(const Vector& u, Vector& y) const override;
  Matrix ScaleToPlan(const Vector& u, const Vector& v) const override;
  using TransportKernel::TransportCost;
  double TransportCost(const CostProvider& cost, const Vector& u,
                       const Vector& v) const override;

  /// The scaled plan in CSR form, inheriting the kernel's sparsity pattern.
  SparseMatrix ScaleToPlanSparse(const Vector& u, const Vector& v) const;

  /// Streams the provider once and returns C at every stored entry,
  /// aligned with kernel().values() — O(nnz) memory. Callers that evaluate
  /// the transport cost repeatedly against one cost (FastOTClean's outer
  /// loop) gather once and pass the cache to SupportTransportCost instead
  /// of re-evaluating the cost function every iteration.
  std::vector<double> GatherSupportCosts(const CostProvider& cost) const;

  /// TransportCost from a GatherSupportCosts cache; bit-identical to the
  /// streaming CostProvider overload.
  double SupportTransportCost(const std::vector<double>& support_costs,
                              const Vector& u, const Vector& v) const;

  const Csr& kernel() const { return kern(); }
  /// The underlying storage handle, for sharing (core::SolveCache).
  const std::shared_ptr<const Storage>& shared_storage() const {
    return storage_;
  }

 private:
  const Csr& kern() const { return storage_->matrix; }
  const BasicCscMirror<T>& csc() const { return storage_->csc; }

  std::shared_ptr<const Storage> storage_;
  size_t threads_;
  ThreadPool* pool_;
};

extern template class BasicDenseTransportKernel<double>;
extern template class BasicDenseTransportKernel<float>;
extern template class BasicSparseTransportKernel<double>;
extern template class BasicSparseTransportKernel<float>;

using DenseTransportKernel = BasicDenseTransportKernel<double>;
using SparseTransportKernel = BasicSparseTransportKernel<double>;
using DenseTransportKernelF32 = BasicDenseTransportKernel<float>;
using SparseTransportKernelF32 = BasicSparseTransportKernel<float>;

/// Calls `fn(T{})` with the kernel storage scalar `precision` selects —
/// float for Precision::kFloat32, double otherwise. The library's one
/// precision → kernel-type decision: every solve path that builds a kernel
/// instantiates its kernel templates inside `fn` instead of branching on
/// the precision itself, so the scalar is fixed once, at construction.
template <typename Fn>
decltype(auto) WithKernelScalar(Precision precision, Fn&& fn) {
  if (precision == Precision::kFloat32) return fn(float{});
  return fn(double{});
}

}  // namespace otclean::linalg

#endif  // OTCLEAN_LINALG_TRANSPORT_KERNEL_H_

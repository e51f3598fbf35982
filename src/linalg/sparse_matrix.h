#ifndef OTCLEAN_LINALG_SPARSE_MATRIX_H_
#define OTCLEAN_LINALG_SPARSE_MATRIX_H_

#include <cstddef>
#include <vector>

#include "linalg/cost_provider.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace otclean::linalg {

/// Compressed-sparse-row matrix holding only nonzero entries. Backing
/// store for the sparse transport-plan representation the paper suggests
/// for reducing Sinkhorn memory (Section 6.5).
class SparseMatrix {
 public:
  SparseMatrix() : rows_(0), cols_(0) {}
  SparseMatrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), row_ptr_(rows + 1, 0) {}

  /// Builds from a dense matrix, dropping entries with |v| <= threshold.
  static SparseMatrix FromDense(const Matrix& dense, double threshold = 0.0);

  /// Assembles from already-built CSR parts (no validation beyond sizes
  /// being consistent — callers hand over structure they own). Lets the
  /// sparse kernels materialize plans on their own CSR structure (f64 or
  /// f32 values) without a dense round-trip.
  static SparseMatrix FromParts(size_t rows, size_t cols,
                                std::vector<size_t> row_ptr,
                                std::vector<size_t> col_index,
                                std::vector<double> values) {
    SparseMatrix m(rows, cols);
    m.row_ptr_ = std::move(row_ptr);
    m.col_index_ = std::move(col_index);
    m.values_ = std::move(values);
    return m;
  }

  /// Builds the truncated Gibbs kernel K = e^{−C/ε} directly from a dense
  /// cost matrix, keeping only entries ≥ cutoff — no dense intermediate.
  static SparseMatrix GibbsKernel(const Matrix& cost, double epsilon,
                                  double cutoff);

  /// Same, with the cost *streamed* tile-by-tile from a provider: peak
  /// transient memory is O(nnz) output + one L1-sized tile, never
  /// rows×cols. The Matrix overload above delegates here, so both produce
  /// bit-identical kernels.
  static SparseMatrix GibbsKernel(const CostProvider& cost, double epsilon,
                                  double cutoff);

  /// The truncated *log-domain* Gibbs kernel: stores L = −C/ε at exactly
  /// the entries GibbsKernel would keep (e^{−C/ε} ≥ cutoff ⟺
  /// −C/ε ≥ log(cutoff)), streamed tile-by-tile like GibbsKernel — the
  /// backing store of linalg::SparseLogTransportKernel. Cutoff 0 keeps
  /// every entry. The kept-set equivalence means the linear and log
  /// sparse kernels always share one sparsity pattern, so
  /// CheckTruncatedKernelSupport applies to both unchanged.
  static SparseMatrix LogGibbsKernel(const CostProvider& cost, double epsilon,
                                     double cutoff);
  static SparseMatrix LogGibbsKernel(const Matrix& cost, double epsilon,
                                     double cutoff);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t nnz() const { return values_.size(); }

  /// Approximate heap footprint in bytes.
  size_t MemoryBytes() const {
    return values_.size() * (sizeof(double) + sizeof(size_t)) +
           row_ptr_.size() * sizeof(size_t);
  }

  /// y = A·x.
  Vector MatVec(const Vector& x) const;
  /// y = Aᵀ·x.
  Vector TransposeMatVec(const Vector& x) const;
  /// Row sums.
  Vector RowSums() const;
  /// Column sums.
  Vector ColSums() const;

  /// diag(u)·A·diag(v) with the same sparsity pattern.
  SparseMatrix ScaleRowsCols(const Vector& u, const Vector& v) const;

  /// Σ_ij A_ij · B_ij for a dense B of the same shape.
  double FrobeniusDotDense(const Matrix& dense) const;

  /// Densifies (for interoperability with TransportPlan).
  Matrix ToDense() const;

  /// Row access for iteration: [row_ptr[i], row_ptr[i+1]) index into
  /// col_index()/values().
  const std::vector<size_t>& row_ptr() const { return row_ptr_; }
  const std::vector<size_t>& col_index() const { return col_index_; }
  const std::vector<double>& values() const { return values_; }
  std::vector<double>& values() { return values_; }

 private:
  size_t rows_;
  size_t cols_;
  std::vector<size_t> row_ptr_;
  std::vector<size_t> col_index_;
  std::vector<double> values_;
};

}  // namespace otclean::linalg

#endif  // OTCLEAN_LINALG_SPARSE_MATRIX_H_

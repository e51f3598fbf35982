#ifndef OTCLEAN_DATASET_TABLE_H_
#define OTCLEAN_DATASET_TABLE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "dataset/schema.h"
#include "prob/joint.h"

namespace otclean::dataset {

/// Sentinel code for a missing value.
inline constexpr int kMissing = -1;

/// A columnar table of integer-coded categorical values. This is the
/// database `D` of the paper: a bag of tuples over a finite product domain.
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return schema_.num_columns(); }

  /// Code at (row, col); kMissing if the cell is missing.
  int Value(size_t row, size_t col) const { return columns_[col][row]; }
  void SetValue(size_t row, size_t col, int code) { columns_[col][row] = code; }
  bool IsMissing(size_t row, size_t col) const {
    return columns_[col][row] == kMissing;
  }

  /// Whole column by index.
  const std::vector<int>& ColumnData(size_t col) const { return columns_[col]; }

  /// Adopts column-major codes — columns[c][r] is row r of column c — the
  /// bulk form of AppendRow: one vector per schema column, all the same
  /// length, each code kMissing or in range for its column.
  static Result<Table> FromColumns(Schema schema,
                                   std::vector<std::vector<int>> columns);

  /// Appends a row of codes; must have num_columns() entries, each either
  /// kMissing or in range for its column.
  Status AppendRow(const std::vector<int>& codes);

  /// Row as a code vector.
  std::vector<int> Row(size_t row) const;

  /// Replaces an entire row.
  void SetRow(size_t row, const std::vector<int>& codes);

  /// Decoded label at (row, col); "?" for missing. A reference into the
  /// schema (or to a static "?"), so reading it copies nothing.
  const std::string& Label(size_t row, size_t col) const;

  /// True if any cell is missing.
  bool HasMissing() const;
  /// Number of missing cells.
  size_t CountMissing() const;

  /// Selects a subset of rows (by index) into a new table.
  Table SelectRows(const std::vector<size_t>& rows) const;

  /// Projects onto a subset of columns into a new table.
  Table SelectColumns(const std::vector<size_t>& cols) const;

  /// Empirical joint distribution over the given columns. Rows with a
  /// missing value in any selected column are skipped.
  prob::JointDistribution Empirical(const std::vector<size_t>& cols) const;

  /// Empirical joint over all columns.
  prob::JointDistribution Empirical() const;

  /// Encoded cell index of a row restricted to `cols` within
  /// schema().ToDomain(cols); returns false if any value is missing.
  bool EncodeRow(size_t row, const std::vector<size_t>& cols,
                 const prob::Domain& dom, size_t* out) const;

  /// Cell-exact equality of shape and codes (schema labels not compared) —
  /// the bit-identity check the determinism tests and benches share.
  bool SameContents(const Table& other) const {
    return num_rows_ == other.num_rows_ && columns_ == other.columns_;
  }

 private:
  Schema schema_;
  size_t num_rows_ = 0;
  /// columns_[c][r] = code of row r in column c.
  std::vector<std::vector<int>> columns_;
};

}  // namespace otclean::dataset

#endif  // OTCLEAN_DATASET_TABLE_H_

#include "dataset/table.h"

#include <cassert>

namespace otclean::dataset {

Table::Table(Schema schema)
    : schema_(std::move(schema)), columns_(schema_.num_columns()) {}

Result<Table> Table::FromColumns(Schema schema,
                                 std::vector<std::vector<int>> columns) {
  if (columns.size() != schema.num_columns()) {
    return Status::InvalidArgument("Table::FromColumns: wrong arity");
  }
  const size_t rows = columns.empty() ? 0 : columns[0].size();
  for (size_t c = 0; c < columns.size(); ++c) {
    if (columns[c].size() != rows) {
      return Status::InvalidArgument(
          "Table::FromColumns: columns differ in length");
    }
    const int cardinality = static_cast<int>(schema.column(c).cardinality());
    for (int code : columns[c]) {
      if (code != kMissing && (code < 0 || code >= cardinality)) {
        return Status::OutOfRange("Table::FromColumns: code out of range for '" +
                                  schema.column(c).name + "'");
      }
    }
  }
  Table table(std::move(schema));
  table.columns_ = std::move(columns);
  table.num_rows_ = rows;
  return table;
}

Status Table::AppendRow(const std::vector<int>& codes) {
  if (codes.size() != schema_.num_columns()) {
    return Status::InvalidArgument("Table::AppendRow: wrong arity");
  }
  for (size_t c = 0; c < codes.size(); ++c) {
    if (codes[c] != kMissing &&
        (codes[c] < 0 ||
         static_cast<size_t>(codes[c]) >= schema_.column(c).cardinality())) {
      return Status::OutOfRange("Table::AppendRow: code out of range for '" +
                                schema_.column(c).name + "'");
    }
  }
  for (size_t c = 0; c < codes.size(); ++c) columns_[c].push_back(codes[c]);
  ++num_rows_;
  return Status::OK();
}

std::vector<int> Table::Row(size_t row) const {
  std::vector<int> out(num_columns());
  for (size_t c = 0; c < out.size(); ++c) out[c] = columns_[c][row];
  return out;
}

void Table::SetRow(size_t row, const std::vector<int>& codes) {
  assert(codes.size() == num_columns());
  for (size_t c = 0; c < codes.size(); ++c) columns_[c][row] = codes[c];
}

const std::string& Table::Label(size_t row, size_t col) const {
  static const std::string kMissingLabel = "?";
  const int code = columns_[col][row];
  if (code == kMissing) return kMissingLabel;
  return schema_.column(col).categories[static_cast<size_t>(code)];
}

bool Table::HasMissing() const {
  for (const auto& col : columns_) {
    for (int v : col) {
      if (v == kMissing) return true;
    }
  }
  return false;
}

size_t Table::CountMissing() const {
  size_t n = 0;
  for (const auto& col : columns_) {
    for (int v : col) {
      if (v == kMissing) ++n;
    }
  }
  return n;
}

Table Table::SelectRows(const std::vector<size_t>& rows) const {
  Table out(schema_);
  out.num_rows_ = rows.size();
  for (size_t c = 0; c < columns_.size(); ++c) {
    out.columns_[c].reserve(rows.size());
    for (size_t r : rows) {
      assert(r < num_rows_);
      out.columns_[c].push_back(columns_[c][r]);
    }
  }
  return out;
}

Table Table::SelectColumns(const std::vector<size_t>& cols) const {
  std::vector<Column> sub_cols;
  sub_cols.reserve(cols.size());
  for (size_t c : cols) sub_cols.push_back(schema_.column(c));
  Table out{Schema(std::move(sub_cols))};
  out.num_rows_ = num_rows_;
  for (size_t i = 0; i < cols.size(); ++i) out.columns_[i] = columns_[cols[i]];
  return out;
}

bool Table::EncodeRow(size_t row, const std::vector<size_t>& cols,
                      const prob::Domain& dom, size_t* out) const {
  size_t index = 0;
  for (size_t i = 0; i < cols.size(); ++i) {
    const int v = columns_[cols[i]][row];
    if (v == kMissing) return false;
    index = index * dom.Cardinality(i) + static_cast<size_t>(v);
  }
  *out = index;
  return true;
}

prob::JointDistribution Table::Empirical(
    const std::vector<size_t>& cols) const {
  const prob::Domain dom = schema_.ToDomain(cols);
  std::vector<double> counts(dom.TotalSize(), 0.0);
  for (size_t r = 0; r < num_rows_; ++r) {
    size_t cell = 0;
    if (EncodeRow(r, cols, dom, &cell)) counts[cell] += 1.0;
  }
  return prob::JointDistribution::FromCounts(dom, counts);
}

prob::JointDistribution Table::Empirical() const {
  std::vector<size_t> cols(num_columns());
  for (size_t i = 0; i < cols.size(); ++i) cols[i] = i;
  return Empirical(cols);
}

}  // namespace otclean::dataset

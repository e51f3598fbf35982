#include "dataset/csv.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string_view>
#include <unordered_map>

#include "common/string_util.h"

namespace otclean::dataset {

namespace {
bool IsMissingToken(std::string_view token, const CsvOptions& options) {
  return std::find(options.missing_tokens.begin(),
                   options.missing_tokens.end(),
                   token) != options.missing_tokens.end();
}

/// Splits one line on `delim` into whitespace-stripped views.
void SplitFields(std::string_view line, char delim,
                 std::vector<std::string_view>& fields) {
  fields.clear();
  size_t start = 0;
  for (size_t i = 0; i <= line.size(); ++i) {
    if (i == line.size() || line[i] == delim) {
      fields.push_back(StripWhitespace(line.substr(start, i - start)));
      start = i + 1;
    }
  }
}
}  // namespace

// One pass over the bytes: each non-blank '\n'-line (one trailing '\r'
// dropped) is split into stripped string_view fields, and each field is
// coded against its column's dictionary as it is seen, so categories are
// numbered in first-appearance order without a vector of every field. The
// coded columns (reserved for one row per line) become the table once the
// schema — all categories — is known.
Result<Table> ParseCsv(const std::string& content, const CsvOptions& options) {
  const std::string_view text(content);
  const size_t max_rows =
      static_cast<size_t>(std::count(text.begin(), text.end(), '\n')) + 1;
  std::vector<std::string_view> fields;
  std::vector<Column> columns;
  std::vector<std::unordered_map<std::string_view, int>> dicts;
  std::vector<std::vector<int>> codes;  // codes[c][r]
  size_t num_rows = 0;
  bool seen_line = false;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    SplitFields(line, options.delimiter, fields);
    if (!seen_line) {
      // The first line fixes the width: a header names the columns, else
      // they are c0, c1, … and the line is the first row.
      seen_line = true;
      columns.resize(fields.size());
      dicts.resize(fields.size());
      codes.resize(fields.size());
      for (size_t c = 0; c < fields.size(); ++c) {
        columns[c].name = options.has_header ? std::string(fields[c])
                                             : "c" + std::to_string(c);
        codes[c].reserve(max_rows);
      }
      if (options.has_header) continue;
    }
    if (fields.size() != columns.size()) {
      return Status::InvalidArgument("ParseCsv: row " +
                                     std::to_string(num_rows) + " has " +
                                     std::to_string(fields.size()) +
                                     " fields, expected " +
                                     std::to_string(columns.size()));
    }
    for (size_t c = 0; c < fields.size(); ++c) {
      const std::string_view tok = fields[c];
      if (IsMissingToken(tok, options)) {
        codes[c].push_back(kMissing);
        continue;
      }
      const auto [it, inserted] = dicts[c].emplace(
          tok, static_cast<int>(columns[c].categories.size()));
      if (inserted) columns[c].categories.emplace_back(tok);
      codes[c].push_back(it->second);
    }
    ++num_rows;
  }
  if (!seen_line) return Status::InvalidArgument("ParseCsv: empty input");
  // Columns that are entirely missing still need one category to keep the
  // domain well-formed.
  for (auto& col : columns) {
    if (col.categories.empty()) col.categories.push_back("<none>");
  }
  return Table::FromColumns(Schema(std::move(columns)), std::move(codes));
}

Result<Table> ReadCsv(const std::string& path, const CsvOptions& options) {
  std::ifstream in(path);
  if (!in) return Status::IoError("ReadCsv: cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseCsv(buf.str(), options);
}

std::string ToCsvString(const Table& table, const CsvOptions& options) {
  const auto& schema = table.schema();
  std::string out;
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    if (c > 0) out += options.delimiter;
    out += schema.column(c).name;
  }
  out += '\n';
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      if (c > 0) out += options.delimiter;
      out += table.Label(r, c);
    }
    out += '\n';
  }
  return out;
}

Status WriteCsv(const Table& table, const std::string& path,
                const CsvOptions& options) {
  std::ofstream out(path);
  if (!out) return Status::IoError("WriteCsv: cannot open '" + path + "'");
  out << ToCsvString(table, options);
  if (!out) return Status::IoError("WriteCsv: write failed for '" + path + "'");
  return Status::OK();
}

}  // namespace otclean::dataset

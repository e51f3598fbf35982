#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/string_util.h"
#include "dataset/csv.h"
#include "dataset/discretize.h"
#include "dataset/schema.h"
#include "dataset/table.h"

namespace otclean::dataset {
namespace {

Schema TwoColSchema() {
  Column a{"color", {"red", "green", "blue"}};
  Column b{"size", {"s", "m"}};
  return Schema({a, b});
}

// ---------------------------------------------------------------- Schema --

TEST(SchemaTest, ColumnLookup) {
  const Schema s = TwoColSchema();
  EXPECT_EQ(s.num_columns(), 2u);
  EXPECT_EQ(s.ColumnIndex("size").value(), 1u);
  EXPECT_FALSE(s.ColumnIndex("weight").ok());
}

TEST(SchemaTest, CategoryCode) {
  const Schema s = TwoColSchema();
  EXPECT_EQ(s.CategoryCode(0, "green").value(), 1);
  EXPECT_FALSE(s.CategoryCode(0, "purple").ok());
  EXPECT_FALSE(s.CategoryCode(5, "red").ok());
}

TEST(SchemaTest, AddColumnRejectsDuplicates) {
  Schema s = TwoColSchema();
  EXPECT_TRUE(s.AddColumn({"weight", {"light", "heavy"}}).ok());
  EXPECT_EQ(s.AddColumn({"color", {"x"}}).code(), StatusCode::kAlreadyExists);
}

TEST(SchemaTest, ToDomainMatchesCardinalities) {
  const Schema s = TwoColSchema();
  const prob::Domain d = s.ToDomain();
  EXPECT_EQ(d.TotalSize(), 6u);
  EXPECT_EQ(d.Name(0), "color");
  const prob::Domain dsub = s.ToDomain({1});
  EXPECT_EQ(dsub.TotalSize(), 2u);
}

// ----------------------------------------------------------------- Table --

TEST(TableTest, AppendAndRead) {
  Table t(TwoColSchema());
  ASSERT_TRUE(t.AppendRow({0, 1}).ok());
  ASSERT_TRUE(t.AppendRow({2, 0}).ok());
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.Value(1, 0), 2);
  EXPECT_EQ(t.Label(1, 0), "blue");
  EXPECT_EQ(t.Row(0), (std::vector<int>{0, 1}));
}

TEST(TableTest, AppendValidatesArityAndRange) {
  Table t(TwoColSchema());
  EXPECT_FALSE(t.AppendRow({0}).ok());
  EXPECT_FALSE(t.AppendRow({3, 0}).ok());
  EXPECT_FALSE(t.AppendRow({0, -2}).ok());
  EXPECT_TRUE(t.AppendRow({kMissing, 1}).ok());
}

TEST(TableTest, MissingHandling) {
  Table t(TwoColSchema());
  ASSERT_TRUE(t.AppendRow({kMissing, 1}).ok());
  ASSERT_TRUE(t.AppendRow({0, 0}).ok());
  EXPECT_TRUE(t.HasMissing());
  EXPECT_EQ(t.CountMissing(), 1u);
  EXPECT_TRUE(t.IsMissing(0, 0));
  EXPECT_EQ(t.Label(0, 0), "?");
}

TEST(TableTest, SetValueAndSetRow) {
  Table t(TwoColSchema());
  ASSERT_TRUE(t.AppendRow({0, 0}).ok());
  t.SetValue(0, 1, 1);
  EXPECT_EQ(t.Value(0, 1), 1);
  t.SetRow(0, {2, 0});
  EXPECT_EQ(t.Row(0), (std::vector<int>{2, 0}));
}

TEST(TableTest, SelectRowsAndColumns) {
  Table t(TwoColSchema());
  ASSERT_TRUE(t.AppendRow({0, 0}).ok());
  ASSERT_TRUE(t.AppendRow({1, 1}).ok());
  ASSERT_TRUE(t.AppendRow({2, 0}).ok());
  const Table sub = t.SelectRows({2, 0});
  EXPECT_EQ(sub.num_rows(), 2u);
  EXPECT_EQ(sub.Value(0, 0), 2);
  const Table cols = t.SelectColumns({1});
  EXPECT_EQ(cols.num_columns(), 1u);
  EXPECT_EQ(cols.schema().column(0).name, "size");
  EXPECT_EQ(cols.Value(1, 0), 1);
}

TEST(TableTest, EmpiricalDistribution) {
  Table t(TwoColSchema());
  ASSERT_TRUE(t.AppendRow({0, 0}).ok());
  ASSERT_TRUE(t.AppendRow({0, 0}).ok());
  ASSERT_TRUE(t.AppendRow({1, 1}).ok());
  ASSERT_TRUE(t.AppendRow({kMissing, 1}).ok());  // skipped
  const auto p = t.Empirical({0, 1});
  EXPECT_NEAR(p.Mass(), 1.0, 1e-12);
  EXPECT_NEAR(p[p.domain().Encode({0, 0})], 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(p[p.domain().Encode({1, 1})], 1.0 / 3.0, 1e-12);
}

TEST(TableTest, EncodeRowRespectsColumnOrder) {
  Table t(TwoColSchema());
  ASSERT_TRUE(t.AppendRow({2, 1}).ok());
  const prob::Domain d = t.schema().ToDomain({1, 0});
  size_t cell = 0;
  ASSERT_TRUE(t.EncodeRow(0, {1, 0}, d, &cell));
  EXPECT_EQ(d.Decode(cell), (std::vector<int>{1, 2}));
}

// ------------------------------------------------------------------- CSV --

TEST(CsvTest, ParseBasic) {
  const std::string csv = "a,b\nx,1\ny,2\nx,2\n";
  const auto t = ParseCsv(csv).value();
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.num_columns(), 2u);
  EXPECT_EQ(t.schema().column(0).name, "a");
  EXPECT_EQ(t.Label(0, 0), "x");
  EXPECT_EQ(t.Value(2, 0), 0);  // "x" was first-seen -> code 0
}

TEST(CsvTest, ParseMissingTokens) {
  const std::string csv = "a,b\nx,?\n,1\n";
  const auto t = ParseCsv(csv).value();
  EXPECT_TRUE(t.IsMissing(0, 1));
  EXPECT_TRUE(t.IsMissing(1, 0));
}

TEST(CsvTest, ParseRejectsRaggedRows) {
  EXPECT_FALSE(ParseCsv("a,b\n1\n").ok());
}

TEST(CsvTest, ParseRejectsEmpty) { EXPECT_FALSE(ParseCsv("").ok()); }

TEST(CsvTest, ParseNoHeader) {
  CsvOptions opts;
  opts.has_header = false;
  const auto t = ParseCsv("p,q\nr,s\n", opts).value();
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.schema().column(0).name, "c0");
}

TEST(CsvTest, ParseHandlesCrlf) {
  const auto t = ParseCsv("a,b\r\nx,y\r\n").value();
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.Label(0, 1), "y");
}

TEST(CsvTest, RoundTripThroughString) {
  Table t(TwoColSchema());
  ASSERT_TRUE(t.AppendRow({0, 1}).ok());
  ASSERT_TRUE(t.AppendRow({kMissing, 0}).ok());
  const std::string s = ToCsvString(t);
  const auto back = ParseCsv(s).value();
  EXPECT_EQ(back.num_rows(), 2u);
  EXPECT_EQ(back.Label(0, 0), "red");
  EXPECT_TRUE(back.IsMissing(1, 0));
}

TEST(CsvTest, FileRoundTrip) {
  Table t(TwoColSchema());
  ASSERT_TRUE(t.AppendRow({1, 1}).ok());
  const std::string path = "/tmp/otclean_csv_test.csv";
  ASSERT_TRUE(WriteCsv(t, path).ok());
  const auto back = ReadCsv(path).value();
  EXPECT_EQ(back.num_rows(), 1u);
  EXPECT_EQ(back.Label(0, 0), "green");
  std::remove(path.c_str());
}

TEST(CsvTest, ReadMissingFileFails) {
  EXPECT_EQ(ReadCsv("/nonexistent/nope.csv").status().code(),
            StatusCode::kIoError);
}

// The seed's two-pass parser (getline lines, a vector<vector<string>> of
// every field, then dictionary and coding passes), kept verbatim as the
// oracle the one-pass ParseCsv must match on every input.
Result<Table> OracleParseCsv(const std::string& content,
                             const CsvOptions& options) {
  const auto is_missing = [&](const std::string& token) {
    return std::find(options.missing_tokens.begin(),
                     options.missing_tokens.end(),
                     token) != options.missing_tokens.end();
  };
  std::istringstream in(content);
  std::string line;
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
  bool first = true;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    auto fields = SplitString(line, options.delimiter);
    for (auto& f : fields) f = std::string(StripWhitespace(f));
    if (first && options.has_header) {
      header = std::move(fields);
      first = false;
      continue;
    }
    first = false;
    rows.push_back(std::move(fields));
  }
  if (rows.empty() && header.empty()) {
    return Status::InvalidArgument("ParseCsv: empty input");
  }
  const size_t ncols = header.empty() ? rows[0].size() : header.size();
  if (header.empty()) {
    for (size_t i = 0; i < ncols; ++i) header.push_back("c" + std::to_string(i));
  }
  for (size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].size() != ncols) {
      return Status::InvalidArgument("ParseCsv: row " + std::to_string(r) +
                                     " has " + std::to_string(rows[r].size()) +
                                     " fields, expected " +
                                     std::to_string(ncols));
    }
  }
  std::vector<Column> columns(ncols);
  std::vector<std::unordered_map<std::string, int>> dicts(ncols);
  for (size_t c = 0; c < ncols; ++c) columns[c].name = header[c];
  for (const auto& row : rows) {
    for (size_t c = 0; c < ncols; ++c) {
      const std::string& tok = row[c];
      if (is_missing(tok)) continue;
      if (dicts[c].emplace(tok, static_cast<int>(columns[c].categories.size()))
              .second) {
        columns[c].categories.push_back(tok);
      }
    }
  }
  for (auto& col : columns) {
    if (col.categories.empty()) col.categories.push_back("<none>");
  }
  Table table{Schema(std::move(columns))};
  for (const auto& row : rows) {
    std::vector<int> codes(ncols);
    for (size_t c = 0; c < ncols; ++c) {
      const std::string& tok = row[c];
      codes[c] = is_missing(tok) ? kMissing : dicts[c].at(tok);
    }
    OTCLEAN_RETURN_NOT_OK(table.AppendRow(codes));
  }
  return table;
}

/// Both parsers fail with the same status, or succeed with the same
/// schema (names and categories in order), codes and serialization.
void ExpectSameAsOracle(const std::string& content,
                        const CsvOptions& options = {}) {
  SCOPED_TRACE(::testing::Message() << "input: \"" << content << "\"");
  const Result<Table> got = ParseCsv(content, options);
  const Result<Table> want = OracleParseCsv(content, options);
  ASSERT_EQ(got.ok(), want.ok()) << got.status().ToString() << " vs "
                                 << want.status().ToString();
  if (!want.ok()) {
    EXPECT_EQ(got.status().ToString(), want.status().ToString());
    return;
  }
  ASSERT_EQ(got->num_columns(), want->num_columns());
  for (size_t c = 0; c < want->num_columns(); ++c) {
    EXPECT_EQ(got->schema().column(c).name, want->schema().column(c).name);
    EXPECT_EQ(got->schema().column(c).categories,
              want->schema().column(c).categories);
  }
  EXPECT_TRUE(got->SameContents(*want));
  EXPECT_EQ(ToCsvString(*got, options), ToCsvString(*want, options));
}

TEST(CsvTest, OnePassParserMatchesTwoPassOracle) {
  for (const std::string& csv : std::vector<std::string>{
           "a,b\nx,1\ny,2\nx,2\n",
           "a,b\r\nx,y\r\nz,y\r\n",         // CRLF
           "a,b\r\nx,y\r\n\r\nz,w",          // CRLF, blank CRLF line
           "a,b\n\n\nx,y\n\n",                // blank lines
           "a,b\n   \nx,y\n",                  // whitespace-only line
           "a,b\n \t \n",                       // ... as the only row
           "\n\na,b\nx,y\n",                    // leading blank lines
           "a,b\nx,?\n,1\nNA, nan \nNULL,2\n",  // missing tokens
           "a,b\n?,1\n,2\n",                   // an all-missing column
           " a , b \n x , y \n\tx\t,y\n",      // stripped fields
           "a,b\n",                             // header only
           "a,b",                                // header, no newline
           "a,b\nx,y",                           // missing final newline
           "a,b\nx,y\r",                         // ... ending in '\r'
           "a,b\r\r\nx,y\n",                    // '\r\r' header end
           "a,b\nx,y\nz\n",                     // too few fields
           "a,b\nx,y,z\nu\n",                   // too many, then too few
           "a\n\r\n",                           // lone '\r' line
           "",                                   // empty
           "\n\r\n\n",                          // blank lines only
           "a,a\nx,x\ny,x\nx,y\n",             // per-column dictionaries
           "a,b,\n1,2,\n3,,\n",                 // trailing delimiters
       }) {
    ExpectSameAsOracle(csv);
    CsvOptions no_header;
    no_header.has_header = false;
    ExpectSameAsOracle(csv, no_header);
    CsvOptions semicolon;
    semicolon.delimiter = ';';
    ExpectSameAsOracle(csv, semicolon);
  }
  CsvOptions semicolon;
  semicolon.delimiter = ';';
  ExpectSameAsOracle("a;b\nx,1;y\n ; 2\nx,1;?\n", semicolon);
  ExpectSameAsOracle("a;b\nx;y;z\n", semicolon);
  CsvOptions custom_missing;
  custom_missing.missing_tokens = {"-"};
  ExpectSameAsOracle("a,b\n-,?\n,x\n", custom_missing);
}

TEST(CsvTest, ParseErrorsNameTheRowAndFieldCounts) {
  const Result<Table> r = ParseCsv("a,b\nx,y\n\nz\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("row 1 has 1 fields, expected 2"),
            std::string::npos)
      << r.status().ToString();
}

// ------------------------------------------------------------ Discretize --

TEST(DiscretizeTest, EqualWidthBins) {
  const std::vector<double> v = {0.0, 1.0, 2.0, 3.0, 4.0};
  const auto d =
      Discretizer::Fit(v, 4, BinningStrategy::kEqualWidth).value();
  EXPECT_EQ(d.num_bins(), 4u);
  EXPECT_EQ(d.Transform(0.0), 0);
  EXPECT_EQ(d.Transform(3.9), 3);
  EXPECT_EQ(d.Transform(4.0), 3);
  EXPECT_EQ(d.Transform(-100.0), 0);   // clamps
  EXPECT_EQ(d.Transform(100.0), 3);    // clamps
}

TEST(DiscretizeTest, QuantileBinsBalanceCounts) {
  std::vector<double> v;
  for (int i = 0; i < 100; ++i) v.push_back(static_cast<double>(i));
  const auto d = Discretizer::Fit(v, 4, BinningStrategy::kQuantile).value();
  std::vector<int> counts(d.num_bins(), 0);
  for (double x : v) ++counts[static_cast<size_t>(d.Transform(x))];
  for (int c : counts) EXPECT_NEAR(c, 25, 1);
}

TEST(DiscretizeTest, NanMapsToMissing) {
  const auto d =
      Discretizer::Fit({1.0, 2.0}, 2, BinningStrategy::kEqualWidth).value();
  EXPECT_EQ(d.Transform(std::nan("")), kMissing);
}

TEST(DiscretizeTest, ConstantColumnOneBin) {
  const auto d =
      Discretizer::Fit({5.0, 5.0, 5.0}, 4, BinningStrategy::kEqualWidth)
          .value();
  EXPECT_EQ(d.num_bins(), 1u);
  EXPECT_EQ(d.Transform(5.0), 0);
}

TEST(DiscretizeTest, RejectsDegenerateInputs) {
  EXPECT_FALSE(Discretizer::Fit({}, 3, BinningStrategy::kEqualWidth).ok());
  EXPECT_FALSE(Discretizer::Fit({1.0}, 0, BinningStrategy::kEqualWidth).ok());
  EXPECT_FALSE(Discretizer::Fit({std::nan("")}, 2,
                                BinningStrategy::kEqualWidth)
                   .ok());
}

TEST(DiscretizeTest, DiscretizeColumnProducesCodesAndLabels) {
  const auto dc = DiscretizeColumn("height", {1.0, 2.0, 3.0, std::nan("")}, 2,
                                   BinningStrategy::kEqualWidth)
                      .value();
  EXPECT_EQ(dc.column.name, "height");
  EXPECT_EQ(dc.column.cardinality(), 2u);
  EXPECT_EQ(dc.codes.size(), 4u);
  EXPECT_EQ(dc.codes[0], 0);
  EXPECT_EQ(dc.codes[2], 1);
  EXPECT_EQ(dc.codes[3], kMissing);
}

}  // namespace
}  // namespace otclean::dataset

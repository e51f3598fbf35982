#include <gtest/gtest.h>

#include <limits>

#include "core/repair.h"
#include "datagen/datasets.h"
#include "datagen/synthetic.h"
#include "ot/overrelaxation.h"

namespace otclean::core {
namespace {

/// Small table over binary x, y and one z attribute with a strong planted
/// violation of x ⟂ y | z.
dataset::Table MakeViolatingTable(size_t n = 600, uint64_t seed = 21) {
  datagen::ScalingDatasetOptions opts;
  opts.num_rows = n;
  opts.num_z_attrs = 1;
  opts.z_card = 2;
  opts.violation = 0.7;
  opts.seed = seed;
  return datagen::MakeScalingDataset(opts).value();
}

CiConstraint XyGivenZ() { return CiConstraint({"x"}, {"y"}, {"z0"}); }

TEST(RepairTest, TableCmiPositiveOnViolation) {
  const auto table = MakeViolatingTable();
  EXPECT_GT(TableCmi(table, XyGivenZ()).value(), 0.05);
}

TEST(RepairTest, RepairReducesCmi) {
  const auto table = MakeViolatingTable();
  RepairOptions opts;
  opts.fast.epsilon = 0.05;
  const auto report = RepairTable(table, XyGivenZ(), opts).value();
  EXPECT_GT(report.initial_cmi, 0.05);
  EXPECT_LT(report.target_cmi, 1e-6);
  // Sampling noise keeps the empirical CMI above zero but far below input.
  EXPECT_LT(report.final_cmi, report.initial_cmi * 0.5);
  EXPECT_EQ(report.repaired.num_rows(), table.num_rows());
}

TEST(RepairTest, RepairedTableHasSameSchema) {
  const auto table = MakeViolatingTable(300);
  const auto report = RepairTable(table, XyGivenZ()).value();
  EXPECT_EQ(report.repaired.num_columns(), table.num_columns());
  EXPECT_EQ(report.repaired.schema().column(0).name, "x");
}

TEST(RepairTest, FitThenApplySupportsStreaming) {
  const auto train = MakeViolatingTable(500, 31);
  const auto stream = MakeViolatingTable(200, 32);
  OtCleanRepairer repairer(XyGivenZ());
  ASSERT_TRUE(repairer.Fit(train).ok());
  EXPECT_TRUE(repairer.fitted());
  Rng rng(5);
  const auto repaired = repairer.Apply(stream, rng).value();
  EXPECT_EQ(repaired.num_rows(), stream.num_rows());
  const double cmi = TableCmi(repaired, XyGivenZ()).value();
  const double dirty_cmi = TableCmi(stream, XyGivenZ()).value();
  EXPECT_LT(cmi, dirty_cmi);
}

TEST(RepairTest, ApplyBeforeFitFails) {
  OtCleanRepairer repairer(XyGivenZ());
  Rng rng(1);
  EXPECT_EQ(repairer.Apply(MakeViolatingTable(50), rng).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(RepairTest, RepairRowPassesThroughMissing) {
  const auto table = MakeViolatingTable(300);
  OtCleanRepairer repairer(XyGivenZ());
  ASSERT_TRUE(repairer.Fit(table).ok());
  Rng rng(2);
  std::vector<int> row = table.Row(0);
  row[0] = dataset::kMissing;
  EXPECT_EQ(repairer.RepairRow(row, rng), row);
}

TEST(RepairTest, ApplyMatchesRepairRowWithMissingValues) {
  // Apply repairs column-wise but draws from the RNG exactly as a
  // RepairRow loop does, rows with a missing value included, in sampled
  // and MAP mode alike.
  auto table = MakeViolatingTable(400, 41);
  for (size_t r = 0; r < table.num_rows(); r += 7) {
    table.SetValue(r, r % 2 == 0 ? 0 : 2, dataset::kMissing);
  }
  for (size_t r = 3; r < table.num_rows(); r += 11) {
    table.SetValue(r, 1, dataset::kMissing);
  }
  for (const bool sample : {true, false}) {
    RepairOptions opts;
    opts.sample_repair = sample;
    OtCleanRepairer repairer(XyGivenZ(), opts);
    ASSERT_TRUE(repairer.Fit(table).ok());
    Rng apply_rng(9), row_rng(9);
    const auto applied = repairer.Apply(table, apply_rng).value();
    ASSERT_EQ(applied.num_rows(), table.num_rows());
    size_t changed = 0;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      const std::vector<int> expected =
          repairer.RepairRow(table.Row(r), row_rng);
      EXPECT_EQ(applied.Row(r), expected) << "row " << r;
      changed += expected != table.Row(r);
    }
    EXPECT_GT(changed, 0u);
    EXPECT_EQ(apply_rng.NextDouble(), row_rng.NextDouble());
  }
}

TEST(RepairTest, UnsaturatedSaturationKeepsOtherColumnsFixed) {
  datagen::ScalingDatasetOptions gen;
  gen.num_rows = 500;
  gen.num_z_attrs = 1;
  gen.z_card = 2;
  gen.num_w_attrs = 2;
  gen.violation = 0.7;
  gen.seed = 41;
  const auto table = datagen::MakeScalingDataset(gen).value();

  RepairOptions opts;
  opts.use_saturation = true;
  OtCleanRepairer repairer(XyGivenZ(), opts);
  ASSERT_TRUE(repairer.Fit(table).ok());
  Rng rng(3);
  const auto repaired = repairer.Apply(table, rng).value();
  // W columns (3, 4 are w0, w1) must be untouched.
  const auto w0 = table.schema().ColumnIndex("w0").value();
  const auto w1 = table.schema().ColumnIndex("w1").value();
  for (size_t r = 0; r < table.num_rows(); ++r) {
    EXPECT_EQ(repaired.Value(r, w0), table.Value(r, w0));
    EXPECT_EQ(repaired.Value(r, w1), table.Value(r, w1));
  }
  EXPECT_LT(TableCmi(repaired, XyGivenZ()).value(),
            TableCmi(table, XyGivenZ()).value());
}

TEST(RepairTest, NaiveUnsaturatedAlsoRepairs) {
  datagen::ScalingDatasetOptions gen;
  gen.num_rows = 400;
  gen.num_z_attrs = 1;
  gen.z_card = 2;
  gen.num_w_attrs = 1;
  gen.w_card = 2;
  gen.violation = 0.7;
  gen.seed = 43;
  const auto table = datagen::MakeScalingDataset(gen).value();

  RepairOptions opts;
  opts.use_saturation = false;  // clean the full joint
  const auto report = RepairTable(table, XyGivenZ(), opts).value();
  EXPECT_LT(report.final_cmi, report.initial_cmi);
}

TEST(RepairTest, MapRepairIsDeterministic) {
  const auto table = MakeViolatingTable(300, 51);
  RepairOptions opts;
  opts.sample_repair = false;
  OtCleanRepairer repairer(XyGivenZ(), opts);
  ASSERT_TRUE(repairer.Fit(table).ok());
  Rng r1(1), r2(999);
  const auto a = repairer.Apply(table, r1).value();
  const auto b = repairer.Apply(table, r2).value();
  for (size_t r = 0; r < a.num_rows(); ++r) EXPECT_EQ(a.Row(r), b.Row(r));
}

TEST(RepairTest, QclpSolverPathWorksOnSmallDomain) {
  // x ⟂ y | z0 is saturated for a 3-column table.
  datagen::ScalingDatasetOptions gen;
  gen.num_rows = 200;
  gen.num_z_attrs = 1;
  gen.z_card = 2;
  gen.violation = 0.7;
  gen.seed = 61;
  const auto table = datagen::MakeScalingDataset(gen).value();
  RepairOptions opts;
  opts.solver = Solver::kQclp;
  const auto report = RepairTable(table, XyGivenZ(), opts).value();
  EXPECT_LT(report.target_cmi, 1e-6);
  EXPECT_LT(report.final_cmi, report.initial_cmi);
}

TEST(RepairTest, CustomCostIsRespected) {
  const auto table = MakeViolatingTable(400, 71);
  // A cost that forbids changing x (attribute 0 of the U-domain).
  ot::FairnessCost cost({0}, 3, 1e6);
  RepairOptions opts;
  OtCleanRepairer repairer(XyGivenZ(), opts);
  ASSERT_TRUE(repairer.Fit(table, &cost).ok());
  Rng rng(4);
  const auto repaired = repairer.Apply(table, rng).value();
  const auto x_col = table.schema().ColumnIndex("x").value();
  size_t x_changes = 0;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (repaired.Value(r, x_col) != table.Value(r, x_col)) ++x_changes;
  }
  // Changing x is prohibitively expensive, so (almost) no x updates.
  EXPECT_LT(x_changes, table.num_rows() / 50);
}

TEST(RepairTest, UnknownConstraintColumnFails) {
  const auto table = MakeViolatingTable(100);
  const CiConstraint bad({"nope"}, {"y"}, {"z0"});
  EXPECT_FALSE(RepairTable(table, bad).ok());
}

TEST(RepairTest, UnconvergedRepairReportsIterationCap) {
  // One outer step never meets the default 1e-8 outer tolerance: the repair
  // returns a plan but must say it stopped at the cap, never "ok" — with
  // retries off, and after every fallback attempt also fails to converge.
  const auto table = MakeViolatingTable(300);
  for (const size_t attempts : {size_t{1}, size_t{3}}) {
    RepairOptions opts;
    opts.fast.max_outer_iterations = 1;
    opts.retry.max_attempts = attempts;
    const Result<RepairReport> report = RepairTable(table, XyGivenZ(), opts);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_FALSE(report->converged) << "attempts " << attempts;
    EXPECT_STREQ(report->termination, "iteration-cap")
        << "attempts " << attempts;
    EXPECT_EQ(report->retry_attempts, attempts - 1);
  }
}

TEST(RepairTest, ReportCarriesInnerSolveDiagnostics) {
  // The outer loop's inner-solve bookkeeping reaches the report: a tiny
  // inner cap leaves every solve capped, and the final outer delta and
  // inner tolerance are those of the last step.
  const auto table = MakeViolatingTable(300);
  RepairOptions opts;
  opts.fast.max_outer_iterations = 4;
  opts.fast.max_sinkhorn_iterations = 3;
  const auto report = RepairTable(table, XyGivenZ(), opts).value();
  EXPECT_EQ(report.outer_iterations, 4u);
  EXPECT_EQ(report.capped_inner_solves, 4u);
  EXPECT_GT(report.final_outer_delta, 0.0);
  EXPECT_GE(report.final_inner_tolerance, opts.fast.sinkhorn_tolerance);
}

TEST(RepairTest, ReportCarriesTheFinalOverRelaxationFactor) {
  // A slow relaxed inner solve tunes ω above 1 (below the cap), and the
  // report carries the last solve's value; solves capped at one window
  // never leave the plain update.
  const auto table = MakeViolatingTable(301);
  RepairOptions opts;
  opts.fast.max_outer_iterations = 1;
  const auto slow = RepairTable(table, XyGivenZ(), opts).value();
  EXPECT_GT(slow.final_inner_omega, 1.0);
  EXPECT_LE(slow.final_inner_omega, ot::kMaxOverRelaxation);
  opts.fast.max_sinkhorn_iterations = ot::kOverRelaxationWindow;
  const auto short_solves = RepairTable(table, XyGivenZ(), opts).value();
  EXPECT_EQ(short_solves.final_inner_omega, 1.0);
}

TEST(RepairTest, DefaultFairnessRepairInnerIterationsStayPinned) {
  // Deterministic count of the over-relaxed inner solves on the
  // compas-fair workload's first table at default options: 44,752 inner
  // iterations over 300 outer steps when this test was written (44,753 on
  // the scalar tier), against 463,531 with the plain update.
  const auto bundle = datagen::MakeCompas(3000, 907).value();
  const auto report = RepairTable(bundle.table, bundle.constraint).value();
  EXPECT_LE(report.total_sinkhorn_iterations, 50000u);
  EXPECT_EQ(report.capped_inner_solves, 0u);
  EXPECT_GT(report.final_inner_omega, 1.0);
}

TEST(RepairTest, InvalidRegularizationIsNotRetried) {
  // A NaN ε or a non-positive λ is a caller error, not a numeric blow-up:
  // it fails InvalidArgument on the first attempt even with fallbacks on.
  const auto table = MakeViolatingTable(100);
  RepairOptions opts;
  opts.retry.max_attempts = 3;
  opts.fast.epsilon = std::numeric_limits<double>::quiet_NaN();
  const auto nan_eps = RepairTable(table, XyGivenZ(), opts);
  ASSERT_FALSE(nan_eps.ok());
  EXPECT_EQ(nan_eps.status().code(), StatusCode::kInvalidArgument);
  opts.fast.epsilon = 0.1;
  opts.fast.lambda = 0.0;
  const auto zero_lambda = RepairTable(table, XyGivenZ(), opts);
  ASSERT_FALSE(zero_lambda.ok());
  EXPECT_EQ(zero_lambda.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace otclean::core

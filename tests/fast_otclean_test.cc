#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "cleaning/noise.h"
#include "core/fast_otclean.h"
#include "core/repair.h"
#include "core/solve_cache.h"
#include "datagen/datasets.h"
#include "linalg/thread_pool.h"
#include "ot/cost.h"
#include "prob/independence.h"

namespace otclean::core {
namespace {

using prob::CiSpec;
using prob::Domain;
using prob::JointDistribution;

/// The bag D2 of Example 3.3/3.4: {(1,0,0), (1,0,1), (1,1,0), (1,1,0)} over
/// binary (X, Y, Z), violating Y ⟂ Z.
JointDistribution MakeD2() {
  const Domain d = Domain::FromCardinalities({2, 2, 2});
  std::vector<double> counts(8, 0.0);
  counts[d.Encode({1, 0, 0})] += 1;
  counts[d.Encode({1, 0, 1})] += 1;
  counts[d.Encode({1, 1, 0})] += 2;
  return JointDistribution::FromCounts(d, counts);
}

/// A randomly violated 3-attribute distribution.
JointDistribution MakeViolated(uint64_t seed) {
  const Domain d = Domain::FromCardinalities({2, 2, 3});
  JointDistribution p(d);
  Rng rng(seed);
  for (size_t i = 0; i < p.size(); ++i) p[i] = 0.02 + rng.NextDouble();
  p.Normalize();
  return p;
}

FastOtCleanOptions DefaultOptions() {
  FastOtCleanOptions opts;
  opts.epsilon = 0.1;
  opts.lambda = 100.0;
  opts.max_outer_iterations = 500;
  opts.outer_tolerance = 1e-7;
  return opts;
}

TEST(FastOtCleanTest, TargetSatisfiesCiOnD2) {
  const auto p = MakeD2();
  const CiSpec ci{{1}, {2}, {}};  // Y ⟂ Z
  ot::EuclideanCost cost(3);
  Rng rng(1);
  const auto r = FastOtClean(p, ci, cost, DefaultOptions(), rng).value();
  EXPECT_LT(r.target_cmi, 1e-6);
  EXPECT_TRUE(r.converged);
}

TEST(FastOtCleanTest, D2RepairCostIsNearQuarter) {
  // Example 3.4: the optimal probabilistic repair of D2 moves 1/4 of the
  // mass a distance of 1 (cost 0.25). Entropic smoothing inflates this a
  // little; it must stay well below the trivial repair cost.
  const auto p = MakeD2();
  const CiSpec ci{{1}, {2}, {}};
  ot::EuclideanCost cost(3);
  Rng rng(2);
  FastOtCleanOptions opts = DefaultOptions();
  opts.epsilon = 0.03;  // sharp plan
  const auto r = FastOtClean(p, ci, cost, opts, rng).value();
  EXPECT_LT(r.transport_cost, 0.5);
  EXPECT_GT(r.transport_cost, 0.05);
}

TEST(FastOtCleanTest, PlanSourceMarginalMatchesData) {
  const auto p = MakeD2();
  const CiSpec ci{{1}, {2}, {}};
  ot::EuclideanCost cost(3);
  Rng rng(3);
  const auto r = FastOtClean(p, ci, cost, DefaultOptions(), rng).value();
  const auto src = r.plan.SourceMarginal();
  // Rows correspond to the three distinct tuples of D2 (active domain).
  ASSERT_EQ(src.size(), 3u);
  double total = 0.0;
  for (size_t i = 0; i < src.size(); ++i) total += src[i];
  EXPECT_NEAR(total, 1.0, 0.05);
  for (size_t i = 0; i < src.size(); ++i) {
    EXPECT_NEAR(src[i], p[r.plan.row_cells()[i]], 0.05);
  }
}

TEST(FastOtCleanTest, ActiveDomainRestrictsRows) {
  const auto p = MakeD2();
  const CiSpec ci{{1}, {2}, {}};
  ot::EuclideanCost cost(3);
  Rng rng(4);
  const auto r = FastOtClean(p, ci, cost, DefaultOptions(), rng).value();
  EXPECT_EQ(r.plan.row_cells().size(), 3u);   // 3 distinct tuples
  EXPECT_EQ(r.plan.col_cells().size(), 8u);   // full support by default
}

TEST(FastOtCleanTest, RestrictColumnsOption) {
  const auto p = MakeD2();
  const CiSpec ci{{1}, {2}, {}};
  ot::EuclideanCost cost(3);
  FastOtCleanOptions opts = DefaultOptions();
  opts.restrict_columns_to_active = true;
  Rng rng(5);
  const auto r = FastOtClean(p, ci, cost, opts, rng).value();
  EXPECT_EQ(r.plan.col_cells().size(), 3u);
  EXPECT_LT(r.target_cmi, 1e-6);
}

TEST(FastOtCleanTest, ConditionalCiWithZ) {
  const auto p = MakeViolated(11);
  const CiSpec ci{{0}, {1}, {2}};
  ot::EuclideanCost cost(3);
  Rng rng(6);
  const auto r = FastOtClean(p, ci, cost, DefaultOptions(), rng).value();
  EXPECT_LT(r.target_cmi, 1e-6);
  EXPECT_GT(prob::ConditionalMutualInformation(p, ci), r.target_cmi);
}

TEST(FastOtCleanTest, ObjectiveTraceIsRecorded) {
  const auto p = MakeViolated(12);
  const CiSpec ci{{0}, {1}, {2}};
  ot::EuclideanCost cost(3);
  Rng rng(7);
  const auto r = FastOtClean(p, ci, cost, DefaultOptions(), rng).value();
  EXPECT_EQ(r.objective_trace.size(), r.outer_iterations);
  EXPECT_GT(r.total_sinkhorn_iterations, r.outer_iterations);
}

TEST(FastOtCleanTest, NmfInitConvergesFasterThanRandom) {
  // Section 5 / Fig. 10b: NMF initialization reduces outer iterations.
  const auto p = MakeViolated(13);
  const CiSpec ci{{0}, {1}, {2}};
  ot::EuclideanCost cost(3);
  FastOtCleanOptions nmf = DefaultOptions();
  nmf.nmf_init = true;
  FastOtCleanOptions rnd = DefaultOptions();
  rnd.nmf_init = false;
  Rng r1(8), r2(8);
  const auto a = FastOtClean(p, ci, cost, nmf, r1).value();
  const auto b = FastOtClean(p, ci, cost, rnd, r2).value();
  EXPECT_LE(a.outer_iterations, b.outer_iterations + 2);
}

TEST(FastOtCleanTest, WarmStartReducesTotalSinkhornIterations) {
  // Section 5 / Fig. 11b.
  const auto p = MakeViolated(14);
  const CiSpec ci{{0}, {1}, {2}};
  ot::EuclideanCost cost(3);
  FastOtCleanOptions warm = DefaultOptions();
  warm.warm_start = true;
  FastOtCleanOptions cold = DefaultOptions();
  cold.warm_start = false;
  Rng r1(9), r2(9);
  const auto a = FastOtClean(p, ci, cost, warm, r1).value();
  const auto b = FastOtClean(p, ci, cost, cold, r2).value();
  EXPECT_LT(a.total_sinkhorn_iterations, b.total_sinkhorn_iterations);
}

TEST(FastOtCleanTest, IterativeNmfMatchesClosedForm) {
  const auto p = MakeViolated(15);
  const CiSpec ci{{0}, {1}, {2}};
  ot::EuclideanCost cost(3);
  FastOtCleanOptions closed = DefaultOptions();
  FastOtCleanOptions iter = DefaultOptions();
  iter.iterative_nmf = true;
  iter.nmf_max_iterations = 400;
  Rng r1(10), r2(10);
  const auto a = FastOtClean(p, ci, cost, closed, r1).value();
  const auto b = FastOtClean(p, ci, cost, iter, r2).value();
  EXPECT_LT(b.target_cmi, 1e-5);
  EXPECT_NEAR(a.transport_cost, b.transport_cost, 0.05);
}

TEST(FastOtCleanTest, SoftCiStrengthTradesOffCmi) {
  const auto p = MakeViolated(16);
  const CiSpec ci{{0}, {1}, {2}};
  ot::EuclideanCost cost(3);
  FastOtCleanOptions soft = DefaultOptions();
  soft.ci_strength = 0.3;
  Rng r1(11);
  const auto a = FastOtClean(p, ci, cost, soft, r1).value();
  // Soft enforcement leaves residual CMI but still reduces it.
  EXPECT_LT(a.target_cmi, prob::ConditionalMutualInformation(p, ci));
}

TEST(FastOtCleanTest, AlreadyConsistentInputIsNearIdentity) {
  // A CI-consistent distribution should be (almost) untouched.
  const Domain d = Domain::FromCardinalities({2, 2, 2});
  JointDistribution p(d);
  const double pz[2] = {0.5, 0.5};
  const double px[2] = {0.4, 0.6};
  const double py[2] = {0.7, 0.2};
  for (int x = 0; x < 2; ++x) {
    for (int y = 0; y < 2; ++y) {
      for (int z = 0; z < 2; ++z) {
        const double fx = (x == 1) ? px[z] : 1 - px[z];
        const double fy = (y == 1) ? py[z] : 1 - py[z];
        p[d.Encode({x, y, z})] = pz[z] * fx * fy;
      }
    }
  }
  const CiSpec ci{{0}, {1}, {2}};
  ot::EuclideanCost cost(3);
  FastOtCleanOptions opts = DefaultOptions();
  opts.epsilon = 0.02;
  Rng rng(12);
  const auto r = FastOtClean(p, ci, cost, opts, rng).value();
  EXPECT_LT(r.transport_cost, 0.1);
  EXPECT_LT(r.target.TotalVariation(p), 0.1);
}

TEST(FastOtCleanTest, RejectsBadInputs) {
  const CiSpec ci{{0}, {1}, {}};
  ot::EuclideanCost cost(2);
  Rng rng(13);
  // Unnormalized input.
  const Domain d = Domain::FromCardinalities({2, 2});
  JointDistribution p(d);
  p[0] = 2.0;
  EXPECT_FALSE(FastOtClean(p, ci, cost, DefaultOptions(), rng).ok());
  // Zero mass.
  JointDistribution z(d);
  EXPECT_FALSE(FastOtClean(z, ci, cost, DefaultOptions(), rng).ok());
  // Bad ci_strength.
  JointDistribution u = JointDistribution::Uniform(d);
  FastOtCleanOptions bad = DefaultOptions();
  bad.ci_strength = 2.0;
  EXPECT_FALSE(FastOtClean(u, ci, cost, bad, rng).ok());
}

TEST(FastOtCleanTest, RejectsNonFiniteOrNonPositiveEpsilonAndLambda) {
  // NaN passes a plain `epsilon <= 0` test and λ was never checked: each
  // of these used to end in "Internal: plan lost all mass" (a retryable
  // error) or, for λ = 0, a silent identity repair.
  const auto p = MakeViolated(21);
  const CiSpec ci{{0}, {1}, {2}};
  ot::EuclideanCost cost(3);
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  for (const double eps : {kNan, kInf, 0.0, -0.1}) {
    FastOtCleanOptions opts = DefaultOptions();
    opts.epsilon = eps;
    Rng rng(1);
    const auto r = FastOtClean(p, ci, cost, opts, rng);
    ASSERT_FALSE(r.ok()) << "epsilon " << eps;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("epsilon"), std::string::npos);
  }
  for (const double lambda : {kNan, kInf, 0.0, -0.1}) {
    FastOtCleanOptions opts = DefaultOptions();
    opts.lambda = lambda;
    Rng rng(1);
    const auto r = FastOtClean(p, ci, cost, opts, rng);
    ASSERT_FALSE(r.ok()) << "lambda " << lambda;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("lambda"), std::string::npos);
  }
}

TEST(FastOtCleanTest, InnerToleranceNeverDropsBelowItsFloor) {
  // The inner tolerance follows outer progress — 0.1 × the previous outer
  // step's TV delta — but sinkhorn_tolerance is its floor, and a
  // converging repair still reaches the CI set.
  const auto p = MakeD2();
  const CiSpec ci{{1}, {2}, {}};  // Y ⟂ Z
  ot::EuclideanCost cost(3);
  FastOtCleanOptions opts = DefaultOptions();
  opts.max_sinkhorn_iterations = 20000;  // the cold first solve needs > 5000
  Rng rng(4);
  const auto r = FastOtClean(p, ci, cost, opts, rng).value();
  ASSERT_TRUE(r.converged);
  EXPECT_LT(r.target_cmi, 1e-6);
  EXPECT_LE(r.final_outer_delta, opts.outer_tolerance);
  EXPECT_GE(r.final_inner_tolerance, opts.sinkhorn_tolerance);
  EXPECT_EQ(r.capped_inner_solves, 0u);

  // A floor far above every outer delta pins every inner solve to it.
  opts.sinkhorn_tolerance = 1e-3;
  Rng rng2(4);
  const auto loose = FastOtClean(p, ci, cost, opts, rng2).value();
  EXPECT_EQ(loose.final_inner_tolerance, 1e-3);
  EXPECT_LT(loose.final_outer_delta, 1e-2);
}

TEST(FastOtCleanTest, ReportsCappedInnerSolves) {
  // Every inner solve stopped by a tiny iteration cap is counted; the
  // outer loop no longer consumes them silently.
  const auto p = MakeViolated(6);
  const CiSpec ci{{0}, {1}, {2}};
  ot::EuclideanCost cost(3);
  FastOtCleanOptions opts = DefaultOptions();
  opts.max_sinkhorn_iterations = 2;
  opts.max_outer_iterations = 7;
  Rng rng(8);
  const auto r = FastOtClean(p, ci, cost, opts, rng).value();
  EXPECT_EQ(r.outer_iterations, 7u);
  EXPECT_EQ(r.capped_inner_solves, r.outer_iterations);
  EXPECT_EQ(r.total_sinkhorn_iterations, 2u * r.outer_iterations);
  EXPECT_GT(r.final_outer_delta, 0.0);
}

TEST(FastOtCleanTest, SharperEpsilonLowersTransportCost) {
  const auto p = MakeViolated(17);
  const CiSpec ci{{0}, {1}, {2}};
  ot::EuclideanCost cost(3);
  FastOtCleanOptions sharp = DefaultOptions();
  sharp.epsilon = 0.02;
  FastOtCleanOptions smooth = DefaultOptions();
  smooth.epsilon = 1.0;
  Rng r1(14), r2(14);
  const auto a = FastOtClean(p, ci, cost, sharp, r1).value();
  const auto b = FastOtClean(p, ci, cost, smooth, r2).value();
  EXPECT_LT(a.transport_cost, b.transport_cost + 1e-9);
}

/// Bit-for-bit equality of two repairs: cost, iteration counts, target
/// and every plan entry.
void ExpectBitIdentical(const FastOtCleanResult& a,
                        const FastOtCleanResult& b) {
  EXPECT_EQ(a.transport_cost, b.transport_cost);
  EXPECT_EQ(a.total_sinkhorn_iterations, b.total_sinkhorn_iterations);
  EXPECT_EQ(a.outer_iterations, b.outer_iterations);
  ASSERT_EQ(a.target.size(), b.target.size());
  for (size_t i = 0; i < a.target.size(); ++i) {
    EXPECT_EQ(a.target[i], b.target[i]) << "target cell " << i;
  }
  const linalg::Matrix pa = a.plan.Densify();
  const linalg::Matrix pb = b.plan.Densify();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa.data()[i], pb.data()[i]) << "plan entry " << i;
  }
}

TEST(FastOtCleanTest, F32OuterLoopIsDeterministicAndTracksF64) {
  // The f32 storage tier through the whole outer loop, on every kernel
  // shape (dense/CSR × linear/log): threads, pools and cache hit/miss
  // must not move a bit, and the repair must agree with the f64 tier to
  // within the kernel's float rounding.
  const Domain d = Domain::FromCardinalities({3, 4, 5});
  JointDistribution p(d);
  Rng gen(21);
  for (size_t i = 0; i < p.size(); ++i) p[i] = 0.05 + gen.NextDouble();
  p.Normalize();
  const CiSpec ci{{0}, {1}, {2}};
  ot::EuclideanCost cost(3);
  linalg::ThreadPool pool(4);

  for (const double truncation : {0.0, 1e-3}) {
    for (const bool log_domain : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "truncation=" << truncation
                                        << " log_domain=" << log_domain);
      FastOtCleanOptions f32 = DefaultOptions();
      f32.epsilon = 0.5;
      f32.max_outer_iterations = 20;
      f32.kernel_truncation = truncation;
      f32.log_domain = log_domain;
      f32.precision = linalg::Precision::kFloat32;
      f32.num_threads = 1;
      Rng r_serial(31);
      const auto serial = FastOtClean(p, ci, cost, f32, r_serial).value();

      FastOtCleanOptions pooled = f32;
      pooled.num_threads = 4;
      pooled.thread_pool = &pool;
      Rng r_pooled(31);
      ExpectBitIdentical(serial,
                         FastOtClean(p, ci, cost, pooled, r_pooled).value());

      SolveCache cache;
      FastOtCleanOptions cached = f32;
      cached.solve_cache = &cache;
      Rng r_miss(31), r_hit(31);
      const auto miss = FastOtClean(p, ci, cost, cached, r_miss).value();
      const auto hit = FastOtClean(p, ci, cost, cached, r_hit).value();
      EXPECT_EQ(miss.cache_kernel_misses, 1u);
      EXPECT_EQ(hit.cache_kernel_hits, 1u);
      ExpectBitIdentical(miss, hit);
      ExpectBitIdentical(serial, miss);

      FastOtCleanOptions f64 = f32;
      f64.precision = linalg::Precision::kFloat64;
      Rng r_f64(31);
      const auto ref = FastOtClean(p, ci, cost, f64, r_f64).value();
      EXPECT_NEAR(serial.transport_cost, ref.transport_cost, 1e-6);
    }
  }
}

// --- The outer loop's Anderson mixing ----------------------------------

TEST(FastOtCleanMixingTest, CompasConvergesAtThePlainFixedPoint) {
  // The plain loop stops at the 300-step cap here (TV delta 3.6e-5, cost
  // 0.225940); uncapped it converges after 1723 steps at the reference
  // cost below. Mixing reaches that fixed point within the default cap.
  constexpr double kPlainFixedPointCost = 0.225473948;
  const auto bundle = datagen::MakeCompas(3000, 907).value();
  RepairOptions opts;
  opts.fast.num_threads = 1;
  const auto r = RepairTable(bundle.table, bundle.constraint, opts).value();
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.outer_iterations, 300u);
  EXPECT_GT(r.mixed_outer_steps, 0u);
  EXPECT_LE(r.transport_cost, kPlainFixedPointCost + 1e-6);
  EXPECT_EQ(r.termination, std::string("ok"));
}

TEST(FastOtCleanMixingTest, CarNoiseTableConvergesToThePlainFixedPoint) {
  // The attribute-noise repair of the integration test: uncapped inner
  // solves at default options. The plain loop's fixed point costs
  // 0.112771.
  const auto bundle = datagen::MakeCar(2500, 901).value();
  std::vector<size_t> even;
  for (size_t r = 0; r < bundle.table.num_rows(); r += 2) even.push_back(r);
  const dataset::Table train = bundle.table.SelectRows(even);
  cleaning::AttributeNoiseOptions noise;
  noise.target_col = train.schema().ColumnIndex("doors").value();
  noise.driver_col = train.schema().ColumnIndex(bundle.label_col).value();
  noise.rate = 0.8;
  noise.seed = 902;
  const auto dirty = cleaning::InjectAttributeNoise(train, noise).value();
  RepairOptions opts;
  opts.fast.num_threads = 1;
  const auto r = RepairTable(dirty, bundle.constraint, opts).value();
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.transport_cost, 0.112771, 1e-6);
}

TEST(FastOtCleanMixingTest, RelaxedObjectiveNeverIncreasesAcrossSteps) {
  // A run capped at k outer steps is the first k steps of the uncapped
  // run, and returns the plan of its last accepted step (a rejected mix
  // is rolled back). So J of the capped runs, in k, is J along the
  // accepted steps — plain and mixed — and must never rise.
  const auto p = MakeViolated(3);
  const CiSpec ci{{0}, {1}, {2}};
  ot::EuclideanCost cost(3);
  FastOtCleanOptions opts;
  opts.num_threads = 1;
  double previous = std::numeric_limits<double>::infinity();
  FastOtCleanResult last;
  for (size_t cap = 1; cap <= 300 && !last.converged; ++cap) {
    opts.max_outer_iterations = cap;
    Rng rng(1);
    last = FastOtClean(p, ci, cost, opts, rng).value();
    EXPECT_LE(last.final_relaxed_objective, previous) << "cap " << cap;
    previous = last.final_relaxed_objective;
  }
  EXPECT_TRUE(last.converged);
  EXPECT_GT(last.mixed_outer_steps, 0u);
  EXPECT_GT(last.rejected_mixes, 0u);  // the rollback path ran too
}

TEST(FastOtCleanMixingTest, MixedRepairsAreThreadAndCacheInvariant) {
  const Domain d = Domain::FromCardinalities({3, 4, 5});
  JointDistribution p(d);
  Rng gen(21);
  for (size_t i = 0; i < p.size(); ++i) p[i] = 0.05 + gen.NextDouble();
  p.Normalize();
  const CiSpec ci{{0}, {1}, {2}};
  ot::EuclideanCost cost(3);
  linalg::ThreadPool pool(4);

  for (const double truncation : {0.0, 1e-3}) {
    for (const bool log_domain : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "truncation=" << truncation
                                        << " log_domain=" << log_domain);
      FastOtCleanOptions opts;
      opts.kernel_truncation = truncation;
      opts.log_domain = log_domain;
      opts.num_threads = 1;
      Rng r_serial(31);
      const auto serial = FastOtClean(p, ci, cost, opts, r_serial).value();
      EXPECT_GT(serial.mixed_outer_steps, 0u);

      FastOtCleanOptions pooled = opts;
      pooled.num_threads = 4;
      pooled.thread_pool = &pool;
      Rng r_pooled(31);
      const auto threaded = FastOtClean(p, ci, cost, pooled, r_pooled).value();
      ExpectBitIdentical(serial, threaded);
      EXPECT_EQ(serial.final_relaxed_objective,
                threaded.final_relaxed_objective);

      SolveCache cache;
      FastOtCleanOptions cached = opts;
      cached.solve_cache = &cache;
      Rng r_miss(31), r_hit(31);
      const auto miss = FastOtClean(p, ci, cost, cached, r_miss).value();
      const auto hit = FastOtClean(p, ci, cost, cached, r_hit).value();
      EXPECT_EQ(hit.cache_kernel_hits, 1u);
      ExpectBitIdentical(miss, hit);
      ExpectBitIdentical(serial, miss);
      EXPECT_EQ(miss.mixed_outer_steps, hit.mixed_outer_steps);
      EXPECT_EQ(miss.rejected_mixes, hit.rejected_mixes);
    }
  }
}

}  // namespace
}  // namespace otclean::core

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "common/exec_context.h"
#include "common/random.h"
#include "lp/network_simplex.h"
#include "lp/transport_lp.h"

namespace otclean::lp {
namespace {

TEST(NetworkSimplexTest, TrivialSingleCell) {
  linalg::Matrix cost(1, 1, 3.0);
  linalg::Vector p(std::vector<double>{1.0});
  const auto r = SolveTransportNetwork(cost, p, p).value();
  EXPECT_NEAR(r.cost, 3.0, 1e-9);
  EXPECT_NEAR(r.plan(0, 0), 1.0, 1e-9);
}

TEST(NetworkSimplexTest, MatchesHandComputedOptimum) {
  linalg::Matrix cost(2, 2);
  cost(0, 0) = 0.0;
  cost(0, 1) = 1.0;
  cost(1, 0) = 1.0;
  cost(1, 1) = 0.0;
  linalg::Vector p(std::vector<double>{0.7, 0.3});
  linalg::Vector q(std::vector<double>{0.4, 0.6});
  const auto r = SolveTransportNetwork(cost, p, q).value();
  EXPECT_NEAR(r.cost, 0.3, 1e-9);
}

TEST(NetworkSimplexTest, MarginalsRespected) {
  Rng rng(1);
  const size_t m = 6, n = 7;
  linalg::Matrix cost(m, n);
  for (double& v : cost.data()) v = rng.NextDouble();
  linalg::Vector p(m), q(n);
  for (size_t i = 0; i < m; ++i) p[i] = 0.1 + rng.NextDouble();
  for (size_t j = 0; j < n; ++j) q[j] = 0.1 + rng.NextDouble();
  p.Normalize();
  q.Normalize();
  const auto r = SolveTransportNetwork(cost, p, q).value();
  const auto rows = r.plan.RowSums();
  const auto cols = r.plan.ColSums();
  for (size_t i = 0; i < m; ++i) EXPECT_NEAR(rows[i], p[i], 1e-8);
  for (size_t j = 0; j < n; ++j) EXPECT_NEAR(cols[j], q[j], 1e-8);
  for (double v : r.plan.data()) EXPECT_GE(v, 0.0);
}

TEST(NetworkSimplexTest, RejectsBadInput) {
  linalg::Matrix cost(2, 2, 1.0);
  linalg::Vector p(std::vector<double>{0.5, 0.5});
  linalg::Vector bad(std::vector<double>{0.9, 0.9});
  EXPECT_FALSE(SolveTransportNetwork(cost, p, bad).ok());
  linalg::Vector neg(std::vector<double>{-0.5, 1.5});
  EXPECT_FALSE(SolveTransportNetwork(cost, neg, p).ok());
  linalg::Vector wrong(std::vector<double>{1.0});
  EXPECT_FALSE(SolveTransportNetwork(cost, wrong, p).ok());
}

TEST(NetworkSimplexTest, HandlesDegenerateSupplies) {
  // Some zero supplies/demands.
  linalg::Matrix cost(3, 3);
  Rng rng(2);
  for (double& v : cost.data()) v = rng.NextDouble();
  linalg::Vector p(std::vector<double>{0.0, 0.6, 0.4});
  linalg::Vector q(std::vector<double>{0.5, 0.0, 0.5});
  const auto r = SolveTransportNetwork(cost, p, q).value();
  const auto rows = r.plan.RowSums();
  EXPECT_NEAR(rows[0], 0.0, 1e-9);
  EXPECT_NEAR(rows[1], 0.6, 1e-8);
}

/// Property sweep: agreement with the dense two-phase simplex on random
/// instances of growing size.
class NetworkVsDense : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NetworkVsDense, CostsAgree) {
  Rng rng(GetParam());
  const size_t m = 3 + rng.NextUint64Below(6);
  const size_t n = 3 + rng.NextUint64Below(6);
  linalg::Matrix cost(m, n);
  for (double& v : cost.data()) v = rng.NextDouble() * 5.0;
  linalg::Vector p(m), q(n);
  for (size_t i = 0; i < m; ++i) p[i] = 0.05 + rng.NextDouble();
  for (size_t j = 0; j < n; ++j) q[j] = 0.05 + rng.NextDouble();
  p.Normalize();
  q.Normalize();

  const auto net = SolveTransportNetwork(cost, p, q).value();
  const auto dense = SolveTransport(cost, p, q).value();
  EXPECT_NEAR(net.cost, dense.cost, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetworkVsDense,
                         ::testing::Values(10, 20, 30, 40, 50, 60, 70, 80));

TEST(NetworkSimplexTest, LargerInstanceStaysFeasible) {
  Rng rng(9);
  const size_t m = 40, n = 40;
  linalg::Matrix cost(m, n);
  for (double& v : cost.data()) v = rng.NextDouble();
  linalg::Vector p(m), q(n);
  for (size_t i = 0; i < m; ++i) p[i] = 0.02 + rng.NextDouble();
  for (size_t j = 0; j < n; ++j) q[j] = 0.02 + rng.NextDouble();
  p.Normalize();
  q.Normalize();
  const auto r = SolveTransportNetwork(cost, p, q).value();
  const auto rows = r.plan.RowSums();
  for (size_t i = 0; i < m; ++i) EXPECT_NEAR(rows[i], p[i], 1e-7);
  // Optimality sanity: cost below the independent-coupling cost.
  double indep = 0.0;
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) indep += cost(i, j) * p[i] * q[j];
  }
  EXPECT_LE(r.cost, indep + 1e-9);
}

// ------------------------------------------- streaming entry points --

/// Deterministic hashed test cost. Deliberately NOT Monge/convex in the
/// column index: the northwest-corner initial basis must be far from
/// optimal so streamed solves genuinely pivot (a |i − j| cost would make
/// the monotone NW plan optimal outright).
double HashedCost(size_t r, size_t c) {
  return static_cast<double>((r * 131 + c * 71) % 17) +
         0.25 * static_cast<double>((r + 2 * c) % 5);
}

/// Streams HashedCost entry-by-entry; counts evaluations and can fire a
/// cancellation token after a fixed number of them, so a test can stop the
/// engine mid-solve at a deterministic point in its cost consumption.
class CountingCostProvider final : public linalg::CostProvider {
 public:
  CountingCostProvider(size_t m, size_t n) : m_(m), n_(n) {}
  size_t rows() const override { return m_; }
  size_t cols() const override { return n_; }
  double At(size_t r, size_t c) const override {
    const size_t k = calls_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (token_ != nullptr && k >= cancel_after_) token_->Cancel();
    return HashedCost(r, c);
  }
  void ArmCancel(CancellationToken* token, size_t after) {
    token_ = token;
    cancel_after_ = after;
  }
  size_t calls() const { return calls_.load(std::memory_order_relaxed); }

 private:
  size_t m_, n_;
  mutable std::atomic<size_t> calls_{0};
  CancellationToken* token_ = nullptr;
  size_t cancel_after_ = 0;
};

linalg::Vector RandomMarginal(size_t n, uint64_t seed) {
  Rng rng(seed);
  linalg::Vector v(n);
  for (size_t i = 0; i < n; ++i) v[i] = 0.1 + rng.NextDouble();
  v.Normalize();
  return v;
}

TEST(NetworkSimplexStreamTest, StreamedSolveMatchesDenseWrapperAndStaysBasic) {
  const size_t m = 8, n = 9;
  CountingCostProvider cost(m, n);
  const linalg::Vector p = RandomMarginal(m, 11);
  const linalg::Vector q = RandomMarginal(n, 12);
  const auto sparse = SolveTransportNetwork(cost, p, q).value();

  linalg::Matrix cm(m, n);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) cm(i, j) = HashedCost(i, j);
  }
  const auto dense = SolveTransportNetwork(cm, p, q).value();
  EXPECT_NEAR(sparse.cost, dense.cost, 1e-9);

  // A basic solution: at most m + n − 1 nonzeros, row-major sorted, and the
  // scattered entries reproduce both marginals exactly.
  EXPECT_LE(sparse.entries.size(), m + n - 1);
  std::vector<double> row_sum(m, 0.0), col_sum(n, 0.0);
  for (size_t k = 0; k < sparse.entries.size(); ++k) {
    const auto& e = sparse.entries[k];
    ASSERT_LT(e.row, m);
    ASSERT_LT(e.col, n);
    EXPECT_GT(e.value, 0.0);
    row_sum[e.row] += e.value;
    col_sum[e.col] += e.value;
    if (k > 0) {
      const auto& prev = sparse.entries[k - 1];
      EXPECT_TRUE(prev.row < e.row || (prev.row == e.row && prev.col < e.col));
    }
  }
  for (size_t i = 0; i < m; ++i) EXPECT_NEAR(row_sum[i], p[i], 1e-9);
  for (size_t j = 0; j < n; ++j) EXPECT_NEAR(col_sum[j], q[j], 1e-9);
}

TEST(NetworkSimplexStreamTest, RestrictedSolveStaysOnKeptArcs) {
  const size_t d = 3;
  CountingCostProvider cost(d, d);
  linalg::Vector u(std::vector<double>{1.0 / 3, 1.0 / 3, 1.0 / 3});

  // A full kept set changes nothing: the restricted engine reproduces the
  // unrestricted optimum exactly.
  std::vector<std::vector<size_t>> full(d);
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = 0; j < d; ++j) full[i].push_back(j);
  }
  const auto unrestricted = SolveTransportNetwork(cost, u, u).value();
  const auto same = SolveTransportNetworkRestricted(cost, full, u, u).value();
  EXPECT_NEAR(same.cost, unrestricted.cost, 1e-12);

  // Diagonal-only kept set: the only feasible plan is stay-put, its cost is
  // Σ_i u_i·C(i,i), and no entry may land off the kept arcs.
  std::vector<std::vector<size_t>> diag(d);
  double diag_cost = 0.0;
  for (size_t i = 0; i < d; ++i) {
    diag[i] = {i};
    diag_cost += u[i] * HashedCost(i, i);
  }
  const auto on = SolveTransportNetworkRestricted(cost, diag, u, u).value();
  EXPECT_NEAR(on.cost, diag_cost, 1e-12);
  EXPECT_GE(on.cost + 1e-12, unrestricted.cost);
  for (const auto& e : on.entries) EXPECT_EQ(e.row, e.col);

  // Forbidding the diagonal instead: every entry lands off-diagonal.
  std::vector<std::vector<size_t>> off(d);
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = 0; j < d; ++j) {
      if (j != i) off[i].push_back(j);
    }
  }
  const auto moved = SolveTransportNetworkRestricted(cost, off, u, u).value();
  EXPECT_GE(moved.cost + 1e-12, unrestricted.cost);
  for (const auto& e : moved.entries) EXPECT_NE(e.row, e.col);
}

TEST(NetworkSimplexStreamTest, RestrictedInfeasibleKeptSetFailsLoudly) {
  // Column 1 has demand but no incoming kept arc: the solve must fail with
  // InvalidArgument instead of silently routing mass off-support.
  CountingCostProvider cost(2, 2);
  linalg::Vector p(std::vector<double>{0.5, 0.5});
  linalg::Vector q(std::vector<double>{0.5, 0.5});
  const std::vector<std::vector<size_t>> arcs = {{0}, {0}};
  const auto r = SolveTransportNetworkRestricted(cost, arcs, p, q);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(NetworkSimplexStreamTest, CancelMidSolveLeavesNoPartialState) {
  const size_t m = 40, n = 40;
  const linalg::Vector p = RandomMarginal(m, 21);
  const linalg::Vector q = RandomMarginal(n, 22);

  // Undisturbed reference on a pristine provider.
  CountingCostProvider ref_cost(m, n);
  const auto ref = SolveTransportNetwork(ref_cost, p, q).value();

  // The token fires from inside the cost stream once pricing is past the
  // first pivot (the init basis needs m + n − 1 entries; one pricing scan
  // reads m·n), so the per-pivot stop check aborts a solve that is
  // genuinely underway.
  CancellationToken token;
  CountingCostProvider cancelling_cost(m, n);
  cancelling_cost.ArmCancel(&token, 2000);
  ExecContext ctx;
  ctx.cancel = &token;
  const auto aborted = SolveTransportNetwork(
      cancelling_cost, p, q, NetworkSimplexOptions{}, /*mass_tol=*/1e-6, ctx);
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().code(), StatusCode::kCancelled);
  EXPECT_GE(cancelling_cost.calls(), 2000u);

  // No partial state survives the abort: a fresh solve over the same inputs
  // is bit-identical to the undisturbed reference.
  CountingCostProvider again_cost(m, n);
  const auto again = SolveTransportNetwork(again_cost, p, q).value();
  EXPECT_EQ(again.cost, ref.cost);
  EXPECT_EQ(again.pivots, ref.pivots);
  ASSERT_EQ(again.entries.size(), ref.entries.size());
  for (size_t k = 0; k < ref.entries.size(); ++k) {
    EXPECT_EQ(again.entries[k].row, ref.entries[k].row);
    EXPECT_EQ(again.entries[k].col, ref.entries[k].col);
    EXPECT_EQ(again.entries[k].value, ref.entries[k].value);
  }
}

TEST(NetworkSimplexStreamTest, ExpiredDeadlineAbortsBeforeAnyPivot) {
  CountingCostProvider cost(4, 4);
  const linalg::Vector p = RandomMarginal(4, 31);
  const linalg::Vector q = RandomMarginal(4, 32);
  ExecContext ctx;
  ctx.deadline = Deadline::After(-1.0);
  const auto r = SolveTransportNetwork(cost, p, q, NetworkSimplexOptions{},
                                       /*mass_tol=*/1e-6, ctx);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace otclean::lp

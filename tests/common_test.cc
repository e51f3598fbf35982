#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <thread>

#include "common/cancellation.h"
#include "common/exec_context.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/timer.h"

namespace otclean {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllFactoryCodesRoundTrip) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::NotConverged("x").code(), StatusCode::kNotConverged);
  EXPECT_EQ(Status::Infeasible("x").code(), StatusCode::kInfeasible);
  EXPECT_EQ(Status::Unbounded("x").code(), StatusCode::kUnbounded);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::NotImplemented("x").code(), StatusCode::kNotImplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Cancelled("x").code(), StatusCode::kCancelled);
  EXPECT_EQ(Status::DeadlineExceeded("x").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
}

TEST(StatusTest, EveryCodeHasAUniqueName) {
  // Exhaustive over the enum: a code added without a StatusCodeName case
  // would print "Unknown" and collide here; kNumStatusCodes pins the
  // one-past-last sentinel so the sweep can't silently shrink.
  std::set<std::string> names;
  for (int c = 0; c < kNumStatusCodes; ++c) {
    const std::string name = StatusCodeName(static_cast<StatusCode>(c));
    EXPECT_NE(name, "Unknown") << "code " << c;
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
  }
  EXPECT_EQ(names.size(), static_cast<size_t>(kNumStatusCodes));
  EXPECT_STREQ(StatusCodeName(static_cast<StatusCode>(kNumStatusCodes)),
               "Unknown");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

Status Propagating(bool fail) {
  OTCLEAN_RETURN_NOT_OK(fail ? Status::Internal("inner") : Status::OK());
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  EXPECT_TRUE(Propagating(false).ok());
  EXPECT_EQ(Propagating(true).code(), StatusCode::kInternal);
}

// ---------------------------------------------------------------- Result --

Result<int> HalfOf(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> QuarterOf(int x) {
  OTCLEAN_ASSIGN_OR_RETURN(int half, HalfOf(x));
  return HalfOf(half);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = HalfOf(10);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 5);
  EXPECT_EQ(r.value(), 5);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = HalfOf(7);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, ValueOrFallsBack) {
  EXPECT_EQ(HalfOf(7).value_or(-1), -1);
  EXPECT_EQ(HalfOf(8).value_or(-1), 4);
}

TEST(ResultTest, AssignOrReturnChainsAndPropagates) {
  EXPECT_EQ(QuarterOf(8).value(), 2);
  EXPECT_FALSE(QuarterOf(6).ok());   // 6/2=3 is odd
  EXPECT_FALSE(QuarterOf(7).ok());   // first call fails
}

TEST(ResultTest, MoveOnlyValueWorks) {
  auto make = []() -> Result<std::unique_ptr<int>> {
    return std::make_unique<int>(42);
  };
  Result<std::unique_ptr<int>> r = make();
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 42);
}

// ------------------------------------------------- Checked-access macros --

TEST(CheckOkTest, OkStatusPassesThrough) {
  OTCLEAN_CHECK_OK(Status::OK());
  OTCLEAN_CHECK_OK(Propagating(false));
}

TEST(CheckOkDeathTest, AbortsNamingExpressionAndStatus) {
  // Unlike the assert() it replaced, the check survives NDEBUG builds and
  // names both the failing expression and the status on stderr.
  EXPECT_DEATH(OTCLEAN_CHECK_OK(Status::Internal("boom")),
               "OTCLEAN_CHECK_OK.*Internal: boom");
}

TEST(CheckOkAndAssignTest, AssignsValueOnOk) {
  int half = -1;
  OTCLEAN_CHECK_OK_AND_ASSIGN(half, HalfOf(10));
  EXPECT_EQ(half, 5);
}

TEST(CheckOkAndAssignTest, MoveOnlyValueWorks) {
  auto make = []() -> Result<std::unique_ptr<int>> {
    return std::make_unique<int>(7);
  };
  std::unique_ptr<int> v;
  OTCLEAN_CHECK_OK_AND_ASSIGN(v, make());
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, 7);
}

TEST(CheckOkAndAssignDeathTest, AbortsOnErrorResult) {
  // The old `assert(r.ok()); std::move(r).value();` idiom was UB under
  // NDEBUG (value() on an error Result); the macro must abort instead.
  int half = -1;
  EXPECT_DEATH(OTCLEAN_CHECK_OK_AND_ASSIGN(half, HalfOf(7)),
               "OTCLEAN_CHECK_OK.*InvalidArgument: odd");
  EXPECT_EQ(half, -1);
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.NextUint64() != b.NextUint64()) ++differing;
  }
  EXPECT_GT(differing, 28);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NextUint64BelowRespectsBound) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextUint64Below(17), 17u);
  }
}

TEST(RngTest, NextIntCoversRangeInclusively) {
  Rng rng(5);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextInt(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 2);
}

TEST(RngTest, GaussianHasApproxUnitMoments) {
  Rng rng(6);
  double sum = 0.0, sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(8);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.NextBernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(9);
  std::vector<double> w = {1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  const int n = 30000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextCategorical(w)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.02);
}

TEST(RngTest, CategoricalDegenerateAllZeroReturnsLast) {
  Rng rng(10);
  std::vector<double> w = {0.0, 0.0, 0.0};
  EXPECT_EQ(rng.NextCategorical(w), 2u);
}

TEST(RngTest, PermutationIsAPermutation) {
  Rng rng(11);
  const auto perm = rng.Permutation(50);
  std::set<size_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.rbegin(), 49u);
}

TEST(RngTest, ForkedStreamsAreDecorrelated) {
  Rng base(12);
  Rng f1 = base.Fork(1);
  Rng f2 = base.Fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (f1.NextUint64() == f2.NextUint64()) ++same;
  }
  EXPECT_LT(same, 2);
}

// ----------------------------------------------------------- StringUtil --

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  const auto parts = SplitString("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, SplitSingleToken) {
  const auto parts = SplitString("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringUtilTest, JoinRoundTrips) {
  const std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(JoinStrings(parts, ","), "x,y,z");
  EXPECT_EQ(JoinStrings({}, ","), "");
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace("   "), "");
}

TEST(StringUtilTest, ParseDoubleAcceptsValid) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.5").value(), 3.5);
  EXPECT_DOUBLE_EQ(ParseDouble(" -2e3 ").value(), -2000.0);
}

TEST(StringUtilTest, ParseDoubleRejectsInvalid) {
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("1.2x").ok());
  EXPECT_FALSE(ParseDouble("").ok());
}

TEST(StringUtilTest, ParseIntAcceptsAndRejects) {
  EXPECT_EQ(ParseInt("42").value(), 42);
  EXPECT_EQ(ParseInt(" -7 ").value(), -7);
  EXPECT_FALSE(ParseInt("4.2").ok());
  EXPECT_FALSE(ParseInt("").ok());
}

TEST(StringUtilTest, ToLower) { EXPECT_EQ(ToLower("AbC9"), "abc9"); }

// ---------------------------------------------------------- Cancellation --

TEST(CancellationTest, TokenStartsCleanAndLatches) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  ASSERT_NE(token.flag(), nullptr);
  EXPECT_FALSE(token.flag()->load());
  token.Cancel();
  EXPECT_TRUE(token.cancelled());
  token.Cancel();  // idempotent
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(token.flag()->load());
}

TEST(CancellationTest, CancelIsVisibleAcrossThreads) {
  CancellationToken token;
  std::thread other([&] { token.Cancel(); });
  other.join();
  EXPECT_TRUE(token.cancelled());
}

TEST(DeadlineTest, InfiniteNeverExpires) {
  const Deadline d = Deadline::Infinite();
  EXPECT_TRUE(d.infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_TRUE(std::isinf(d.remaining_seconds()));
}

TEST(DeadlineTest, AfterExpiresAndCountsDown) {
  const Deadline far = Deadline::After(3600.0);
  EXPECT_FALSE(far.infinite());
  EXPECT_FALSE(far.expired());
  EXPECT_GT(far.remaining_seconds(), 3500.0);
  EXPECT_LE(far.remaining_seconds(), 3600.0);
  const Deadline past = Deadline::After(0.0);  // non-positive: born expired
  EXPECT_TRUE(past.expired());
  EXPECT_LE(past.remaining_seconds(), 0.0);
  EXPECT_TRUE(Deadline::After(-1.0).expired());
  EXPECT_TRUE(Deadline::AfterMillis(0).expired());
  EXPECT_FALSE(Deadline::AfterMillis(3600 * 1000).expired());
}

TEST(DeadlineTest, EarliestComposes) {
  const Deadline inf = Deadline::Infinite();
  const Deadline near = Deadline::After(1.0);
  const Deadline far = Deadline::After(3600.0);
  EXPECT_TRUE(Deadline::Earliest(inf, inf).infinite());
  EXPECT_FALSE(Deadline::Earliest(inf, near).infinite());
  EXPECT_LE(Deadline::Earliest(far, near).remaining_seconds(), 1.0);
  EXPECT_LE(Deadline::Earliest(near, far).remaining_seconds(), 1.0);
  EXPECT_GT(Deadline::Earliest(far, inf).remaining_seconds(), 1.0);
}

TEST(CheckStopTest, OrdersCancelBeforeDeadlineAndNamesTheSite) {
  CancellationToken token;
  EXPECT_TRUE(CheckStop(ExecContext{}, "here").ok());
  EXPECT_TRUE(
      CheckStop(ExecContext{&token, Deadline::Infinite()}, "here").ok());

  const Status late =
      CheckStop(ExecContext{&token, Deadline::After(-1.0)}, "solve");
  EXPECT_EQ(late.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(late.message().find("solve"), std::string::npos);

  token.Cancel();
  // Cancellation wins even when the deadline is also expired: the caller
  // asked to stop; blaming the deadline would misreport intent.
  const Status both =
      CheckStop(ExecContext{&token, Deadline::After(-1.0)}, "solve");
  EXPECT_EQ(both.code(), StatusCode::kCancelled);
  EXPECT_NE(both.message().find("solve"), std::string::npos);
}

TEST(TimerTest, ElapsedIsMonotone) {
  WallTimer timer;
  const double t1 = timer.ElapsedSeconds();
  const double t2 = timer.ElapsedSeconds();
  EXPECT_GE(t1, 0.0);
  EXPECT_GE(t2, t1);
}

}  // namespace
}  // namespace otclean

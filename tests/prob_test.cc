#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "prob/domain.h"
#include "prob/independence.h"
#include "prob/joint.h"

namespace otclean::prob {
namespace {

// ---------------------------------------------------------------- Domain --

TEST(DomainTest, MakeValidatesInputs) {
  EXPECT_FALSE(Domain::Make({"a"}, {2, 3}).ok());
  EXPECT_FALSE(Domain::Make({"a"}, {0}).ok());
  EXPECT_TRUE(Domain::Make({"a", "b"}, {2, 3}).ok());
}

TEST(DomainTest, TotalSizeIsProduct) {
  const Domain d = Domain::FromCardinalities({2, 3, 4});
  EXPECT_EQ(d.TotalSize(), 24u);
  EXPECT_EQ(d.num_attrs(), 3u);
  EXPECT_EQ(d.Cardinality(1), 3u);
}

TEST(DomainTest, EmptyDomainHasOneCell) {
  const Domain d = Domain::FromCardinalities({});
  EXPECT_EQ(d.TotalSize(), 1u);
  EXPECT_DOUBLE_EQ(d.AverageCardinality(), 0.0);
}

TEST(DomainTest, EncodeDecodeRoundTrip) {
  const Domain d = Domain::FromCardinalities({2, 3, 4});
  for (size_t i = 0; i < d.TotalSize(); ++i) {
    EXPECT_EQ(d.Encode(d.Decode(i)), i);
  }
}

TEST(DomainTest, LastAttributeVariesFastest) {
  const Domain d = Domain::FromCardinalities({2, 3});
  EXPECT_EQ(d.Encode({0, 0}), 0u);
  EXPECT_EQ(d.Encode({0, 1}), 1u);
  EXPECT_EQ(d.Encode({1, 0}), 3u);
}

TEST(DomainTest, DecodeAttrAgreesWithDecode) {
  const Domain d = Domain::FromCardinalities({3, 2, 5});
  for (size_t i = 0; i < d.TotalSize(); ++i) {
    const auto vals = d.Decode(i);
    for (size_t a = 0; a < d.num_attrs(); ++a) {
      EXPECT_EQ(d.DecodeAttr(i, a), vals[a]);
    }
  }
}

TEST(DomainTest, AttrIndexByName) {
  const auto d = Domain::Make({"x", "y"}, {2, 2}).value();
  EXPECT_EQ(d.AttrIndex("y").value(), 1u);
  EXPECT_FALSE(d.AttrIndex("z").ok());
}

TEST(DomainTest, ProjectPreservesNamesAndCards) {
  const auto d = Domain::Make({"x", "y", "z"}, {2, 3, 4}).value();
  const Domain p = d.Project({2, 0});
  EXPECT_EQ(p.num_attrs(), 2u);
  EXPECT_EQ(p.Name(0), "z");
  EXPECT_EQ(p.Cardinality(0), 4u);
  EXPECT_EQ(p.Name(1), "x");
}

TEST(DomainTest, ProjectIndexConsistentWithDecode) {
  const Domain d = Domain::FromCardinalities({2, 3, 4});
  const std::vector<size_t> attrs = {2, 0};
  const Domain p = d.Project(attrs);
  for (size_t i = 0; i < d.TotalSize(); ++i) {
    const auto vals = d.Decode(i);
    EXPECT_EQ(p.Decode(d.ProjectIndex(i, attrs)),
              (std::vector<int>{vals[2], vals[0]}));
  }
}

TEST(DomainTest, AverageCardinality) {
  const Domain d = Domain::FromCardinalities({2, 4});
  EXPECT_DOUBLE_EQ(d.AverageCardinality(), 3.0);
}

// --------------------------------------------------------------- Joint ---

TEST(JointTest, UniformSumsToOne) {
  const Domain d = Domain::FromCardinalities({3, 3});
  const auto u = JointDistribution::Uniform(d);
  EXPECT_NEAR(u.Mass(), 1.0, 1e-12);
  EXPECT_NEAR(u[0], 1.0 / 9.0, 1e-12);
}

TEST(JointTest, MakeRejectsWrongLength) {
  const Domain d = Domain::FromCardinalities({2, 2});
  EXPECT_FALSE(JointDistribution::Make(d, linalg::Vector(3)).ok());
  EXPECT_TRUE(JointDistribution::Make(d, linalg::Vector(4)).ok());
}

TEST(JointTest, FromCountsNormalizes) {
  const Domain d = Domain::FromCardinalities({2});
  const auto p = JointDistribution::FromCounts(d, {1.0, 3.0});
  EXPECT_DOUBLE_EQ(p[0], 0.25);
  EXPECT_DOUBLE_EQ(p[1], 0.75);
}

TEST(JointTest, MarginalSumsCorrectly) {
  const Domain d = Domain::FromCardinalities({2, 2});
  JointDistribution p(d);
  p[d.Encode({0, 0})] = 0.1;
  p[d.Encode({0, 1})] = 0.2;
  p[d.Encode({1, 0})] = 0.3;
  p[d.Encode({1, 1})] = 0.4;
  const auto px = p.Marginal({0});
  EXPECT_NEAR(px[0], 0.3, 1e-12);
  EXPECT_NEAR(px[1], 0.7, 1e-12);
  const auto py = p.Marginal({1});
  EXPECT_NEAR(py[0], 0.4, 1e-12);
  EXPECT_NEAR(py[1], 0.6, 1e-12);
}

TEST(JointTest, MarginalOfAllAttrsIsIdentityUpToOrder) {
  const Domain d = Domain::FromCardinalities({2, 3});
  JointDistribution p = JointDistribution::Uniform(d);
  const auto m = p.Marginal({0, 1});
  EXPECT_TRUE(m.ApproxEquals(p, 1e-12));
}

TEST(JointTest, ConditionalOnSlicesNormalize) {
  const Domain d = Domain::FromCardinalities({2, 2});
  JointDistribution p(d);
  p[d.Encode({0, 0})] = 0.1;
  p[d.Encode({0, 1})] = 0.3;
  p[d.Encode({1, 0})] = 0.6;
  // Slice x=1,y=1 empty.
  const auto cond = p.ConditionalOn({0});
  EXPECT_NEAR(cond[d.Encode({0, 0})], 0.25, 1e-12);
  EXPECT_NEAR(cond[d.Encode({0, 1})], 0.75, 1e-12);
  EXPECT_NEAR(cond[d.Encode({1, 0})], 1.0, 1e-12);
  EXPECT_NEAR(cond[d.Encode({1, 1})], 0.0, 1e-12);
}

TEST(JointTest, EntropyUniformIsLogN) {
  const Domain d = Domain::FromCardinalities({4});
  EXPECT_NEAR(JointDistribution::Uniform(d).Entropy(), std::log(4.0), 1e-12);
}

TEST(JointTest, EntropyPointMassIsZero) {
  const Domain d = Domain::FromCardinalities({4});
  JointDistribution p(d);
  p[2] = 1.0;
  EXPECT_NEAR(p.Entropy(), 0.0, 1e-12);
}

TEST(JointTest, KlDivergenceProperties) {
  const Domain d = Domain::FromCardinalities({2});
  JointDistribution p(d), q(d);
  p[0] = 0.3;
  p[1] = 0.7;
  q[0] = 0.5;
  q[1] = 0.5;
  EXPECT_NEAR(p.KlDivergence(p), 0.0, 1e-12);
  EXPECT_GT(p.KlDivergence(q), 0.0);
  // Absolute continuity failure -> +inf.
  JointDistribution r(d);
  r[0] = 1.0;
  EXPECT_TRUE(std::isinf(p.KlDivergence(r)));
}

TEST(JointTest, TotalVariation) {
  const Domain d = Domain::FromCardinalities({2});
  JointDistribution p(d), q(d);
  p[0] = 1.0;
  q[1] = 1.0;
  EXPECT_NEAR(p.TotalVariation(q), 1.0, 1e-12);
  EXPECT_NEAR(p.TotalVariation(p), 0.0, 1e-12);
}

TEST(JointTest, SampleFollowsDistribution) {
  const Domain d = Domain::FromCardinalities({2});
  JointDistribution p(d);
  p[0] = 0.2;
  p[1] = 0.8;
  Rng rng(42);
  int ones = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) ones += static_cast<int>(p.Sample(rng));
  EXPECT_NEAR(ones / static_cast<double>(n), 0.8, 0.02);
}

TEST(JointTest, ProductDistributionFactorizes) {
  const Domain dx = Domain::FromCardinalities({2});
  const Domain dy = Domain::FromCardinalities({3});
  JointDistribution p(dx), q(dy);
  p[0] = 0.4;
  p[1] = 0.6;
  q[0] = 0.2;
  q[1] = 0.3;
  q[2] = 0.5;
  const auto pq = ProductDistribution(p, q);
  EXPECT_EQ(pq.domain().TotalSize(), 6u);
  EXPECT_NEAR(pq[pq.domain().Encode({1, 2})], 0.3, 1e-12);
  EXPECT_NEAR(pq.Mass(), 1.0, 1e-12);
}

// --------------------------------------------------------- Independence --

/// Distribution over (X,Y,Z) binary where X ⟂ Y | Z holds exactly.
JointDistribution MakeCiConsistent() {
  const Domain d = Domain::FromCardinalities({2, 2, 2});
  JointDistribution p(d);
  // P(z): {0.4, 0.6}; P(x|z), P(y|z) chosen distinct per z.
  const double pz[2] = {0.4, 0.6};
  const double px[2] = {0.3, 0.7};
  const double py[2] = {0.8, 0.2};
  for (int x = 0; x < 2; ++x) {
    for (int y = 0; y < 2; ++y) {
      for (int z = 0; z < 2; ++z) {
        const double fx = (x == 1) ? px[z] : 1.0 - px[z];
        const double fy = (y == 1) ? py[z] : 1.0 - py[z];
        p[d.Encode({x, y, z})] = pz[z] * fx * fy;
      }
    }
  }
  return p;
}

TEST(IndependenceTest, CmiZeroForConsistentDistribution) {
  const auto p = MakeCiConsistent();
  const CiSpec ci{{0}, {1}, {2}};
  EXPECT_NEAR(ConditionalMutualInformation(p, ci), 0.0, 1e-10);
  EXPECT_TRUE(SatisfiesCi(p, ci));
}

TEST(IndependenceTest, CmiPositiveForDependentDistribution) {
  const Domain d = Domain::FromCardinalities({2, 2, 2});
  JointDistribution p(d);
  // X = Y deterministically, independent of Z -> large CMI.
  p[d.Encode({0, 0, 0})] = 0.25;
  p[d.Encode({0, 0, 1})] = 0.25;
  p[d.Encode({1, 1, 0})] = 0.25;
  p[d.Encode({1, 1, 1})] = 0.25;
  const CiSpec ci{{0}, {1}, {2}};
  EXPECT_NEAR(ConditionalMutualInformation(p, ci), std::log(2.0), 1e-9);
  EXPECT_FALSE(SatisfiesCi(p, ci));
}

TEST(IndependenceTest, MarginalIndependenceEmptyZ) {
  const Domain d = Domain::FromCardinalities({2, 2});
  JointDistribution indep(d);
  indep[d.Encode({0, 0})] = 0.12;
  indep[d.Encode({0, 1})] = 0.28;
  indep[d.Encode({1, 0})] = 0.18;
  indep[d.Encode({1, 1})] = 0.42;  // P(x)P(y) with p=0.6,q=0.7
  const CiSpec ci{{0}, {1}, {}};
  EXPECT_NEAR(ConditionalMutualInformation(indep, ci), 0.0, 1e-10);
}

TEST(IndependenceTest, CmiMatchesExample32) {
  // D1 = {(0,0,1),(1,0,1),(0,1,1),(0,1,0)} violates Y ⟂ Z (Example 3.2).
  const Domain d = Domain::FromCardinalities({2, 2, 2});
  std::vector<double> counts(8, 0.0);
  counts[d.Encode({0, 0, 1})] += 1;
  counts[d.Encode({1, 0, 1})] += 1;
  counts[d.Encode({0, 1, 1})] += 1;
  counts[d.Encode({0, 1, 0})] += 1;
  const auto p = JointDistribution::FromCounts(d, counts);
  const CiSpec ci{{1}, {2}, {}};  // Y ⟂ Z
  EXPECT_GT(ConditionalMutualInformation(p, ci), 1e-3);
}

TEST(IndependenceTest, CmiStaysFiniteOnTinyCells) {
  // A 1e-170 cell whose X-Z and Y-Z marginals are both 1e-170: their
  // product underflows to 0, which must not turn its negligible
  // contribution (about 4e-168 nats) into +inf.
  const Domain d = Domain::FromCardinalities({2, 2, 2});
  JointDistribution p(d);
  for (int x = 0; x < 2; ++x) {
    for (int y = 0; y < 2; ++y) p[d.Encode({x, y, 0})] = 0.25;
  }
  p[d.Encode({0, 0, 1})] = 0.25;
  p[d.Encode({1, 1, 1})] = 1e-170;
  const double cmi = ConditionalMutualInformation(p, CiSpec{{0}, {1}, {2}});
  EXPECT_TRUE(std::isfinite(cmi));
  EXPECT_LT(cmi, 1e-12);
}

TEST(IndependenceTest, CiProjectionSatisfiesConstraint) {
  const Domain d = Domain::FromCardinalities({2, 2, 2});
  JointDistribution p(d);
  Rng rng(5);
  for (size_t i = 0; i < p.size(); ++i) p[i] = rng.NextDouble();
  p.Normalize();
  const CiSpec ci{{0}, {1}, {2}};
  const auto q = CiProjection(p, ci);
  EXPECT_NEAR(q.Mass(), 1.0, 1e-9);
  EXPECT_NEAR(ConditionalMutualInformation(q, ci), 0.0, 1e-9);
}

TEST(IndependenceTest, CiProjectionPreservesXZAndYZMarginals) {
  const Domain d = Domain::FromCardinalities({2, 2, 2});
  JointDistribution p(d);
  Rng rng(6);
  for (size_t i = 0; i < p.size(); ++i) p[i] = 0.1 + rng.NextDouble();
  p.Normalize();
  const CiSpec ci{{0}, {1}, {2}};
  const auto q = CiProjection(p, ci);
  // The I-projection onto the CI set preserves the (X,Z) and (Y,Z)
  // marginals.
  EXPECT_TRUE(q.Marginal({0, 2}).ApproxEquals(p.Marginal({0, 2}), 1e-9));
  EXPECT_TRUE(q.Marginal({1, 2}).ApproxEquals(p.Marginal({1, 2}), 1e-9));
}

TEST(IndependenceTest, CiProjectionFixedPointOnConsistentInput) {
  const auto p = MakeCiConsistent();
  const CiSpec ci{{0}, {1}, {2}};
  const auto q = CiProjection(p, ci);
  EXPECT_TRUE(q.ApproxEquals(p, 1e-9));
}

TEST(IndependenceTest, CiProjectionHandlesUnsaturated) {
  // Four attributes; constraint over the first three only.
  const Domain d = Domain::FromCardinalities({2, 2, 2, 3});
  JointDistribution p(d);
  Rng rng(7);
  for (size_t i = 0; i < p.size(); ++i) p[i] = 0.05 + rng.NextDouble();
  p.Normalize();
  const CiSpec ci{{0}, {1}, {2}};
  const auto q = CiProjection(p, ci);
  EXPECT_NEAR(q.Mass(), 1.0, 1e-9);
  EXPECT_NEAR(ConditionalMutualInformation(q, ci), 0.0, 1e-9);
  // Conditional of the extra attribute given (x,y,z) is preserved.
  const auto pc = p.ConditionalOn({0, 1, 2});
  const auto qc = q.ConditionalOn({0, 1, 2});
  EXPECT_TRUE(pc.ApproxEquals(qc, 1e-9));
}

TEST(IndependenceTest, MutualInformationOfIdenticalVariables) {
  const Domain d = Domain::FromCardinalities({2, 2});
  JointDistribution p(d);
  p[d.Encode({0, 0})] = 0.5;
  p[d.Encode({1, 1})] = 0.5;
  EXPECT_NEAR(MutualInformation(p, {0}, {1}), std::log(2.0), 1e-10);
}

TEST(IndependenceTest, CmiInvariantToScaling) {
  const Domain d = Domain::FromCardinalities({2, 2, 2});
  JointDistribution p(d);
  Rng rng(8);
  for (size_t i = 0; i < p.size(); ++i) p[i] = rng.NextDouble();
  const CiSpec ci{{0}, {1}, {2}};
  const double c1 = ConditionalMutualInformation(p, ci);
  for (size_t i = 0; i < p.size(); ++i) p[i] *= 5.0;  // unnormalized
  const double c2 = ConditionalMutualInformation(p, ci);
  EXPECT_NEAR(c1, c2, 1e-10);
}

TEST(IndependenceTest, ZeroMeasureHasZeroCmi) {
  const Domain d = Domain::FromCardinalities({2, 2, 2});
  JointDistribution p(d);
  const CiSpec ci{{0}, {1}, {2}};
  EXPECT_DOUBLE_EQ(ConditionalMutualInformation(p, ci), 0.0);
}

TEST(MultiCiProjectionTest, OneSpecRepeatsCiProjectionWhileZerosBlockIndependence) {
  // Zero cells survive CiProjection (it carries P(rest | x,y,z), which is
  // 0 on an empty (x,y,z) cell of a saturated spec), so a single spec is
  // not done after one projection: one sweep equals one CiProjection bit
  // for bit, and further sweeps keep lowering the CMI.
  const Domain dom = Domain::FromCardinalities({2, 3, 2});
  JointDistribution p(dom);
  for (size_t i = 0; i < p.size(); ++i) {
    p[i] = (i % 5 == 0) ? 0.0 : 1.0 + static_cast<double>((i * 7) % 11);
  }
  p.Normalize();
  const CiSpec ci{{0}, {1}, {2}};
  const JointDistribution once = CiProjection(p, ci);
  const JointDistribution one_sweep = MultiCiProjection(p, {ci}, 1);
  for (size_t i = 0; i < p.size(); ++i) EXPECT_EQ(one_sweep[i], once[i]) << i;
  const double cmi_once = ConditionalMutualInformation(once, ci);
  EXPECT_GT(cmi_once, 1e-10);
  const JointDistribution many = MultiCiProjection(p, {ci}, 40);
  EXPECT_LT(ConditionalMutualInformation(many, ci), cmi_once);
  for (size_t i = 0; i < p.size(); ++i) {
    if (p[i] == 0.0) {
      EXPECT_EQ(many[i], 0.0) << i;
    }
  }
}

TEST(CiProjectorTest, ReusedTablesMatchTheOneShotFunctionsBitForBit) {
  // One projector serves many distributions over its domain; each result
  // equals the one-shot MultiCiProjection, and MaxCmi the largest
  // per-spec CMI, bit for bit.
  const Domain dom = Domain::FromCardinalities({2, 3, 2, 3});
  const std::vector<CiSpec> cis = {{{0}, {1}, {2}}, {{0}, {3}, {}}};
  const CiProjector projector(dom, cis);
  Rng rng(12);
  for (size_t trial = 0; trial < 3; ++trial) {
    JointDistribution p(dom);
    for (size_t i = 0; i < p.size(); ++i) {
      p[i] = (i % 7 == trial) ? 0.0 : rng.NextDouble();
    }
    p.Normalize();
    const JointDistribution q = projector.Project(p);
    const JointDistribution ref = MultiCiProjection(p, cis);
    for (size_t i = 0; i < p.size(); ++i) EXPECT_EQ(q[i], ref[i]) << i;
    for (const JointDistribution* d : {&std::as_const(p), &q}) {
      double max_cmi = 0.0;
      for (const CiSpec& ci : cis) {
        max_cmi = std::max(max_cmi, ConditionalMutualInformation(*d, ci));
      }
      EXPECT_EQ(projector.MaxCmi(*d), max_cmi);
      EXPECT_EQ(MaxCmi(*d, cis), max_cmi);
    }
  }
}

}  // namespace
}  // namespace otclean::prob

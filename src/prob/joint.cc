#include "prob/joint.h"

#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

namespace otclean::prob {

JointDistribution::JointDistribution(Domain domain)
    : domain_(std::move(domain)), probs_(domain_.TotalSize(), 0.0) {}

Result<JointDistribution> JointDistribution::Make(Domain domain,
                                                  linalg::Vector probs) {
  if (probs.size() != domain.TotalSize()) {
    return Status::InvalidArgument(
        "JointDistribution::Make: probs length does not match domain size");
  }
  JointDistribution j;
  j.domain_ = std::move(domain);
  j.probs_ = std::move(probs);
  return j;
}

JointDistribution JointDistribution::Uniform(const Domain& domain) {
  JointDistribution j(domain);
  const double p = 1.0 / static_cast<double>(domain.TotalSize());
  for (size_t i = 0; i < j.probs_.size(); ++i) j.probs_[i] = p;
  return j;
}

JointDistribution JointDistribution::FromCounts(
    const Domain& domain, const std::vector<double>& counts) {
  assert(counts.size() == domain.TotalSize());
  JointDistribution j(domain);
  for (size_t i = 0; i < counts.size(); ++i) j.probs_[i] = counts[i];
  j.Normalize();
  return j;
}

JointDistribution JointDistribution::Marginal(
    const std::vector<size_t>& attrs) const {
  const Domain sub = domain_.Project(attrs);
  JointDistribution out(sub);
  for (size_t cell = 0; cell < probs_.size(); ++cell) {
    const double p = probs_[cell];
    if (p == 0.0) continue;
    out.probs_[domain_.ProjectIndex(cell, attrs)] += p;
  }
  return out;
}

JointDistribution JointDistribution::ConditionalOn(
    const std::vector<size_t>& attrs) const {
  // Slice mass per conditioning value.
  const Domain sub = domain_.Project(attrs);
  linalg::Vector slice_mass(sub.TotalSize(), 0.0);
  for (size_t cell = 0; cell < probs_.size(); ++cell) {
    slice_mass[domain_.ProjectIndex(cell, attrs)] += probs_[cell];
  }
  JointDistribution out(domain_);
  for (size_t cell = 0; cell < probs_.size(); ++cell) {
    const double m = slice_mass[domain_.ProjectIndex(cell, attrs)];
    out.probs_[cell] = (m > 0.0) ? probs_[cell] / m : 0.0;
  }
  return out;
}

double JointDistribution::Entropy() const {
  double h = 0.0;
  const double mass = Mass();
  if (mass <= 0.0) return 0.0;
  for (size_t i = 0; i < probs_.size(); ++i) {
    const double p = probs_[i] / mass;
    if (p > 0.0) h -= p * std::log(p);
  }
  return h;
}

double JointDistribution::KlDivergence(const JointDistribution& q) const {
  assert(domain_ == q.domain_);
  const double pm = Mass();
  const double qm = q.Mass();
  if (pm <= 0.0 || qm <= 0.0) return 0.0;
  double kl = 0.0;
  for (size_t i = 0; i < probs_.size(); ++i) {
    const double p = probs_[i] / pm;
    if (p <= 0.0) continue;
    const double qv = q.probs_[i] / qm;
    if (qv <= 0.0) return std::numeric_limits<double>::infinity();
    kl += p * std::log(p / qv);
  }
  return kl;
}

double JointDistribution::TotalVariation(const JointDistribution& q) const {
  assert(domain_ == q.domain_);
  double s = 0.0;
  for (size_t i = 0; i < probs_.size(); ++i) {
    s += std::fabs(probs_[i] - q.probs_[i]);
  }
  return 0.5 * s;
}

size_t JointDistribution::Sample(Rng& rng) const {
  const auto& w = probs_.data();
  return rng.NextCategorical(w.data(), w.size(),
                             std::accumulate(w.begin(), w.end(), 0.0));
}

std::vector<size_t> JointDistribution::SampleMany(size_t n, Rng& rng) const {
  std::vector<size_t> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = Sample(rng);
  return out;
}

JointDistribution ProductDistribution(const JointDistribution& p,
                                      const JointDistribution& q) {
  std::vector<std::string> names = p.domain().names();
  std::vector<size_t> cards = p.domain().cardinalities();
  for (size_t i = 0; i < q.domain().num_attrs(); ++i) {
    names.push_back(q.domain().Name(i));
    cards.push_back(q.domain().Cardinality(i));
  }
  // The concatenation of two valid domains is a valid domain.
  Domain product_domain;
  OTCLEAN_CHECK_OK_AND_ASSIGN(product_domain,
                              Domain::Make(std::move(names), std::move(cards)));
  JointDistribution out(std::move(product_domain));
  const size_t qn = q.size();
  for (size_t i = 0; i < p.size(); ++i) {
    const double pi = p[i];
    for (size_t j = 0; j < qn; ++j) {
      out[i * qn + j] = pi * q[j];
    }
  }
  return out;
}

}  // namespace otclean::prob

#include "genomics/privacy_metrics.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/math_util.h"

namespace ppdp::genomics {

double EntropyPrivacy(const std::vector<double>& marginal) {
  return NormalizedEntropy(marginal);
}

double EstimationError(const std::vector<double>& marginal) {
  PPDP_CHECK(marginal.size() >= 2);
  size_t guess = ArgMax(marginal);
  double span = static_cast<double>(marginal.size() - 1);
  double error = 0.0;
  for (size_t x = 0; x < marginal.size(); ++x) {
    error += marginal[x] *
             std::fabs(static_cast<double>(x) - static_cast<double>(guess)) / span;
  }
  return error;
}

bool SatisfiesDeltaPrivacy(const std::vector<std::vector<double>>& marginals, double delta) {
  return std::all_of(marginals.begin(), marginals.end(), [delta](const std::vector<double>& m) {
    return EntropyPrivacy(m) >= delta - 1e-12;
  });
}

namespace {

/// Summarizes `count` target marginals, the i-th read as marginal(i).
template <typename Marginal>
PrivacyReport SummarizeTargets(size_t count, Marginal marginal) {
  PrivacyReport report;
  if (count == 0) return report;
  double entropy_sum = 0.0;
  double error_sum = 0.0;
  report.min_entropy = 1.0;
  for (size_t i = 0; i < count; ++i) {
    const std::vector<double>& m = marginal(i);
    double h = EntropyPrivacy(m);
    entropy_sum += h;
    report.min_entropy = std::min(report.min_entropy, h);
    error_sum += EstimationError(m);
  }
  report.mean_entropy = entropy_sum / static_cast<double>(count);
  report.mean_error = error_sum / static_cast<double>(count);
  return report;
}

}  // namespace

PrivacyReport EvaluateTraitPrivacy(const GenomeAttackResult& attack,
                                   const std::vector<size_t>& target_traits) {
  for (size_t t : target_traits) {
    PPDP_CHECK(t < attack.trait_marginals.size()) << "target trait out of range";
  }
  return SummarizeTargets(target_traits.size(), [&](size_t i) -> const std::vector<double>& {
    return attack.trait_marginals[target_traits[i]];
  });
}

PrivacyReport EvaluateTraitPrivacy(const std::vector<std::vector<double>>& target_marginals) {
  return SummarizeTargets(target_marginals.size(), [&](size_t i) -> const std::vector<double>& {
    return target_marginals[i];
  });
}

size_t ReleasedSnpCount(const TargetView& view) {
  size_t count = 0;
  for (size_t s = 0; s < view.snp_known.size(); ++s) {
    if (view.snp_known[s] && view.individual.genotypes[s] != kUnknownGenotype) ++count;
  }
  return count;
}

}  // namespace ppdp::genomics

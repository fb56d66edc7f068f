#ifndef PPDP_CORE_TRADEOFF_PUBLISHER_H_
#define PPDP_CORE_TRADEOFF_PUBLISHER_H_

#include <vector>

#include "common/result.h"
#include "core/publisher.h"
#include "core/publisher_options.h"
#include "graph/social_graph.h"
#include "tradeoff/attribute_strategy.h"
#include "tradeoff/collective_strategy.h"
#include "tradeoff/profile.h"

namespace ppdp::core {

/// High-level chapter-4 API: builds the candidate-space profile from a
/// graph, solves the optimal attribute-sanitization LP under a
/// prediction-utility threshold, and runs the graph-level strategy
/// comparisons. Typical flow:
///
///   auto pub = TradeoffPublisher::Create(graph, {.known_fraction = 0.7, .seed = 1});
///   if (!pub.ok()) return pub.status();
///   auto optimal = pub->OptimizeAttributeStrategy(/*delta=*/0.4);
///   auto outcome = pub->Apply(tradeoff::Strategy::kCollectiveSanitization, config);
class TradeoffPublisher : public Publisher {
 public:
  /// Validates `options` and builds a publisher over a working copy of
  /// `graph` (mask sampled as in SocialPublisher::Create).
  static Result<TradeoffPublisher> Create(graph::SocialGraph graph,
                                          const PublisherOptions& options);

  PublisherKind kind() const override { return PublisherKind::kTradeoff; }

  Status Validate(const PublishConfig& config) const override;

  /// Unified entry point: applies config.strategy with the config's counts
  /// and δ, plus one zero-op strategy run to measure baseline latent
  /// privacy. privacy_* is latent privacy (adversary 0/1 error, higher =
  /// safer); utility_loss is the prediction loss. The collective attack
  /// runs at the construction `options.threads` width.
  Result<PublishOutput> Publish(const PublishConfig& config) const override;

  /// Builds the (ε, δ)-UtiOptPri attribute-side problem over the
  /// `max_sets` most frequent attribute vectors.
  tradeoff::StrategyProblem BuildProblem(double delta, size_t max_sets = 6) const;

  /// Solves the LP of Section 4.5.1 exactly.
  Result<tradeoff::StrategyResult> OptimizeAttributeStrategy(double delta,
                                                             size_t max_sets = 6) const;

  /// Runs one of the Fig-4.1 strategies on a copy of the graph and measures
  /// the tradeoff.
  tradeoff::TradeoffOutcome Apply(tradeoff::Strategy strategy,
                                  const tradeoff::TradeoffConfig& config) const;

  const graph::SocialGraph& graph() const { return graph_; }
  const std::vector<bool>& known() const { return known_; }
  int threads() const { return threads_; }

 private:
  TradeoffPublisher(graph::SocialGraph graph, std::vector<bool> known, int threads);

  graph::SocialGraph graph_;
  std::vector<bool> known_;
  int threads_ = 0;
};

}  // namespace ppdp::core

#endif  // PPDP_CORE_TRADEOFF_PUBLISHER_H_

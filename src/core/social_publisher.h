#ifndef PPDP_CORE_SOCIAL_PUBLISHER_H_
#define PPDP_CORE_SOCIAL_PUBLISHER_H_

#include <cstddef>
#include <vector>

#include "classify/evaluation.h"
#include "common/result.h"
#include "common/rng.h"
#include "core/publisher.h"
#include "core/publisher_options.h"
#include "graph/social_graph.h"
#include "sanitize/collective_sanitizer.h"

namespace ppdp::core {

/// High-level chapter-3 API: owns a working copy of a social graph plus an
/// attacker-visibility mask, exposes the attack models for measurement and
/// the sanitization moves (attribute removal, indistinguishable-link
/// removal, the collective method) for defense. Typical flow:
///
///   auto pub = SocialPublisher::Create(graph, {.known_fraction = 0.7, .seed = 1});
///   if (!pub.ok()) return pub.status();
///   double before = pub->AttackAccuracy(AttackModel::kCollective, LocalModel::kRst);
///   pub->SanitizeCollective({.utility_category = 1});
///   double after = pub->AttackAccuracy(AttackModel::kCollective, LocalModel::kRst);
class SocialPublisher : public Publisher {
 public:
  /// Validates `options` and builds a publisher over a working copy of
  /// `graph`; `options.known_fraction` of node labels are attacker-visible
  /// (sampled with `options.seed`), and `options.threads` becomes the
  /// default execution width of every attack measurement.
  static Result<SocialPublisher> Create(graph::SocialGraph graph,
                                        const PublisherOptions& options);

  PublisherKind kind() const override { return PublisherKind::kSocial; }

  Status Validate(const PublishConfig& config) const override;

  /// Unified entry point: measures the collective-attack accuracy and
  /// utility accuracy, runs Algorithm 2 on a working copy (the held graph
  /// is untouched), and measures again. privacy_* is adversary accuracy on
  /// the sensitive label; utility_loss is the utility-accuracy drop.
  Result<PublishOutput> Publish(const PublishConfig& config) const override;

  /// Accuracy of the given attack against the current (possibly sanitized)
  /// graph. When `config` leaves `threads` at 0 the publisher's construction
  /// default applies.
  double AttackAccuracy(classify::AttackModel attack, classify::LocalModel local,
                        const classify::CollectiveConfig& config = {}) const;

  /// Majority-class baseline accuracy (the prior of Definition 3.2.6).
  double PriorAccuracy() const;

  /// Masks the `count` most privacy-dependent attribute categories
  /// (conditions exclude `utility_category`). Returns how many were masked.
  size_t RemoveTopPrivacyAttributes(size_t count, size_t utility_category);

  /// Removes the `count` most indistinguishable links (Definition 3.5.1).
  /// Returns how many were removed.
  size_t RemoveIndistinguishableLinks(size_t count);

  /// Applies the full collective method (Algorithm 2).
  sanitize::SanitizeReport SanitizeCollective(const sanitize::CollectiveSanitizeOptions& options);

  /// Privacy/utility measurement for the tradeoff tables.
  sanitize::PrivacyUtility MeasurePrivacyUtility(
      size_t utility_category, classify::LocalModel local,
      const classify::CollectiveConfig& config = {}) const;

  const graph::SocialGraph& graph() const { return graph_; }
  const std::vector<bool>& known() const { return known_; }
  int threads() const { return threads_; }

 private:
  SocialPublisher(graph::SocialGraph graph, std::vector<bool> known, int threads);

  /// Applies the publisher's default execution width to a per-call config
  /// that did not pick one.
  classify::CollectiveConfig Effective(const classify::CollectiveConfig& config) const;

  graph::SocialGraph graph_;
  std::vector<bool> known_;
  int threads_ = 0;
};

}  // namespace ppdp::core

#endif  // PPDP_CORE_SOCIAL_PUBLISHER_H_

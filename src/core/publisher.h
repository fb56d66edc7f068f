#ifndef PPDP_CORE_PUBLISHER_H_
#define PPDP_CORE_PUBLISHER_H_

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "core/publisher_options.h"
#include "genomics/genome_data.h"
#include "genomics/gwas_catalog.h"
#include "graph/social_graph.h"
#include "tradeoff/collective_strategy.h"

namespace ppdp::core {

/// The three dissertation publishing pipelines a caller can ask for by name
/// (the serve API carries the name in its JSON requests).
enum class PublisherKind {
  kSocial,    ///< chapter 3: collective sanitization of a social graph
  kTradeoff,  ///< chapter 4: privacy-utility tradeoff strategies
  kGenome,    ///< chapter 5: δ-privacy GPUT sanitization of a genome view
};

/// Stable lowercase tag ("social", "tradeoff", "genome").
const char* PublisherKindName(PublisherKind kind);
/// Inverse of PublisherKindName; kInvalidArgument for unknown names.
Result<PublisherKind> ParsePublisherKind(std::string_view name);

/// Cross-publisher knobs of one Publish() run. Each pipeline reads the
/// subset that applies to it and ignores the rest, so one config type can
/// travel from a JSON request body to any publisher.
struct PublishConfig {
  /// Privacy target: δ-privacy entropy floor (genome) / prediction-utility
  /// threshold δ (tradeoff).
  double delta = 0.4;
  /// The designated utility attribute category (social, tradeoff).
  size_t utility_category = 1;
  /// Attribute / link sanitization counts (tradeoff strategies).
  size_t num_attributes = 2;
  size_t num_links = 4;
  /// Which Fig-4.1 strategy a tradeoff publisher applies.
  tradeoff::Strategy strategy = tradeoff::Strategy::kCollectiveSanitization;
  /// Hidden traits to protect (genome); empty means trait 0.
  std::vector<size_t> target_traits;
};

/// What one Publish() run measured and did. The privacy scale is
/// kind-specific — adversary accuracy on the sensitive label for "social"
/// (lower after = safer), latent privacy for "tradeoff" (higher = safer;
/// before is measured by a zero-op strategy run), min target-trait entropy
/// for "genome" (higher = safer) — and utility_loss is the matching
/// utility drop (accuracy points, prediction loss, or fraction of SNPs
/// withheld).
struct PublishOutput {
  std::string kind;
  double privacy_before = 0.0;
  double privacy_after = 0.0;
  double utility_loss = 0.0;
  size_t attributes_sanitized = 0;  ///< categories masked/perturbed, SNPs hidden
  size_t links_removed = 0;
  size_t items_released = 0;  ///< genome: SNPs still published
  bool satisfied = true;      ///< genome: δ-privacy reached (true elsewhere)

  /// Flat JSON object with exactly the fields above (serve response bodies).
  JsonValue ToJson() const;
};

/// The unified publishing interface: every chapter's pipeline constructs
/// from a corpus + PublisherOptions and then exposes one repeatable
/// Publish() entry point, so callers like the serve daemon dispatch
/// generically instead of switch-casing on corpus type. Publish() is const
/// — it sanitizes a working copy, never the held corpus — which makes a
/// publisher safely shareable across concurrent requests and makes equal
/// configs yield equal results (what request coalescing relies on).
class Publisher {
 public:
  virtual ~Publisher() = default;

  virtual PublisherKind kind() const = 0;

  /// The config checks that depend on the corpus (δ range, trait index,
  /// utility category): kInvalidArgument when `config` cannot run. Cheap
  /// and side-effect free, so a server can refuse a request before
  /// charging it.
  virtual Status Validate(const PublishConfig& config) const = 0;

  /// One full measure → sanitize → measure publishing run under `config`.
  /// Calls Validate first: invalid config values surface as
  /// kInvalidArgument, not a crash.
  virtual Result<PublishOutput> Publish(const PublishConfig& config) const = 0;
};

/// Heap-allocating factories over the concrete publishers' Create chains,
/// returning them behind the unified interface. The graph overload serves
/// kSocial and kTradeoff (kGenome is rejected: wrong corpus); the catalog
/// overload always builds the genome publisher.
Result<std::unique_ptr<Publisher>> CreatePublisher(PublisherKind kind, graph::SocialGraph graph,
                                                   const PublisherOptions& options);
Result<std::unique_ptr<Publisher>> CreatePublisher(genomics::GwasCatalog catalog,
                                                   genomics::TargetView view,
                                                   const PublisherOptions& options);

}  // namespace ppdp::core

#endif  // PPDP_CORE_PUBLISHER_H_

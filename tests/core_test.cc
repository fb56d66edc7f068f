#include "core/ppdp.h"

#include <gtest/gtest.h>

#include <limits>

namespace ppdp::core {
namespace {

TEST(SocialPublisherTest, AttackAndSanitizeFlow) {
  graph::SocialGraph g = GenerateSyntheticGraph(graph::CaltechLikeConfig(0.2, 11));
  auto created = SocialPublisher::Create(g, {.known_fraction = 0.7, .seed = 1});
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  SocialPublisher& pub = *created;

  double before = pub.AttackAccuracy(classify::AttackModel::kCollective,
                                     classify::LocalModel::kNaiveBayes);
  EXPECT_GT(before, pub.PriorAccuracy() - 0.1);

  auto report = pub.SanitizeCollective({.utility_category = 1, .generalization_level = 4});
  EXPECT_FALSE(report.analysis.privacy_dependent.empty());

  double after = pub.AttackAccuracy(classify::AttackModel::kCollective,
                                    classify::LocalModel::kNaiveBayes);
  EXPECT_LE(after, before + 0.05);  // sanitization never substantially helps the attacker
}

TEST(SocialPublisherTest, AttributeAndLinkMovesShrinkAttackSurface) {
  graph::SocialGraph g = GenerateSyntheticGraph(graph::CaltechLikeConfig(0.2, 11));
  auto created = SocialPublisher::Create(g, {.known_fraction = 0.7, .seed = 1});
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  SocialPublisher& pub = *created;
  EXPECT_EQ(pub.RemoveTopPrivacyAttributes(2, /*utility_category=*/1), 2u);
  size_t edges_before = pub.graph().num_edges();
  EXPECT_EQ(pub.RemoveIndistinguishableLinks(30), 30u);
  EXPECT_EQ(pub.graph().num_edges(), edges_before - 30);
}

TEST(SocialPublisherTest, MeasurePrivacyUtility) {
  graph::SocialGraph g = GenerateSyntheticGraph(graph::CaltechLikeConfig(0.2, 11));
  auto created = SocialPublisher::Create(g, {.known_fraction = 0.7, .seed = 1});
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  SocialPublisher& pub = *created;
  auto pu = pub.MeasurePrivacyUtility(1, classify::LocalModel::kNaiveBayes);
  EXPECT_GT(pu.privacy_accuracy, 0.0);
  EXPECT_GT(pu.utility_accuracy, 0.0);
}

TEST(TradeoffPublisherTest, OptimizeAndApply) {
  graph::SocialGraph g = GenerateSyntheticGraph(graph::CaltechLikeConfig(0.2, 11));
  auto created = TradeoffPublisher::Create(g, {.known_fraction = 0.7, .seed = 1});
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  TradeoffPublisher& pub = *created;

  auto optimal = pub.OptimizeAttributeStrategy(/*delta=*/0.4);
  ASSERT_TRUE(optimal.ok()) << optimal.status().ToString();
  EXPECT_GE(optimal->latent_privacy, 0.0);
  EXPECT_LE(optimal->prediction_utility_loss, 0.4 + 1e-6);

  tradeoff::TradeoffConfig config;
  config.num_attributes = 2;
  config.num_links = 10;
  config.epsilon = 80.0;
  config.utility_category = 1;
  auto outcome = pub.Apply(tradeoff::Strategy::kCollectiveSanitization, config);
  EXPECT_GE(outcome.latent_privacy, 0.0);
  EXPECT_LE(outcome.structure_loss, config.epsilon + 1e-9);
}

TEST(GenomePublisherTest, AttackAndPublishFlow) {
  Rng rng(5);
  genomics::SyntheticCatalogConfig config;
  config.num_snps = 120;
  config.snps_per_trait = 4;
  genomics::GwasCatalog catalog = genomics::GenerateSyntheticCatalog(config, rng);
  genomics::Individual person = genomics::SampleIndividual(catalog, rng);
  genomics::TargetView view = genomics::MakeTargetView(catalog, person, {});

  auto created = GenomePublisher::Create(catalog, view, {});
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  GenomePublisher& pub = *created;
  size_t released_before = pub.ReleasedSnps();
  auto attack = pub.Attack(genomics::AttackMethod::kBeliefPropagation);
  EXPECT_EQ(attack.trait_marginals.size(), catalog.num_traits());

  std::vector<size_t> targets = {0, 3};
  auto before = pub.Privacy(targets, genomics::AttackMethod::kBeliefPropagation);
  auto result = pub.PublishWithDeltaPrivacy(/*delta=*/0.5, targets);
  auto after = pub.Privacy(targets, genomics::AttackMethod::kBeliefPropagation);
  EXPECT_GE(after.min_entropy, before.min_entropy - 1e-9);
  EXPECT_EQ(pub.ReleasedSnps(), released_before - result.sanitized.size());
}

TEST(GenomePublisherTest, ZeroDeltaRequiresNoSanitization) {
  Rng rng(5);
  genomics::SyntheticCatalogConfig config;
  config.num_snps = 80;
  genomics::GwasCatalog catalog = genomics::GenerateSyntheticCatalog(config, rng);
  genomics::Individual person = genomics::SampleIndividual(catalog, rng);
  auto created = GenomePublisher::Create(catalog, genomics::MakeTargetView(catalog, person, {}), {});
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  GenomePublisher& pub = *created;
  auto result = pub.PublishWithDeltaPrivacy(0.0, {0});
  EXPECT_TRUE(result.satisfied);
  EXPECT_TRUE(result.sanitized.empty());
}

TEST(PublisherOptionsTest, ValidatesKnownFraction) {
  EXPECT_TRUE((PublisherOptions{}).Validate().ok());
  EXPECT_EQ((PublisherOptions{.known_fraction = 0.0}).Validate().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((PublisherOptions{.known_fraction = 1.5}).Validate().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((PublisherOptions{.known_fraction = -0.2}).Validate().code(),
            StatusCode::kInvalidArgument);
}

TEST(PublisherOptionsTest, ValidatesThreads) {
  EXPECT_TRUE((PublisherOptions{.threads = 8}).Validate().ok());
  EXPECT_EQ((PublisherOptions{.threads = -1}).Validate().code(),
            StatusCode::kInvalidArgument);
}

TEST(SocialPublisherTest, CreateRejectsBadOptionsAndEmptyGraph) {
  graph::SocialGraph g = GenerateSyntheticGraph(graph::CaltechLikeConfig(0.2, 11));
  EXPECT_EQ(SocialPublisher::Create(g, {.known_fraction = 2.0}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SocialPublisher::Create(g, {.threads = -3}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SocialPublisher::Create(graph::SocialGraph({}, 2), {}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SocialPublisherTest, CreateStoresDefaultThreads) {
  graph::SocialGraph g = GenerateSyntheticGraph(graph::CaltechLikeConfig(0.2, 11));
  auto pub = SocialPublisher::Create(g, {.threads = 2});
  ASSERT_TRUE(pub.ok());
  EXPECT_EQ(pub->threads(), 2);
}

TEST(SocialPublisherTest, CreateMatchesBuildKnownMask) {
  // The deprecated throwing constructors are gone; every publisher's mask
  // now flows through the one BuildKnownMask head, so Create must agree
  // with it (and with any other publisher built from the same options).
  graph::SocialGraph g = GenerateSyntheticGraph(graph::CaltechLikeConfig(0.2, 11));
  PublisherOptions options{.known_fraction = 0.7, .seed = 1};
  auto pub = SocialPublisher::Create(g, options);
  ASSERT_TRUE(pub.ok());
  auto mask = BuildKnownMask(g, options);
  ASSERT_TRUE(mask.ok());
  EXPECT_EQ(pub->known(), *mask);
  auto tradeoff = TradeoffPublisher::Create(g, options);
  ASSERT_TRUE(tradeoff.ok());
  EXPECT_EQ(tradeoff->known(), *mask);
}

TEST(PublisherOptionsTest, BuildKnownMaskAnnotatesValidationErrors) {
  graph::SocialGraph g = GenerateSyntheticGraph(graph::CaltechLikeConfig(0.2, 11));
  auto bad = BuildKnownMask(g, {.known_fraction = 0.0});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find("PublisherOptions"), std::string::npos);
}

TEST(TradeoffPublisherTest, CreateRejectsBadOptionsAndEmptyGraph) {
  graph::SocialGraph g = GenerateSyntheticGraph(graph::CaltechLikeConfig(0.2, 11));
  EXPECT_EQ(TradeoffPublisher::Create(g, {.known_fraction = -1.0}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(TradeoffPublisher::Create(graph::SocialGraph({}, 2), {}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(GenomePublisherTest, CreateRejectsBadOptionsAndEmptyCatalog) {
  Rng rng(5);
  genomics::SyntheticCatalogConfig config;
  config.num_snps = 40;
  genomics::GwasCatalog catalog = genomics::GenerateSyntheticCatalog(config, rng);
  genomics::Individual person = genomics::SampleIndividual(catalog, rng);
  genomics::TargetView view = genomics::MakeTargetView(catalog, person, {});
  EXPECT_EQ(GenomePublisher::Create(catalog, view, {.threads = -1}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(GenomePublisher::Create(genomics::GwasCatalog(0), view, {}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PublisherInterfaceTest, KindNamesRoundTrip) {
  for (PublisherKind kind :
       {PublisherKind::kSocial, PublisherKind::kTradeoff, PublisherKind::kGenome}) {
    auto parsed = ParsePublisherKind(PublisherKindName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_EQ(ParsePublisherKind("mystery").status().code(), StatusCode::kInvalidArgument);
}

TEST(PublisherInterfaceTest, GraphFactoryServesGraphKindsAndRejectsGenome) {
  graph::SocialGraph g = GenerateSyntheticGraph(graph::CaltechLikeConfig(0.2, 11));
  auto social = CreatePublisher(PublisherKind::kSocial, g, {.seed = 1});
  ASSERT_TRUE(social.ok()) << social.status().ToString();
  EXPECT_EQ((*social)->kind(), PublisherKind::kSocial);
  auto tradeoff = CreatePublisher(PublisherKind::kTradeoff, g, {.seed = 1});
  ASSERT_TRUE(tradeoff.ok());
  EXPECT_EQ((*tradeoff)->kind(), PublisherKind::kTradeoff);
  EXPECT_EQ(CreatePublisher(PublisherKind::kGenome, g, {}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PublisherInterfaceTest, UnifiedPublishRunsEveryKind) {
  graph::SocialGraph g = GenerateSyntheticGraph(graph::CaltechLikeConfig(0.2, 11));
  Rng rng(5);
  genomics::SyntheticCatalogConfig catalog_config;
  catalog_config.num_snps = 60;
  genomics::GwasCatalog catalog = genomics::GenerateSyntheticCatalog(catalog_config, rng);
  genomics::Individual person = genomics::SampleIndividual(catalog, rng);
  genomics::TargetView view = genomics::MakeTargetView(catalog, person, {});

  std::vector<std::unique_ptr<Publisher>> publishers;
  auto social = CreatePublisher(PublisherKind::kSocial, g, {.seed = 1, .threads = 2});
  ASSERT_TRUE(social.ok());
  publishers.push_back(std::move(*social));
  auto tradeoff = CreatePublisher(PublisherKind::kTradeoff, g, {.seed = 1, .threads = 2});
  ASSERT_TRUE(tradeoff.ok());
  publishers.push_back(std::move(*tradeoff));
  auto genome = CreatePublisher(std::move(catalog), std::move(view), {.threads = 2});
  ASSERT_TRUE(genome.ok());
  publishers.push_back(std::move(*genome));

  PublishConfig config;
  for (const auto& publisher : publishers) {
    auto output = publisher->Publish(config);
    ASSERT_TRUE(output.ok()) << output.status().ToString();
    EXPECT_EQ(output->kind, PublisherKindName(publisher->kind()));
    JsonValue json = output->ToJson();
    EXPECT_TRUE(json.Has("privacy_before"));
    EXPECT_TRUE(json.Has("privacy_after"));
    EXPECT_TRUE(json.Has("utility_loss"));
    EXPECT_TRUE(json.Has("satisfied"));

    // Publish is const: a second identical run yields the identical output
    // (the determinism request coalescing in the serve layer relies on).
    auto again = publisher->Publish(config);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->privacy_before, output->privacy_before);
    EXPECT_EQ(again->privacy_after, output->privacy_after);
    EXPECT_EQ(again->attributes_sanitized, output->attributes_sanitized);
  }
}

TEST(PublisherInterfaceTest, PublishRejectsBadConfigInsteadOfCrashing) {
  // Validate is the check Publish runs first: the same verdict, no run.
  auto rejects = [](const Publisher& publisher, const PublishConfig& config) {
    const Status valid = publisher.Validate(config);
    EXPECT_EQ(valid.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(publisher.Publish(config).status().ToString(), valid.ToString());
  };
  graph::SocialGraph g = GenerateSyntheticGraph(graph::CaltechLikeConfig(0.2, 11));
  auto social = CreatePublisher(PublisherKind::kSocial, g, {.seed = 1});
  ASSERT_TRUE(social.ok());
  EXPECT_TRUE((*social)->Validate(PublishConfig{}).ok());
  PublishConfig bad_category;
  bad_category.utility_category = 999;
  rejects(**social, bad_category);

  auto tradeoff = CreatePublisher(PublisherKind::kTradeoff, g, {.seed = 1});
  ASSERT_TRUE(tradeoff.ok());
  EXPECT_TRUE((*tradeoff)->Validate(PublishConfig{}).ok());
  rejects(**tradeoff, bad_category);

  Rng rng(5);
  genomics::SyntheticCatalogConfig catalog_config;
  catalog_config.num_snps = 40;
  genomics::GwasCatalog catalog = genomics::GenerateSyntheticCatalog(catalog_config, rng);
  genomics::Individual person = genomics::SampleIndividual(catalog, rng);
  auto genome =
      CreatePublisher(catalog, genomics::MakeTargetView(catalog, person, {}), {});
  ASSERT_TRUE(genome.ok());
  EXPECT_TRUE((*genome)->Validate(PublishConfig{}).ok());
  PublishConfig bad_trait;
  bad_trait.target_traits = {catalog.num_traits() + 7};
  rejects(**genome, bad_trait);
  for (double delta : {1.5, -0.1, std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE(delta);
    PublishConfig bad_delta;
    bad_delta.delta = delta;
    rejects(**genome, bad_delta);
  }
}

}  // namespace
}  // namespace ppdp::core

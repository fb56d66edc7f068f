// Cross-thread-count determinism: every parallelized pipeline must produce
// byte-identical output at --threads 1 (the exact serial fallback), 2, and
// 8, and across repeated runs at the same width. These are exact ==
// comparisons on the raw doubles — "close enough" is a scheduling bug.
//
// The honored PPDP_TEST_THREADS environment variable adds one more width to
// the sweep (CI runs the sanitizer jobs with PPDP_TEST_THREADS=4).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <ios>
#include <utility>
#include <vector>

#include "classify/collective.h"
#include "classify/evaluation.h"
#include "classify/gibbs.h"
#include "classify/naive_bayes.h"
#include "common/hash.h"
#include "common/rng.h"
#include "dp/synthesizer.h"
#include "fault/fault.h"
#include "genomics/genome_data.h"
#include "genomics/gwas_catalog.h"
#include "genomics/inference_attack.h"
#include "genomics/snp_sanitizer.h"
#include "graph/graph_generators.h"

namespace ppdp {
namespace {

std::vector<int> ThreadSweep() {
  std::vector<int> sweep = {1, 2, 8};
  if (const char* env = std::getenv("PPDP_TEST_THREADS")) {
    int extra = std::atoi(env);
    if (extra > 0) sweep.push_back(extra);
  }
  return sweep;
}

struct SocialFixture {
  graph::SocialGraph g;
  std::vector<bool> known;

  SocialFixture() : g(graph::GenerateSyntheticGraph(graph::CaltechLikeConfig(0.15, 19))) {
    Rng rng(3);
    known = classify::SampleKnownMask(g, 0.7, rng);
  }
};

TEST(DeterminismTest, IcaIsByteIdenticalAcrossThreadCounts) {
  SocialFixture fx;
  auto run = [&](int threads) {
    classify::NaiveBayesClassifier local;
    classify::CollectiveConfig config;
    config.threads = threads;
    return classify::CollectiveInference(fx.g, fx.known, local, config);
  };
  auto serial = run(1);
  auto repeat = run(1);
  EXPECT_EQ(serial.distributions, repeat.distributions) << "serial run is not reproducible";
  for (int threads : ThreadSweep()) {
    auto parallel = run(threads);
    EXPECT_EQ(serial.distributions, parallel.distributions) << "threads=" << threads;
    EXPECT_EQ(serial.iterations, parallel.iterations) << "threads=" << threads;
    EXPECT_EQ(serial.converged, parallel.converged) << "threads=" << threads;
  }
}

TEST(DeterminismTest, MultiChainGibbsIsByteIdenticalAcrossThreadCounts) {
  SocialFixture fx;
  auto run = [&](int threads) {
    classify::NaiveBayesClassifier local;
    classify::GibbsConfig config;
    config.burn_in = 5;
    config.samples = 20;
    config.chains = 4;
    config.seed = 11;
    config.threads = threads;
    return classify::GibbsCollectiveInference(fx.g, fx.known, local, config);
  };
  auto serial = run(1);
  auto repeat = run(1);
  EXPECT_EQ(serial.distributions, repeat.distributions) << "serial run is not reproducible";
  for (int threads : ThreadSweep()) {
    auto parallel = run(threads);
    EXPECT_EQ(serial.distributions, parallel.distributions) << "threads=" << threads;
  }
}

/// Chains the raw bytes of every double in `rows` into `h`.
uint64_t HashRows(const std::vector<std::vector<double>>& rows, uint64_t h) {
  for (const std::vector<double>& row : rows) {
    h = Fnv1a64(row.data(), row.size() * sizeof(double), h);
  }
  return h;
}

TEST(DeterminismTest, BeliefPropagationBitsArePinned) {
  // Belief propagation runs serially, so there is no width to sweep;
  // instead its exact output bits are pinned. The corpus is the serving
  // daemon's default genome panel (300 SNPs, seed 7); each of 40 views
  // hides one SNP: every SNP the attack graph models (33), then the first
  // unmodelled ones, whose views leave the graph's evidence as published.
  // The digests cover sum-product marginals at damping 0 and 0.4 (plus
  // iteration counts) and the max-product reconstruction, so any
  // reordering of BP's floating-point operations shows up here.
  Rng rng(7);
  genomics::SyntheticCatalogConfig catalog_config;
  catalog_config.num_snps = 300;
  const genomics::GwasCatalog catalog = genomics::GenerateSyntheticCatalog(catalog_config, rng);
  const genomics::Individual person = genomics::SampleIndividual(catalog, rng);
  const genomics::TargetView base = genomics::MakeTargetView(catalog, person, {});

  uint64_t plain = kFnv1a64Basis;
  uint64_t damped = kFnv1a64Basis;
  uint64_t map = kFnv1a64Basis;
  std::vector<size_t> hidden(catalog.num_snps());
  for (size_t s = 0; s < hidden.size(); ++s) hidden[s] = s;
  std::stable_partition(hidden.begin(), hidden.end(),
                        [&](size_t s) { return !catalog.AssociationsOfSnp(s).empty(); });
  hidden.resize(40);
  for (size_t s : hidden) {
    genomics::TargetView view = base;
    view.snp_known[s] = false;
    for (double damping : {0.0, 0.4}) {
      genomics::FactorGraph::BpOptions options;
      options.damping = damping;
      const genomics::GenomeAttackResult attack = genomics::RunGenomeInference(
          catalog, view, genomics::AttackMethod::kBeliefPropagation, options);
      uint64_t& h = damping == 0.0 ? plain : damped;
      h = HashRows(attack.trait_marginals, h);
      h = HashRows(attack.snp_marginals, h);
      h = Fnv1a64(&attack.bp_iterations, sizeof(attack.bp_iterations), h);
    }
    const genomics::GenomeReconstruction reconstruction =
        genomics::ReconstructGenome(catalog, view);
    map = Fnv1a64(reconstruction.genotypes.data(), reconstruction.genotypes.size(), map);
    map = Fnv1a64(reconstruction.traits.data(), reconstruction.traits.size(), map);
  }
  EXPECT_EQ(plain, 0x94cd836262077c1eULL) << std::hex << plain;
  EXPECT_EQ(damped, 0x9f4b0da8218a3adeULL) << std::hex << damped;
  EXPECT_EQ(map, 0xaf2b1e1bd72e0a71ULL) << std::hex << map;
}

/// Chains a greedy sanitizer's whole output into `h`: the pick order, the
/// privacy trace doubles, the verdict, the released count and the
/// sanitized view's published mask.
uint64_t HashGput(const genomics::GputResult& result, const genomics::TargetView& sanitized,
                  uint64_t h) {
  h = Fnv1a64(result.sanitized.data(), result.sanitized.size() * sizeof(size_t), h);
  h = Fnv1a64(result.privacy_trace.data(), result.privacy_trace.size() * sizeof(double), h);
  const unsigned char satisfied = result.satisfied ? 1 : 0;
  h = Fnv1a64(&satisfied, 1, h);
  h = Fnv1a64(&result.released, sizeof(result.released), h);
  for (bool known : sanitized.snp_known) {
    const unsigned char bit = known ? 1 : 0;
    h = Fnv1a64(&bit, 1, h);
  }
  return h;
}

TEST(DeterminismTest, GreedySanitizeBitsArePinned) {
  // GreedySanitize scores every candidate SNP by rerunning the attack, so
  // its picks and privacy trace carry BP's exact bits. The serving digest
  // covers the 16 target sets the serving benchmark cycles through (each
  // single trait and each adjacent pair) at eight deltas on the daemon's
  // default panel (300 SNPs, seed 7). The other digests pin the paths that
  // panel does not reach: damped BP, the Naive Bayes attack, a cap on the
  // number of hidden SNPs, and a catalog with LD factors and a published
  // trait.
  Rng rng(7);
  genomics::SyntheticCatalogConfig catalog_config;
  catalog_config.num_snps = 300;
  const genomics::GwasCatalog catalog = genomics::GenerateSyntheticCatalog(catalog_config, rng);
  const genomics::Individual person = genomics::SampleIndividual(catalog, rng);
  const genomics::TargetView base = genomics::MakeTargetView(catalog, person, {});

  std::vector<std::vector<size_t>> sets;
  const size_t traits = catalog.num_traits();
  for (size_t t = 0; t < traits; ++t) sets.push_back({t});
  for (size_t t = 0; t < traits; ++t) sets.push_back({t, (t + 1) % traits});

  auto run = [&](const genomics::GwasCatalog& c, const genomics::TargetView& view,
                 const genomics::GputOptions& options, std::vector<double> deltas) {
    uint64_t h = kFnv1a64Basis;
    for (const std::vector<size_t>& set : sets) {
      for (double delta : deltas) {
        genomics::GputOptions o = options;
        o.delta = delta;
        genomics::TargetView sanitized;
        const genomics::GputResult result = genomics::GreedySanitize(c, view, set, o, &sanitized);
        h = HashGput(result, sanitized, h);
      }
    }
    return h;
  };

  const uint64_t serving =
      run(catalog, base, {}, {0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95});
  genomics::GputOptions damped_options;
  damped_options.bp.damping = 0.4;
  const uint64_t damped = run(catalog, base, damped_options, {0.5, 0.9});
  genomics::GputOptions naive_options;
  naive_options.method = genomics::AttackMethod::kNaiveBayes;
  const uint64_t naive = run(catalog, base, naive_options, {0.5, 0.9});
  genomics::GputOptions capped_options;
  capped_options.max_sanitized = 2;
  const uint64_t capped = run(catalog, base, capped_options, {0.95});

  // LD factors tie each trait's first SNP to an unassociated, published
  // locus and to the next trait's last SNP; trait 2 is published.
  genomics::GwasCatalog ld_catalog = catalog;
  genomics::TargetView ld_view = genomics::MakeTargetView(catalog, person, {2});
  for (size_t t = 0; t < traits; ++t) {
    const std::vector<size_t>& own = catalog.AssociationsOfTrait(t);
    const std::vector<size_t>& next = catalog.AssociationsOfTrait((t + 1) % traits);
    const size_t first = catalog.associations()[own.front()].snp;
    const size_t last_of_next = catalog.associations()[next.back()].snp;
    const size_t unassociated = catalog.num_snps() - 1 - t;
    ASSERT_TRUE(catalog.AssociationsOfSnp(unassociated).empty());
    ld_catalog.AddLdPair({first, unassociated, 0.7});
    if (first != last_of_next) ld_catalog.AddLdPair({first, last_of_next, 0.5});
    ld_view.snp_known[unassociated] = true;
  }
  const uint64_t ld = run(ld_catalog, ld_view, {}, {0.5, 0.9});

  EXPECT_EQ(serving, 0xd542f67898696671ULL) << std::hex << serving;
  EXPECT_EQ(damped, 0x674c867259c1bfd5ULL) << std::hex << damped;
  EXPECT_EQ(naive, 0xdaab75ba8e6cf286ULL) << std::hex << naive;
  EXPECT_EQ(capped, 0xb8b61b286ef5917dULL) << std::hex << capped;
  EXPECT_EQ(ld, 0x476f50fcce145d04ULL) << std::hex << ld;
}

TEST(DeterminismTest, ByteIdenticalUnderInjectedSchedulingJitterAndRoundFaults) {
  // Chaos determinism: the "exec.chunk" point stalls executor threads at
  // random (reshuffling which worker claims which chunk) and the ICA/Gibbs
  // round points abort and retry whole rounds — none of which may change a
  // single output bit. The chaos CI matrix sweeps the plan via
  // PPDP_TEST_FAULT_SEED / PPDP_TEST_FAULT_RATE.
  SocialFixture fx;
  auto ica = [&](int threads) {
    classify::NaiveBayesClassifier local;
    classify::CollectiveConfig config;
    config.threads = threads;
    return classify::CollectiveInference(fx.g, fx.known, local, config);
  };
  auto gibbs = [&](int threads) {
    classify::NaiveBayesClassifier local;
    classify::GibbsConfig config;
    config.burn_in = 5;
    config.samples = 15;
    config.chains = 2;
    config.seed = 11;
    config.threads = threads;
    return classify::GibbsCollectiveInference(fx.g, fx.known, local, config);
  };
  auto clean_ica = ica(1);
  auto clean_gibbs = gibbs(1);

  fault::FaultPlan plan = fault::PlanFromEnv(/*default_seed=*/1, /*default_rate=*/0.2);
  // Scope the chaos to the points this suite exercises; the base rate from
  // the environment becomes their per-point rate.
  plan.point_rates["exec.chunk"] = plan.rate;
  plan.point_rates["classify.ica.round"] = plan.rate;
  plan.point_rates["classify.gibbs.sweep"] = plan.rate;
  plan.rate = 0.0;
  plan.max_delay_ms = 0.3;  // real sleeps in exec.chunk: keep them short
  fault::ScopedFaultPlan scoped(plan);

  for (int threads : ThreadSweep()) {
    auto chaotic_ica = ica(threads);
    EXPECT_EQ(clean_ica.distributions, chaotic_ica.distributions)
        << "ICA differs under chaos at threads=" << threads;
    auto chaotic_gibbs = gibbs(threads);
    EXPECT_EQ(clean_gibbs.distributions, chaotic_gibbs.distributions)
        << "Gibbs differs under chaos at threads=" << threads;
  }
}

TEST(DeterminismTest, SynthesizerIsByteIdenticalAcrossThreadCounts) {
  // A 30-attribute panel: wide enough that the MI triangle and the noisy
  // tables both split into several parallel chunks.
  Rng data_rng(23);
  dp::CategoricalData data;
  for (size_t i = 0; i < 150; ++i) {
    dp::CategoricalRow row(30);
    for (auto& v : row) v = static_cast<int8_t>(data_rng.Uniform(3));
    data.push_back(row);
  }
  auto run = [&](int threads) {
    dp::SynthesizerConfig config;
    config.epsilon = 1.0;
    config.structure_fraction = 0.3;
    config.seed = 17;
    config.threads = threads;
    auto model = dp::PrivateSynthesizer::Fit(data, config);
    EXPECT_TRUE(model.ok()) << model.status().ToString();
    Rng sample_rng(99);
    return std::make_pair(model->parents(), model->Sample(40, sample_rng));
  };
  auto serial = run(1);
  auto repeat = run(1);
  EXPECT_EQ(serial.first, repeat.first) << "serial run is not reproducible";
  EXPECT_EQ(serial.second, repeat.second) << "serial run is not reproducible";
  for (int threads : ThreadSweep()) {
    auto parallel = run(threads);
    EXPECT_EQ(serial.first, parallel.first) << "structure differs at threads=" << threads;
    EXPECT_EQ(serial.second, parallel.second) << "samples differ at threads=" << threads;
  }
}

}  // namespace
}  // namespace ppdp

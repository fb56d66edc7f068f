#include "corpus.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/rng.h"
#include "graph/graph_generators.h"
#include "tradeoff/collective_strategy.h"

namespace perfbench {

namespace {

namespace core = ppdp::core;
namespace genomics = ppdp::genomics;
namespace graph = ppdp::graph;

/// FNV-1a 64, the scheme of the daemon's startup digests.
uint64_t Fnv(uint64_t h, const void* data, size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}
constexpr uint64_t kFnvBasis = 0xCBF29CE484222325ULL;

std::string Hex(uint64_t v) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx", static_cast<unsigned long long>(v));
  return buffer;
}

std::string Num(double v) { return FormatDouble(v); }

/// Genome target-trait sets the serve-genome stream cycles through: every
/// single trait and every adjacent pair of the 8-trait catalog.
const std::vector<std::vector<size_t>>& TraitSets() {
  static const std::vector<std::vector<size_t>> sets = [] {
    std::vector<std::vector<size_t>> out;
    for (size_t t = 0; t < 8; ++t) out.push_back({t});
    for (size_t t = 0; t < 8; ++t) out.push_back({t, (t + 1) % 8});
    return out;
  }();
  return sets;
}

// delta = kDeltaLow + slot * kDeltaStep with slot in [0, kDeltaSlots): inside
// the sanitizer's accepted range [0, 1] (delta > 1 aborts the daemon).
constexpr double kDeltaLow = 0.25;
constexpr double kDeltaStep = 1e-5;
constexpr uint64_t kDeltaSlots = 70000;
constexpr double kGolden = 0.6180339887498949;

}  // namespace

ServeCorpus BuildServeCorpus() {
  graph::SocialGraph g =
      graph::GenerateSyntheticGraph(graph::CaltechLikeConfig(kServeGraphScale, kCorpusSeed));
  std::vector<int64_t> degrees;
  size_t max_degree = 0;
  uint64_t graph_digest = kFnvBasis;
  for (size_t node = 0; node < g.num_nodes(); ++node) {
    const int64_t degree = static_cast<int64_t>(g.Degree(node));
    max_degree = std::max(max_degree, static_cast<size_t>(degree));
    degrees.push_back(degree);
    graph_digest = Fnv(graph_digest, &degree, sizeof(degree));
  }

  ppdp::Rng rng(kCorpusSeed);
  genomics::SyntheticCatalogConfig config;
  config.num_snps = kServeGenomeSnps;
  genomics::GwasCatalog catalog = genomics::GenerateSyntheticCatalog(config, rng);
  uint64_t genome_digest = kFnvBasis;
  for (const genomics::SnpTraitAssociation& assoc : catalog.associations()) {
    genome_digest = Fnv(genome_digest, &assoc.snp, sizeof(assoc.snp));
    genome_digest = Fnv(genome_digest, &assoc.trait, sizeof(assoc.trait));
    genome_digest = Fnv(genome_digest, &assoc.control_raf, sizeof(assoc.control_raf));
    genome_digest = Fnv(genome_digest, &assoc.odds_ratio, sizeof(assoc.odds_ratio));
  }
  genomics::Individual person = genomics::SampleIndividual(catalog, rng);
  genomics::TargetView view = genomics::MakeTargetView(catalog, person, {});
  return ServeCorpus{std::move(degrees), max_degree + 1, Hex(graph_digest), Hex(genome_digest),
                     std::move(catalog), std::move(view)};
}

std::vector<std::string> DaemonArgs(const std::string& wal_path, const std::string& access_log) {
  std::vector<std::string> args = {
      "--port", "0",
      "--threads", std::to_string(kExecWidth),
      "--seed", std::to_string(kCorpusSeed),
      "--graph_scale", Num(kServeGraphScale),
      "--genome_snps", std::to_string(kServeGenomeSnps),
      // Budgets are never exhausted: a 403 would end a client's stream.
      "--tenant_budget", "1e12",
      "--ledger_wal", wal_path,
      "--ledger_sync", "batch",
  };
  if (!access_log.empty()) {
    args.push_back("--access_log");
    args.push_back(access_log);
  }
  return args;
}

LightStream::LightStream(uint64_t seed, int client, size_t degree_domain)
    : rng_(seed * 1000003ULL + static_cast<uint64_t>(client) + 1),
      tenant_("light" + std::to_string(client)),
      domain_(degree_domain) {}

LightRequest LightStream::Next() {
  LightRequest request;
  const bool audit = !first_ && rng_.Below(10) < 3;
  first_ = false;
  if (audit) {
    request.audit = true;
    request.path = "/v1/audit";
    request.body = "{\"tenant\":\"" + tenant_ + "\"}";
    return request;
  }
  request.path = "/v1/dp/aggregate";
  request.epsilon = static_cast<double>(1 + rng_.Below(200)) * 1e-3;
  std::string extra;
  switch (rng_.Below(3)) {
    case 0:
      request.op = "histogram";
      break;
    case 1: {
      request.op = "range_count";
      const uint64_t lo = rng_.Below(domain_);
      const uint64_t hi = lo + rng_.Below(domain_ - lo);
      extra = ",\"lo\":" + std::to_string(lo) + ",\"hi\":" + std::to_string(hi);
      break;
    }
    default:
      request.op = "quantile";
      extra = ",\"q\":" + Num(static_cast<double>(1 + rng_.Below(99)) / 100.0);
      break;
  }
  request.body = "{\"tenant\":\"" + tenant_ + "\",\"op\":\"" + request.op +
                 "\",\"epsilon\":" + Num(request.epsilon) + extra + "}";
  return request;
}

GenomeStreams::GenomeStreams(uint64_t seed) {
  SeedRng rng(seed * 7919ULL + 17);
  for (size_t& offset : trait_offset_) offset = rng.Below(TraitSets().size());
  for (size_t i = 0; i < kClients * TraitSets().size(); ++i) phase_.push_back(rng.Unit());
}

GenomeRequest GenomeStreams::Get(int client, size_t index) const {
  const std::vector<std::vector<size_t>>& sets = TraitSets();
  const size_t position = trait_offset_[client] + index;
  const size_t set = position % sets.size();
  const double use = static_cast<double>(position / sets.size());
  double unit = phase_[static_cast<size_t>(client) * sets.size() + set] + use * kGolden;
  unit -= static_cast<double>(static_cast<uint64_t>(unit));
  const uint64_t slot = static_cast<uint64_t>(unit * (kDeltaSlots / kClients)) * kClients +
                        static_cast<uint64_t>(client);
  GenomeRequest request;
  request.config.delta = kDeltaLow + static_cast<double>(slot) * kDeltaStep;
  request.config.target_traits = sets[set];
  std::string traits;
  for (size_t trait : request.config.target_traits) {
    traits += (traits.empty() ? "" : ",") + std::to_string(trait);
  }
  request.body = "{\"tenant\":\"genome" + std::to_string(client) +
                 "\",\"kind\":\"genome\",\"epsilon\":0.05,\"config\":{\"delta\":" +
                 Num(request.config.delta) + ",\"target_traits\":[" + traits + "]}}";
  return request;
}

BatchPlan MakeBatchPlan(uint64_t seed, size_t num_categories) {
  SeedRng rng(seed * 104729ULL + 5);
  BatchPlan plan;
  for (size_t category = 0; category < num_categories; ++category) {
    core::PublishConfig config;
    config.utility_category = category;
    plan.social.push_back(config);
  }
  const ppdp::tradeoff::Strategy strategies[] = {
      ppdp::tradeoff::Strategy::kAttributeRemoval, ppdp::tradeoff::Strategy::kAttributePerturbing,
      ppdp::tradeoff::Strategy::kLinkRemoval, ppdp::tradeoff::Strategy::kRandomLinkRemoval,
      ppdp::tradeoff::Strategy::kCollectiveSanitization};
  for (ppdp::tradeoff::Strategy strategy : strategies) {
    for (int copy = 0; copy < 2; ++copy) {
      core::PublishConfig config;
      config.strategy = strategy;
      config.utility_category = rng.Below(num_categories);
      config.num_attributes = 1 + rng.Below(3);
      config.num_links = 2 + rng.Below(7);
      config.delta = 0.2 + static_cast<double>(rng.Below(41)) * 0.01;
      plan.tradeoff.push_back(config);
    }
  }
  for (auto* cycle : {&plan.social, &plan.tradeoff}) {
    for (size_t i = cycle->size() - 1; i > 0; --i) {
      std::swap((*cycle)[i], (*cycle)[rng.Below(i + 1)]);
    }
  }
  return plan;
}

graph::SocialGraph BuildBatchGraph() {
  return graph::GenerateSyntheticGraph(graph::CaltechLikeConfig(kBatchGraphScale, kCorpusSeed));
}

}  // namespace perfbench

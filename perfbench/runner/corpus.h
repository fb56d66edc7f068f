// The corpora and the generated inputs of every workload. The corpora are
// fixed (the same on every seed), so the daemon's command line never
// changes; the workload seed only drives which requests are sent.
#ifndef PERFBENCH_RUNNER_CORPUS_H_
#define PERFBENCH_RUNNER_CORPUS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "core/publisher.h"
#include "genomics/genome_data.h"
#include "genomics/gwas_catalog.h"
#include "graph/social_graph.h"

namespace perfbench {

constexpr uint64_t kCorpusSeed = 7;
constexpr double kServeGraphScale = 0.25;  ///< daemon corpus (ppdp_serve default)
constexpr size_t kServeGenomeSnps = 300;   ///< daemon genome panel (ppdp_serve default)
constexpr double kBatchGraphScale = 2.0;   ///< batch-graph corpus: 1538 nodes
constexpr int kClients = 2;                ///< closed-loop clients of the serving workloads
constexpr int kExecWidth = 2;              ///< exec width of the daemon and of batch-graph

/// The daemon's corpus rebuilt in-process the way ServeApp::Create builds
/// it, plus the startup digests the daemon must report for it.
struct ServeCorpus {
  std::vector<int64_t> degrees;
  size_t degree_domain = 0;
  std::string graph_digest;
  std::string genome_digest;
  ppdp::genomics::GwasCatalog catalog;
  ppdp::genomics::TargetView view;
};
ServeCorpus BuildServeCorpus();

/// ppdp_serve flags of both serving workloads; `access_log` is empty
/// except in traced runs.
std::vector<std::string> DaemonArgs(const std::string& wal_path, const std::string& access_log);

/// serve-light: ~70 % /v1/dp/aggregate (histogram, range_count, quantile),
/// ~30 % /v1/audit, one stream per client. A client's first request is an
/// aggregate, so its tenant exists before the first audit.
struct LightRequest {
  bool audit = false;
  std::string op;  ///< aggregate op; empty for audits
  double epsilon = 0.0;
  std::string path;
  std::string body;
};
class LightStream {
 public:
  LightStream(uint64_t seed, int client, size_t degree_domain);
  LightRequest Next();
  const std::string& tenant() const { return tenant_; }

 private:
  SeedRng rng_;
  std::string tenant_;
  size_t domain_;
  bool first_ = true;
};

/// serve-genome: genome publishes whose (delta, target_traits) configs are
/// pairwise distinct across all clients, so the coalescer never has two
/// requests to merge. Each client cycles through the trait sets from a
/// seeded offset; the k-th use of a set gets its delta from a golden-ratio
/// sequence with a seeded phase, which spreads every set's deltas evenly
/// over the range whatever the seed (so the seed changes the requests but
/// not the run's cost profile). Client c uses only delta slots = c mod 2.
struct GenomeRequest {
  ppdp::core::PublishConfig config;
  std::string body;
};
class GenomeStreams {
 public:
  explicit GenomeStreams(uint64_t seed);
  /// The `index`-th request of `client` (pure function of the seed).
  GenomeRequest Get(int client, size_t index) const;

 private:
  std::vector<double> phase_;  ///< per (client, trait set)
  size_t trait_offset_[kClients] = {};
};

/// batch-graph: one cycle of social configs (every utility category) and
/// one of tradeoff configs (two per strategy), in seeded order.
struct BatchPlan {
  std::vector<ppdp::core::PublishConfig> social;
  std::vector<ppdp::core::PublishConfig> tradeoff;
};
BatchPlan MakeBatchPlan(uint64_t seed, size_t num_categories);

ppdp::graph::SocialGraph BuildBatchGraph();

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_CORPUS_H_

// Workload phases shared by the end-to-end runs and the traced run's
// overhead measurement.
#ifndef PERFBENCH_RUNNER_PHASES_H_
#define PERFBENCH_RUNNER_PHASES_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "corpus.h"
#include "daemon.h"

namespace perfbench {

/// What one closed-loop phase measured: successful ops per time slice
/// (primary = aggregates / one-trait genome publishes, secondary = audits /
/// two-trait genome publishes) and the daemon's CPU per slice.
struct PhaseResult {
  Slices slices;
  /// serve-genome: every response's config and `output` object text, for
  /// the in-process oracle.
  std::vector<std::pair<ppdp::core::PublishConfig, std::string>> outputs;
};

/// Spawns ppdp_serve `cycles` times, timing each spawn until it serves,
/// and checks each startup digest against `corpus`. Returns the last
/// daemon still running (null on failure, with the reason in `out`);
/// `setup_seconds` gets the median spawn time.
std::unique_ptr<Daemon> SpawnDaemon(const Args& args, const ServeCorpus& corpus,
                                    const std::string& access_log, int cycles, Outcome* out,
                                    double* setup_seconds);

PhaseResult RunLightPhase(const Daemon& daemon, size_t degree_domain, uint64_t seed,
                          double seconds, Outcome* out);
PhaseResult RunGenomePhase(const Daemon& daemon, uint64_t seed, double seconds, Outcome* out);

/// Replays every genome response's config in-process at width 1 and counts
/// the outputs that differ from the daemon's.
uint64_t GenomeOracleMismatches(const ServeCorpus& corpus, const PhaseResult& phase);

/// batch-graph's two publishers over one corpus.
struct BatchPublishers {
  std::unique_ptr<ppdp::core::Publisher> social;
  std::unique_ptr<ppdp::core::Publisher> tradeoff;
};
/// Both publishers at exec width `threads`; null members (and a problem in
/// `out`) on failure.
BatchPublishers MakeBatchPublishers(const ppdp::graph::SocialGraph& graph, int threads,
                                    Outcome* out);

/// Primary ops are social Publish, secondary ones tradeoff Publish; CPU is
/// this process's.
struct BatchPhaseResult {
  Slices slices;
  /// VmHWM after the warm-up pass over every config. Read before timing
  /// because the program's always-on trace recorder keeps growing with the
  /// number of ops that fit in the run.
  double peak_rss_mb = 0.0;
  /// Output text per cycle position ("" = not reached).
  std::vector<std::string> social_out;
  std::vector<std::string> tradeoff_out;
};

/// Alternates social and tradeoff Publish for `seconds` (longer when the
/// host steals CPU time, see Slices) after a warm-up pass over every config. `traced` wraps every op in a benchmark span.
BatchPhaseResult RunBatchPhase(const BatchPublishers& publishers, const BatchPlan& plan,
                               double seconds, bool traced, Outcome* out);

/// Republishes every config the phase reached at exec width 1 and counts
/// the outputs that differ from the width-2 ones.
uint64_t BatchOracleMismatches(const ppdp::graph::SocialGraph& graph, const BatchPlan& plan,
                               const BatchPhaseResult& phase, Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_PHASES_H_

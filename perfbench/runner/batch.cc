// batch-graph: one caller thread at exec width 2 alternating social and
// tradeoff Publish on the Caltech-like corpus at scale 2, in-process.
#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "corpus.h"
#include "core/publisher.h"
#include "exec/thread_pool.h"
#include "obs/trace.h"
#include "phases.h"

namespace perfbench {

namespace {

namespace core = ppdp::core;

constexpr int kBatchSetupCycles = 41;
constexpr int kOracleThreads = 4;

}  // namespace

BatchPublishers MakeBatchPublishers(const ppdp::graph::SocialGraph& graph, int threads,
                                    Outcome* out) {
  core::PublisherOptions options;
  options.seed = kCorpusSeed;
  options.threads = threads;
  BatchPublishers publishers;
  auto social = core::CreatePublisher(core::PublisherKind::kSocial, graph, options);
  auto tradeoff = core::CreatePublisher(core::PublisherKind::kTradeoff, graph, options);
  if (!social.ok() || !tradeoff.ok()) {
    out->Problem("CreatePublisher failed: " +
                 (social.ok() ? tradeoff.status() : social.status()).ToString());
    return publishers;
  }
  publishers.social = std::move(*social);
  publishers.tradeoff = std::move(*tradeoff);
  return publishers;
}

BatchPhaseResult RunBatchPhase(const BatchPublishers& publishers, const BatchPlan& plan,
                               double seconds, bool traced, Outcome* out) {
  // Op k alternates social (even) and tradeoff (odd) and uses position k/2
  // of its kind's cycle.
  auto run_op = [&](size_t k) {
    const bool social = k % 2 == 0;
    const std::vector<core::PublishConfig>& cycle = social ? plan.social : plan.tradeoff;
    const core::PublishConfig& config = cycle[(k / 2) % cycle.size()];
    std::optional<ppdp::obs::TraceSpan> span;
    if (traced) span.emplace(social ? "perfbench.batch.social" : "perfbench.batch.tradeoff");
    auto output = (social ? publishers.social : publishers.tradeoff)->Publish(config);
    return output.ok() ? output->ToJson().Dump() : std::string();
  };
  // Warm-up: every config once, so each one's working set is in the peak
  // RSS read before timing.
  const size_t warmup = 2 * std::max(plan.social.size(), plan.tradeoff.size());
  for (size_t k = 0; k < warmup; ++k) run_op(k);

  BatchPhaseResult phase;
  phase.peak_rss_mb = PeakRssMb(0);
  phase.social_out.resize(plan.social.size());
  phase.tradeoff_out.resize(plan.tradeoff.size());
  phase.slices = Slices(Now(), seconds);
  CpuClock clock_mark = ReadCpuClock();
  int slice = 0;
  for (size_t k = 0;; ++k) {
    if (Now() >= phase.slices.SliceEnd(slice)) {
      const CpuClock clock = ReadCpuClock();
      const bool done = phase.slices.Close(slice++, StealShare(clock_mark, clock));
      clock_mark = clock;
      if (done) break;
    }
    const double cpu_before = SelfCpuSeconds();
    const double op_start = Now();
    const std::string output = run_op(k);
    const double op_ms = (Now() - op_start) * 1e3;
    phase.slices.AddCpu(phase.slices.Index(op_start), SelfCpuSeconds() - cpu_before);
    const bool social = k % 2 == 0;
    std::vector<std::string>& seen = social ? phase.social_out : phase.tradeoff_out;
    std::string& first = seen[(k / 2) % seen.size()];
    if (first.empty()) first = output;
    ++out->attempted;
    // Repeats of a config must reproduce its output exactly.
    const bool ok = !output.empty() && output == first;
    if (!ok) ++out->failed;
    phase.slices.Record(op_start, op_ms, ok, true, !social);
  }
  return phase;
}

uint64_t BatchOracleMismatches(const ppdp::graph::SocialGraph& graph, const BatchPlan& plan,
                               const BatchPhaseResult& phase, Outcome* out) {
  // Width 1 for every parallel region, including those that follow the
  // global pool's width rather than the publisher's.
  const size_t width = ppdp::exec::ThreadPool::GlobalThreadTarget();
  (void)ppdp::exec::ThreadPool::SetGlobalThreads(1);
  const BatchPublishers serial = MakeBatchPublishers(graph, 1, out);
  std::atomic<uint64_t> mismatches{0};
  if (serial.social != nullptr) {
    const size_t social_count = phase.social_out.size();
    ForEachParallel(social_count + phase.tradeoff_out.size(), kOracleThreads, [&](size_t i) {
      const bool social = i < social_count;
      const size_t position = social ? i : i - social_count;
      const std::string& width2 = social ? phase.social_out[position]
                                         : phase.tradeoff_out[position];
      if (width2.empty()) return;  // not reached in a short run
      const core::PublishConfig& config = social ? plan.social[position]
                                                 : plan.tradeoff[position];
      auto width1 = (social ? serial.social : serial.tradeoff)->Publish(config);
      if (!width1.ok() || width1->ToJson().Dump() != width2) ++mismatches;
    });
  }
  (void)ppdp::exec::ThreadPool::SetGlobalThreads(static_cast<int>(width));
  return mismatches.load();
}

Outcome RunBatchGraph(const Args& args) {
  Outcome out;
  (void)ppdp::exec::ThreadPool::SetGlobalThreads(kExecWidth);

  // Set-up: corpus generation plus both publishers, several times.
  std::vector<double> setups;
  std::optional<ppdp::graph::SocialGraph> corpus;
  BatchPublishers publishers;
  for (int cycle = 0; cycle < SetupCycles(args, kBatchSetupCycles); ++cycle) {
    publishers = BatchPublishers{};
    const double start = Now();
    corpus.emplace(BuildBatchGraph());
    publishers = MakeBatchPublishers(*corpus, kExecWidth, &out);
    setups.push_back(Now() - start);
  }
  if (publishers.social == nullptr) return out;

  const BatchPlan plan = MakeBatchPlan(args.seed, corpus->num_categories());
  const BatchPhaseResult phase = RunBatchPhase(publishers, plan, args.seconds, false, &out);
  const uint64_t mismatches = BatchOracleMismatches(*corpus, plan, phase, &out);
  if (mismatches > 0) {
    out.failed += mismatches;
    out.Problem("oracle: " + std::to_string(mismatches) +
                " configs publish differently at exec widths 1 and 2");
  }

  out.Add("setup_s", Median(setups), "s", setups.size());
  AddPhaseMetrics(phase.slices, Slices::Ops::kPrimary, 0.90, &out);
  out.Add("peak_rss_mb", phase.peak_rss_mb, "MB");
  return out;
}

}  // namespace perfbench

// The traced run: per-layer metrics taken by timing calls into each
// module's public functions on the workloads' generated inputs, the
// server-side stage breakdown from a probe daemon's access log, the trace
// overhead (traced against untraced p50 of the run's workload) and the
// attribution line of that workload's primary op.
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "classify/collective.h"
#include "classify/evaluation.h"
#include "common/json.h"
#include "common/rng.h"
#include "core/publisher.h"
#include "core/publisher_options.h"
#include "corpus.h"
#include "daemon.h"
#include "dp/aggregation.h"
#include "exec/parallel.h"
#include "exec/thread_pool.h"
#include "genomics/factor_graph.h"
#include "genomics/inference_attack.h"
#include "genomics/snp_sanitizer.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "obs/wal.h"
#include "phases.h"
#include "sanitize/collective_sanitizer.h"
#include "sanitize/link_selection.h"
#include "serve/admission.h"
#include "serve/coalescer.h"
#include "serve/tenants.h"
#include "tradeoff/collective_strategy.h"

namespace genomics = ppdp::genomics;

// Counts the calls the genome pipeline makes into RunGenomeInference. The
// runner links with ld --wrap on that symbol (see CMakeLists.txt), so every
// call from another object file lands in WrapRunGenomeInference first. The
// weak __real_ reference keeps the runner linkable if the function is ever
// renamed; the count then stays 0.
#define PERFBENCH_RUN_GENOME_INFERENCE                                            \
  "_ZN4ppdp8genomics18RunGenomeInferenceERKNS0_11GwasCatalogERKNS0_10TargetView" \
  "ENS0_12AttackMethodERKNS0_11FactorGraph9BpOptionsE"

namespace perfbench {

std::atomic<uint64_t> g_inference_calls{0};

genomics::GenomeAttackResult RealRunGenomeInference(const genomics::GwasCatalog& catalog,
                                                    const genomics::TargetView& view,
                                                    genomics::AttackMethod method,
                                                    const genomics::FactorGraph::BpOptions& options)
    __asm__("__real_" PERFBENCH_RUN_GENOME_INFERENCE) __attribute__((weak));

genomics::GenomeAttackResult WrapRunGenomeInference(const genomics::GwasCatalog& catalog,
                                                    const genomics::TargetView& view,
                                                    genomics::AttackMethod method,
                                                    const genomics::FactorGraph::BpOptions& options)
    __asm__("__wrap_" PERFBENCH_RUN_GENOME_INFERENCE);

genomics::GenomeAttackResult WrapRunGenomeInference(
    const genomics::GwasCatalog& catalog, const genomics::TargetView& view,
    genomics::AttackMethod method, const genomics::FactorGraph::BpOptions& options) {
  g_inference_calls.fetch_add(1, std::memory_order_relaxed);
  return RealRunGenomeInference(catalog, view, method, options);
}

}  // namespace perfbench

namespace perfbench {

namespace {

namespace core = ppdp::core;
namespace obs = ppdp::obs;
namespace serve = ppdp::serve;
using ppdp::exec::ThreadPool;

constexpr double kMiB = 1024.0 * 1024.0;

struct StrategyTag {
  ppdp::tradeoff::Strategy strategy;
  const char* tag;
};
constexpr StrategyTag kStrategies[] = {
    {ppdp::tradeoff::Strategy::kAttributeRemoval, "attribute_removal"},
    {ppdp::tradeoff::Strategy::kAttributePerturbing, "attribute_perturbing"},
    {ppdp::tradeoff::Strategy::kLinkRemoval, "link_removal"},
    {ppdp::tradeoff::Strategy::kRandomLinkRemoval, "random_link_removal"},
    {ppdp::tradeoff::Strategy::kCollectiveSanitization, "collective"},
};

/// Median of `reps` individually timed calls, in milliseconds.
double MedianMs(int reps, const std::function<void(int)>& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const double start = Now();
    fn(i);
    ms.push_back((Now() - start) * 1e3);
  }
  return Median(ms);
}

/// The value of metric `name` already added to `out` (0 if absent).
double Value(const Outcome& out, const std::string& name) {
  for (const Metric& m : out.metrics) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

/// serve: in-process serving components plus a probe daemon whose access
/// log gives the server-side stage breakdown.
void ServeLayers(const Args& args, const ServeCorpus& corpus, Outcome* out,
                 std::vector<std::string>* bodies) {
  constexpr int kHealthz = 500, kLightProbe = 400, kGenomeProbe = 32;
  const std::string access_log = args.work_dir + "/probe_access.jsonl";
  double ignored = 0.0;
  std::unique_ptr<Daemon> daemon = SpawnDaemon(args, corpus, access_log, 1, out, &ignored);
  if (daemon == nullptr) return;
  std::vector<double> floor_us;
  for (int i = 0; i < kHealthz; ++i) {
    const double start = Now();
    const HttpResult result = HttpCall(daemon->port(), "GET", "/healthz", "", "");
    floor_us.push_back((Now() - start) * 1e6);
    if (result.status != 200) ++out->failed;
    ++out->attempted;
  }
  LightStream light(args.seed, 0, corpus.degree_domain);
  for (int i = 0; i < kLightProbe; ++i) {
    const LightRequest request = light.Next();
    const HttpResult result = HttpCall(daemon->port(), "POST", request.path, request.body, "");
    if (result.status != 200) ++out->failed;
    ++out->attempted;
    bodies->push_back(request.body);
    if (i < 30) bodies->push_back(result.body);
  }
  const GenomeStreams genome(args.seed);
  for (int i = 0; i < kGenomeProbe; ++i) {
    const HttpResult result = HttpCall(daemon->port(), "POST", "/v1/publish",
                                       genome.Get(0, static_cast<size_t>(i)).body, "");
    if (result.status != 200) ++out->failed;
    ++out->attempted;
  }
  daemon->Stop();
  out->Add("serve.http_floor_us", Median(floor_us), "us", floor_us.size());

  // Stage means: aggregate records for the request-path stages, publish
  // records for the coalescing window and the publisher run.
  struct Stage {
    const char* log_name;
    const char* endpoint;
    const char* metric;
    double sum = 0.0;
    uint64_t count = 0;
  };
  Stage stages[] = {
      {"serve.parse", "/v1/dp/aggregate", "serve.stage.parse_us"},
      {"serve.admission.queue", "/v1/dp/aggregate", "serve.stage.admission_queue_us"},
      {"serve.ledger.spend", "/v1/dp/aggregate", "serve.stage.ledger_spend_us"},
      {"serve.coalesce.wait", "/v1/publish", "serve.stage.coalesce_wait_us"},
      {"serve.publish", "/v1/publish", "serve.stage.publish_us"},
      {"serve.write", "/v1/dp/aggregate", "serve.stage.write_us"},
  };
  std::ifstream log(access_log);
  std::string line;
  while (std::getline(log, line)) {
    auto doc = ppdp::JsonValue::Parse(line);
    if (!doc.ok()) continue;
    const std::string endpoint = doc->GetStringOr("endpoint", "");
    const ppdp::JsonValue* recorded = doc->Find("stages");
    if (recorded == nullptr) continue;
    for (Stage& stage : stages) {
      const ppdp::JsonValue* micros = recorded->Find(stage.log_name);
      if (endpoint != stage.endpoint || micros == nullptr || !micros->is_number()) continue;
      stage.sum += micros->as_number();
      ++stage.count;
    }
  }
  for (const Stage& stage : stages) {
    if (stage.count == 0) out->Problem(std::string("access log has no ") + stage.log_name);
    out->Add(stage.metric, stage.count ? stage.sum / stage.count : 0.0, "us", stage.count);
  }

  // In-process components.
  serve::AdmissionController admission({64, 5.0});
  out->Add("serve.admission_us",
             MedianPerCall([&] { serve::AdmissionSlot slot = admission.TryAdmit(); }, 1000, 50) *
                 1e6,
             "us", 50000);

  const std::string wal_path = args.work_dir + "/layers_tenants.wal";
  std::remove(wal_path.c_str());
  {
    auto wal = obs::LedgerWal::Open({wal_path, obs::LedgerWal::SyncPolicy::kBatch});
    serve::TenantRegistry tenants({1e12, 64});
    if (wal.ok() && tenants.AttachWal(wal->get()).ok()) {
      auto ledger = tenants.ForTenant("light0");
      out->Add("serve.spend_durable_us",
                 MedianPerCall([&] {
                   (void)tenants.SpendDurable(*ledger, "light0", "dp.aggregate", "histogram", 0.01);
                 }, 100, 50) * 1e6,
                 "us", 5000);
    } else {
      out->Problem("could not open the layer-suite WAL");
    }
  }
  std::remove(wal_path.c_str());

  serve::BatchCoalescer coalescer({0.005});
  int key = 0;
  out->Add("serve.coalescer_run_ms", MedianMs(20, [&](int) {
               coalescer.Run("perfbench." + std::to_string(key++), nullptr, [] {
                 return ppdp::Result<core::PublishOutput>(core::PublishOutput{});
               });
             }),
             "ms", 20);
}

void ObsLayers(const Args& args, Outcome* out) {
  obs::TraceRecorder::Global().Clear();
  out->Add("obs.trace_span_ns",
             MedianPerCall([] { obs::TraceSpan span("perfbench.span"); }, 1000, 30) * 1e9, "ns",
             30000);
  obs::TraceRecorder::Global().Clear();
  obs::Histogram& histogram = obs::MetricsRegistry::Global().histogram(
      "perfbench.observe", {0.0001, 0.001, 0.01, 0.1, 1.0});
  double value = 0.0;
  out->Add("obs.histogram_observe_ns", MedianPerCall([&] {
               value = value > 1.0 ? 0.0 : value + 0.0137;
               histogram.Observe(value);
             }, 1000, 50) * 1e9,
             "ns", 50000);
  obs::Counter& counter = obs::MetricsRegistry::Global().counter("perfbench.count");
  out->Add("obs.counter_increment_ns",
             MedianPerCall([&] { counter.Increment(); }, 1000, 50) * 1e9, "ns", 50000);
  obs::PrivacyLedger ledger(1e12);
  out->Add("obs.ledger_spend_ns",
             MedianPerCall([&] { (void)ledger.Spend("perfbench", "laplace", 1e-6); }, 1000, 30) *
                 1e9,
             "ns", 30000);

  const std::string wal_path = args.work_dir + "/layers_append.wal";
  std::remove(wal_path.c_str());
  {
    auto wal = obs::LedgerWal::Open({wal_path, obs::LedgerWal::SyncPolicy::kBatch});
    if (wal.ok()) {
      uint64_t seq = 0;
      out->Add("obs.wal_append_us", MedianPerCall([&] {
                   (void)(*wal)->AppendSpend("light0", "dp.aggregate", "histogram", 0.01, 1,
                                             &seq);
                 }, 100, 50) * 1e6,
                 "us", 5000);
    }
  }
  std::remove(wal_path.c_str());

  auto slo = obs::SloEngine::Create({});
  if (slo.ok()) {
    // A window with traffic in it, like the daemon's after a few seconds.
    for (int i = 0; i < 20000; ++i) (*slo)->RecordRequest(200, 0.0002 + 1e-8 * (i % 97));
    for (int i = 0; i < 2000; ++i) {
      (*slo)->RecordSpend("light" + std::to_string(i % 2), 0.01, 1e12 - 0.01 * i, 1e12);
      (*slo)->RecordQueueDepth(0.02);
    }
    out->Add("obs.slo_evaluate_us",
               MedianPerCall([&] { (void)(*slo)->Evaluate(); }, 10, 30) * 1e6, "us", 300);
  }
}

void CommonAndDpLayers(const Args& args, const ServeCorpus& corpus,
                       const std::vector<std::string>& bodies, Outcome* out) {
  std::vector<ppdp::JsonValue> docs;
  for (const std::string& body : bodies) {
    auto doc = ppdp::JsonValue::Parse(body);
    if (doc.ok()) docs.push_back(std::move(*doc));
  }
  size_t i = 0;
  out->Add("common.json_parse_us", MedianPerCall([&] {
               (void)ppdp::JsonValue::Parse(bodies[i++ % bodies.size()]);
             }, static_cast<int>(bodies.size()), 30) * 1e6,
             "us", bodies.size() * 30);
  out->Add("common.json_dump_us", MedianPerCall([&] {
               (void)docs[i++ % docs.size()].Dump();
             }, static_cast<int>(docs.size()), 30) * 1e6,
             "us", docs.size() * 30);

  ppdp::Rng rng(args.seed);
  const size_t domain = corpus.degree_domain;
  out->Add("dp.noisy_histogram_us", MedianPerCall([&] {
               (void)ppdp::dp::NoisyHistogram(corpus.degrees, domain, 0.1, rng);
             }, 50, 30) * 1e6,
             "us", 1500);
  out->Add("dp.private_quantile_us", MedianPerCall([&] {
               (void)ppdp::dp::PrivateQuantile(corpus.degrees, domain, 0.5, 0.1, rng);
             }, 50, 30) * 1e6,
             "us", 1500);
  out->Add("dp.noisy_count_ns", MedianPerCall([&] {
               (void)ppdp::dp::NoisyCount(corpus.degrees.size() / 2, 0.1, rng);
             }, 1000, 30) * 1e9,
             "ns", 30000);
}

/// core + genomics + exec: every publisher at exec widths 1 and 2 on the
/// workloads' configs, with allocation, task and inference-call counts.
void PublishLayers(const Args& args, const ServeCorpus& corpus,
                   const ppdp::graph::SocialGraph& graph, const BatchPlan& plan, Outcome* out) {
  const GenomeStreams genome_stream(args.seed);
  std::vector<core::PublishConfig> genome_configs;
  for (size_t i = 0; i < 16; ++i) genome_configs.push_back(genome_stream.Get(0, i).config);
  std::vector<core::PublishConfig> tradeoff_configs;  // one per strategy
  for (const StrategyTag& s : kStrategies) {
    for (const core::PublishConfig& config : plan.tradeoff) {
      if (config.strategy == s.strategy) {
        tradeoff_configs.push_back(config);
        break;
      }
    }
  }
  struct Kind {
    const char* name;
    const std::vector<core::PublishConfig>* configs;
  };
  const Kind kinds[] = {{"genome", &genome_configs},
                        {"social", &plan.social},
                        {"tradeoff", &tradeoff_configs}};

  for (int width : {1, 2}) {
    (void)ThreadPool::SetGlobalThreads(width);
    core::PublisherOptions options;
    options.seed = kCorpusSeed;
    options.threads = width;
    for (const Kind& kind : kinds) {
      const std::string name = kind.name;
      auto publisher =
          name == "genome"
              ? core::CreatePublisher(corpus.catalog, corpus.view, options)
              : core::CreatePublisher(name == "social" ? core::PublisherKind::kSocial
                                                       : core::PublisherKind::kTradeoff,
                                      graph, options);
      if (!publisher.ok()) {
        out->Problem("CreatePublisher(" + name + "): " + publisher.status().ToString());
        continue;
      }
      const std::vector<core::PublishConfig>& configs = *kind.configs;
      const uint64_t tasks_before = ThreadPool::GlobalStats().submitted;
      const uint64_t inference_before = g_inference_calls.load();
      const uint64_t alloc_before = obs::ThreadAllocBytes();
      std::vector<double> ms;
      for (const core::PublishConfig& config : configs) {
        const double start = Now();
        auto output = (*publisher)->Publish(config);
        ms.push_back((Now() - start) * 1e3);
        ++out->attempted;
        if (!output.ok()) ++out->failed;
      }
      const double n = static_cast<double>(configs.size());
      out->Add("core.publish_ms." + name + ".w" + std::to_string(width), Median(ms), "ms",
                 configs.size());
      if (width == 1) {
        // Single-threaded, so the calling thread's allocations are all of them.
        out->Add("core.publish_alloc_mb." + name,
                   static_cast<double>(obs::ThreadAllocBytes() - alloc_before) / kMiB / n, "MB",
                   configs.size());
        if (name == "genome") {
          out->Add("genomics.inference_calls_per_publish",
                     static_cast<double>(g_inference_calls.load() - inference_before) / n,
                     "count", configs.size());
        }
      } else {
        out->Add("exec.tasks_per_publish." + name,
                   static_cast<double>(ThreadPool::GlobalStats().submitted - tasks_before) / n,
                   "count", configs.size());
      }
    }
    out->Add("exec.parallel_for_empty_us.w" + std::to_string(width), MedianPerCall([&] {
                 ppdp::exec::ParallelFor(0, 2, 1, [](size_t) {}, {width});
               }, 100, 50) * 1e6,
               "us", 5000);
  }

  // genomics kernels at the serving width.
  genomics::GputOptions gput;
  gput.bp.threads = kExecWidth;
  out->Add("genomics.greedy_sanitize_ms", MedianMs(16, [&](int i) {
               gput.delta = genome_configs[static_cast<size_t>(i)].delta;
               (void)genomics::GreedySanitize(corpus.catalog, corpus.view,
                                              genome_configs[static_cast<size_t>(i)].target_traits,
                                              gput);
             }),
             "ms", 16);
  genomics::FactorGraph::BpOptions bp;
  bp.threads = kExecWidth;
  out->Add("genomics.inference_ms", MedianMs(30, [&](int) {
               (void)genomics::RunGenomeInference(corpus.catalog, corpus.view,
                                                  genomics::AttackMethod::kBeliefPropagation, bp);
             }),
             "ms", 30);
  std::vector<size_t> trait_variable, snp_variable;
  const genomics::FactorGraph factor_graph =
      genomics::BuildAttackGraph(corpus.catalog, corpus.view, &trait_variable, &snp_variable);
  out->Add("genomics.bp_ms",
             MedianMs(30, [&](int) { (void)factor_graph.RunBeliefPropagation(bp); }), "ms", 30);
}

/// graph, classify, sanitize, tradeoff on the batch corpus at width 2.
void GraphLayers(const ppdp::graph::SocialGraph& graph, const BatchPlan& plan, Outcome* out) {
  core::PublisherOptions options;
  options.seed = kCorpusSeed;
  auto known = core::BuildKnownMask(graph, options);
  if (!known.ok()) {
    out->Problem("BuildKnownMask: " + known.status().ToString());
    return;
  }
  out->Add("graph.generate_ms", MedianMs(7, [](int) { (void)BuildBatchGraph(); }), "ms", 7);
  out->Add("graph.copy_ms", MedianMs(15, [&](int) {
               ppdp::graph::SocialGraph copy = graph;
               (void)copy.num_nodes();
             }),
             "ms", 15);
  size_t edges = 0;
  for (size_t u = 0; u < graph.num_nodes(); ++u) edges += graph.Degree(u);
  double weight_sum = 0.0;
  out->Add("graph.link_weight_ns", MedianPerCall([&] {
               for (size_t u = 0; u < graph.num_nodes(); ++u) {
                 for (ppdp::graph::NodeId v : graph.Neighbors(u)) {
                   weight_sum += graph.LinkWeight(u, v);
                 }
               }
             }, 1, 15) * 1e9 / static_cast<double>(edges),
             "ns", edges * 15);
  size_t id_sum = 0;
  out->Add("graph.neighbors_scan_ns", MedianPerCall([&] {
               for (size_t u = 0; u < graph.num_nodes(); ++u) {
                 for (ppdp::graph::NodeId v : graph.Neighbors(u)) id_sum += v;
               }
             }, 10, 30) * 1e9 / static_cast<double>(graph.num_nodes()),
             "ns", graph.num_nodes() * 300);
  if (weight_sum < 0 || id_sum == 0) out->Problem("graph scan read nothing");

  ppdp::classify::CollectiveConfig attack;
  attack.threads = kExecWidth;
  std::optional<ppdp::classify::CollectiveResult> estimates;
  out->Add("classify.collective_inference_ms", MedianMs(7, [&](int) {
               auto local = ppdp::classify::MakeLocalClassifier(
                   ppdp::classify::LocalModel::kNaiveBayes);
               estimates = ppdp::classify::CollectiveInference(graph, *known, *local, attack);
             }),
             "ms", 7);
  out->Add("sanitize.rank_links_ms", MedianMs(7, [&](int) {
               (void)ppdp::sanitize::RankIndistinguishableLinks(graph, *known,
                                                                estimates->distributions);
             }),
             "ms", 7);
  const size_t categories = plan.social.size();
  out->Add("sanitize.measure_privacy_utility_ms", MedianMs(7, [&](int i) {
               (void)ppdp::sanitize::MeasurePrivacyUtility(
                   graph, *known, static_cast<size_t>(i) % categories,
                   ppdp::classify::LocalModel::kNaiveBayes, attack);
             }),
             "ms", 7);
  std::vector<double> sanitize_ms;
  for (size_t category = 0; category < categories; ++category) {
    ppdp::graph::SocialGraph copy = graph;
    ppdp::sanitize::CollectiveSanitizeOptions sanitize_options;
    sanitize_options.utility_category = category;
    const double start = Now();
    (void)ppdp::sanitize::CollectiveSanitize(copy, sanitize_options);
    sanitize_ms.push_back((Now() - start) * 1e3);
  }
  out->Add("sanitize.collective_sanitize_ms", Median(sanitize_ms), "ms", sanitize_ms.size());

  for (const StrategyTag& s : kStrategies) {
    ppdp::tradeoff::TradeoffConfig config;
    config.num_attributes = 2;
    config.num_links = 4;
    config.attack.threads = kExecWidth;
    out->Add(std::string("tradeoff.apply_strategy_ms.") + s.tag, MedianMs(3, [&](int) {
                 (void)ppdp::tradeoff::ApplyStrategy(graph, *known, s.strategy, config);
               }),
               "ms", 3);
  }
}

/// Untraced then traced p50 of the run's workload, each over `seconds`.
std::pair<double, double> TraceOverhead(const Args& args, const ServeCorpus& corpus,
                                        const ppdp::graph::SocialGraph& graph,
                                        const BatchPlan& plan, double seconds, Outcome* out) {
  double p50[2] = {0.0, 0.0};
  for (int traced = 0; traced < 2; ++traced) {
    if (args.workload == "batch-graph") {
      const BatchPublishers publishers = MakeBatchPublishers(graph, kExecWidth, out);
      if (publishers.social == nullptr) break;
      const BatchPhaseResult phase = RunBatchPhase(publishers, plan, seconds, traced, out);
      p50[traced] = phase.slices.Latency(Slices::Ops::kPrimary, 0.5);
      continue;
    }
    double setup = 0.0;
    const std::string access_log = traced ? args.work_dir + "/traced_access.jsonl" : "";
    std::unique_ptr<Daemon> daemon = SpawnDaemon(args, corpus, access_log, 1, out, &setup);
    if (daemon == nullptr) break;
    const PhaseResult phase =
        args.workload == "serve-light"
            ? RunLightPhase(*daemon, corpus.degree_domain, args.seed, seconds, out)
            : RunGenomePhase(*daemon, args.seed, seconds, out);
    daemon->Stop();
    p50[traced] = phase.slices.Latency(
        args.workload == "serve-light" ? Slices::Ops::kPrimary : Slices::Ops::kAll, 0.5);
  }
  return {p50[0], p50[1]};
}

}  // namespace

Outcome RunLayers(const Args& args) {
  Outcome out;
  (void)ThreadPool::SetGlobalThreads(kExecWidth);
  const ServeCorpus corpus = BuildServeCorpus();
  const ppdp::graph::SocialGraph graph = BuildBatchGraph();
  const BatchPlan plan = MakeBatchPlan(args.seed, graph.num_categories());

  const double phase_seconds = std::max(1.0, 0.4 * args.seconds);
  const auto [untraced, traced] = TraceOverhead(args, corpus, graph, plan, phase_seconds, &out);

  std::vector<std::string> bodies;
  ServeLayers(args, corpus, &out, &bodies);
  ObsLayers(args, &out);
  if (!bodies.empty()) CommonAndDpLayers(args, corpus, bodies, &out);
  PublishLayers(args, corpus, graph, plan, &out);
  (void)ThreadPool::SetGlobalThreads(kExecWidth);
  GraphLayers(graph, plan, &out);

  const double overhead_pct = untraced > 0 ? 100.0 * (traced / untraced - 1.0) : 0.0;
  out.Add("trace.untraced_p50_ms", untraced, "ms");
  out.Add("trace.traced_p50_ms", traced, "ms");
  out.Add("trace.overhead_pct", overhead_pct, "%");

  // Attribution: the primary op's blocking steps, each timed alone.
  auto v = [&out](const char* name) { return Value(out, name); };
  double blocking_ms = 0.0;
  std::string steps;
  if (args.workload == "serve-light") {
    const double dp_us = (v("dp.noisy_histogram_us") + v("dp.private_quantile_us") +
                          v("dp.noisy_count_ns") / 1e3) / 3.0;
    blocking_ms = (v("serve.http_floor_us") + v("common.json_parse_us") +
                   v("serve.admission_us") + v("serve.spend_durable_us") + dp_us +
                   v("common.json_dump_us")) / 1e3;
    steps = "http floor + json parse + admission + durable spend + mean dp op + json dump";
  } else if (args.workload == "serve-genome") {
    blocking_ms = v("serve.http_floor_us") / 1e3 + v("serve.coalescer_run_ms") +
                  v("core.publish_ms.genome.w2");
    steps = "http floor + coalescing window + genome publish (w2)";
  } else {
    blocking_ms = 2 * v("sanitize.measure_privacy_utility_ms") + v("graph.copy_ms") +
                  v("sanitize.collective_sanitize_ms");
    steps = "2 x measure privacy/utility + graph copy + collective sanitize";
  }
  const double attribution_pct = untraced > 0 ? 100.0 * blocking_ms / untraced : 0.0;
  out.Add("trace.attribution_pct", attribution_pct, "%");
  char line[512];
  std::snprintf(line, sizeof(line),
                "trace overhead (%s p50): untraced %.4f ms, traced %.4f ms, %+.1f %%",
                args.workload.c_str(), untraced, traced, overhead_pct);
  out.notes.push_back(line);
  std::snprintf(line, sizeof(line),
                "attribution (%s primary op): %s = %.4f ms of p50 %.4f ms (%.1f %%)",
                args.workload.c_str(), steps.c_str(), blocking_ms, untraced, attribution_pct);
  out.notes.push_back(line);
  return out;
}

}  // namespace perfbench

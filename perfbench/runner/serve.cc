// serve-light and serve-genome: closed-loop clients against a ppdp_serve
// child process over loopback.
#include "phases.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <mutex>
#include <thread>

#include "core/publisher.h"

namespace perfbench {

namespace {

constexpr double kLightLimitSeconds = 0.005;
constexpr double kGenomeLimitSeconds = 0.250;
constexpr int kOracleThreads = 4;
constexpr int kServeSetupCycles = 25;

/// One request as a client sends it.
struct Op {
  std::string path;
  std::string body;
  bool secondary = false;  ///< an audit, or a two-trait genome publish
  size_t index = 0;        ///< position in the client's stream
};

/// A client's behaviour inside ClosedLoop: where its requests come from,
/// what a correct response looks like, and what it checks once its loop
/// ends. `check` sees only 200 responses with a matching traceparent.
struct Client {
  std::function<Op()> next;
  std::function<bool(const Op&, const HttpResult&)> check;
  std::function<bool()> finish = [] { return true; };
};

struct Sample {
  double start = 0.0;
  double latency = 0.0;
  bool ok = false;
  bool secondary = false;
};

/// Untimed lead-in before a timed phase, so connection threads, allocator
/// arenas and lazily built state exist before measuring.
double WarmupSeconds(double seconds) { return std::clamp(0.1 * seconds, 0.2, 1.0); }

void SleepUntil(double when) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(when))));
}

/// Runs one thread per client: an untimed warm-up, then a timed closed loop
/// of `seconds` (longer when the host steals CPU time, see Slices). Every op
/// counts in `out` (attempted/failed); latencies and the daemon's CPU cover
/// the timed phase only.
PhaseResult ClosedLoop(const Daemon& daemon, double seconds, double limit, uint64_t trace_seed,
                       std::vector<Client>& clients, Outcome* out) {
  PhaseResult phase;
  phase.slices = Slices(Now() + WarmupSeconds(seconds), seconds);
  const double timed_start = phase.slices.start();
  std::atomic<bool> stop{false};
  std::vector<std::vector<Sample>> samples(clients.size());
  std::vector<uint64_t> attempted(clients.size()), failed(clients.size()),
      refused(clients.size());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      SeedRng trace_rng(trace_seed * 31 + c + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        const double start = Now();
        const Op op = clients[c].next();
        std::string trace_id;
        const std::string traceparent =
            MakeTraceparent(trace_rng.Next(), trace_rng.Next(), trace_rng.Next(), &trace_id);
        const HttpResult result = HttpCall(daemon.port(), "POST", op.path, op.body, traceparent);
        const double end = Now();
        if (result.status == 403 || result.status == 429) ++refused[c];
        const bool ok = result.transport_ok && result.status == 200 &&
                        TraceIdOf(result.traceparent) == trace_id && clients[c].check(op, result);
        ++attempted[c];
        if (!ok) ++failed[c];
        if (start >= timed_start) samples[c].push_back({start, end - start, ok, op.secondary});
      }
      ++attempted[c];
      if (!clients[c].finish()) ++failed[c];
    });
  }

  // Slice boundaries: the daemon's CPU and the host's steal per slice.
  SleepUntil(timed_start);
  double cpu_mark = ProcessCpuSeconds(daemon.pid());
  CpuClock clock_mark = ReadCpuClock();
  int slice = 0;
  for (bool done = false; !done; ++slice) {
    SleepUntil(phase.slices.SliceEnd(slice));
    const double cpu = ProcessCpuSeconds(daemon.pid());
    const CpuClock clock = ReadCpuClock();
    phase.slices.AddCpu(slice, cpu - cpu_mark);
    done = phase.slices.Close(slice, StealShare(clock_mark, clock));
    cpu_mark = cpu;
    clock_mark = clock;
  }
  stop.store(true);
  for (std::thread& thread : threads) thread.join();
  // Ops that started in the last slice finish after its boundary.
  phase.slices.AddCpu(slice - 1, ProcessCpuSeconds(daemon.pid()) - cpu_mark);

  uint64_t total_refused = 0;
  for (size_t c = 0; c < clients.size(); ++c) {
    out->attempted += attempted[c];
    out->failed += failed[c];
    total_refused += refused[c];
    for (const Sample& s : samples[c]) {
      phase.slices.Record(s.start, s.latency * 1e3, s.ok, s.latency <= limit, s.secondary);
    }
  }
  if (total_refused > 0) {
    out->Problem("run guard: " + std::to_string(total_refused) + " responses were 403 or 429");
  }
  return phase;
}

/// serve-light response check; `spent` is the client's running sum of ε
/// over its 200 aggregate responses, which an audit must report exactly
/// (one client per tenant and a closed loop, so no spend is in flight).
bool CheckLight(const LightRequest& request, const std::string& body, size_t domain,
                double* spent) {
  if (request.audit) return JsonNumberField(body, "spent") == *spent;
  if (body.find("\"op\":\"" + request.op + "\"") == std::string::npos) return false;
  if (JsonNumberField(body, "epsilon_spent") != request.epsilon) return false;
  bool shape_ok = false;
  if (request.op == "histogram") {
    const size_t open = body.find("\"result\":[");
    const size_t close = open == std::string::npos ? open : body.find(']', open);
    if (close != std::string::npos) {
      size_t buckets = 1;
      for (size_t i = open; i < close; ++i) buckets += body[i] == ',' ? 1 : 0;
      shape_ok = buckets == domain;
    }
  } else if (request.op == "quantile") {
    const double value = JsonNumberField(body, "result");
    shape_ok = value >= 0 && value < static_cast<double>(domain) && value == std::floor(value);
  } else {
    shape_ok = std::isfinite(JsonNumberField(body, "result"));
  }
  if (shape_ok) *spent += request.epsilon;
  return shape_ok;
}

std::string WorkPath(const Args& args, const std::string& name) {
  return args.work_dir + "/" + name;
}

}  // namespace

std::unique_ptr<Daemon> SpawnDaemon(const Args& args, const ServeCorpus& corpus,
                                    const std::string& access_log, int cycles, Outcome* out,
                                    double* setup_seconds) {
  const std::string binary = args.bin_dir + "/ppdp_serve";
  const std::string wal = WorkPath(args, "ledger.wal");
  std::vector<double> ready;
  std::unique_ptr<Daemon> daemon;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    if (daemon != nullptr) daemon->Stop();
    std::remove(wal.c_str());
    if (!access_log.empty()) std::remove(access_log.c_str());
    daemon = std::make_unique<Daemon>();
    std::string error;
    if (!daemon->Start(binary, DaemonArgs(wal, access_log), WorkPath(args, "daemon.log"),
                       &error)) {
      out->Problem("ppdp_serve did not start: " + error);
      return nullptr;
    }
    ready.push_back(daemon->ready_seconds());
    for (const auto& [name, digest] : {std::pair<std::string, std::string>{"graph_digest",
                                                                          corpus.graph_digest},
                                       {"genome_digest", corpus.genome_digest}}) {
      if (daemon->startup_json().find("\"" + name + "\":\"" + digest + "\"") ==
          std::string::npos) {
        out->Problem("run guard: daemon " + name + " differs from the rebuilt corpus (" +
                     digest + "): " + daemon->startup_json());
      }
    }
  }
  *setup_seconds = Median(ready);
  return daemon;
}

PhaseResult RunLightPhase(const Daemon& daemon, size_t degree_domain, uint64_t seed,
                          double seconds, Outcome* out) {
  std::mutex problem_mutex;
  std::vector<Client> clients;
  for (int c = 0; c < kClients; ++c) {
    struct State {
      LightStream stream;
      LightRequest current;
      double spent = 0.0;
    };
    auto state = std::make_shared<State>(State{LightStream(seed, c, degree_domain), {}, 0.0});
    Client client;
    client.next = [state] {
      state->current = state->stream.Next();
      return Op{state->current.path, state->current.body, state->current.audit, 0};
    };
    client.check = [state, degree_domain](const Op&, const HttpResult& result) {
      return CheckLight(state->current, result.body, degree_domain, &state->spent);
    };
    client.finish = [state, &daemon, &problem_mutex, out] {
      const HttpResult audit = HttpCall(daemon.port(), "POST", "/v1/audit",
                                        "{\"tenant\":\"" + state->stream.tenant() + "\"}", "");
      if (audit.status == 200 && JsonNumberField(audit.body, "spent") == state->spent) {
        return true;
      }
      std::lock_guard<std::mutex> lock(problem_mutex);
      out->Problem("oracle: tenant " + state->stream.tenant() +
                   " audited spent differs from the sum of its responses' epsilon");
      return false;
    };
    clients.push_back(std::move(client));
  }
  return ClosedLoop(daemon, seconds, kLightLimitSeconds, seed, clients, out);
}

PhaseResult RunGenomePhase(const Daemon& daemon, uint64_t seed, double seconds, Outcome* out) {
  const GenomeStreams streams(seed);
  std::mutex mutex;
  std::vector<std::pair<ppdp::core::PublishConfig, std::string>> outputs;
  uint64_t merged = 0;
  std::vector<Client> clients;
  for (int c = 0; c < kClients; ++c) {
    auto next_index = std::make_shared<size_t>(0);
    Client client;
    client.next = [&streams, next_index, c] {
      const size_t index = (*next_index)++;
      const GenomeRequest request = streams.Get(c, index);
      return Op{"/v1/publish", request.body, request.config.target_traits.size() > 1, index};
    };
    client.check = [&, c](const Op& op, const HttpResult& result) {
      // Run guard: every config is distinct, so a merge means the
      // coalescer saw equal keys for different requests.
      const bool alone = result.body.find("\"coalesced\":false") != std::string::npos &&
                         JsonNumberField(result.body, "batch_size") == 1.0;
      const std::string output = JsonObjectField(result.body, "output");
      std::lock_guard<std::mutex> lock(mutex);
      if (!alone) ++merged;
      outputs.emplace_back(streams.Get(c, op.index).config, output);
      return alone && !output.empty();
    };
    clients.push_back(std::move(client));
  }
  PhaseResult phase = ClosedLoop(daemon, seconds, kGenomeLimitSeconds, seed, clients, out);
  phase.outputs = std::move(outputs);
  if (merged > 0) {
    out->Problem("run guard: the coalescer merged " + std::to_string(merged) + " requests");
  }
  return phase;
}

uint64_t GenomeOracleMismatches(const ServeCorpus& corpus, const PhaseResult& phase) {
  ppdp::core::PublisherOptions options;
  options.seed = kCorpusSeed;
  options.threads = 1;
  auto publisher = ppdp::core::CreatePublisher(corpus.catalog, corpus.view, options);
  if (!publisher.ok()) return phase.outputs.size();
  std::atomic<uint64_t> mismatches{0};
  ForEachParallel(phase.outputs.size(), kOracleThreads, [&](size_t i) {
    const auto& [config, daemon_output] = phase.outputs[i];
    auto expected = (*publisher)->Publish(config);
    if (!expected.ok() || expected->ToJson().Dump() != daemon_output) ++mismatches;
  });
  return mismatches.load();
}

Outcome RunServeLight(const Args& args) {
  Outcome out;
  const ServeCorpus corpus = BuildServeCorpus();
  double setup = 0.0;
  std::unique_ptr<Daemon> daemon =
      SpawnDaemon(args, corpus, "", SetupCycles(args, kServeSetupCycles), &out, &setup);
  if (daemon == nullptr) return out;
  const PhaseResult phase = RunLightPhase(*daemon, corpus.degree_domain, args.seed, args.seconds,
                                          &out);
  const double peak = PeakRssMb(daemon->pid());
  daemon->Stop();
  out.Add("setup_s", setup, "s", static_cast<uint64_t>(SetupCycles(args, kServeSetupCycles)));
  AddPhaseMetrics(phase.slices, Slices::Ops::kPrimary, 0.90, &out);
  // p99 read 0.45-6 ms across ten runs as other tenants of the host came and
  // went, so it is printed for reference but is not a gated metric.
  out.notes.push_back("aggregate p99 (informational): " +
                      FormatDouble(phase.slices.Latency(Slices::Ops::kPrimary, 0.99)) + " ms");
  out.Add("peak_rss_mb", peak, "MB");
  return out;
}

Outcome RunServeGenome(const Args& args) {
  Outcome out;
  const ServeCorpus corpus = BuildServeCorpus();
  double setup = 0.0;
  std::unique_ptr<Daemon> daemon =
      SpawnDaemon(args, corpus, "", SetupCycles(args, kServeSetupCycles), &out, &setup);
  if (daemon == nullptr) return out;
  const PhaseResult phase = RunGenomePhase(*daemon, args.seed, args.seconds, &out);
  const double peak = PeakRssMb(daemon->pid());
  daemon->Stop();
  const uint64_t mismatches = GenomeOracleMismatches(corpus, phase);
  if (mismatches > 0) {
    out.failed += mismatches;
    out.Problem("oracle: " + std::to_string(mismatches) +
                " genome outputs differ from in-process Publish");
  }
  out.Add("setup_s", setup, "s", static_cast<uint64_t>(SetupCycles(args, kServeSetupCycles)));
  AddPhaseMetrics(phase.slices, Slices::Ops::kAll, 0.90, &out);
  out.Add("peak_rss_mb", peak, "MB");
  return out;
}

}  // namespace perfbench

// End-to-end checks of the ppdp_stat CLI: each kind runs the built binary
// over fixtures written at test time by the library's own writers, and
// pins the exit-code convention (0 ok, 1 regression or violation, 2 usage,
// I/O or schema error).
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/report.h"
#include "obs/slo.h"
#include "serve/request_trace.h"

namespace {

using ppdp::obs::AlertRule;
using ppdp::obs::AlertState;
using ppdp::obs::AlertTransition;
using ppdp::obs::CpuProfile;
using ppdp::obs::RunReport;
using ppdp::serve::RequestRecord;

struct StatRun {
  int code = -1;
  std::string out;
  std::string err;
};

std::string Slurp(const std::string& path) {
  std::ifstream file(path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

/// Per-process scratch directory, removed when the test program exits.
struct ScratchDir {
  std::string path;
  ScratchDir() {
    std::string pattern = ::testing::TempDir() + "/ppdp_stat_test_XXXXXX";
    if (mkdtemp(pattern.data()) != nullptr) path = pattern;
  }
  ~ScratchDir() {
    if (!path.empty()) std::filesystem::remove_all(path);
  }
};

std::string TempPath(const std::string& name) {
  static const ScratchDir dir;
  return dir.path + "/" + name;
}

void WriteText(const std::string& path, const std::string& text) {
  std::ofstream(path) << text;
}

/// Runs `ppdp_stat <args>` (stdin from /dev/null) and captures its output.
StatRun Stat(const std::string& args) {
  const std::string out = TempPath("stdout");
  const std::string err = TempPath("stderr");
  const std::string command = std::string(PPDP_STAT_BIN) + " " + args + " < /dev/null > " +
                              out + " 2> " + err;
  const int status = std::system(command.c_str());
  StatRun run;
  run.code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  run.out = Slurp(out);
  run.err = Slurp(err);
  return run;
}

// ---- fixtures ----

RunReport BenchReport(double phase_ms, const std::string& build_type = "release",
                      const std::string& compiler = "g++ 13") {
  RunReport report;
  report.name = "gate";
  report.binary = "bench_gate";
  report.build.build_type = build_type;
  report.build.compiler = compiler;
  ppdp::obs::TraceRecorder::PhaseStats phase;
  phase.name = "work";
  phase.count = 1;
  phase.wall_ms_total = phase_ms;
  report.phases.push_back(phase);
  return report;
}

std::string WriteReport(const std::string& name, const RunReport& report) {
  const std::string path = TempPath(name + ".json");
  EXPECT_TRUE(report.WriteJson(path).ok());
  return path;
}

CpuProfile FrameProfile(uint64_t hot, uint64_t cold, const std::string& build_type = "release") {
  CpuProfile profile;
  profile.name = "gate";
  profile.hz = 97;
  profile.samples = hot + cold;
  profile.threads_profiled = 1;
  profile.compiler = "g++ 13";
  profile.build_type = build_type;
  CpuProfile::Phase phase;
  phase.name = "work";
  phase.samples = hot + cold;
  phase.self_frames = {{"hot", hot}, {"cold", cold}};
  profile.phases.push_back(std::move(phase));
  return profile;
}

std::string WriteProfile(const std::string& name, const CpuProfile& profile) {
  const std::string path = TempPath(name + ".json");
  EXPECT_TRUE(profile.WriteJson(path).ok());
  return path;
}

RequestRecord Access(const std::string& tenant, int status, double publish_micros) {
  RequestRecord record;
  record.request_id = ppdp::serve::GenerateTraceId();
  record.span_id = ppdp::serve::GenerateSpanId();
  record.tenant = tenant;
  record.endpoint = "/v1/publish";
  record.status = status;
  record.stages = {{"serve.parse", 10.0}, {"serve.publish", publish_micros}};
  record.total_micros = record.StageMicrosSum() + 5.0;
  return record;
}

std::string WriteLines(const std::string& name, const std::vector<std::string>& lines) {
  const std::string path = TempPath(name + ".jsonl");
  std::ofstream file(path);
  for (const std::string& line : lines) file << line << "\n";
  return path;
}

std::string WriteAccessLog(const std::string& name, const std::vector<RequestRecord>& records) {
  std::vector<std::string> lines;
  for (const RequestRecord& record : records) lines.push_back(record.ToJson().Dump());
  return WriteLines(name, lines);
}

AlertTransition Transition(double t, AlertState from, AlertState to) {
  AlertTransition transition;
  transition.t_seconds = t;
  transition.rule = "availability_fast";
  transition.from = from;
  transition.to = to;
  transition.severity = AlertRule::Severity::kPage;
  return transition;
}

// ---- usage ----

TEST(StatCliTest, MissingOrUnknownKindIsAUsageError) {
  EXPECT_EQ(Stat("").code, 2);
  const StatRun unknown = Stat("benchstat a b");
  EXPECT_EQ(unknown.code, 2);
  EXPECT_NE(unknown.err.find("ppdp_stat prom"), std::string::npos) << unknown.err;
}

// ---- bench ----

TEST(StatBenchTest, SelfDiffPassesInjectedSlowdownRegressesBadInputErrors) {
  const std::string base = WriteReport("bench_base", BenchReport(200.0));
  const std::string slow = WriteReport("bench_slow", BenchReport(2000.0));

  const StatRun self = Stat("bench --threshold 1.0 --min_ms 100 " + base + " " + base);
  EXPECT_EQ(self.code, 0) << self.err;
  EXPECT_NE(self.out.find("ok: no phase regressed"), std::string::npos) << self.out;
  EXPECT_EQ(Stat("bench --validate_only " + base + " " + slow).code, 0);

  const StatRun regressed = Stat("bench --threshold=1.0 --min_ms=100 " + base + " " + slow);
  EXPECT_EQ(regressed.code, 1) << regressed.err;
  EXPECT_NE(regressed.out.find("REGRESSED"), std::string::npos) << regressed.out;

  const std::string garbage = TempPath("bench_garbage.json");
  WriteText(garbage, "{\"schema\": \"ppdp.bench.v1\"");
  EXPECT_EQ(Stat("bench " + base + " " + garbage).code, 2);
  EXPECT_EQ(Stat("bench " + base + " " + TempPath("missing.json")).code, 2);
  EXPECT_EQ(Stat("bench " + base).code, 2);
  // Input the old per-tool parsers silently ignored or defaulted.
  const StatRun typo = Stat("bench --treshold 0.5 " + base + " " + slow);
  EXPECT_EQ(typo.code, 2);
  EXPECT_NE(typo.err.find("unknown flag --treshold"), std::string::npos) << typo.err;
  EXPECT_EQ(Stat("bench --threshold 1,0 " + base + " " + slow).code, 2);
  EXPECT_EQ(Stat("bench --min_ms -5 " + base + " " + slow).code, 2);
  EXPECT_EQ(Stat("bench --threshold " + base + " " + slow).code, 2);
}

TEST(StatBenchTest, BuildsDifferNoteNamesBothBuilds) {
  const std::string base = WriteReport("bench_debug", BenchReport(100.0, "debug", "g++ 12"));
  const std::string cur = WriteReport("bench_release", BenchReport(100.0, "release", "g++ 13"));
  const StatRun run = Stat("bench " + base + " " + cur);
  EXPECT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("\n(builds differ: baseline debug \"g++ 12\" vs current release "
                         "\"g++ 13\")\nok: no phase regressed\n"),
            std::string::npos)
      << run.out;
  // Same builds print no note.
  EXPECT_EQ(Stat("bench " + cur + " " + cur).out.find("builds differ"), std::string::npos);
}

TEST(StatBenchTest, DroppedTraceEventsPrintANoteButNeverRegress) {
  RunReport dropped = BenchReport(100.0);
  dropped.trace_dropped = 1234;
  const std::string base = WriteReport("bench_kept", BenchReport(100.0));
  const std::string cur = WriteReport("bench_dropped", dropped);
  const StatRun run = Stat("bench " + base + " " + cur);
  EXPECT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("\n(trace events dropped: baseline 0, current 1234)\n"),
            std::string::npos)
      << run.out;
  // Nothing dropped on either side prints no note.
  EXPECT_EQ(Stat("bench " + base + " " + base).out.find("trace events dropped"),
            std::string::npos);
}

// ---- prof ----

TEST(StatProfTest, RendersDiffsAndRejectsBadInput) {
  const std::string base = WriteProfile("prof_base", FrameProfile(100, 900));
  const std::string grown = WriteProfile("prof_grown", FrameProfile(800, 1200, "debug"));

  const StatRun render = Stat("prof --top 5 " + base);
  EXPECT_EQ(render.code, 0) << render.err;
  EXPECT_NE(render.out.find("== top 5 self frames =="), std::string::npos) << render.out;
  EXPECT_EQ(Stat("prof --validate_only " + base + " " + grown).code, 0);
  EXPECT_EQ(Stat("prof " + base + " " + base).code, 0);

  const StatRun regressed = Stat("prof " + base + " " + grown);
  EXPECT_EQ(regressed.code, 1) << regressed.err;
  EXPECT_NE(regressed.out.find("(builds differ: baseline release \"g++ 13\" vs current debug "
                               "\"g++ 13\")\nREGRESSION: at least one frame's self-share grew"),
            std::string::npos)
      << regressed.out;

  const std::string wrong_schema = TempPath("prof_wrong.json");
  WriteText(wrong_schema, "{\"schema\": \"ppdp.bench.v1\"}");
  EXPECT_EQ(Stat("prof " + wrong_schema).code, 2);
  EXPECT_EQ(Stat("prof --top 12abc " + base).code, 2);
  EXPECT_EQ(Stat("prof " + base + " " + base + " " + base).code, 2);
}

// ---- trace ----

TEST(StatTraceTest, AggregatesDiffsAndRejectsMalformedRecords) {
  const std::string base =
      WriteAccessLog("trace_base", {Access("acme", 200, 1000.0), Access("beta", 403, 2000.0)});
  const std::string slow =
      WriteAccessLog("trace_slow", {Access("acme", 200, 9000.0), Access("beta", 200, 9000.0)});

  const StatRun aggregate = Stat("trace " + base);
  EXPECT_EQ(aggregate.code, 0) << aggregate.err;
  EXPECT_NE(aggregate.out.find("serve.publish"), std::string::npos) << aggregate.out;
  EXPECT_NE(aggregate.out.find("(tenant beta: 1 non-2xx responses)"), std::string::npos);
  const StatRun filtered = Stat("trace --validate_only --tenant acme " + base);
  EXPECT_EQ(filtered.code, 0);
  EXPECT_NE(filtered.out.find(": 1 records valid"), std::string::npos) << filtered.out;
  EXPECT_EQ(Stat("trace " + base + " " + base).code, 0);

  const StatRun regressed = Stat("trace " + base + " " + slow);
  EXPECT_EQ(regressed.code, 1) << regressed.err;
  EXPECT_NE(regressed.out.find("REGRESSION: at least one stage slowed"), std::string::npos);

  RequestRecord bad = Access("acme", 200, 1000.0);
  bad.total_micros = 1.0;  // stages now add up past the total
  const std::string malformed = WriteAccessLog("trace_bad", {Access("acme", 200, 1.0), bad});
  const StatRun rejected = Stat("trace " + malformed);
  EXPECT_EQ(rejected.code, 2);
  EXPECT_NE(rejected.err.find(malformed + ":2"), std::string::npos) << rejected.err;
  EXPECT_EQ(Stat("trace --min_ms 1,5 " + base).code, 2);
}

TEST(StatTraceTest, ZeroBaselineStageRegressesPastTheFloor) {
  const std::string base = WriteAccessLog("trace_zero", {Access("acme", 200, 0.0)});
  const std::string cur = WriteAccessLog("trace_grown", {Access("acme", 200, 3000.0)});
  EXPECT_EQ(Stat("trace --min_ms 1 " + base + " " + cur).code, 1);
  // Growth of exactly the floor does not regress.
  EXPECT_EQ(Stat("trace --min_ms 3 " + base + " " + cur).code, 0);
}

// ---- slo ----

TEST(StatSloTest, AlertLogsValidateAndAccessLogsAreJudged) {
  const std::string alerts = WriteLines(
      "slo_alerts", {Transition(1.0, AlertState::kInactive, AlertState::kPending).ToJson().Dump(),
                     Transition(2.0, AlertState::kPending, AlertState::kFiring).ToJson().Dump(),
                     Transition(5.0, AlertState::kFiring, AlertState::kResolved).ToJson().Dump()});
  const StatRun summary = Stat("slo " + alerts);
  EXPECT_EQ(summary.code, 0) << summary.err;
  EXPECT_NE(summary.out.find("3 transitions, 1 alert instances"), std::string::npos);
  EXPECT_EQ(Stat("slo --validate_only " + alerts).code, 0);

  const std::string healthy =
      WriteAccessLog("slo_ok", {Access("acme", 200, 100.0), Access("acme", 403, 100.0)});
  const StatRun attained = Stat("slo " + healthy);
  EXPECT_EQ(attained.code, 0) << attained.err << attained.out;
  EXPECT_NE(attained.out.find("ok: all judged SLOs attained"), std::string::npos);

  const std::string failing =
      WriteAccessLog("slo_5xx", {Access("acme", 500, 100.0), Access("acme", 503, 100.0)});
  const StatRun violated = Stat("slo " + failing);
  EXPECT_EQ(violated.code, 1) << violated.err;
  EXPECT_NE(violated.out.find("VIOLATED"), std::string::npos) << violated.out;

  const std::string backwards = WriteLines(
      "slo_backwards",
      {Transition(2.0, AlertState::kInactive, AlertState::kPending).ToJson().Dump(),
       Transition(1.0, AlertState::kPending, AlertState::kFiring).ToJson().Dump()});
  EXPECT_EQ(Stat("slo " + backwards).code, 2);
  // Access mode uses the strict reader: a waiter without a leader is bad.
  RequestRecord waiter = Access("acme", 200, 100.0);
  waiter.coalesce = "waiter";
  EXPECT_EQ(Stat("slo " + WriteAccessLog("slo_waiter", {waiter})).code, 2);
  EXPECT_EQ(Stat("slo " + WriteLines("slo_empty", {})).code, 2);
  EXPECT_EQ(Stat("slo --slo_config " + TempPath("no_config.json") + " " + healthy).code, 2);
  EXPECT_EQ(Stat("slo --tenant acme " + healthy).code, 2);
}

// ---- prom ----

TEST(StatPromTest, ValidatesExpositionAndGatesCardinality) {
  ppdp::obs::MetricsRegistry registry;
  registry.counter("stat.requests").Increment(3);
  registry.histogram("stat.latency_seconds", {0.1, 1.0}).Observe(0.5);
  const std::string scrape = TempPath("scrape.txt");
  WriteText(scrape, registry.ToPrometheus());

  const StatRun ok = Stat("prom " + scrape);
  EXPECT_EQ(ok.code, 0) << ok.err;
  EXPECT_NE(ok.out.find(": ok ("), std::string::npos) << ok.out;
  EXPECT_EQ(Stat("prom --max_series 500 " + scrape).code, 0);
  EXPECT_EQ(Stat("prom --max_series=1 " + scrape).code, 1);

  const std::string malformed = TempPath("scrape_bad.txt");
  WriteText(malformed, "untyped_sample 1\n");
  EXPECT_EQ(Stat("prom " + malformed).code, 2);
  EXPECT_EQ(Stat("prom " + TempPath("missing.txt")).code, 2);
  EXPECT_EQ(Stat("prom --max_series 12abc " + scrape).code, 2);
  EXPECT_EQ(Stat("prom --max_series 0 " + scrape).code, 2);
}

}  // namespace

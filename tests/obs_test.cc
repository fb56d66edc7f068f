#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/flags.h"
#include "common/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ppdp::obs {
namespace {

/// Restores the global log level and default sink after each test so the
/// fixture never leaks state into the rest of the suite.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override { previous_level_ = GetLogLevel(); }
  void TearDown() override {
    SetLogSink(nullptr);
    SetLogLevel(previous_level_);
  }

  LogLevel previous_level_ = LogLevel::kWarn;
};

TEST_F(ObsTest, ParseLogLevelAcceptsKnownNames) {
  LogLevel level = LogLevel::kOff;
  EXPECT_TRUE(ParseLogLevel("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(ParseLogLevel("INFO", &level));
  EXPECT_EQ(level, LogLevel::kInfo);
  EXPECT_TRUE(ParseLogLevel("Warning", &level));
  EXPECT_EQ(level, LogLevel::kWarn);
  EXPECT_TRUE(ParseLogLevel("error", &level));
  EXPECT_EQ(level, LogLevel::kError);
  EXPECT_TRUE(ParseLogLevel("off", &level));
  EXPECT_EQ(level, LogLevel::kOff);

  level = LogLevel::kInfo;
  EXPECT_FALSE(ParseLogLevel("verbose", &level));
  EXPECT_EQ(level, LogLevel::kInfo) << "junk must leave the level untouched";
}

TEST_F(ObsTest, LevelThresholdFiltersRecords) {
  std::vector<LogRecord> captured;
  SetLogSink([&captured](const LogRecord& r) { captured.push_back(r); });

  SetLogLevel(LogLevel::kWarn);
  PPDP_LOG(INFO) << "filtered out";
  PPDP_LOG(WARN) << "kept";
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0].level, LogLevel::kWarn);
  EXPECT_EQ(captured[0].message, "kept");

  SetLogLevel(LogLevel::kDebug);
  PPDP_LOG(DEBUG) << "now visible";
  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[1].level, LogLevel::kDebug);

  SetLogLevel(LogLevel::kOff);
  PPDP_LOG(ERROR) << "silenced";
  EXPECT_EQ(captured.size(), 2u);
}

TEST_F(ObsTest, DisabledLevelDoesNotEvaluateStream) {
  SetLogLevel(LogLevel::kError);
  int evaluations = 0;
  auto expensive = [&evaluations]() {
    ++evaluations;
    return std::string("costly");
  };
  PPDP_LOG(DEBUG) << expensive();
  EXPECT_EQ(evaluations, 0) << "stream operands must be skipped below the threshold";
  PPDP_LOG(ERROR) << expensive();
  EXPECT_EQ(evaluations, 1);
}

TEST_F(ObsTest, SinkReceivesFileLineAndFields) {
  std::vector<LogRecord> captured;
  SetLogSink([&captured](const LogRecord& r) { captured.push_back(r); });
  SetLogLevel(LogLevel::kInfo);

  PPDP_LOG(INFO) << "fit done" << Field("epsilon", 0.5) << Field("rows", 42)
                 << Field("label", "two words") << Field("ok", true);
  ASSERT_EQ(captured.size(), 1u);
  const LogRecord& r = captured[0];
  EXPECT_STREQ(r.file, "obs_test.cc");
  EXPECT_GT(r.line, 0);
  EXPECT_GE(r.elapsed_seconds, 0.0);
  EXPECT_EQ(r.message, "fit done epsilon=0.5 rows=42 label=\"two words\" ok=true");
}

TEST_F(ObsTest, CounterMath) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.Increment();
  counter.Increment(9);
  EXPECT_EQ(counter.value(), 10u);
  counter.Reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST_F(ObsTest, GaugeSetAndAdd) {
  Gauge gauge;
  gauge.Set(2.5);
  gauge.Add(-1.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 1.5);
}

TEST_F(ObsTest, HistogramBucketsAndStats) {
  Histogram histogram({1.0, 2.0, 4.0});
  for (double v : {0.5, 1.5, 1.7, 3.0, 100.0}) histogram.Observe(v);

  EXPECT_EQ(histogram.count(), 5u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 0.5 + 1.5 + 1.7 + 3.0 + 100.0);
  EXPECT_DOUBLE_EQ(histogram.mean(), histogram.sum() / 5.0);
  EXPECT_DOUBLE_EQ(histogram.min(), 0.5);
  EXPECT_DOUBLE_EQ(histogram.max(), 100.0);

  std::vector<uint64_t> expected = {1, 2, 1, 1};  // <=1, <=2, <=4, overflow
  EXPECT_EQ(histogram.bucket_counts(), expected);

  // The median falls in the (1, 2] bucket; quantiles must be monotone.
  double p50 = histogram.ApproxQuantile(0.5);
  EXPECT_GT(p50, 1.0);
  EXPECT_LE(p50, 2.0);
  EXPECT_LE(histogram.ApproxQuantile(0.25), p50);
  EXPECT_LE(p50, histogram.ApproxQuantile(0.95));

  histogram.Reset();
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_DOUBLE_EQ(histogram.mean(), 0.0);
}

TEST_F(ObsTest, RegistryReturnsStableReferencesAcrossReset) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("test.counter");
  counter.Increment(3);
  EXPECT_EQ(&registry.counter("test.counter"), &counter);

  registry.Reset();
  EXPECT_EQ(counter.value(), 0u) << "Reset zeroes but keeps the registration";
  counter.Increment();
  EXPECT_EQ(registry.counter("test.counter").value(), 1u);
}

TEST_F(ObsTest, RegistrySnapshotListsEveryMetric) {
  MetricsRegistry registry;
  registry.counter("a.count").Increment(7);
  registry.gauge("b.gauge").Set(1.25);
  registry.histogram("c.hist", {1.0, 10.0}).Observe(0.5);

  Table snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.num_rows(), 3u);
  EXPECT_EQ(snapshot.row(0)[0], "a.count");
  EXPECT_EQ(snapshot.row(1)[0], "b.gauge");
  EXPECT_EQ(snapshot.row(2)[0], "c.hist");

  std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"a.count\""), std::string::npos);
  EXPECT_NE(json.find("\"c.hist\""), std::string::npos);
}

// An event owns no heap memory: the capped Chrome-trace event log costs at
// most kMaxEvents * sizeof(TraceEvent) bytes however long the span names are.
static_assert(std::is_trivially_copyable_v<TraceEvent>);

TEST_F(ObsTest, NestedTraceSpansHaveMonotonicTiming) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();
  recorder.SetCollectEvents(true);

  {
    TraceSpan outer("obs_test.outer");
    {
      TraceSpan inner("obs_test.inner");
      // Do a little real work so the inner duration is non-trivial.
      volatile double sink = 0.0;
      for (int i = 0; i < 50000; ++i) sink = sink + static_cast<double>(i) * 1e-9;
      EXPECT_GE(inner.ElapsedSeconds(), 0.0);
    }
    EXPECT_GE(outer.ElapsedSeconds(), 0.0);
  }

  auto events = recorder.events();
  recorder.SetCollectEvents(false);
  ASSERT_EQ(events.size(), 2u);
  // Inner destructs first, so it is recorded first.
  const TraceEvent& inner = events[0];
  const TraceEvent& outer = events[1];
  // Events carry the interned id, which resolves to the span's name.
  EXPECT_EQ(SpanNameForId(inner.name_id), "obs_test.inner");
  EXPECT_EQ(SpanNameForId(outer.name_id), "obs_test.outer");
  EXPECT_EQ(inner.name_id, InternSpanName("obs_test.inner"));
  EXPECT_NE(inner.name_id, outer.name_id);
  // The inner span starts no earlier and ends no later than the outer one.
  EXPECT_GE(inner.start_us, outer.start_us);
  EXPECT_LE(inner.start_us + inner.duration_us, outer.start_us + outer.duration_us + 1e-3);
  EXPECT_GE(outer.duration_us, inner.duration_us);

  Table phases = recorder.PhaseSummary();
  EXPECT_EQ(phases.num_rows(), 2u);
  recorder.Clear();
}

/// The PhaseStatsSorted row for `name` (count 0 when absent).
TraceRecorder::PhaseStats PhaseNamed(const std::string& name) {
  for (const TraceRecorder::PhaseStats& phase : TraceRecorder::Global().PhaseStatsSorted()) {
    if (phase.name == name) return phase;
  }
  return {};
}

TEST_F(ObsTest, SpanWithoutEventCollectionCountsOnlyInPhases) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();
  { TraceSpan span("obs_test.uncollected"); }
  EXPECT_EQ(PhaseNamed("obs_test.uncollected").count, 1u);
  EXPECT_TRUE(recorder.events().empty());
  recorder.Clear();
}

TEST_F(ObsTest, PhaseTotalsStayExactPastTheEventCap) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();
  recorder.SetCollectEvents(true);
  for (size_t i = 0; i < TraceRecorder::kMaxEvents + 1; ++i) TraceSpan span("obs_test.many");
  recorder.SetCollectEvents(false);
  EXPECT_EQ(PhaseNamed("obs_test.many").count, TraceRecorder::kMaxEvents + 1);
  EXPECT_EQ(recorder.events().size(), TraceRecorder::kMaxEvents);
  EXPECT_EQ(recorder.num_dropped(), 1u);
  recorder.Clear();
}

TEST_F(ObsTest, ActiveSpanStacksListAnotherThreadWhileItsSpansAreOpen) {
  auto listed = [](const std::vector<std::string>& spans) {
    for (const ActiveSpanStack& stack : ActiveSpanStacks()) {
      if (stack.spans == spans) return true;
    }
    return false;
  };
  auto wait_for = [](const std::atomic<int>& step, int value) {
    while (step.load() != value) std::this_thread::yield();
  };
  std::atomic<int> step{0};
  std::thread worker([&] {
    {
      TraceSpan outer("obs_test.stack.outer");
      TraceSpan inner("obs_test.stack.inner");
      step = 1;
      wait_for(step, 2);
    }
    step = 3;
    wait_for(step, 4);
  });
  wait_for(step, 1);
  EXPECT_TRUE(listed({"obs_test.stack.outer", "obs_test.stack.inner"}));
  step = 2;
  wait_for(step, 3);
  for (const ActiveSpanStack& stack : ActiveSpanStacks()) {
    for (const std::string& span : stack.spans) EXPECT_NE(span.rfind("obs_test.stack.", 0), 0u);
  }
  step = 4;
  worker.join();
}

TEST_F(ObsTest, ParseLogLevelRejectsJunkAndBoundaryInputs) {
  LogLevel level = LogLevel::kInfo;
  EXPECT_FALSE(ParseLogLevel("", &level));
  EXPECT_FALSE(ParseLogLevel(" warn", &level)) << "leading whitespace is not trimmed";
  EXPECT_FALSE(ParseLogLevel("warn ", &level)) << "trailing whitespace is not trimmed";
  EXPECT_FALSE(ParseLogLevel("warnn", &level));
  EXPECT_FALSE(ParseLogLevel("debug,info", &level));
  EXPECT_FALSE(ParseLogLevel("2", &level)) << "numeric levels are not a thing";
  EXPECT_FALSE(ParseLogLevel("d\xc3\xa9" "bug", &level)) << "non-ASCII never matches";
  EXPECT_FALSE(ParseLogLevel(std::string("off\0", 4), &level)) << "embedded NUL is junk";
  EXPECT_EQ(level, LogLevel::kInfo) << "every rejection must leave the level untouched";

  // Accepted aliases and case folding at the boundaries of the lexicon.
  EXPECT_TRUE(ParseLogLevel("NONE", &level));
  EXPECT_EQ(level, LogLevel::kOff);
  EXPECT_TRUE(ParseLogLevel("wArNiNg", &level));
  EXPECT_EQ(level, LogLevel::kWarn);
}

TEST_F(ObsTest, HistogramQuantilesOnEmptySingleAndAllEqualSamples) {
  Histogram empty({1.0, 2.0});
  EXPECT_DOUBLE_EQ(empty.Quantile(0.5), 0.0) << "empty histogram quantiles are 0";
  EXPECT_DOUBLE_EQ(empty.Quantile(0.99), 0.0);
  EXPECT_DOUBLE_EQ(empty.ApproxQuantile(0.5), 0.0);

  Histogram single({1.0, 2.0});
  single.Observe(1.7);
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(single.Quantile(q), 1.7) << "q=" << q;
  }

  Histogram equal({1.0, 2.0, 4.0});
  for (int i = 0; i < 10; ++i) equal.Observe(3.0);
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(equal.Quantile(q), 3.0) << "q=" << q;
  }

  // Out-of-range q is clamped, not UB.
  EXPECT_DOUBLE_EQ(equal.Quantile(-0.5), 3.0);
  EXPECT_DOUBLE_EQ(equal.Quantile(2.0), 3.0);
}

TEST_F(ObsTest, HistogramQuantilesAreExactUnderTheSampleCap) {
  Histogram histogram({10.0, 100.0});
  for (int i = 1; i <= 99; ++i) histogram.Observe(static_cast<double>(i));
  // Type-7 over 1..99: the median is exactly 50, p99 interpolates near the top.
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.5), 50.0);
  EXPECT_NEAR(histogram.Quantile(0.99), 98.02, 1e-9);
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(histogram.Quantile(1.0), 99.0);
}

TEST_F(ObsTest, HistogramQuantilesDegradeToBucketsBeyondTheCap) {
  Histogram histogram({0.5});
  const size_t n = Histogram::kExactSampleCap + 100;
  for (size_t i = 0; i < n; ++i) {
    histogram.Observe(static_cast<double>(i) / static_cast<double>(n - 1));
  }
  // Beyond the retention cap the estimate is bucket-interpolated: still
  // monotone and clamped to the observed extremes.
  double p50 = histogram.Quantile(0.5);
  double p95 = histogram.Quantile(0.95);
  double p99 = histogram.Quantile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GE(p50, histogram.min());
  EXPECT_LE(p99, histogram.max());
  EXPECT_NEAR(p50, 0.5, 0.05);

  histogram.Reset();
  EXPECT_DOUBLE_EQ(histogram.Quantile(0.5), 0.0) << "Reset must drop retained samples";
}

TEST_F(ObsTest, JsonLogRecordIsParseableAndEscaped) {
  LogRecord record;
  record.level = LogLevel::kWarn;
  record.file = "x.cc";
  record.line = 12;
  record.elapsed_seconds = 1.5;
  record.message = "path \"a\\b\"\nnext";

  std::string line = FormatLogRecordJson(record);
  auto doc = JsonValue::Parse(line);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString() << " in: " << line;
  EXPECT_EQ(doc->GetStringOr("level", ""), "WARN");
  EXPECT_EQ(doc->GetStringOr("file", ""), "x.cc");
  EXPECT_DOUBLE_EQ(doc->GetNumberOr("line", 0), 12.0);
  EXPECT_DOUBLE_EQ(doc->GetNumberOr("elapsed_s", 0), 1.5);
  EXPECT_EQ(doc->GetStringOr("message", ""), "path \"a\\b\"\nnext")
      << "escaping must round-trip through a JSON parser";
}

TEST_F(ObsTest, LogJsonFlagInstallsParseableSink) {
  const char* argv[] = {"bench", "--log_json", "--log_level", "info"};
  Flags flags(4, const_cast<char**>(argv));
  ASSERT_TRUE(InitLoggingFromFlags(flags));
  EXPECT_EQ(GetLogLevel(), LogLevel::kInfo);

  // The JSON sink writes to stderr; capture it to prove one object per line.
  ::testing::internal::CaptureStderr();
  PPDP_LOG(INFO) << "structured" << Field("k", 1);
  std::string err = ::testing::internal::GetCapturedStderr();
  ASSERT_FALSE(err.empty());
  ASSERT_EQ(err.back(), '\n');
  auto doc = JsonValue::Parse(err.substr(0, err.size() - 1));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString() << " in: " << err;
  EXPECT_EQ(doc->GetStringOr("message", ""), "structured k=1");
}

TEST_F(ObsTest, TraceSpansFromMultipleThreadsAllRecorded) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) TraceSpan span("obs_test.mt");
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(PhaseNamed("obs_test.mt").count, static_cast<uint64_t>(kThreads * kSpansPerThread));
  recorder.Clear();
}

}  // namespace
}  // namespace ppdp::obs

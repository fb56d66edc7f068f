#include "obs/slo.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "exec/thread_pool.h"
#include "obs/rotating_log.h"

namespace ppdp::obs {
namespace {

std::string TempPath(const std::string& name) { return ::testing::TempDir() + "/" + name; }

// ---------------------------------------------------------------- windows

TEST(SlidingWindowTest, CountsAndMeansOverTheWindow) {
  SlidingWindow::Options options;
  options.num_buckets = 16;
  SlidingWindow window(options);
  window.Add(2.0, 1.2);
  window.Add(4.0, 1.8);
  window.Add(6.0, 3.4);

  SlidingWindow::WindowStats stats = window.StatsOver(10.0, 3.9);
  EXPECT_EQ(stats.count, 3u);
  EXPECT_DOUBLE_EQ(stats.sum, 12.0);
  EXPECT_DOUBLE_EQ(stats.mean, 4.0);
}

TEST(SlidingWindowTest, OldBucketsFallOutOfTheWindow) {
  SlidingWindow::Options options;
  options.num_buckets = 64;
  SlidingWindow window(options);
  for (int t = 1; t <= 10; ++t) window.Add(1.0, static_cast<double>(t));
  // A 4-second window at t=10 covers buckets 7..10 only.
  EXPECT_EQ(window.StatsOver(4.0, 10.0).count, 4u);
  // Far in the future everything has expired.
  EXPECT_EQ(window.StatsOver(4.0, 1000.0).count, 0u);
}

TEST(SlidingWindowTest, RingSlotsAreRecycledAfterWrapAround) {
  SlidingWindow::Options options;
  options.num_buckets = 4;  // tiny ring: t and t+4 share a slot
  SlidingWindow window(options);
  for (int t = 0; t <= 10; ++t) window.Add(1.0, static_cast<double>(t));
  // The span clamps the window; stale generations must not leak counts.
  EXPECT_EQ(window.StatsOver(4.0, 10.0).count, 4u);
}

TEST(SlidingWindowTest, QuantilesInterpolateWithinHistogramBounds) {
  SlidingWindow::Options options;
  options.num_buckets = 16;
  options.bounds = {0.001, 0.01, 0.1, 1.0};
  SlidingWindow window(options);
  for (int i = 0; i < 90; ++i) window.Add(0.005, 2.0);
  for (int i = 0; i < 10; ++i) window.Add(0.5, 2.5);

  const double p50 = window.QuantileOver(10.0, 0.5, 3.0);
  EXPECT_GE(p50, 0.001);
  EXPECT_LE(p50, 0.01);
  const double p99 = window.QuantileOver(10.0, 0.99, 3.0);
  EXPECT_GE(p99, 0.1);
  // Observed min/max clamp the interpolation: nothing above 0.5 was seen.
  EXPECT_LE(p99, 0.5);
  // Without bounds there is no quantile to give.
  SlidingWindow counter({16, {}});
  counter.Add(1.0, 2.0);
  EXPECT_DOUBLE_EQ(counter.QuantileOver(10.0, 0.99, 3.0), 0.0);
}

// ----------------------------------------------------------------- config

JsonValue MustParse(const std::string& text) {
  Result<JsonValue> doc = JsonValue::Parse(text);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return std::move(*doc);
}

TEST(SloConfigTest, ParsesRulesAndFillsDefaults) {
  Result<std::vector<AlertRule>> rules = ParseSloConfig(MustParse(R"({
    "schema": "ppdp.slo.v1",
    "rules": [
      {"name": "avail", "signal": "availability", "severity": "page",
       "objective": 0.99, "burn_rate": 6.0},
      {"name": "lat.p95", "signal": "latency", "quantile": 0.95, "threshold_ms": 250},
      {"name": "tenant-burn", "signal": "ledger_burn", "severity": "page",
       "horizon_s": 300, "fast_window_s": 30, "slow_window_s": 300}
    ]})"));
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  ASSERT_EQ(rules->size(), 3u);

  EXPECT_EQ((*rules)[0].signal, AlertRule::Signal::kAvailability);
  EXPECT_EQ((*rules)[0].severity, AlertRule::Severity::kPage);
  EXPECT_DOUBLE_EQ((*rules)[0].objective, 0.99);
  EXPECT_DOUBLE_EQ((*rules)[0].fast_window_seconds, 60.0);   // default
  EXPECT_DOUBLE_EQ((*rules)[0].slow_window_seconds, 600.0);  // default

  EXPECT_EQ((*rules)[1].signal, AlertRule::Signal::kLatency);
  EXPECT_EQ((*rules)[1].severity, AlertRule::Severity::kTicket);  // default
  EXPECT_DOUBLE_EQ((*rules)[1].threshold, 0.25);  // threshold_ms -> seconds

  EXPECT_EQ((*rules)[2].signal, AlertRule::Signal::kLedgerBurn);
  EXPECT_DOUBLE_EQ((*rules)[2].horizon_seconds, 300.0);
  EXPECT_DOUBLE_EQ((*rules)[2].fast_window_seconds, 30.0);
}

TEST(SloConfigTest, RejectsMalformedConfigs) {
  auto rejects = [](const std::string& text) {
    Result<std::vector<AlertRule>> rules = ParseSloConfig(MustParse(text));
    EXPECT_FALSE(rules.ok()) << text;
  };
  // Wrong schema tag.
  rejects(R"({"schema": "ppdp.slo.v2", "rules": [{"name": "a"}]})");
  // No rules.
  rejects(R"({"schema": "ppdp.slo.v1", "rules": []})");
  // Unknown signal.
  rejects(R"({"schema": "ppdp.slo.v1",
              "rules": [{"name": "a", "signal": "uptime"}]})");
  // Unknown severity.
  rejects(R"({"schema": "ppdp.slo.v1",
              "rules": [{"name": "a", "severity": "critical"}]})");
  // Inverted windows.
  rejects(R"({"schema": "ppdp.slo.v1",
              "rules": [{"name": "a", "fast_window_s": 600, "slow_window_s": 60}]})");
  // Name grammar (spaces).
  rejects(R"({"schema": "ppdp.slo.v1", "rules": [{"name": "bad name"}]})");
  // Duplicate names.
  rejects(R"({"schema": "ppdp.slo.v1",
              "rules": [{"name": "a"}, {"name": "a"}]})");
  // Latency rule without a positive threshold.
  rejects(R"({"schema": "ppdp.slo.v1",
              "rules": [{"name": "a", "signal": "latency"}]})");
  // Availability objective out of range.
  rejects(R"({"schema": "ppdp.slo.v1",
              "rules": [{"name": "a", "signal": "availability", "objective": 1.5}]})");
}

TEST(SloConfigTest, DefaultRulesAreValidAndCoverEverySignal) {
  const std::vector<AlertRule> rules = DefaultSloRules();
  ASSERT_EQ(rules.size(), 4u);
  bool saw[4] = {false, false, false, false};
  for (const AlertRule& rule : rules) saw[static_cast<int>(rule.signal)] = true;
  EXPECT_TRUE(saw[0] && saw[1] && saw[2] && saw[3]);
}

// ----------------------------------------------------------------- engine

/// One availability rule tuned so a scripted timeline walks the whole
/// pending -> firing -> resolved lifecycle in ~30 scripted seconds.
SloEngine::Options ScriptedEngineOptions(double* now) {
  AlertRule rule;
  rule.name = "avail";
  rule.signal = AlertRule::Signal::kAvailability;
  rule.severity = AlertRule::Severity::kPage;
  rule.fast_window_seconds = 10.0;
  rule.slow_window_seconds = 60.0;
  rule.for_seconds = 5.0;
  rule.resolve_seconds = 10.0;
  rule.min_count = 1;
  rule.objective = 0.9;  // 10% error budget
  rule.burn_rate = 2.0;  // breach at >= 20% errors

  SloEngine::Options options;
  options.rules = {rule};
  options.clock = [now] { return *now; };
  options.eval_period_seconds = 0.0;
  options.export_metrics = false;  // keep the global registry golden-clean
  return options;
}

/// Replays the scripted outage and serializes every transition; the alert
/// timeline must be byte-identical no matter the execution width.
std::string RunScriptedTimeline() {
  double now = 0.0;
  Result<std::unique_ptr<SloEngine>> engine = SloEngine::Create(ScriptedEngineOptions(&now));
  if (!engine.ok()) return "";  // the lifecycle test asserts creation works

  std::string serialized;
  auto evaluate = [&] {
    for (const AlertTransition& transition : (*engine)->Evaluate()) {
      serialized += transition.ToJson().Dump();
      serialized += "\n";
    }
  };

  for (int t = 1; t <= 4; ++t) {  // healthy traffic
    now = t;
    (*engine)->RecordRequest(200, 0.01);
  }
  now = 5.0;
  evaluate();  // nothing breaches
  for (int t = 6; t <= 10; ++t) {  // outage: every request 5xx
    now = t;
    (*engine)->RecordRequest(500, 0.01);
  }
  now = 10.0;
  evaluate();  // breach in both windows -> pending
  now = 12.0;
  evaluate();  // held 2s < for 5s: still pending, silent
  now = 16.0;
  (*engine)->RecordRequest(200, 0.01);  // recovery begins
  evaluate();                           // held 6s >= 5s -> firing
  for (int t = 17; t <= 20; ++t) {
    now = t;
    (*engine)->RecordRequest(200, 0.01);
  }
  now = 20.0;
  evaluate();  // fast window clean again: clear hold starts
  now = 25.0;
  evaluate();  // cleared 5s < resolve 10s: still firing, silent
  now = 31.0;
  evaluate();  // cleared 11s >= 10s -> resolved
  return serialized;
}

TEST(SloEngineTest, ScriptedTimelineWalksTheAlertLifecycle) {
  double now = 0.0;
  Result<std::unique_ptr<SloEngine>> engine = SloEngine::Create(ScriptedEngineOptions(&now));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  std::vector<AlertTransition> all;
  auto evaluate = [&] {
    std::vector<AlertTransition> batch = (*engine)->Evaluate();
    all.insert(all.end(), batch.begin(), batch.end());
  };

  for (int t = 1; t <= 4; ++t) {
    now = t;
    (*engine)->RecordRequest(200, 0.01);
  }
  now = 5.0;
  evaluate();
  EXPECT_TRUE(all.empty());
  EXPECT_TRUE((*engine)->FiringAlerts().empty());

  for (int t = 6; t <= 10; ++t) {
    now = t;
    (*engine)->RecordRequest(500, 0.01);
  }
  now = 10.0;
  evaluate();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].from, AlertState::kInactive);
  EXPECT_EQ(all[0].to, AlertState::kPending);
  EXPECT_DOUBLE_EQ(all[0].t_seconds, 10.0);
  EXPECT_TRUE((*engine)->FiringAlerts().empty());  // pending does not page

  now = 12.0;
  evaluate();
  EXPECT_EQ(all.size(), 1u);  // hold not yet met: no new transition

  now = 16.0;
  (*engine)->RecordRequest(200, 0.01);
  evaluate();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[1].from, AlertState::kPending);
  EXPECT_EQ(all[1].to, AlertState::kFiring);
  EXPECT_GT(all[1].burn_fast, 1.0);  // burning well past the 2x rule
  ASSERT_EQ((*engine)->FiringAlerts().size(), 1u);
  EXPECT_EQ((*engine)->FiringAlerts()[0].name, "avail");
  EXPECT_EQ((*engine)->FiringAlerts()[0].severity, AlertRule::Severity::kPage);

  for (int t = 17; t <= 20; ++t) {
    now = t;
    (*engine)->RecordRequest(200, 0.01);
  }
  now = 20.0;
  evaluate();
  now = 25.0;
  evaluate();
  EXPECT_EQ(all.size(), 2u);  // clear hold not yet met
  ASSERT_EQ((*engine)->FiringAlerts().size(), 1u);
  EXPECT_EQ((*engine)->FiringAlerts()[0].severity, AlertRule::Severity::kPage);

  now = 31.0;
  evaluate();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[2].from, AlertState::kFiring);
  EXPECT_EQ(all[2].to, AlertState::kResolved);
  EXPECT_DOUBLE_EQ(all[2].t_seconds, 31.0);
  EXPECT_TRUE((*engine)->FiringAlerts().empty());
  EXPECT_EQ((*engine)->transitions_total(), 3u);

  // Every logged transition round-trips through the shared validator.
  for (const AlertTransition& transition : all) {
    EXPECT_TRUE(ValidateAlertLogRecord(transition.ToJson()).ok());
  }
}

TEST(SloEngineTest, TimelineIsByteIdenticalAcrossThreadWidths) {
  const std::string golden = RunScriptedTimeline();
  EXPECT_FALSE(golden.empty());
  for (int width : {1, 2, 4}) {
    ASSERT_TRUE(exec::ThreadPool::SetGlobalThreads(width).ok());
    EXPECT_EQ(RunScriptedTimeline(), golden) << "width " << width;
  }
  ASSERT_TRUE(exec::ThreadPool::SetGlobalThreads(0).ok());
}

TEST(SloEngineTest, LedgerBurnFiresBeforeExhaustionAndNamesTheTenant) {
  AlertRule rule;
  rule.name = "burn";
  rule.signal = AlertRule::Signal::kLedgerBurn;
  rule.severity = AlertRule::Severity::kPage;
  rule.fast_window_seconds = 10.0;
  rule.slow_window_seconds = 60.0;
  rule.for_seconds = 0.0;  // pages the moment both windows project exhaustion
  rule.min_count = 1;
  rule.horizon_seconds = 600.0;

  double now = 0.0;
  SloEngine::Options options;
  options.rules = {rule};
  options.clock = [&now] { return now; };
  options.eval_period_seconds = 0.0;
  options.export_metrics = false;
  Result<std::unique_ptr<SloEngine>> engine = SloEngine::Create(options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  // Tenant "acme" burns 0.3 eps/s against a budget of 1.0: the fast window
  // projects exhaustion in ~3 seconds, far inside the 600 s horizon.
  double remaining = 1.0;
  for (int t = 1; t <= 3; ++t) {
    now = t;
    remaining -= 0.3;
    (*engine)->RecordSpend("acme", 0.3, remaining, 1.0);
  }
  now = 3.0;
  std::vector<AlertTransition> transitions = (*engine)->Evaluate();
  ASSERT_EQ(transitions.size(), 2u);  // for_s = 0: pending + firing together
  EXPECT_EQ(transitions[0].to, AlertState::kPending);
  EXPECT_EQ(transitions[1].to, AlertState::kFiring);
  EXPECT_EQ(transitions[1].tenant, "acme");
  ASSERT_EQ((*engine)->FiringAlerts().size(), 1u);
  EXPECT_EQ((*engine)->FiringAlerts()[0].name, "burn/acme");
  EXPECT_EQ((*engine)->FiringAlerts()[0].severity, AlertRule::Severity::kPage);

  bool found = false;
  for (const SloAttainment& slo : (*engine)->Attainment()) {
    if (slo.rule != "burn") continue;
    found = true;
    EXPECT_EQ(slo.tenant, "acme");
    EXPECT_FALSE(slo.met);
    EXPECT_LE(slo.attained, rule.horizon_seconds);  // projected TTE
  }
  EXPECT_TRUE(found);
}

TEST(SloEngineTest, AlertzAndSlozDocumentsCarryTheirSchemas) {
  double now = 5.0;
  Result<std::unique_ptr<SloEngine>> engine = SloEngine::Create(ScriptedEngineOptions(&now));
  ASSERT_TRUE(engine.ok());
  (*engine)->RecordRequest(200, 0.01);
  (*engine)->Evaluate();

  JsonValue alertz = (*engine)->AlertzDocument();
  EXPECT_EQ(alertz.GetStringOr("schema", ""), "ppdp.alertz.v1");
  const JsonValue* rules = alertz.Find("rules");
  ASSERT_NE(rules, nullptr);
  ASSERT_TRUE(rules->is_array());
  ASSERT_EQ(rules->size(), 1u);
  EXPECT_EQ(rules->at(0).GetStringOr("rule", ""), "avail");

  JsonValue sloz = (*engine)->SlozDocument();
  EXPECT_EQ(sloz.GetStringOr("schema", ""), "ppdp.sloz.v1");
  ASSERT_NE(sloz.Find("slos"), nullptr);
}

constexpr char kFourSignalGolden[] = R"golden(alertz {"schema":"ppdp.alertz.v1","t_seconds":12,"transitions_total":7,"rules":[{"rule":"avail","signal":"availability","severity":"page","fast_window_s":10,"slow_window_s":60,"instances":[{"state":"pending","since_s":10,"burn_fast":7.142857142857145,"burn_slow":5.5555555555555571,"inputs_fast":{"requests":7,"errors_5xx":5,"error_ratio":0.7142857142857143},"inputs_slow":{"requests":9,"errors_5xx":5,"error_ratio":0.55555555555555558}}]},{"rule":"lat.p90","signal":"latency","severity":"ticket","fast_window_s":10,"slow_window_s":60,"instances":[{"state":"firing","since_s":10,"burn_fast":3.79,"burn_slow":3.73,"inputs_fast":{"requests":7,"quantile_seconds":0.379},"inputs_slow":{"requests":9,"quantile_seconds":0.373}}]},{"rule":"queue","signal":"queue","severity":"ticket","fast_window_s":5,"slow_window_s":30,"instances":[{"state":"firing","since_s":12,"burn_fast":1.8,"burn_slow":1.088888888888889,"inputs_fast":{"samples":3,"mean_depth_ratio":0.90000000000000002},"inputs_slow":{"samples":9,"mean_depth_ratio":0.54444444444444451}}]},{"rule":"burn","signal":"ledger_burn","severity":"page","fast_window_s":10,"slow_window_s":60,"instances":[{"tenant":"acme","state":"firing","since_s":10,"burn_fast":9.9999999999999982,"burn_slow":1.6666666666666663,"inputs_fast":{"spends":5,"remaining_epsilon":1.0000000000000002,"spend_rate":0.10000000000000001,"time_to_exhaustion_s":10.000000000000002},"inputs_slow":{"spends":5,"remaining_epsilon":1.0000000000000002,"spend_rate":0.016666666666666666,"time_to_exhaustion_s":60.000000000000014}},{"tenant":"zeta","state":"inactive","since_s":0,"burn_fast":0.00020000800032001279,"burn_slow":6.6669333440004267e-05,"inputs_fast":{"spends":2,"remaining_epsilon":999.96000000000004,"spend_rate":0.002,"time_to_exhaustion_s":499980},"inputs_slow":{"spends":4,"remaining_epsilon":999.96000000000004,"spend_rate":0.00066666666666666664,"time_to_exhaustion_s":1499940}}]}]}
sloz {"schema":"ppdp.sloz.v1","t_seconds":12,"slos":[{"rule":"avail","signal":"availability","objective":0.90000000000000002,"attained":0.44444444444444442,"met":false,"events":9},{"rule":"lat.p90","signal":"latency","objective":0.10000000000000001,"attained":0.373,"met":false,"events":9},{"rule":"queue","signal":"queue","objective":0.5,"attained":0.54444444444444451,"met":false,"events":9},{"rule":"burn","signal":"ledger_burn","tenant":"acme","objective":100,"attained":60.000000000000014,"met":false,"events":9}]}
alertz {"schema":"ppdp.alertz.v1","t_seconds":31,"transitions_total":12,"rules":[{"rule":"avail","signal":"availability","severity":"page","fast_window_s":10,"slow_window_s":60,"instances":[{"state":"resolved","since_s":31,"burn_fast":0,"burn_slow":3.5714285714285725,"inputs_fast":{"requests":0,"errors_5xx":0},"inputs_slow":{"requests":14,"errors_5xx":5,"error_ratio":0.35714285714285715}}]},{"rule":"lat.p90","signal":"latency","severity":"ticket","fast_window_s":10,"slow_window_s":60,"instances":[{"state":"inactive","since_s":31,"burn_fast":0,"burn_slow":3.5799999999999996,"inputs_fast":{"requests":0},"inputs_slow":{"requests":14,"quantile_seconds":0.35799999999999998}}]},{"rule":"queue","signal":"queue","severity":"ticket","fast_window_s":5,"slow_window_s":30,"instances":[{"state":"inactive","since_s":31,"burn_fast":0,"burn_slow":0.86666666666666636,"inputs_fast":{"samples":0},"inputs_slow":{"samples":12,"mean_depth_ratio":0.43333333333333318}}]},{"rule":"burn","signal":"ledger_burn","severity":"page","fast_window_s":10,"slow_window_s":60,"instances":[{"tenant":"acme","state":"resolved","since_s":31,"burn_fast":0,"burn_slow":1.6666666666666663,"inputs_fast":{"spends":0,"remaining_epsilon":1.0000000000000002},"inputs_slow":{"spends":5,"remaining_epsilon":1.0000000000000002,"spend_rate":0.016666666666666666,"time_to_exhaustion_s":60.000000000000014}},{"tenant":"zeta","state":"inactive","since_s":0,"burn_fast":0,"burn_slow":6.6669333440004267e-05,"inputs_fast":{"spends":0,"remaining_epsilon":999.96000000000004},"inputs_slow":{"spends":4,"remaining_epsilon":999.96000000000004,"spend_rate":0.00066666666666666664,"time_to_exhaustion_s":1499940}}]}]}
sloz {"schema":"ppdp.sloz.v1","t_seconds":31,"slos":[{"rule":"avail","signal":"availability","objective":0.90000000000000002,"attained":0.64285714285714279,"met":false,"events":14},{"rule":"lat.p90","signal":"latency","objective":0.10000000000000001,"attained":0.35799999999999998,"met":false,"events":14},{"rule":"queue","signal":"queue","objective":0.5,"attained":0.43333333333333318,"met":true,"events":12},{"rule":"burn","signal":"ledger_burn","tenant":"acme","objective":100,"attained":60.000000000000014,"met":false,"events":9}]}
alertz {"schema":"ppdp.alertz.v1","t_seconds":100,"transitions_total":12,"rules":[{"rule":"avail","signal":"availability","severity":"page","fast_window_s":10,"slow_window_s":60,"instances":[{"state":"inactive","since_s":100,"burn_fast":0,"burn_slow":0,"inputs_fast":{"requests":0,"errors_5xx":0},"inputs_slow":{"requests":0,"errors_5xx":0}}]},{"rule":"lat.p90","signal":"latency","severity":"ticket","fast_window_s":10,"slow_window_s":60,"instances":[{"state":"inactive","since_s":31,"burn_fast":0,"burn_slow":0,"inputs_fast":{"requests":0},"inputs_slow":{"requests":0}}]},{"rule":"queue","signal":"queue","severity":"ticket","fast_window_s":5,"slow_window_s":30,"instances":[{"state":"inactive","since_s":31,"burn_fast":0,"burn_slow":0,"inputs_fast":{"samples":0},"inputs_slow":{"samples":0}}]},{"rule":"burn","signal":"ledger_burn","severity":"page","fast_window_s":10,"slow_window_s":60,"instances":[{"tenant":"acme","state":"inactive","since_s":100,"burn_fast":0,"burn_slow":0,"inputs_fast":{"spends":0,"remaining_epsilon":1.0000000000000002},"inputs_slow":{"spends":0,"remaining_epsilon":1.0000000000000002}},{"tenant":"zeta","state":"inactive","since_s":0,"burn_fast":0,"burn_slow":0,"inputs_fast":{"spends":0,"remaining_epsilon":999.96000000000004},"inputs_slow":{"spends":0,"remaining_epsilon":999.96000000000004}}]}]}
sloz {"schema":"ppdp.sloz.v1","t_seconds":100,"slos":[{"rule":"avail","signal":"availability","objective":0.90000000000000002,"attained":1,"met":true,"events":0},{"rule":"lat.p90","signal":"latency","objective":0.10000000000000001,"attained":0,"met":true,"events":0},{"rule":"queue","signal":"queue","objective":0.5,"attained":0,"met":true,"events":0},{"rule":"burn","signal":"ledger_burn","objective":100,"attained":100,"met":true,"events":0}]}
alertz {"schema":"ppdp.alertz.v1","t_seconds":140,"transitions_total":15,"rules":[{"rule":"avail","signal":"availability","severity":"page","fast_window_s":10,"slow_window_s":60,"instances":[{"state":"firing","since_s":140,"burn_fast":4.0000000000000009,"burn_slow":3.3333333333333339,"inputs_fast":{"requests":5,"errors_5xx":2,"error_ratio":0.40000000000000002},"inputs_slow":{"requests":6,"errors_5xx":2,"error_ratio":0.33333333333333331}}]},{"rule":"lat.p90","signal":"latency","severity":"ticket","fast_window_s":10,"slow_window_s":60,"instances":[{"state":"inactive","since_s":31,"burn_fast":0.22249999999999998,"burn_slow":0.21900000000000003,"inputs_fast":{"requests":5,"quantile_seconds":0.022249999999999999},"inputs_slow":{"requests":6,"quantile_seconds":0.021900000000000003}}]},{"rule":"queue","signal":"queue","severity":"ticket","fast_window_s":5,"slow_window_s":30,"instances":[{"state":"inactive","since_s":140,"burn_fast":0,"burn_slow":1.25,"inputs_fast":{"samples":0},"inputs_slow":{"samples":6,"mean_depth_ratio":0.625}}]},{"rule":"burn","signal":"ledger_burn","severity":"page","fast_window_s":10,"slow_window_s":60,"instances":[{"tenant":"acme","state":"inactive","since_s":100,"burn_fast":3.5714285714285721,"burn_slow":0.7142857142857143,"inputs_fast":{"spends":5,"remaining_epsilon":0.69999999999999996,"spend_rate":0.025000000000000001,"time_to_exhaustion_s":27.999999999999996},"inputs_slow":{"spends":6,"remaining_epsilon":0.69999999999999996,"spend_rate":0.0050000000000000001,"time_to_exhaustion_s":140}},{"tenant":"zeta","state":"inactive","since_s":0,"burn_fast":0,"burn_slow":0,"inputs_fast":{"spends":0,"remaining_epsilon":999.96000000000004},"inputs_slow":{"spends":0,"remaining_epsilon":999.96000000000004}}]}]}
sloz {"schema":"ppdp.sloz.v1","t_seconds":140,"slos":[{"rule":"avail","signal":"availability","objective":0.90000000000000002,"attained":0.66666666666666674,"met":false,"events":6},{"rule":"lat.p90","signal":"latency","objective":0.10000000000000001,"attained":0.021900000000000003,"met":true,"events":6},{"rule":"queue","signal":"queue","objective":0.5,"attained":0.625,"met":false,"events":6},{"rule":"burn","signal":"ledger_burn","tenant":"acme","objective":100,"attained":140,"met":true,"events":6}]}
alertlog {"schema":"ppdp.alertlog.v1","t_seconds":10,"rule":"avail","from":"inactive","to":"pending","severity":"page","burn_fast":5.5555555555555571,"burn_slow":5.5555555555555571}
alertlog {"schema":"ppdp.alertlog.v1","t_seconds":10,"rule":"lat.p90","from":"inactive","to":"pending","severity":"ticket","burn_fast":3.73,"burn_slow":3.73}
alertlog {"schema":"ppdp.alertlog.v1","t_seconds":10,"rule":"lat.p90","from":"pending","to":"firing","severity":"ticket","burn_fast":3.73,"burn_slow":3.73}
alertlog {"schema":"ppdp.alertlog.v1","t_seconds":10,"rule":"queue","from":"inactive","to":"pending","severity":"ticket","burn_fast":1.8,"burn_slow":1.088888888888889}
alertlog {"schema":"ppdp.alertlog.v1","t_seconds":10,"rule":"burn","tenant":"acme","from":"inactive","to":"pending","severity":"page","burn_fast":9.9999999999999982,"burn_slow":1.6666666666666663}
alertlog {"schema":"ppdp.alertlog.v1","t_seconds":10,"rule":"burn","tenant":"acme","from":"pending","to":"firing","severity":"page","burn_fast":9.9999999999999982,"burn_slow":1.6666666666666663}
alertlog {"schema":"ppdp.alertlog.v1","t_seconds":12,"rule":"queue","from":"pending","to":"firing","severity":"ticket","burn_fast":1.8,"burn_slow":1.088888888888889}
alertlog {"schema":"ppdp.alertlog.v1","t_seconds":16,"rule":"avail","from":"pending","to":"firing","severity":"page","burn_fast":8.0000000000000018,"burn_slow":5.0000000000000009}
alertlog {"schema":"ppdp.alertlog.v1","t_seconds":25,"rule":"lat.p90","from":"firing","to":"resolved","severity":"ticket","burn_fast":0.19999999999999998,"burn_slow":3.5799999999999996}
alertlog {"schema":"ppdp.alertlog.v1","t_seconds":25,"rule":"queue","from":"firing","to":"resolved","severity":"ticket","burn_fast":0,"burn_slow":0.81538461538461526}
alertlog {"schema":"ppdp.alertlog.v1","t_seconds":31,"rule":"avail","from":"firing","to":"resolved","severity":"page","burn_fast":0,"burn_slow":3.5714285714285725}
alertlog {"schema":"ppdp.alertlog.v1","t_seconds":31,"rule":"burn","tenant":"acme","from":"firing","to":"resolved","severity":"page","burn_fast":0,"burn_slow":1.6666666666666663}
alertlog {"schema":"ppdp.alertlog.v1","t_seconds":135,"rule":"avail","from":"inactive","to":"pending","severity":"page","burn_fast":3.3333333333333339,"burn_slow":3.3333333333333339}
alertlog {"schema":"ppdp.alertlog.v1","t_seconds":135,"rule":"queue","from":"inactive","to":"pending","severity":"ticket","burn_fast":1.5,"burn_slow":1.25}
alertlog {"schema":"ppdp.alertlog.v1","t_seconds":140,"rule":"avail","from":"pending","to":"firing","severity":"page","burn_fast":4.0000000000000009,"burn_slow":3.3333333333333339}
)golden";

/// A four-signal timeline on a scripted clock: an outage that breaches
/// availability, latency and queue pressure while tenant "acme" burns
/// toward exhaustion, a recovery, a quiet stretch that empties every
/// window (and wraps the smallest rings), then a second burn. Returns the
/// /alertz and /sloz dumps at four points followed by the alert-log lines.
std::string FourSignalTranscript() {
  auto rule = [](const char* name, AlertRule::Signal signal, AlertRule::Severity severity,
                 double fast, double slow, double hold, double resolve, uint64_t min_count) {
    AlertRule rule;
    rule.name = name;
    rule.signal = signal;
    rule.severity = severity;
    rule.fast_window_seconds = fast;
    rule.slow_window_seconds = slow;
    rule.for_seconds = hold;
    rule.resolve_seconds = resolve;
    rule.min_count = min_count;
    return rule;
  };
  AlertRule avail = rule("avail", AlertRule::Signal::kAvailability, AlertRule::Severity::kPage,
                         10.0, 60.0, 5.0, 10.0, 1);
  avail.objective = 0.9;
  avail.burn_rate = 2.0;
  AlertRule latency = rule("lat.p90", AlertRule::Signal::kLatency, AlertRule::Severity::kTicket,
                           10.0, 60.0, 0.0, 5.0, 3);
  latency.quantile = 0.9;
  latency.threshold = 0.1;
  AlertRule queue = rule("queue", AlertRule::Signal::kQueue, AlertRule::Severity::kTicket, 5.0,
                         30.0, 2.0, 5.0, 2);
  queue.threshold = 0.5;
  AlertRule burn = rule("burn", AlertRule::Signal::kLedgerBurn, AlertRule::Severity::kPage, 10.0,
                        60.0, 0.0, 10.0, 1);
  burn.horizon_seconds = 100.0;

  const std::string path = TempPath("slo_four_signal.jsonl");
  std::remove(path.c_str());
  double now = 0.0;
  SloEngine::Options options;
  options.rules = {avail, latency, queue, burn};
  options.clock = [&now] { return now; };
  options.eval_period_seconds = 0.0;
  options.export_metrics = false;
  options.alert_log = path;
  std::string transcript;
  {
    Result<std::unique_ptr<SloEngine>> engine = SloEngine::Create(options);
    if (!engine.ok()) return engine.status().ToString();
    SloEngine& slo = **engine;
    auto snapshot = [&](double t) {
      now = t;
      slo.Evaluate();
      transcript += "alertz " + slo.AlertzDocument().Dump() + "\n";
      transcript += "sloz " + slo.SlozDocument().Dump() + "\n";
    };
    auto evaluate_at = [&](double t) {
      now = t;
      slo.Evaluate();
    };

    double zeta = 1000.0;
    for (int t = 1; t <= 4; ++t) {  // healthy traffic, a slow trickle of spend
      now = t;
      slo.RecordRequest(200, 0.01 * t);
      slo.RecordQueueDepth(0.1);
      zeta -= 0.01;
      slo.RecordSpend("zeta", 0.01, zeta, 1000.0);
    }
    evaluate_at(5.0);
    double acme = 2.0;
    for (int t = 6; t <= 10; ++t) {  // outage: 5xx, slow, queued, acme burning
      now = t;
      slo.RecordRequest(500, 0.3 + 0.01 * t);
      slo.RecordQueueDepth(0.9);
      acme -= 0.2;
      slo.RecordSpend("acme", 0.2, acme, 2.0);
    }
    evaluate_at(10.0);
    snapshot(12.0);
    now = 16.0;
    slo.RecordRequest(200, 0.02);
    evaluate_at(16.0);
    for (int t = 17; t <= 20; ++t) {  // recovery
      now = t;
      slo.RecordRequest(200, 0.02);
      slo.RecordQueueDepth(0.1);
    }
    evaluate_at(20.0);
    evaluate_at(25.0);
    snapshot(31.0);
    snapshot(100.0);  // every window empty again
    for (int t = 130; t <= 135; ++t) {  // second burn, after the rings wrapped
      now = t;
      slo.RecordRequest(t % 3 == 0 ? 503 : 200, 0.004 * (t - 129));
      slo.RecordQueueDepth(0.25 * (t - 130));
      acme -= 0.05;
      slo.RecordSpend("acme", 0.05, acme, 2.0);
    }
    evaluate_at(135.0);
    snapshot(140.0);
  }
  std::ifstream log(path);
  for (std::string line; std::getline(log, line);) transcript += "alertlog " + line + "\n";
  std::remove(path.c_str());
  return transcript;
}

TEST(SloEngineTest, FourSignalTimelinePinsAlertzSlozAndAlertLogBytes) {
  const std::string transcript = FourSignalTranscript();
  EXPECT_EQ(transcript, std::string(kFourSignalGolden));
}

TEST(SloEngineTest, HourLongSlowWindowKeepsItsOldestSecond) {
  Result<std::vector<AlertRule>> rules = ParseSloConfig(MustParse(R"({
    "schema": "ppdp.slo.v1",
    "rules": [{"name": "hour", "signal": "availability", "fast_window_s": 60,
               "slow_window_s": 3600}]})"));
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  double now = 0.0;
  SloEngine::Options options;
  options.rules = *rules;
  options.clock = [&now] { return now; };
  options.export_metrics = false;
  Result<std::unique_ptr<SloEngine>> engine = SloEngine::Create(options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  now = 99.0;  // 3,601 s before the read: outside the hour
  (*engine)->RecordRequest(500, 0.01);
  now = 101.0;  // 3,599 s before the read: inside it
  (*engine)->RecordRequest(200, 0.01);
  now = 3700.0;
  const std::vector<SloAttainment> rows = (*engine)->Attainment();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].events, 1u);
  EXPECT_DOUBLE_EQ(rows[0].attained, 1.0);  // the dropped event was the 5xx
}

TEST(SloEngineTest, TransitionsAppendToTheAlertLog) {
  const std::string path = TempPath("slo_alertlog.jsonl");
  std::remove(path.c_str());

  double now = 0.0;
  SloEngine::Options options = ScriptedEngineOptions(&now);
  options.alert_log = path;
  {
    Result<std::unique_ptr<SloEngine>> engine = SloEngine::Create(options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    for (int t = 1; t <= 10; ++t) {
      now = t;
      (*engine)->RecordRequest(500, 0.01);
    }
    now = 10.0;
    (*engine)->Evaluate();  // -> pending
    now = 16.0;
    (*engine)->Evaluate();  // -> firing
    ASSERT_NE((*engine)->alert_log(), nullptr);
    EXPECT_EQ((*engine)->alert_log()->lines_written(), 2u);
  }

  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::string line;
  size_t lines = 0;
  while (std::getline(file, line)) {
    ++lines;
    Result<JsonValue> doc = JsonValue::Parse(line);
    ASSERT_TRUE(doc.ok()) << line;
    EXPECT_TRUE(ValidateAlertLogRecord(*doc).ok()) << line;
  }
  EXPECT_EQ(lines, 2u);
  std::remove(path.c_str());
}

// -------------------------------------------------------- alert-log schema

TEST(ValidateAlertLogRecordTest, AcceptsLegalAndRejectsIllegalRecords) {
  AlertTransition transition;
  transition.t_seconds = 12.5;
  transition.rule = "avail";
  transition.from = AlertState::kPending;
  transition.to = AlertState::kFiring;
  transition.severity = AlertRule::Severity::kPage;
  transition.burn_fast = 3.0;
  transition.burn_slow = 2.0;
  EXPECT_TRUE(ValidateAlertLogRecord(transition.ToJson()).ok());

  JsonValue bad_schema = transition.ToJson();
  bad_schema.Set("schema", JsonValue::String("ppdp.access.v1"));
  EXPECT_FALSE(ValidateAlertLogRecord(bad_schema).ok());

  JsonValue bad_time = transition.ToJson();
  bad_time.Set("t_seconds", JsonValue::Number(-1.0));
  EXPECT_FALSE(ValidateAlertLogRecord(bad_time).ok());

  JsonValue no_rule = transition.ToJson();
  no_rule.Set("rule", JsonValue::String(""));
  EXPECT_FALSE(ValidateAlertLogRecord(no_rule).ok());

  JsonValue bad_severity = transition.ToJson();
  bad_severity.Set("severity", JsonValue::String("critical"));
  EXPECT_FALSE(ValidateAlertLogRecord(bad_severity).ok());

  // inactive -> firing skips pending: not a legal pair.
  JsonValue bad_pair = transition.ToJson();
  bad_pair.Set("from", JsonValue::String("inactive"));
  EXPECT_FALSE(ValidateAlertLogRecord(bad_pair).ok());

  JsonValue bad_burn = transition.ToJson();
  bad_burn.Set("burn_fast", JsonValue::Number(-0.5));
  EXPECT_FALSE(ValidateAlertLogRecord(bad_burn).ok());
}

// ------------------------------------------------------------ rotating log

TEST(RotatingLogTest, ConcurrentWritersCrossingRotationLoseNothing) {
  const std::string path = TempPath("slo_rotate.jsonl");
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());

  // ~8 KB of records against a 6 KB threshold: exactly one rotation, so
  // both generations together must hold every record exactly once.
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 50;
  RotatingJsonlLog log;
  ASSERT_TRUE(log.Open(path, 6 * 1024).ok());
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&log, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        JsonValue doc = JsonValue::Object();
        doc.Set("writer", JsonValue::Number(w));
        doc.Set("seq", JsonValue::Number(i));
        doc.Set("pad", JsonValue::String("xxxxxxxxxxxxxxxx"));
        ASSERT_TRUE(log.Append(doc.Dump()).ok());
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  log.Close();
  EXPECT_EQ(log.lines_written(), static_cast<uint64_t>(kWriters * kPerWriter));
  EXPECT_EQ(log.rotations(), 1u);

  // Exactly-once across <path> + <path>.1, every line a complete document.
  std::vector<std::vector<bool>> seen(kWriters, std::vector<bool>(kPerWriter, false));
  size_t total = 0;
  for (const std::string& generation : {path + ".1", path}) {
    std::ifstream file(generation);
    ASSERT_TRUE(file.good()) << generation;
    std::string line;
    while (std::getline(file, line)) {
      Result<JsonValue> doc = JsonValue::Parse(line);
      ASSERT_TRUE(doc.ok()) << "torn line: " << line;
      const int w = static_cast<int>(doc->GetNumberOr("writer", -1.0));
      const int i = static_cast<int>(doc->GetNumberOr("seq", -1.0));
      ASSERT_GE(w, 0);
      ASSERT_LT(w, kWriters);
      ASSERT_GE(i, 0);
      ASSERT_LT(i, kPerWriter);
      EXPECT_FALSE(seen[static_cast<size_t>(w)][static_cast<size_t>(i)])
          << "duplicate writer " << w << " seq " << i;
      seen[static_cast<size_t>(w)][static_cast<size_t>(i)] = true;
      ++total;
    }
  }
  EXPECT_EQ(total, static_cast<size_t>(kWriters * kPerWriter));
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
}

}  // namespace
}  // namespace ppdp::obs

#include "obs/slo.h"

#include <algorithm>
#include <cmath>
#include <tuple>
#include <utility>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/recorder.h"

namespace ppdp::obs {
namespace {

constexpr uint64_t kAlertLogMaxBytes = 16 * 1024 * 1024;

/// Ring length for every engine window: the longest slow window plus one
/// one-second bucket of slack, so a sample stamped just after an
/// evaluation read the clock cannot recycle a bucket that evaluation still
/// reads.
size_t RingBuckets(const std::vector<AlertRule>& rules) {
  double longest = 0.0;
  for (const AlertRule& rule : rules) longest = std::max(longest, rule.slow_window_seconds);
  return static_cast<size_t>(std::ceil(longest)) + 1;
}

/// Windowed latency histogram bounds: finer than DefaultLatencyBoundsSeconds
/// in the 1ms..5s band where request SLOs actually live, since windowed
/// quantiles have no exact-sample fallback to lean on.
std::vector<double> RequestLatencyBounds() {
  return {0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
          0.25,   0.5,   1.0,    2.5,   5.0,  10.0,  30.0};
}

}  // namespace

// ---------------------------------------------------------------- SlidingWindow

SlidingWindow::SlidingWindow(Options options) : options_(std::move(options)) {
  PPDP_CHECK(options_.num_buckets > 0) << "num_buckets must be positive";
  for (size_t i = 1; i < options_.bounds.size(); ++i) {
    PPDP_CHECK(options_.bounds[i] > options_.bounds[i - 1]) << "bounds must be increasing";
  }
  ring_.resize(options_.num_buckets);
}

SlidingWindow::Bucket& SlidingWindow::BucketFor(double now) {
  const int64_t index = static_cast<int64_t>(std::floor(now));
  const int64_t size = static_cast<int64_t>(ring_.size());
  Bucket& bucket = ring_[static_cast<size_t>(((index % size) + size) % size)];
  if (bucket.index != index) {
    bucket.index = index;
    bucket.count = 0;
    bucket.sum = 0.0;
    bucket.min = 0.0;
    bucket.max = 0.0;
    if (!options_.bounds.empty()) {
      bucket.bound_counts.assign(options_.bounds.size() + 1, 0);
    }
  }
  return bucket;
}

template <typename Visit>
void SlidingWindow::ForEachBucket(double window_seconds, double now, Visit visit) const {
  const double window =
      std::min(std::max(window_seconds, 1.0), static_cast<double>(ring_.size()));
  const int64_t current = static_cast<int64_t>(std::floor(now));
  const int64_t first = current - static_cast<int64_t>(std::ceil(window - 1e-9)) + 1;
  for (const Bucket& bucket : ring_) {
    if (bucket.index >= first && bucket.index <= current && bucket.count > 0) visit(bucket);
  }
}

void SlidingWindow::Add(double value, double now) {
  std::lock_guard<std::mutex> lock(mutex_);
  Bucket& bucket = BucketFor(now);
  if (bucket.count == 0) {
    bucket.min = value;
    bucket.max = value;
  } else {
    bucket.min = std::min(bucket.min, value);
    bucket.max = std::max(bucket.max, value);
  }
  ++bucket.count;
  bucket.sum += value;
  if (!options_.bounds.empty()) {
    size_t b = 0;
    while (b < options_.bounds.size() && value > options_.bounds[b]) ++b;
    ++bucket.bound_counts[b];
  }
}

SlidingWindow::WindowStats SlidingWindow::StatsOver(double window_seconds, double now) const {
  std::lock_guard<std::mutex> lock(mutex_);
  WindowStats stats;
  ForEachBucket(window_seconds, now, [&stats](const Bucket& bucket) {
    stats.count += bucket.count;
    stats.sum += bucket.sum;
  });
  if (stats.count > 0) stats.mean = stats.sum / static_cast<double>(stats.count);
  return stats;
}

double SlidingWindow::QuantileOver(double window_seconds, double q, double now) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (options_.bounds.empty()) return 0.0;
  std::vector<uint64_t> merged(options_.bounds.size() + 1, 0);
  uint64_t count = 0;
  double lo_seen = 0.0;
  double hi_seen = 0.0;
  ForEachBucket(window_seconds, now, [&](const Bucket& bucket) {
    for (size_t b = 0; b < merged.size(); ++b) merged[b] += bucket.bound_counts[b];
    lo_seen = count == 0 ? bucket.min : std::min(lo_seen, bucket.min);
    hi_seen = count == 0 ? bucket.max : std::max(hi_seen, bucket.max);
    count += bucket.count;
  });
  if (count == 0) return 0.0;
  if (count == 1) return hi_seen;
  // Find the bucket covering rank q*count and interpolate linearly inside
  // it, with the observed min/max clamping the open-ended edges.
  const double clamped_q = std::min(std::max(q, 0.0), 1.0);
  const double rank = clamped_q * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (size_t b = 0; b < merged.size(); ++b) {
    if (merged[b] == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += merged[b];
    if (static_cast<double>(cumulative) >= rank) {
      double lo = b == 0 ? std::min(lo_seen, options_.bounds[0]) : options_.bounds[b - 1];
      double hi = b < options_.bounds.size() ? options_.bounds[b] : hi_seen;
      lo = std::max(lo, lo_seen);
      hi = std::min(hi, hi_seen);
      if (hi <= lo) return std::min(std::max(lo, lo_seen), hi_seen);
      const double within = (rank - before) / static_cast<double>(merged[b]);
      return lo + within * (hi - lo);
    }
  }
  return hi_seen;
}

// ----------------------------------------------------------------- rule model

const char* SignalName(AlertRule::Signal signal) {
  switch (signal) {
    case AlertRule::Signal::kAvailability:
      return "availability";
    case AlertRule::Signal::kLatency:
      return "latency";
    case AlertRule::Signal::kQueue:
      return "queue";
    case AlertRule::Signal::kLedgerBurn:
      return "ledger_burn";
  }
  return "unknown";
}

const char* SeverityName(AlertRule::Severity severity) {
  return severity == AlertRule::Severity::kPage ? "page" : "ticket";
}

const char* AlertStateName(AlertState state) {
  switch (state) {
    case AlertState::kInactive:
      return "inactive";
    case AlertState::kPending:
      return "pending";
    case AlertState::kFiring:
      return "firing";
    case AlertState::kResolved:
      return "resolved";
  }
  return "unknown";
}

std::vector<AlertRule> DefaultSloRules() {
  using Signal = AlertRule::Signal;
  using Severity = AlertRule::Severity;
  // Unlisted fields keep AlertRule's defaults: 60 s / 600 s windows, a
  // 99.9% objective paging at 14.4x burn (the classic "2% of a 30d budget
  // in one hour" multiplier), p99, and a 600 s ledger horizon.
  return {
      {.name = "availability", .signal = Signal::kAvailability, .severity = Severity::kPage,
       .for_seconds = 5.0, .min_count = 10},
      {.name = "latency_p99", .signal = Signal::kLatency, .for_seconds = 5.0, .min_count = 10,
       .threshold = 2.5},
      {.name = "queue_pressure", .signal = Signal::kQueue, .for_seconds = 5.0, .min_count = 5,
       .threshold = 0.9},
      // Pages while the tenant still has budget left: projected exhaustion
      // within the horizon at the observed spend rate, in both windows.
      {.name = "ledger_burn", .signal = Signal::kLedgerBurn, .severity = Severity::kPage},
  };
}

namespace {

Result<AlertRule> ParseRule(const JsonValue& doc) {
  if (!doc.is_object()) return Status::InvalidArgument("slo rule must be an object");
  AlertRule rule;
  rule.name = doc.GetStringOr("name", "");
  const std::string signal = doc.GetStringOr("signal", "");
  bool known = false;
  for (AlertRule::Signal candidate :
       {AlertRule::Signal::kAvailability, AlertRule::Signal::kLatency, AlertRule::Signal::kQueue,
        AlertRule::Signal::kLedgerBurn}) {
    if (signal == SignalName(candidate)) {
      rule.signal = candidate;
      known = true;
    }
  }
  if (!known) {
    return Status::InvalidArgument("slo rule '" + rule.name + "': unknown signal '" + signal +
                                   "'");
  }
  const std::string severity = doc.GetStringOr("severity", "ticket");
  if (severity != "ticket" && severity != "page") {
    return Status::InvalidArgument("slo rule '" + rule.name + "': unknown severity '" + severity +
                                   "'");
  }
  rule.severity = severity == "page" ? AlertRule::Severity::kPage : AlertRule::Severity::kTicket;
  rule.fast_window_seconds = doc.GetNumberOr("fast_window_s", rule.fast_window_seconds);
  rule.slow_window_seconds = doc.GetNumberOr("slow_window_s", rule.slow_window_seconds);
  rule.for_seconds = doc.GetNumberOr("for_s", rule.for_seconds);
  rule.resolve_seconds = doc.GetNumberOr("resolve_s", rule.resolve_seconds);
  rule.min_count = static_cast<uint64_t>(doc.GetNumberOr(
      "min_count", static_cast<double>(rule.min_count)));
  rule.objective = doc.GetNumberOr("objective", rule.objective);
  rule.burn_rate = doc.GetNumberOr("burn_rate", rule.burn_rate);
  rule.quantile = doc.GetNumberOr("quantile", rule.quantile);
  rule.threshold = doc.GetNumberOr("threshold", rule.threshold);
  if (doc.Has("threshold_ms")) rule.threshold = doc.GetNumberOr("threshold_ms", 0.0) / 1000.0;
  rule.horizon_seconds = doc.GetNumberOr("horizon_s", rule.horizon_seconds);
  return rule;
}

/// The one rule check, for parsed configs and programmatic rules alike:
/// name grammar, each rule's windows, holds and signal parameters, and
/// unique names.
Status ValidateRules(const std::vector<AlertRule>& rules) {
  for (size_t i = 0; i < rules.size(); ++i) {
    const AlertRule& rule = rules[i];
    if (!IsEntityName(rule.name)) {
      return Status::InvalidArgument("slo rule name must match [A-Za-z0-9_.-]{1,64}: '" +
                                     rule.name + "'");
    }
    auto invalid = [&rule](const std::string& what) {
      return Status::InvalidArgument("slo rule '" + rule.name + "': " + what);
    };
    if (!(rule.fast_window_seconds > 0) || !(rule.slow_window_seconds > 0)) {
      return invalid("windows must be positive");
    }
    if (rule.fast_window_seconds > rule.slow_window_seconds) {
      return invalid("fast window must not exceed slow window");
    }
    if (rule.slow_window_seconds > 3600.0) return invalid("slow window must be <= 3600s");
    if (rule.for_seconds < 0 || rule.resolve_seconds < 0) {
      return invalid("holds must be non-negative");
    }
    switch (rule.signal) {
      case AlertRule::Signal::kAvailability:
        if (!(rule.objective > 0.0) || !(rule.objective < 1.0)) {
          return invalid("objective must be in (0, 1)");
        }
        if (!(rule.burn_rate > 0.0)) return invalid("burn_rate must be positive");
        break;
      case AlertRule::Signal::kLatency:
        if (!(rule.quantile > 0.0) || !(rule.quantile <= 1.0)) {
          return invalid("quantile must be in (0, 1]");
        }
        if (!(rule.threshold > 0.0)) return invalid("threshold must be positive");
        break;
      case AlertRule::Signal::kQueue:
        if (!(rule.threshold > 0.0)) return invalid("threshold must be positive");
        break;
      case AlertRule::Signal::kLedgerBurn:
        if (!(rule.horizon_seconds > 0.0)) return invalid("horizon_s must be positive");
        break;
    }
    for (size_t j = 0; j < i; ++j) {
      if (rules[j].name == rule.name) {
        return Status::InvalidArgument("slo config has duplicate rule name '" + rule.name + "'");
      }
    }
  }
  return Status::Ok();
}

}  // namespace

Result<std::vector<AlertRule>> ParseSloConfig(const JsonValue& doc) {
  if (!doc.is_object()) return Status::InvalidArgument("slo config must be a JSON object");
  const std::string schema = doc.GetStringOr("schema", "");
  if (schema != "ppdp.slo.v1") {
    return Status::InvalidArgument("slo config schema must be ppdp.slo.v1, got '" + schema + "'");
  }
  const JsonValue* rules_json = doc.Find("rules");
  if (rules_json == nullptr || !rules_json->is_array()) {
    return Status::InvalidArgument("slo config must have a 'rules' array");
  }
  std::vector<AlertRule> rules;
  for (size_t i = 0; i < rules_json->size(); ++i) {
    PPDP_ASSIGN_OR_RETURN(AlertRule rule, ParseRule(rules_json->at(i)));
    rules.push_back(std::move(rule));
  }
  PPDP_RETURN_IF_ERROR(ValidateRules(rules));
  if (rules.empty()) return Status::InvalidArgument("slo config has no rules");
  return rules;
}

Result<std::vector<AlertRule>> LoadSloConfig(const std::string& path) {
  PPDP_ASSIGN_OR_RETURN(JsonValue doc, JsonValue::Load(path));
  return ParseSloConfig(doc);
}

JsonValue AlertTransition::ToJson() const {
  JsonValue record = JsonValue::Object();
  record.Set("schema", JsonValue::String("ppdp.alertlog.v1"));
  record.Set("t_seconds", JsonValue::Number(t_seconds));
  record.Set("rule", JsonValue::String(rule));
  if (!tenant.empty()) record.Set("tenant", JsonValue::String(tenant));
  record.Set("from", JsonValue::String(AlertStateName(from)));
  record.Set("to", JsonValue::String(AlertStateName(to)));
  record.Set("severity", JsonValue::String(SeverityName(severity)));
  record.Set("burn_fast", JsonValue::Number(burn_fast));
  record.Set("burn_slow", JsonValue::Number(burn_slow));
  return record;
}

// ------------------------------------------------------------------ SloEngine

SloEngine::SloEngine(Options options)
    : options_(std::move(options)),
      clock_(options_.clock ? options_.clock : SloClock(&MonotonicSeconds)),
      ring_buckets_(RingBuckets(options_.rules)),
      server_errors_(SlidingWindow::Options{ring_buckets_, {}}),
      latency_(SlidingWindow::Options{ring_buckets_, RequestLatencyBounds()}),
      queue_depth_(SlidingWindow::Options{ring_buckets_, {}}) {}

Result<std::unique_ptr<SloEngine>> SloEngine::Create(Options options) {
  if (options.eval_period_seconds < 0) {
    return Status::InvalidArgument("slo eval_period_seconds must be non-negative");
  }
  if (options.rules.empty()) options.rules = DefaultSloRules();
  PPDP_RETURN_IF_ERROR(ValidateRules(options.rules));
  const std::string alert_log = options.alert_log;
  std::unique_ptr<SloEngine> engine(new SloEngine(std::move(options)));
  if (!alert_log.empty()) {
    PPDP_RETURN_IF_ERROR(engine->alert_log_.Open(alert_log, kAlertLogMaxBytes));
  }
  return engine;
}

void SloEngine::RecordRequest(int status, double latency_seconds) {
  const double now = clock_();
  latency_.Add(latency_seconds, now);
  if (status >= 500) server_errors_.Add(1.0, now);
}

void SloEngine::RecordQueueDepth(double depth_ratio) {
  queue_depth_.Add(depth_ratio, clock_());
}

void SloEngine::RecordSpend(const std::string& tenant, double epsilon, double remaining_epsilon,
                            double /*budget_epsilon*/) {
  const double now = clock_();
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    if (tenants_.size() >= options_.max_tenants) return;
    TenantBurn burn;
    burn.spend = std::make_unique<SlidingWindow>(SlidingWindow::Options{ring_buckets_, {}});
    it = tenants_.emplace(tenant, std::move(burn)).first;
  }
  it->second.spend->Add(epsilon, now);
  it->second.remaining = remaining_epsilon;
}

SloEngine::SignalReading SloEngine::ReadSignal(const AlertRule& rule, const TenantBurn* tenant,
                                               double window_seconds, double now) const {
  SignalReading reading;
  reading.inputs = JsonValue::Object();
  const char* value_name = "";
  switch (rule.signal) {
    case AlertRule::Signal::kAvailability: {
      const uint64_t errors = server_errors_.StatsOver(window_seconds, now).count;
      reading.events = latency_.StatsOver(window_seconds, now).count;
      if (reading.events > 0) {
        reading.value = static_cast<double>(errors) / static_cast<double>(reading.events);
      }
      reading.inputs.Set("requests", JsonValue::Number(static_cast<double>(reading.events)));
      reading.inputs.Set("errors_5xx", JsonValue::Number(static_cast<double>(errors)));
      value_name = "error_ratio";
      break;
    }
    case AlertRule::Signal::kLatency:
      reading.events = latency_.StatsOver(window_seconds, now).count;
      reading.value = latency_.QuantileOver(window_seconds, rule.quantile, now);
      reading.inputs.Set("requests", JsonValue::Number(static_cast<double>(reading.events)));
      value_name = "quantile_seconds";
      break;
    case AlertRule::Signal::kQueue: {
      const SlidingWindow::WindowStats depth = queue_depth_.StatsOver(window_seconds, now);
      reading.events = depth.count;
      reading.value = depth.mean;
      reading.inputs.Set("samples", JsonValue::Number(static_cast<double>(reading.events)));
      value_name = "mean_depth_ratio";
      break;
    }
    case AlertRule::Signal::kLedgerBurn: {
      const SlidingWindow::WindowStats spend = tenant->spend->StatsOver(window_seconds, now);
      const double rate = spend.sum / window_seconds;  // ε per second
      reading.events = spend.count;
      reading.valued = rate > 0;
      if (reading.valued) reading.value = tenant->remaining / rate;
      reading.inputs.Set("spends", JsonValue::Number(static_cast<double>(reading.events)));
      reading.inputs.Set("remaining_epsilon", JsonValue::Number(tenant->remaining));
      if (reading.events >= rule.min_count) {
        reading.inputs.Set("spend_rate", JsonValue::Number(rate));
      }
      value_name = "time_to_exhaustion_s";
      break;
    }
  }
  if (reading.evaluable(rule)) reading.inputs.Set(value_name, JsonValue::Number(reading.value));
  return reading;
}

void SloEngine::Step(const AlertRule& rule, const std::string& tenant, const TenantBurn* burn,
                     Instance* instance, double now, std::vector<AlertTransition>* transitions) {
  // {burn, breach}: burn is how far past its bound the windowed value is
  // (1 = at the bound); a window that cannot be judged reads {0, false}.
  // ValidateRules keeps every divisor positive.
  auto judge = [&rule](const SignalReading& reading) -> std::pair<double, bool> {
    if (!reading.evaluable(rule)) return {0.0, false};
    const double value = reading.value;
    switch (rule.signal) {
      case AlertRule::Signal::kAvailability: {
        const double burn = value / (1.0 - rule.objective);
        return {burn, burn >= rule.burn_rate};
      }
      case AlertRule::Signal::kLatency:
      case AlertRule::Signal::kQueue:
        return {value / rule.threshold, value > rule.threshold};
      case AlertRule::Signal::kLedgerBurn:
        return {value > 0 ? rule.horizon_seconds / value : rule.horizon_seconds * 1e6,
                value <= rule.horizon_seconds};
    }
    return {0.0, false};
  };
  SignalReading fast = ReadSignal(rule, burn, rule.fast_window_seconds, now);
  SignalReading slow = ReadSignal(rule, burn, rule.slow_window_seconds, now);
  bool fast_breach = false;
  bool slow_breach = false;
  std::tie(instance->burn_fast, fast_breach) = judge(fast);
  std::tie(instance->burn_slow, slow_breach) = judge(slow);
  // The multi-window rule: only a breach in BOTH windows counts.
  const bool breach = fast_breach && slow_breach;
  instance->severity = rule.severity;
  instance->inputs_fast = std::move(fast.inputs);
  instance->inputs_slow = std::move(slow.inputs);

  auto emit = [&](AlertState from, AlertState to) {
    instance->state = to;
    instance->since_seconds = now;
    AlertTransition transition;
    transition.t_seconds = now;
    transition.rule = rule.name;
    transition.tenant = tenant;
    transition.from = from;
    transition.to = to;
    transition.severity = rule.severity;
    transition.burn_fast = instance->burn_fast;
    transition.burn_slow = instance->burn_slow;
    Export(transition);
    transitions->push_back(std::move(transition));
  };

  switch (instance->state) {
    case AlertState::kInactive:
    case AlertState::kResolved:
      if (breach) {
        instance->pending_since = now;
        emit(instance->state, AlertState::kPending);
        if (now - instance->pending_since >= rule.for_seconds) {
          emit(AlertState::kPending, AlertState::kFiring);
          instance->clear_since = -1.0;
        }
      } else if (instance->state == AlertState::kResolved) {
        // Resolved is sticky for visibility; it decays to inactive once the
        // resolve hold has passed again without a re-breach.
        if (now - instance->since_seconds >= rule.resolve_seconds) {
          instance->state = AlertState::kInactive;
          instance->since_seconds = now;
        }
      }
      break;
    case AlertState::kPending:
      if (!breach) {
        // Cleared before firing: fall back silently (no operator-visible
        // resolution for an alert that never fired).
        instance->state = AlertState::kInactive;
        instance->since_seconds = now;
      } else if (now - instance->pending_since >= rule.for_seconds) {
        emit(AlertState::kPending, AlertState::kFiring);
        instance->clear_since = -1.0;
      }
      break;
    case AlertState::kFiring:
      if (breach) {
        instance->clear_since = -1.0;
      } else {
        if (instance->clear_since < 0) instance->clear_since = now;
        if (now - instance->clear_since >= rule.resolve_seconds) {
          emit(AlertState::kFiring, AlertState::kResolved);
        }
      }
      break;
  }
}

void SloEngine::Export(const AlertTransition& transition) {
  ++transitions_total_;
  if (options_.export_metrics) {
    MetricsRegistry::Global().counter("slo.transitions.total").Increment();
    std::string instance_name = "slo.alert." + transition.rule;
    if (!transition.tenant.empty()) instance_name += "." + transition.tenant;
    MetricsRegistry::Global()
        .gauge(instance_name + ".state")
        .Set(static_cast<double>(static_cast<int>(transition.to)));
    MetricsRegistry::Global().gauge(instance_name + ".burn_fast").Set(transition.burn_fast);
    MetricsRegistry::Global().gauge(instance_name + ".burn_slow").Set(transition.burn_slow);
  }
  const std::string label =
      transition.tenant.empty() ? transition.rule : transition.rule + "/" + transition.tenant;
  FlightEvent event;
  event.elapsed_seconds = transition.t_seconds;
  event.category = "alert";
  event.severity = transition.to == AlertState::kFiring &&
                           transition.severity == AlertRule::Severity::kPage
                       ? "ERROR"
                       : "WARN";
  event.label = label;
  event.message = std::string(AlertStateName(transition.from)) + " -> " +
                  AlertStateName(transition.to);
  FlightRecorder::Global().Record(std::move(event));
  if (alert_log_.enabled()) {
    const Status status = alert_log_.Append(transition.ToJson().Dump());
    if (!status.ok()) {
      PPDP_LOG(WARN) << "alert log append failed" << Field("error", status.ToString());
    }
  }
}

std::vector<AlertTransition> SloEngine::Evaluate() {
  const double now = clock_();
  std::vector<AlertTransition> transitions;
  std::lock_guard<std::mutex> lock(mutex_);
  last_eval_seconds_ = now;
  for (const AlertRule& rule : options_.rules) {
    if (rule.signal == AlertRule::Signal::kLedgerBurn) {
      for (const auto& [tenant, burn] : tenants_) {
        Instance& instance = instances_[{rule.name, tenant}];
        Step(rule, tenant, &burn, &instance, now, &transitions);
      }
    } else {
      Instance& instance = instances_[{rule.name, ""}];
      Step(rule, "", nullptr, &instance, now, &transitions);
    }
  }
  return transitions;
}

void SloEngine::EvaluateIfDue() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const double now = clock_();
    if (last_eval_seconds_ >= 0 && now - last_eval_seconds_ < options_.eval_period_seconds) {
      return;
    }
  }
  Evaluate();
}

std::vector<FiringAlert> SloEngine::FiringAlerts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<FiringAlert> firing;
  for (const auto& [key, instance] : instances_) {
    if (instance.state != AlertState::kFiring) continue;
    const auto& [rule, tenant] = key;
    firing.push_back({tenant.empty() ? rule : rule + "/" + tenant, instance.severity});
  }
  return firing;
}

JsonValue SloEngine::AlertzDocument() const {
  std::lock_guard<std::mutex> lock(mutex_);
  JsonValue doc = JsonValue::Object();
  doc.Set("schema", JsonValue::String("ppdp.alertz.v1"));
  doc.Set("t_seconds", JsonValue::Number(last_eval_seconds_ < 0 ? 0.0 : last_eval_seconds_));
  doc.Set("transitions_total", JsonValue::Number(static_cast<double>(transitions_total_)));
  JsonValue rules = JsonValue::Array();
  for (const AlertRule& rule : options_.rules) {
    JsonValue rule_json = JsonValue::Object();
    rule_json.Set("rule", JsonValue::String(rule.name));
    rule_json.Set("signal", JsonValue::String(SignalName(rule.signal)));
    rule_json.Set("severity", JsonValue::String(SeverityName(rule.severity)));
    rule_json.Set("fast_window_s", JsonValue::Number(rule.fast_window_seconds));
    rule_json.Set("slow_window_s", JsonValue::Number(rule.slow_window_seconds));
    JsonValue instances = JsonValue::Array();
    for (const auto& [key, instance] : instances_) {
      if (key.first != rule.name) continue;
      JsonValue instance_json = JsonValue::Object();
      if (!key.second.empty()) instance_json.Set("tenant", JsonValue::String(key.second));
      instance_json.Set("state", JsonValue::String(AlertStateName(instance.state)));
      instance_json.Set("since_s", JsonValue::Number(instance.since_seconds));
      instance_json.Set("burn_fast", JsonValue::Number(instance.burn_fast));
      instance_json.Set("burn_slow", JsonValue::Number(instance.burn_slow));
      instance_json.Set("inputs_fast", instance.inputs_fast);
      instance_json.Set("inputs_slow", instance.inputs_slow);
      instances.Append(std::move(instance_json));
    }
    rule_json.Set("instances", std::move(instances));
    rules.Append(std::move(rule_json));
  }
  doc.Set("rules", std::move(rules));
  return doc;
}

std::vector<SloAttainment> SloEngine::Attainment() const {
  const double now = clock_();
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SloAttainment> rows;
  for (const AlertRule& rule : options_.rules) {
    SloAttainment row;
    row.rule = rule.name;
    row.signal = SignalName(rule.signal);
    const double window = rule.slow_window_seconds;
    switch (rule.signal) {
      case AlertRule::Signal::kAvailability: {
        const SignalReading reading = ReadSignal(rule, nullptr, window, now);
        row.objective = rule.objective;
        row.events = reading.events;
        row.attained = 1.0 - reading.value;  // an empty window reads 1.0
        row.met = row.attained >= rule.objective;
        break;
      }
      case AlertRule::Signal::kLatency:
      case AlertRule::Signal::kQueue: {
        const SignalReading reading = ReadSignal(rule, nullptr, window, now);
        row.objective = rule.threshold;
        row.events = reading.events;
        row.attained = reading.value;
        row.met = row.attained <= rule.threshold;
        break;
      }
      case AlertRule::Signal::kLedgerBurn: {
        // The worst tenant: smallest projected time-to-exhaustion. No spend
        // at all reads as the horizon itself (met exactly at the bound).
        row.objective = rule.horizon_seconds;
        double worst_tte = -1.0;
        for (const auto& [tenant, burn] : tenants_) {
          const SignalReading reading = ReadSignal(rule, &burn, window, now);
          row.events += reading.events;
          if (!reading.valued) continue;
          if (worst_tte < 0 || reading.value < worst_tte) {
            worst_tte = reading.value;
            row.tenant = tenant;
          }
        }
        row.attained = worst_tte < 0 ? rule.horizon_seconds : worst_tte;
        row.met = row.attained >= rule.horizon_seconds;
        break;
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

JsonValue SloEngine::SlozDocument() const {
  const std::vector<SloAttainment> rows = Attainment();
  JsonValue doc = JsonValue::Object();
  doc.Set("schema", JsonValue::String("ppdp.sloz.v1"));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    doc.Set("t_seconds", JsonValue::Number(last_eval_seconds_ < 0 ? 0.0 : last_eval_seconds_));
  }
  JsonValue slos = JsonValue::Array();
  for (const SloAttainment& row : rows) {
    JsonValue row_json = JsonValue::Object();
    row_json.Set("rule", JsonValue::String(row.rule));
    row_json.Set("signal", JsonValue::String(row.signal));
    if (!row.tenant.empty()) row_json.Set("tenant", JsonValue::String(row.tenant));
    row_json.Set("objective", JsonValue::Number(row.objective));
    row_json.Set("attained", JsonValue::Number(row.attained));
    row_json.Set("met", JsonValue::Bool(row.met));
    row_json.Set("events", JsonValue::Number(static_cast<double>(row.events)));
    slos.Append(std::move(row_json));
  }
  doc.Set("slos", std::move(slos));
  return doc;
}

uint64_t SloEngine::transitions_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return transitions_total_;
}

Status ValidateAlertLogRecord(const JsonValue& doc) {
  if (!doc.is_object()) return Status::InvalidArgument("alert log record must be an object");
  const std::string schema = doc.GetStringOr("schema", "");
  if (schema != "ppdp.alertlog.v1") {
    return Status::InvalidArgument("alert log record schema must be ppdp.alertlog.v1, got '" +
                                   schema + "'");
  }
  if (doc.GetNumberOr("t_seconds", -1.0) < 0) {
    return Status::InvalidArgument("alert log record needs a non-negative t_seconds");
  }
  if (doc.GetStringOr("rule", "").empty()) {
    return Status::InvalidArgument("alert log record needs a rule name");
  }
  const std::string severity = doc.GetStringOr("severity", "");
  if (severity != "ticket" && severity != "page") {
    return Status::InvalidArgument("alert log record has unknown severity '" + severity + "'");
  }
  const std::string from = doc.GetStringOr("from", "");
  const std::string to = doc.GetStringOr("to", "");
  const bool legal = (to == "pending" && (from == "inactive" || from == "resolved")) ||
                     (to == "firing" && from == "pending") || (to == "resolved" && from == "firing");
  if (!legal) {
    return Status::InvalidArgument("alert log record has illegal transition '" + from + "' -> '" +
                                   to + "'");
  }
  if (doc.GetNumberOr("burn_fast", -1.0) < 0 || doc.GetNumberOr("burn_slow", -1.0) < 0) {
    return Status::InvalidArgument("alert log record needs non-negative burn rates");
  }
  return Status::Ok();
}

}  // namespace ppdp::obs

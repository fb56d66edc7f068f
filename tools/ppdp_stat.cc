// Offline checker for the artifacts ppdp publishes alongside its data: run
// reports, sampling profiles, access logs, alert logs and /metrics scrapes.
//
//   $ ppdp_stat bench [flags] baseline.json current.json
//   $ ppdp_stat prof  [flags] profile.json [current.json]
//   $ ppdp_stat trace [flags] access.jsonl [current.jsonl]
//   $ ppdp_stat slo   [flags] alerts.jsonl | access.jsonl
//   $ ppdp_stat prom  [flags] [scrape.txt ...]          (stdin without files)
//
// bench  Diffs the per-phase wall-time totals (and, with --mem_threshold,
//        peak RSS) of two BENCH_<name>.json run reports; --check_digests
//        also fails on a differing result-CSV digest (timing tables carry
//        none). Notes dropped trace events when either report has any.
//          --threshold X (0.25)  --min_ms X (5)  --mem_threshold X (0 = off)
//          --min_mem_mb X (16)  --check_digests  --validate_only
// prof   One ppdp.profile.v1 file: validate and print the phase and
//        top-frame tables. Two: diff each frame's self-sample share.
//          --threshold X (0.75)  --min_share X (0.02)  --top N (20)
//          --validate_only
// trace  One ppdp.access.v1 log: validate and print per-stage and
//        per-tenant latency tables. Two: diff each stage's mean latency.
//          --threshold X (0.25)  --min_ms X (1)  --tenant T (all)
//          --validate_only
// slo    A ppdp.alertlog.v1 log: validate transitions and summarize each
//        alert instance. A ppdp.access.v1 log: judge the availability and
//        latency rules of --slo_config (built-in defaults otherwise) over
//        the whole log.
//          --slo_config PATH  --validate_only
// prom   Strict Prometheus text-exposition check of each scrape.
//          --max_series N (off)  fail a scrape with more than N series
//
// Every diff applies obs::GateRegressed: a row regresses only when it grew
// past both the relative threshold and the absolute floor. Flags take
// "--name=value" or "--name value"; boolean flags take no separate value.
// Exit codes: 0 ok, 1 regression or violation, 2 usage, I/O or schema error.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "common/status.h"
#include "common/table.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/report.h"
#include "obs/slo.h"
#include "serve/request_trace.h"

namespace {

using ppdp::JsonValue;
using ppdp::Result;
using ppdp::Status;
using ppdp::Table;

constexpr int kOk = 0;
constexpr int kRegressed = 1;
constexpr int kError = 2;

/// "ppdp_stat <kind>", the prefix of every diagnostic.
std::string g_prefix = "ppdp_stat";

int Error(const std::string& message) {
  std::cerr << g_prefix << ": " << message << "\n";
  return kError;
}

// ---- Arguments ----

enum class FlagType { kBool, kNumber, kCount, kText };

/// One flag a kind accepts, with its default (text flags default to "",
/// boolean ones to false). Numbers and counts must be finite and
/// non-negative; `positive` ones must be above zero when given.
struct FlagSpec {
  std::string name;
  FlagType type;
  double number = 0.0;
  bool positive = false;
};

FlagSpec BoolFlag(std::string name) { return {std::move(name), FlagType::kBool}; }
FlagSpec TextFlag(std::string name) { return {std::move(name), FlagType::kText}; }
FlagSpec NumberFlag(std::string name, double fallback) {
  return {std::move(name), FlagType::kNumber, fallback};
}
FlagSpec CountFlag(std::string name, double fallback, bool positive = false) {
  return {std::move(name), FlagType::kCount, fallback, positive};
}

struct Args {
  std::vector<std::string> files;
  std::map<std::string, double> numbers;  ///< kNumber and kCount flags
  std::map<std::string, bool> bools;
  std::map<std::string, std::string> texts;

  double number(const std::string& name) const { return numbers.at(name); }
  bool on(const std::string& name) const { return bools.at(name); }
  const std::string& text(const std::string& name) const { return texts.at(name); }
};

/// What a flag's value must look like, for the error message.
std::string Wanted(const FlagSpec& spec) {
  switch (spec.type) {
    case FlagType::kBool: return "true or false";
    case FlagType::kCount: return spec.positive ? "a positive integer" : "a non-negative integer";
    case FlagType::kNumber: return "a non-negative number";
    case FlagType::kText: break;
  }
  return "a string";
}

/// Strict value parse: the whole string must be consumed, and the value
/// must be finite and in range ("1,0" or "12abc" never fall back to a
/// default).
bool ParseValue(const FlagSpec& spec, const std::string& raw, Args* args) {
  if (spec.type == FlagType::kText) {
    args->texts[spec.name] = raw;
    return true;
  }
  if (spec.type == FlagType::kBool) {
    if (raw != "true" && raw != "false") return false;
    args->bools[spec.name] = raw == "true";
    return true;
  }
  char* end = nullptr;
  const double value = spec.type == FlagType::kCount
                           ? static_cast<double>(std::strtoll(raw.c_str(), &end, 10))
                           : std::strtod(raw.c_str(), &end);
  if (raw.empty() || *end != '\0' || !std::isfinite(value) || value < 0.0) return false;
  if (spec.positive && value == 0.0) return false;
  args->numbers[spec.name] = value;
  return true;
}

/// Splits argv (after the kind) into validated flags and positional files.
/// Every flag must be one the kind declares; a failure prints why.
bool ParseArgs(const std::vector<FlagSpec>& specs, int argc, char** argv, int first,
               Args* args) {
  for (const FlagSpec& spec : specs) {
    switch (spec.type) {
      case FlagType::kBool: args->bools[spec.name] = false; break;
      case FlagType::kText: args->texts[spec.name] = ""; break;
      default: args->numbers[spec.name] = spec.number; break;
    }
  }
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      args->files.push_back(std::move(arg));
      continue;
    }
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(2, eq == std::string::npos ? std::string::npos : eq - 2);
    auto spec = std::find_if(specs.begin(), specs.end(),
                             [&name](const FlagSpec& s) { return s.name == name; });
    if (spec == specs.end()) {
      Error("unknown flag --" + name);
      return false;
    }
    std::string value;
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (spec->type == FlagType::kBool) {
      value = "true";
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      Error("--" + name + " wants a value");
      return false;
    }
    if (!ParseValue(*spec, value, args)) {
      Error("bad value for --" + name + ": \"" + value + "\" (want " + Wanted(*spec) + ")");
      return false;
    }
  }
  return true;
}

// ---- Loading ----

bool LoadFailed(const Status& status) {
  Error(status.ToString());
  return false;
}

/// The one load path for whole-file JSON artifacts: parse, schema-validate,
/// then decode. Prints the first failure.
template <typename T>
bool LoadDoc(const std::string& path, Status (*validate)(const JsonValue&),
             Result<T> (*decode)(const JsonValue&), T* out) {
  Result<JsonValue> doc = JsonValue::Load(path);
  if (!doc.ok()) return LoadFailed(doc.status());
  if (Status valid = validate(*doc); !valid.ok()) return LoadFailed(valid.Annotate(path));
  Result<T> decoded = decode(*doc);
  if (!decoded.ok()) return LoadFailed(decoded.status().Annotate(path));
  *out = std::move(*decoded);
  return true;
}

/// Strict access-log load (serve::LoadAccessLog), keeping only `tenant`'s
/// records when it is non-empty.
bool LoadAccess(const std::string& path, const std::string& tenant,
                std::vector<ppdp::serve::RequestRecord>* records) {
  Result<std::vector<ppdp::serve::RequestRecord>> loaded = ppdp::serve::LoadAccessLog(path);
  if (!loaded.ok()) return LoadFailed(loaded.status());
  *records = std::move(*loaded);
  if (!tenant.empty()) {
    std::erase_if(*records, [&tenant](const auto& record) { return record.tenant != tenant; });
  }
  return true;
}

// ---- Diff output ----

/// "+25%" style rendering of a relative threshold.
std::string Percent(double threshold) {
  std::ostringstream out;
  out << "+" << threshold * 100 << "%";
  return out.str();
}

/// The note bench and prof print when two runs were built differently.
void AddBuildNote(const std::string& base_type, const std::string& base_compiler,
                  const std::string& cur_type, const std::string& cur_compiler,
                  std::vector<std::string>* notes) {
  if (base_type == cur_type && base_compiler == cur_compiler) return;
  notes->push_back("(builds differ: baseline " + base_type + " \"" + base_compiler +
                   "\" vs current " + cur_type + " \"" + cur_compiler + "\")");
}

/// The one diff printer: "== title ==", the verdict table, one line per
/// note, then the verdict. Returns the exit code.
int PrintDiff(const std::string& title, const Table& table,
              const std::vector<std::string>& notes, bool regressed, const std::string& unit,
              const std::string& growth) {
  std::cout << "== " << title << " ==\n";
  table.Print(std::cout);
  for (const std::string& note : notes) std::cout << note << "\n";
  if (regressed) {
    std::cout << "REGRESSION: at least one " << growth << " beyond the gate\n";
    return kRegressed;
  }
  std::cout << "ok: no " << unit << " regressed\n";
  return kOk;
}

// ---- bench ----

int RunBench(const Args& args) {
  using ppdp::obs::RunReport;
  RunReport baseline, current;
  if (!LoadDoc(args.files[0], ppdp::obs::ValidateReportJson, RunReport::FromJson, &baseline) ||
      !LoadDoc(args.files[1], ppdp::obs::ValidateReportJson, RunReport::FromJson, &current)) {
    return kError;
  }
  if (args.on("validate_only")) {
    std::cout << g_prefix << ": both reports schema-valid (" << baseline.name << ", "
              << current.name << ")\n";
    return kOk;
  }
  if (baseline.name != current.name) {
    return Error("comparing different benches: \"" + baseline.name + "\" vs \"" +
                 current.name + "\"");
  }

  ppdp::obs::DiffOptions options;
  options.threshold = args.number("threshold");
  options.min_ms = args.number("min_ms");
  options.check_digests = args.on("check_digests");
  options.mem_threshold = args.number("mem_threshold");
  const double min_mem_mb = args.number("min_mem_mb");
  // Clamped so the conversion stays defined; a 2^63-byte floor already
  // disables the memory gate.
  options.min_mem_bytes = static_cast<uint64_t>(std::min(min_mem_mb * (1 << 20), 0x1p63));
  const ppdp::obs::ReportDiff diff = ppdp::obs::DiffReports(baseline, current, options);

  std::ostringstream title;
  title << "benchstat: " << current.name << " (threshold " << Percent(options.threshold)
        << ", floor " << options.min_ms << " ms";
  if (options.mem_threshold > 0.0) {
    title << "; mem " << Percent(options.mem_threshold) << ", floor " << min_mem_mb << " MB";
  }
  title << ")";
  std::vector<std::string> notes;
  AddBuildNote(baseline.build.build_type, baseline.build.compiler, current.build.build_type,
               current.build.compiler, &notes);
  for (const std::string& name : diff.digest_mismatches) {
    notes.push_back("(output digest differs: " + name + ")");
  }
  if (baseline.trace_dropped > 0 || current.trace_dropped > 0) {
    notes.push_back("(trace events dropped: baseline " + std::to_string(baseline.trace_dropped) +
                    ", current " + std::to_string(current.trace_dropped) + ")");
  }
  // SLO attainment is informational here, never a perf gate: pre-v10
  // baselines carry no stanza, and an unmet SLO in a bench run is judged by
  // `ppdp_stat slo` / the bench itself, not the phase-latency diff.
  if (!current.slos.empty()) {
    std::string slos = "(slos:";
    for (const ppdp::obs::SloAttainment& slo : current.slos) {
      slos += " " + slo.rule + "=" + (slo.met ? "met" : "MISSED");
    }
    notes.push_back(slos + ")");
  }
  return PrintDiff(title.str(), diff.Summary(), notes, diff.regressed, "phase",
                   "phase slowed (or grew memory)");
}

// ---- prof ----

int RunProf(const Args& args) {
  using ppdp::obs::CpuProfile;
  CpuProfile profile;
  if (!LoadDoc(args.files[0], ppdp::obs::ValidateProfileJson, CpuProfile::FromJson, &profile)) {
    return kError;
  }
  if (args.files.size() == 1) {
    if (args.on("validate_only")) {
      std::cout << g_prefix << ": schema-valid (" << profile.name << ", " << profile.samples
                << " samples @ " << profile.hz << " Hz, " << profile.threads_profiled
                << " threads)\n";
      return kOk;
    }
    const size_t top = static_cast<size_t>(args.number("top"));
    std::cout << "== profile: " << profile.name << " (" << profile.samples << " samples @ "
              << profile.hz << " Hz, " << profile.threads_profiled << " threads, "
              << profile.dropped << " dropped) ==\n";
    profile.PhaseTable().Print(std::cout);
    std::cout << "\n== top " << top << " self frames ==\n";
    profile.TopFramesTable(top).Print(std::cout);
    if (profile.stacks_truncated > 0) {
      std::cout << "(" << profile.stacks_truncated << " unique stacks beyond the top "
                << CpuProfile::kMaxStacks << " not retained)\n";
    }
    return kOk;
  }

  CpuProfile current;
  if (!LoadDoc(args.files[1], ppdp::obs::ValidateProfileJson, CpuProfile::FromJson, &current)) {
    return kError;
  }
  if (args.on("validate_only")) {
    std::cout << g_prefix << ": both profiles schema-valid (" << profile.name << ", "
              << current.name << ")\n";
    return kOk;
  }
  ppdp::obs::ProfileDiffOptions options;
  options.threshold = args.number("threshold");
  options.min_share = args.number("min_share");
  const ppdp::obs::ProfileDiff diff = ppdp::obs::DiffProfiles(profile, current, options);

  std::ostringstream title;
  title << "profstat: " << current.name << " (threshold " << Percent(options.threshold)
        << ", floor " << options.min_share * 100 << "pp)";
  std::vector<std::string> notes;
  AddBuildNote(profile.build_type, profile.compiler, current.build_type, current.compiler,
               &notes);
  return PrintDiff(title.str(), diff.Summary(), notes, diff.regressed, "frame",
                   "frame's self-share grew");
}

// ---- trace ----

std::string Ms(double micros) { return Table::FormatDouble(micros / 1e3, 3); }

int RunTrace(const Args& args) {
  using ppdp::serve::RequestRecord;
  using ppdp::serve::StageBreakdown;
  const std::string& tenant = args.text("tenant");
  std::vector<std::vector<RequestRecord>> logs(args.files.size());
  for (size_t i = 0; i < args.files.size(); ++i) {
    if (!LoadAccess(args.files[i], tenant, &logs[i])) return kError;
  }
  if (args.on("validate_only")) {
    for (size_t i = 0; i < args.files.size(); ++i) {
      std::cout << g_prefix << ": " << args.files[i] << ": " << logs[i].size()
                << " records valid\n";
    }
    return kOk;
  }

  if (logs.size() == 1) {
    // Aggregation mode: per-stage summary, then tenant x stage breakdown.
    StageBreakdown all;
    std::map<std::string, StageBreakdown> by_tenant;
    std::map<std::string, uint64_t> errors;
    for (const RequestRecord& record : logs[0]) {
      all.Add(record);
      by_tenant[record.tenant].Add(record);
      if (record.status >= 400) ++errors[record.tenant];
    }
    Table stage_table({"stage", "count", "total ms", "mean ms", "max ms"});
    for (const auto& [stage, stats] : all.stages) {
      stage_table.AddRow({stage, std::to_string(stats.count), Ms(stats.total_micros),
                          Ms(stats.mean_micros()), Ms(stats.max_micros)});
    }
    std::cout << "== tracestat: " << args.files[0] << " (" << logs[0].size()
              << " requests) ==\n";
    stage_table.Print(std::cout);
    Table tenant_table({"tenant", "stage", "count", "mean ms", "max ms"});
    for (const auto& [name, breakdown] : by_tenant) {
      for (const auto& [stage, stats] : breakdown.stages) {
        tenant_table.AddRow({name, stage, std::to_string(stats.count), Ms(stats.mean_micros()),
                             Ms(stats.max_micros)});
      }
    }
    tenant_table.Print(std::cout);
    for (const auto& [name, count] : errors) {
      std::cout << "(tenant " << name << ": " << count << " non-2xx responses)\n";
    }
    return kOk;
  }

  // Diff mode: per-stage mean latency, baseline vs current.
  StageBreakdown baseline, current;
  for (const RequestRecord& record : logs[0]) baseline.Add(record);
  for (const RequestRecord& record : logs[1]) current.Add(record);
  const double threshold = args.number("threshold");
  const double min_ms = args.number("min_ms");
  bool regressed = false;
  Table diff({"stage", "base mean ms", "cur mean ms", "delta ms", "delta %", "verdict"});
  for (const auto& [stage, cur] : current.stages) {
    auto it = baseline.stages.find(stage);
    if (it == baseline.stages.end()) continue;  // new stage: nothing to gate against
    const double base_mean = it->second.mean_micros();
    const double cur_mean = cur.mean_micros();
    const double delta = cur_mean - base_mean;
    const double relative = base_mean > 0.0 ? delta / base_mean : 0.0;
    const bool slow = ppdp::obs::GateRegressed(base_mean, cur_mean, threshold, min_ms * 1e3);
    regressed = regressed || slow;
    diff.AddRow({stage, Ms(base_mean), Ms(cur_mean), Ms(delta),
                 Table::FormatDouble(relative * 100.0, 1), slow ? "REGRESSED" : "ok"});
  }
  std::ostringstream title;
  title << "tracestat diff: " << args.files[0] << " -> " << args.files[1] << " (threshold "
        << Percent(threshold) << ", floor " << min_ms << " ms)";
  return PrintDiff(title.str(), diff, {}, regressed, "stage", "stage slowed");
}

// ---- slo ----

/// Per-alert-instance roll-up of a ppdp.alertlog.v1 log.
struct AlertSummary {
  struct Instance {
    uint64_t transitions = 0;
    uint64_t fired = 0;
    double firing_seconds = 0.0;  ///< closed firing->resolved intervals only
    double firing_since = -1.0;
    double last_t = -1.0;
    std::string last_state;
    std::string severity;
  };
  std::map<std::string, Instance> instances;

  /// Validates one record against its schema and its instance's history
  /// (non-decreasing timestamps, transitions chained from the last state).
  Status Add(const JsonValue& doc) {
    PPDP_RETURN_IF_ERROR(ppdp::obs::ValidateAlertLogRecord(doc));
    const std::string rule = doc.GetStringOr("rule", "");
    const std::string tenant = doc.GetStringOr("tenant", "");
    const std::string key = tenant.empty() ? rule : rule + "/" + tenant;
    const double t = doc.GetNumberOr("t_seconds", 0.0);
    Instance& instance = instances[key];
    if (instance.last_t > t) {
      return Status::InvalidArgument("timestamps for '" + key + "' go backwards");
    }
    const std::string from = doc.GetStringOr("from", "");
    const std::string to = doc.GetStringOr("to", "");
    if (!instance.last_state.empty() && instance.last_state != from) {
      return Status::InvalidArgument("'" + key + "' transitions from '" + from +
                                     "' but was last seen in '" + instance.last_state + "'");
    }
    instance.last_t = t;
    instance.last_state = to;
    instance.severity = doc.GetStringOr("severity", "");
    ++instance.transitions;
    if (to == "firing") {
      ++instance.fired;
      instance.firing_since = t;
    } else if (to == "resolved" && instance.firing_since >= 0) {
      instance.firing_seconds += t - instance.firing_since;
      instance.firing_since = -1.0;
    }
    return Status::Ok();
  }
};

int PrintAlertSummary(const std::string& path, const AlertSummary& alerts, size_t records) {
  Table table({"alert", "severity", "transitions", "fired", "firing s", "last state"});
  for (const auto& [key, instance] : alerts.instances) {
    table.AddRow({key, instance.severity, std::to_string(instance.transitions),
                  std::to_string(instance.fired), Table::FormatDouble(instance.firing_seconds, 3),
                  instance.last_state});
  }
  std::cout << "== slostat: " << path << " (" << records << " transitions, "
            << alerts.instances.size() << " alert instances) ==\n";
  table.Print(std::cout);
  return kOk;
}

/// Replays an access log against the availability and latency rules; queue
/// and ledger-burn rules need live windows and are skipped (and said so).
int JudgeAttainment(const std::string& path,
                    const std::vector<ppdp::serve::RequestRecord>& requests,
                    const std::vector<ppdp::obs::AlertRule>& rules) {
  using Signal = ppdp::obs::AlertRule::Signal;
  uint64_t errors_5xx = 0;
  std::vector<double> latencies_seconds;
  for (const ppdp::serve::RequestRecord& record : requests) {
    if (record.status >= 500) ++errors_5xx;
    latencies_seconds.push_back(record.total_micros / 1e6);
  }
  std::sort(latencies_seconds.begin(), latencies_seconds.end());

  bool violated = false;
  size_t judged = 0;
  Table table({"rule", "signal", "objective", "attained", "verdict"});
  for (const ppdp::obs::AlertRule& rule : rules) {
    if (rule.signal != Signal::kAvailability && rule.signal != Signal::kLatency) {
      table.AddRow({rule.name, ppdp::obs::SignalName(rule.signal), "-", "-", "skipped"});
      continue;
    }
    const bool availability = rule.signal == Signal::kAvailability;
    const double objective = availability ? rule.objective : rule.threshold;
    const double attained =
        availability ? 1.0 - static_cast<double>(errors_5xx) / static_cast<double>(requests.size())
                     : ppdp::obs::SortedQuantile(latencies_seconds, rule.quantile);
    const bool met = availability ? attained >= objective : attained <= objective;
    violated = violated || !met;
    ++judged;
    table.AddRow({rule.name, availability ? "availability" : "latency",
                  Table::FormatDouble(objective, 4), Table::FormatDouble(attained, 4),
                  met ? "met" : "VIOLATED"});
  }
  std::cout << "== slostat attainment: " << path << " (" << requests.size() << " requests, "
            << errors_5xx << " 5xx) ==\n";
  table.Print(std::cout);
  if (judged == 0) return Error("no availability/latency rules to judge offline");
  if (violated) {
    std::cout << "VIOLATED: at least one SLO missed its objective\n";
    return kRegressed;
  }
  std::cout << "ok: all judged SLOs attained\n";
  return kOk;
}

int RunSlo(const Args& args) {
  std::vector<ppdp::obs::AlertRule> rules = ppdp::obs::DefaultSloRules();
  if (const std::string& config = args.text("slo_config"); !config.empty()) {
    Result<std::vector<ppdp::obs::AlertRule>> loaded = ppdp::obs::LoadSloConfig(config);
    if (!loaded.ok()) return Error(loaded.status().ToString());
    rules = std::move(*loaded);
  }

  // The first record's schema picks the mode; every later record must
  // carry the same one.
  const std::string& path = args.files[0];
  std::string schema;
  size_t records = 0;
  AlertSummary alerts;
  std::vector<ppdp::serve::RequestRecord> requests;
  Status loaded = ppdp::ForEachJsonLine(path, [&](const JsonValue& doc) -> Status {
    if (records++ == 0) schema = doc.GetStringOr("schema", "");
    if (schema == "ppdp.alertlog.v1") return alerts.Add(doc);
    if (schema != "ppdp.access.v1") {
      return Status::InvalidArgument("unrecognized schema '" + schema +
                                     "' (want ppdp.alertlog.v1 or ppdp.access.v1)");
    }
    Result<ppdp::serve::RequestRecord> record = ppdp::serve::RequestRecord::FromJson(doc);
    if (!record.ok()) return record.status();
    requests.push_back(std::move(*record));
    return Status::Ok();
  });
  if (!loaded.ok()) return Error(loaded.ToString());
  if (args.on("validate_only")) {
    std::cout << g_prefix << ": " << path << ": " << records << " records valid\n";
    return kOk;
  }
  if (records == 0) return Error(path + ": empty log");
  if (schema == "ppdp.alertlog.v1") return PrintAlertSummary(path, alerts, records);
  return JudgeAttainment(path, requests, rules);
}

// ---- prom ----

/// Sample lines in the exposition: every non-empty line that is not a
/// HELP/TYPE comment is one series sample.
size_t CountSeries(const std::string& text) {
  size_t series = 0;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (!line.empty() && line[0] != '#') ++series;
  }
  return series;
}

int CheckExposition(const std::string& label, const std::string& text, double max_series) {
  if (Status valid = ppdp::obs::ValidatePrometheusText(text); !valid.ok()) {
    return Error(label + ": " + valid.ToString());
  }
  const size_t series = CountSeries(text);
  if (max_series > 0 && static_cast<double>(series) > max_series) {
    std::cerr << g_prefix << ": " << label << ": " << series << " series exceeds --max_series="
              << max_series << "\n";
    return kRegressed;
  }
  std::cout << g_prefix << ": " << label << ": ok (" << series << " series)\n";
  return kOk;
}

int RunProm(const Args& args) {
  if (args.files.empty()) {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    return CheckExposition("<stdin>", buffer.str(), args.number("max_series"));
  }
  for (const std::string& path : args.files) {
    std::ifstream file(path);
    if (!file) return Error("cannot open " + path);
    std::ostringstream buffer;
    buffer << file.rdbuf();
    if (int code = CheckExposition(path, buffer.str(), args.number("max_series")); code != kOk) {
      return code;
    }
  }
  return kOk;
}

// ---- Kinds ----

struct Kind {
  std::string name;
  std::string files;  ///< positional synopsis for the usage line
  size_t min_files;
  size_t max_files;
  std::vector<FlagSpec> flags;
  int (*run)(const Args&);
};

const std::vector<Kind>& Kinds() {
  static const std::vector<Kind> kinds = [] {
    const ppdp::obs::DiffOptions bench;
    const ppdp::obs::ProfileDiffOptions prof;
    return std::vector<Kind>{
        {"bench", "baseline.json current.json", 2, 2,
         {NumberFlag("threshold", bench.threshold), NumberFlag("min_ms", bench.min_ms),
          NumberFlag("mem_threshold", bench.mem_threshold),
          NumberFlag("min_mem_mb", static_cast<double>(bench.min_mem_bytes >> 20)),
          BoolFlag("check_digests"), BoolFlag("validate_only")},
         RunBench},
        {"prof", "profile.json [current.json]", 1, 2,
         {NumberFlag("threshold", prof.threshold), NumberFlag("min_share", prof.min_share),
          CountFlag("top", 20), BoolFlag("validate_only")},
         RunProf},
        {"trace", "access.jsonl [current.jsonl]", 1, 2,
         {NumberFlag("threshold", 0.25), NumberFlag("min_ms", 1.0), TextFlag("tenant"),
          BoolFlag("validate_only")},
         RunTrace},
        {"slo", "alerts.jsonl | access.jsonl", 1, 1,
         {TextFlag("slo_config"), BoolFlag("validate_only")},
         RunSlo},
        {"prom", "[scrape.txt ...]", 0, SIZE_MAX,
         {CountFlag("max_series", 0, /*positive=*/true)},
         RunProm},
    };
  }();
  return kinds;
}

int Usage(const Kind* only) {
  std::cerr << "usage:\n";
  for (const Kind& kind : Kinds()) {
    if (only != nullptr && only != &kind) continue;
    std::cerr << "  ppdp_stat " << kind.name;
    for (const FlagSpec& flag : kind.flags) {
      const char* value = flag.type == FlagType::kBool    ? ""
                          : flag.type == FlagType::kCount ? " N"
                          : flag.type == FlagType::kText  ? " S"
                                                          : " X";
      std::cerr << " [--" << flag.name << value << "]";
    }
    std::cerr << " " << kind.files << "\n";
  }
  std::cerr << "exit codes: 0 ok, 1 regression or violation, 2 usage/IO/schema error\n";
  return kError;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage(nullptr);
  const std::string name = argv[1];
  auto kind = std::find_if(Kinds().begin(), Kinds().end(),
                           [&name](const Kind& k) { return k.name == name; });
  if (kind == Kinds().end()) return Usage(nullptr);
  g_prefix = "ppdp_stat " + kind->name;
  for (int i = 2; i < argc; ++i) {
    if (std::string(argv[i]) == "--help") return Usage(&*kind);
  }
  Args args;
  if (!ParseArgs(kind->flags, argc, argv, 2, &args)) return Usage(&*kind);
  if (args.files.size() < kind->min_files || args.files.size() > kind->max_files) {
    return Usage(&*kind);
  }
  return kind->run(args);
}

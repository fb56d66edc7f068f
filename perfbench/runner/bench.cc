#include "bench.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const size_t lower = static_cast<size_t>(std::floor(position));
  const size_t upper = std::min(lower + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(lower);
  return values[lower] + (values[upper] - values[lower]) * fraction;
}

double ProcessCpuSeconds(pid_t pid) {
  std::ifstream file("/proc/" + std::to_string(pid) + "/stat");
  std::string stat;
  if (!std::getline(file, stat)) return -1.0;
  // The command name may hold spaces; fields resume after its ')'.
  const size_t close = stat.rfind(')');
  if (close == std::string::npos) return -1.0;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double utime = 0.0, stime = 0.0;
  // After ')': state is field 3 of the file, utime field 14, stime 15.
  for (int index = 3; index <= 15 && fields >> field; ++index) {
    if (index == 14) utime = std::stod(field);
    if (index == 15) stime = std::stod(field);
  }
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double SelfCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb(pid_t pid) {
  std::ifstream file(pid == 0 ? std::string("/proc/self/status")
                              : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(file, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return -1.0;
}

double MedianPerCall(const std::function<void()>& fn, int batch, int rounds) {
  std::vector<double> per_call;
  per_call.reserve(static_cast<size_t>(rounds));
  for (int round = 0; round < rounds; ++round) {
    const double start = Now();
    for (int i = 0; i < batch; ++i) fn();
    per_call.push_back((Now() - start) / batch);
  }
  return Median(std::move(per_call));
}

void ForEachParallel(size_t n, int threads, const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
    });
  }
  for (std::thread& thread : pool) thread.join();
}

CpuClock ReadCpuClock() {
  std::ifstream file("/proc/stat");
  std::string cpu;
  file >> cpu;  // the aggregate "cpu" line comes first
  CpuClock clock;
  uint64_t field = 0;
  // user nice system idle iowait irq softirq steal [guest guest_nice]
  for (int i = 0; i < 8 && file >> field; ++i) {
    clock.total += field;
    if (i == 7) clock.steal = field;
  }
  return clock;
}

double StealShare(const CpuClock& from, const CpuClock& to) {
  if (to.total <= from.total) return 0.0;
  return static_cast<double>(to.steal - from.steal) / static_cast<double>(to.total - from.total);
}

namespace {
/// Five slices for a full run; one for tiny runs. Up to three times as many
/// may run when the host steals CPU time.
size_t PlannedSlices(double seconds) { return seconds >= 5 ? 5 : 1; }
size_t MaxSlices(double seconds) { return seconds >= 5 ? 15 : 1; }
}  // namespace

Slices::Slices(double start, double seconds)
    : start_(start),
      slice_seconds_(seconds / static_cast<double>(PlannedSlices(seconds))),
      planned_(PlannedSlices(seconds)),
      primary_(MaxSlices(seconds)),
      secondary_(primary_.size()),
      ok_(primary_.size()),
      good_(primary_.size()),
      first_start_(primary_.size(), std::numeric_limits<double>::infinity()),
      last_end_(primary_.size(), 0.0),
      cpu_(primary_.size()) {}

int Slices::Index(double t) const {
  const double offset = (t - start_) / slice_seconds_;
  if (offset < 0) return 0;
  return offset < static_cast<double>(primary_.size()) ? static_cast<int>(offset) : -1;
}

void Slices::Record(double start, double latency_ms, bool ok, bool good, bool secondary) {
  const int index = Index(start);
  if (index < 0) return;
  const size_t slice = static_cast<size_t>(index);
  first_start_[slice] = std::min(first_start_[slice], start);
  last_end_[slice] = std::max(last_end_[slice], start + latency_ms / 1e3);
  if (!ok) return;
  ++ok_[slice];
  if (good) ++good_[slice];
  (secondary ? secondary_ : primary_)[slice].push_back(latency_ms);
}

void Slices::AddCpu(int slice, double cpu_seconds) {
  if (slice >= 0 && static_cast<size_t>(slice) < cpu_.size()) {
    cpu_[static_cast<size_t>(slice)] += cpu_seconds;
  }
}

bool Slices::Close(int slice, double steal_share) {
  steal_.resize(static_cast<size_t>(slice) + 1, 0.0);
  steal_[static_cast<size_t>(slice)] = steal_share;
  size_t quiet = 0;
  for (double share : steal_) quiet += share <= kMaxStealShare ? 1 : 0;
  return quiet >= planned_ || steal_.size() >= primary_.size();
}

std::vector<size_t> Slices::Used() const {
  std::vector<size_t> closed(steal_.size());
  for (size_t s = 0; s < closed.size(); ++s) closed[s] = s;
  if (closed.empty()) return {0};
  std::vector<size_t> quiet;
  for (size_t s : closed) {
    if (steal_[s] <= kMaxStealShare) quiet.push_back(s);
  }
  if (quiet.size() >= planned_) return quiet;
  // Too few quiet slices before the cap: the least stolen ones.
  std::stable_sort(closed.begin(), closed.end(),
                   [this](size_t a, size_t b) { return steal_[a] < steal_[b]; });
  closed.resize(std::min(closed.size(), planned_));
  return closed;
}

std::string Slices::Describe() const {
  std::string text = std::to_string(Used().size()) + " of " + std::to_string(steal_.size()) +
                     " slices used; steal per slice:";
  char share[32];
  for (double s : steal_) {
    std::snprintf(share, sizeof(share), " %.1f%%", 100.0 * s);
    text += share;
  }
  return text;
}

std::vector<double> Slices::Of(Ops ops, size_t slice) const {
  if (ops == Ops::kPrimary) return primary_[slice];
  if (ops == Ops::kSecondary) return secondary_[slice];
  std::vector<double> all = primary_[slice];
  all.insert(all.end(), secondary_[slice].begin(), secondary_[slice].end());
  return all;
}

double Slices::Latency(Ops ops, double q) const {
  std::vector<double> per_slice;
  for (size_t s : Used()) per_slice.push_back(Quantile(Of(ops, s), q));
  return Median(per_slice);
}

double Slices::Goodput() const {
  std::vector<double> per_slice;
  for (size_t s : Used()) {
    const double span = last_end_[s] - first_start_[s];
    per_slice.push_back(span > 0 ? static_cast<double>(good_[s]) / span : 0.0);
  }
  return Median(per_slice);
}

double Slices::CpuMsPerOp() const {
  std::vector<double> per_slice;
  for (size_t s : Used()) {
    per_slice.push_back(cpu_[s] * 1e3 / static_cast<double>(std::max<uint64_t>(ok_[s], 1)));
  }
  return Median(per_slice);
}

uint64_t Slices::TotalOk() const {
  uint64_t total = 0;
  for (size_t s : Used()) total += ok_[s];
  return total;
}

size_t Slices::Samples(Ops ops) const {
  size_t total = 0;
  for (size_t s : Used()) total += Of(ops, s).size();
  return total;
}

void AddPhaseMetrics(const Slices& slices, Slices::Ops primary, double tail_q, Outcome* out) {
  out->Add("goodput_rps", slices.Goodput(), "1/s", slices.TotalOk());
  out->Add("p50_ms", slices.Latency(primary, 0.5), "ms", slices.Samples(primary));
  out->Add("tail_ms", slices.Latency(primary, tail_q), "ms", slices.Samples(primary));
  out->Add("second_p50_ms", slices.Latency(Slices::Ops::kSecondary, 0.5), "ms",
           slices.Samples(Slices::Ops::kSecondary));
  out->Add("cpu_ms_per_op", slices.CpuMsPerOp(), "ms", slices.TotalOk());
  out->notes.push_back("timed phase: " + slices.Describe());
}

uint64_t SeedRng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::string FormatDouble(double v) {
  char buffer[64];
  auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), v);
  if (ec != std::errc()) return "0";
  return std::string(buffer, end);
}

}  // namespace perfbench

// Shared plumbing of the perfbench runner: run arguments, the result every
// workload returns, timing/percentile helpers and /proc readers.
#ifndef PERFBENCH_RUNNER_BENCH_H_
#define PERFBENCH_RUNNER_BENCH_H_

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;   ///< serve-light | serve-genome | batch-graph
  uint64_t seed = 1;      ///< workload seed: every generated input derives from it
  double seconds = 10.0;  ///< timed phase length
  bool trace = false;     ///< per-layer run instead of the end-to-end one
  std::string bin_dir;    ///< where ppdp_serve was built
  std::string work_dir;   ///< scratch files of this run (WAL, logs)
};

/// One named measurement as it appears in the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  uint64_t calls = 0;  ///< samples behind the value (printed, not in the JSON)
};

/// What a run reports. `failed` counts failed ops; `problems` lists every
/// failed oracle or tripped run guard (a non-empty list makes the run
/// incorrect, so its figures are never taken as a speed).
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;
  std::vector<std::string> notes;  ///< human-readable lines printed before the result

  void Add(const std::string& name, double value, const std::string& unit, uint64_t calls = 0) {
    metrics.push_back(Metric{name, value, unit, calls});
  }
  void Problem(const std::string& what) { problems.push_back(what); }
  bool correct() const { return problems.empty() && failed == 0; }
};

/// Cumulative CPU time of the whole machine, from /proc/stat (jiffies).
struct CpuClock {
  uint64_t total = 0;
  uint64_t steal = 0;  ///< time the hypervisor ran something else
};
CpuClock ReadCpuClock();
/// Share of the machine's CPU time stolen by the hypervisor between two
/// readings.
double StealShare(const CpuClock& from, const CpuClock& to);

/// A timed phase cut into equal time slices. Each op is filed under the
/// slice it started in, and a run reports the median over slices of each
/// per-slice figure. A slice during which the hypervisor stole more than
/// kMaxStealShare of the machine's CPU time measures the host's other
/// tenants, not the program: the phase then runs extra slices, up to three
/// times its nominal length, until it has as many quiet slices as it
/// planned, and the figures use only those (or, failing that, the least
/// stolen slices).
class Slices {
 public:
  static constexpr double kMaxStealShare = 0.04;

  Slices() : Slices(0.0, 1.0) {}
  /// Plans `seconds` of timing as 5 slices (1 when `seconds` < 5).
  Slices(double start, double seconds);
  double start() const { return start_; }
  double SliceEnd(int slice) const { return start_ + (slice + 1) * slice_seconds_; }
  /// Slice index of time `t`, or -1 past the last possible slice.
  int Index(double t) const;
  /// One op that started at `start`; `latency_ms` counts only if `ok`.
  void Record(double start, double latency_ms, bool ok, bool good, bool secondary);
  void AddCpu(int slice, double cpu_seconds);
  /// Ends `slice` with its stolen share of CPU time. True when the phase is
  /// done: enough quiet slices, or no slices left.
  bool Close(int slice, double steal_share);
  /// "5 of 7 slices used; steal per slice: 0.3% 12.1% ..." for the run log.
  std::string Describe() const;

  enum class Ops { kPrimary, kSecondary, kAll };
  /// Median over the used slices of the `q` quantile of the ops' latencies.
  double Latency(Ops ops, double q) const;
  /// Median over the used slices of good ops per second, each slice's rate
  /// taken from the first op start to the last op end inside it.
  double Goodput() const;
  /// Median over the used slices of CPU milliseconds per successful op.
  double CpuMsPerOp() const;
  uint64_t TotalOk() const;
  size_t Samples(Ops ops) const;

 private:
  /// The slices the figures use.
  std::vector<size_t> Used() const;
  std::vector<double> Of(Ops ops, size_t slice) const;
  double start_;
  double slice_seconds_;
  size_t planned_;
  std::vector<std::vector<double>> primary_, secondary_;
  std::vector<uint64_t> ok_, good_;
  std::vector<double> first_start_, last_end_;
  std::vector<double> cpu_;
  std::vector<double> steal_;  ///< one entry per closed slice
};

/// Adds goodput_rps, p50_ms, tail_ms (the `tail_q` quantile), second_p50_ms
/// and cpu_ms_per_op of a phase; `primary` picks the ops p50 and tail cover
/// (second_p50_ms always covers the secondary ops).
void AddPhaseMetrics(const Slices& slices, Slices::Ops primary, double tail_q, Outcome* out);

/// Set-up cycles per run (setup_s is their median): fewer in tiny runs.
inline int SetupCycles(const Args& args, int full) { return args.seconds >= 5 ? full : 3; }

/// Monotonic seconds.
double Now();

/// Type-7 (linear interpolation) quantile, the same definition numpy and
/// Python's statistics module use by default. 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

/// utime + stime of `pid` in seconds, from /proc/<pid>/stat. -1 on failure.
double ProcessCpuSeconds(pid_t pid);
/// CPU seconds of this process (all threads).
double SelfCpuSeconds();
/// VmHWM of `pid` (0 = this process) in MB. -1 on failure.
double PeakRssMb(pid_t pid);

/// Times `fn` in `rounds` rounds of `batch` calls each and returns the
/// median per-call time in seconds (batching keeps the clock's own cost
/// out of nanosecond-scale calls).
double MedianPerCall(const std::function<void()>& fn, int batch, int rounds);

/// Runs `fn(i)` for i in [0, n) on `threads` plain threads (not the exec
/// pool), each claiming the next index.
void ForEachParallel(size_t n, int threads, const std::function<void(size_t)>& fn);

/// splitmix64: the benchmark's own deterministic stream, so the inputs it
/// generates never depend on the program's RNG.
class SeedRng {
 public:
  explicit SeedRng(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ULL + 0x632BE59BD9B4E019ULL) {}
  uint64_t Next();
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0); }

 private:
  uint64_t state_;
};

/// Shortest round-trip decimal form of `v`.
std::string FormatDouble(double v);

Outcome RunServeLight(const Args& args);
Outcome RunServeGenome(const Args& args);
Outcome RunBatchGraph(const Args& args);
/// The traced run: per-layer metrics plus the trace overhead and the
/// attribution line of `args.workload`.
Outcome RunLayers(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_BENCH_H_

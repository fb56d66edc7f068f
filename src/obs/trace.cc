#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <ctime>
#include <fstream>
#include <map>
#include <unordered_map>

#include "obs/log.h"
#include "obs/profiler.h"

namespace ppdp::obs {

namespace {

uint32_t ThisThreadOrdinal() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

/// Global intern table: span name -> small id, plus the reverse array the
/// profiler symbolizes samples with offline. Both sides are leaked so a
/// late signal (or a reader during shutdown) can never see freed memory.
struct SpanNameTable {
  std::mutex mutex;
  std::unordered_map<std::string, uint32_t> ids;
  std::vector<const std::string*> names;  ///< index id-1 -> leaked name

  static SpanNameTable& Global() {
    static SpanNameTable* table = new SpanNameTable();  // intentionally leaked
    return *table;
  }
};

/// Fixed-depth per-thread stack of interned span ids. The owning thread
/// pushes/pops; its own SIGPROF handler reads the top. Atomics are ordered
/// so the handler never reads a slot before the id was stored. Trivially
/// destructible (plain atomics) so no TLS destructor can race a late
/// signal.
constexpr uint32_t kMaxSignalSpanDepth = 64;
struct TlsSpanStack {
  std::atomic<uint32_t> depth{0};
  std::atomic<uint32_t> ids[kMaxSignalSpanDepth] = {};
};
thread_local TlsSpanStack t_span_stack;

/// Registry of open-span stacks keyed by thread ordinal. Spans push/pop
/// their own thread's stack (strict LIFO by RAII), readers snapshot the
/// whole map; both sides take one short-lived mutex, which is cheap at span
/// granularity (spans mark phases, not per-item work).
struct ActiveSpanRegistry {
  std::mutex mutex;
  std::map<uint32_t, std::vector<std::string>> stacks;

  static ActiveSpanRegistry& Global() {
    static ActiveSpanRegistry* registry = new ActiveSpanRegistry();  // intentionally leaked
    return *registry;
  }

  void Push(uint32_t thread, std::string name) {
    std::lock_guard<std::mutex> lock(mutex);
    stacks[thread].push_back(std::move(name));
  }

  void Pop(uint32_t thread) {
    std::lock_guard<std::mutex> lock(mutex);
    auto it = stacks.find(thread);
    if (it == stacks.end() || it->second.empty()) return;
    it->second.pop_back();
    if (it->second.empty()) stacks.erase(it);
  }
};

}  // namespace

uint32_t InternSpanName(const std::string& name) {
  SpanNameTable& table = SpanNameTable::Global();
  std::lock_guard<std::mutex> lock(table.mutex);
  auto it = table.ids.find(name);
  if (it != table.ids.end()) return it->second;
  table.names.push_back(new std::string(name));  // intentionally leaked
  uint32_t id = static_cast<uint32_t>(table.names.size());
  table.ids.emplace(name, id);
  return id;
}

const std::string& SpanNameForId(uint32_t id) {
  static const std::string* kNone = new std::string("(none)");
  SpanNameTable& table = SpanNameTable::Global();
  std::lock_guard<std::mutex> lock(table.mutex);
  if (id == 0 || id > table.names.size()) return *kNone;
  return *table.names[id - 1];
}

uint32_t CurrentThreadSpanId() {
  uint32_t depth = t_span_stack.depth.load(std::memory_order_acquire);
  if (depth == 0) return 0;
  if (depth > kMaxSignalSpanDepth) depth = kMaxSignalSpanDepth;
  return t_span_stack.ids[depth - 1].load(std::memory_order_relaxed);
}

void TouchSpanTls() { t_span_stack.depth.load(std::memory_order_relaxed); }

std::vector<ActiveSpanStack> ActiveSpanStacks() {
  ActiveSpanRegistry& registry = ActiveSpanRegistry::Global();
  std::lock_guard<std::mutex> lock(registry.mutex);
  std::vector<ActiveSpanStack> stacks;
  stacks.reserve(registry.stacks.size());
  for (const auto& [thread, spans] : registry.stacks) {
    stacks.push_back(ActiveSpanStack{thread, spans});
  }
  return stacks;
}

double ThreadCpuSeconds() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
#else
  return 0.0;
#endif
}

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder* recorder = new TraceRecorder();  // intentionally leaked
  return *recorder;
}

void TraceRecorder::SetEnabled(bool enabled) {
  std::lock_guard<std::mutex> lock(mutex_);
  enabled_ = enabled;
}

bool TraceRecorder::enabled() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return enabled_;
}

void TraceRecorder::Record(const TraceEvent& event) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!enabled_) return;
  if (events_.size() >= kMaxEvents) {
    ++dropped_;
    return;
  }
  events_.push_back(event);
}

size_t TraceRecorder::num_events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

size_t TraceRecorder::num_dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::vector<TraceEvent> TraceRecorder::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

void TraceRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
  dropped_ = 0;
}

std::vector<TraceRecorder::PhaseStats> TraceRecorder::PhaseStatsSorted() const {
  struct Agg {
    size_t count = 0;
    double total_us = 0.0;
    double min_us = 0.0;
    double max_us = 0.0;
    double cpu_us = 0.0;
    uint64_t alloc_bytes = 0;
    uint64_t rss_peak = 0;
  };
  std::map<uint32_t, Agg> by_id;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const TraceEvent& e : events_) {
      Agg& agg = by_id[e.name_id];
      if (agg.count == 0 || e.duration_us < agg.min_us) agg.min_us = e.duration_us;
      if (agg.count == 0 || e.duration_us > agg.max_us) agg.max_us = e.duration_us;
      agg.total_us += e.duration_us;
      agg.cpu_us += e.cpu_us;
      agg.alloc_bytes += e.alloc_bytes;
      if (e.rss_bytes > agg.rss_peak) agg.rss_peak = e.rss_bytes;
      ++agg.count;
    }
  }
  std::map<std::string, Agg> phases;
  for (const auto& [id, agg] : by_id) phases.emplace(SpanNameForId(id), agg);
  std::vector<PhaseStats> stats;
  stats.reserve(phases.size());
  for (const auto& [name, agg] : phases) {
    PhaseStats row;
    row.name = name;
    row.count = agg.count;
    row.wall_ms_total = agg.total_us / 1e3;
    row.wall_ms_mean = agg.total_us / static_cast<double>(agg.count) / 1e3;
    row.wall_ms_min = agg.min_us / 1e3;
    row.wall_ms_max = agg.max_us / 1e3;
    row.cpu_ms_total = agg.cpu_us / 1e3;
    row.alloc_bytes_total = agg.alloc_bytes;
    row.rss_peak_bytes = agg.rss_peak;
    stats.push_back(std::move(row));
  }
  std::sort(stats.begin(), stats.end(), [](const PhaseStats& a, const PhaseStats& b) {
    return a.wall_ms_total != b.wall_ms_total ? a.wall_ms_total > b.wall_ms_total
                                              : a.name < b.name;
  });
  return stats;
}

Table TraceRecorder::PhaseSummary() const {
  Table table({"phase", "count", "total ms", "mean ms", "min ms", "max ms", "cpu ms",
               "alloc MB", "peak rss MB"});
  for (const PhaseStats& s : PhaseStatsSorted()) {
    table.AddRow({s.name, std::to_string(s.count), Table::FormatDouble(s.wall_ms_total, 3),
                  Table::FormatDouble(s.wall_ms_mean, 3), Table::FormatDouble(s.wall_ms_min, 3),
                  Table::FormatDouble(s.wall_ms_max, 3),
                  Table::FormatDouble(s.cpu_ms_total, 3),
                  Table::FormatDouble(static_cast<double>(s.alloc_bytes_total) / (1 << 20), 2),
                  Table::FormatDouble(static_cast<double>(s.rss_peak_bytes) / (1 << 20), 1)});
  }
  return table;
}

Status TraceRecorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream file(path);
  if (!file) return Status::NotFound("cannot open " + path + " for writing");
  std::vector<TraceEvent> snapshot = events();
  file << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t i = 0; i < snapshot.size(); ++i) {
    const TraceEvent& e = snapshot[i];
    if (i) file << ",";
    file << "\n{\"name\":\"";
    for (char c : SpanNameForId(e.name_id)) {
      if (c == '"' || c == '\\') file << '\\';
      file << c;
    }
    file << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << e.thread << ",\"ts\":"
         << Table::FormatDouble(e.start_us, 3) << ",\"dur\":"
         << Table::FormatDouble(e.duration_us, 3) << "}";
  }
  file << "\n]}\n";
  if (!file.good()) return Status::Internal("write to " + path + " failed");
  return Status::Ok();
}

TraceSpan::TraceSpan(std::string name)
    : name_id_(InternSpanName(name)),
      start_us_(MonotonicSeconds() * 1e6),
      start_cpu_us_(ThreadCpuSeconds() * 1e6),
      start_alloc_bytes_(ThreadAllocBytes()) {
  // Publish the interned id for the profiler's signal handler: the id is
  // stored before the depth that makes it visible.
  uint32_t depth = t_span_stack.depth.load(std::memory_order_relaxed);
  if (depth < kMaxSignalSpanDepth) {
    t_span_stack.ids[depth].store(name_id_, std::memory_order_relaxed);
  }
  t_span_stack.depth.store(depth + 1, std::memory_order_release);
  ActiveSpanRegistry::Global().Push(ThisThreadOrdinal(), std::move(name));
}

double TraceSpan::ElapsedSeconds() const { return MonotonicSeconds() - start_us_ / 1e6; }

TraceSpan::~TraceSpan() {
  uint32_t depth = t_span_stack.depth.load(std::memory_order_relaxed);
  if (depth > 0) t_span_stack.depth.store(depth - 1, std::memory_order_release);
  ActiveSpanRegistry::Global().Pop(ThisThreadOrdinal());
  TraceEvent event;
  event.name_id = name_id_;
  event.thread = ThisThreadOrdinal();
  event.start_us = start_us_;
  event.duration_us = MonotonicSeconds() * 1e6 - start_us_;
  event.cpu_us = ThreadCpuSeconds() * 1e6 - start_cpu_us_;
  event.alloc_bytes = ThreadAllocBytes() - start_alloc_bytes_;
  event.rss_bytes = CurrentRssBytesCached();
  TraceRecorder::Global().Record(event);
}

}  // namespace ppdp::obs

#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <ctime>
#include <fstream>
#include <unordered_map>
#include <utility>

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
/// pushes/pops; its own SIGPROF handler reads the top, and ActiveSpanStacks
/// reads it from other threads. Atomics are ordered so no reader sees a
/// depth before the id below it was stored. Trivially
/// destructible (plain atomics) so no TLS destructor can race a late
/// signal.
constexpr uint32_t kMaxSignalSpanDepth = 64;
struct TlsSpanStack {
  std::atomic<uint32_t> depth{0};
  std::atomic<uint32_t> ids[kMaxSignalSpanDepth] = {};
};
thread_local TlsSpanStack t_span_stack;

/// Threads whose outermost span is open, with their id stacks. A thread
/// registers when its depth goes 0 -> 1 and unregisters at 1 -> 0; since a
/// thread cannot exit with a span open, a listed stack's TLS stays alive
/// while a reader holds the mutex.
struct OpenStackRegistry {
  std::mutex mutex;
  std::vector<std::pair<uint32_t, const TlsSpanStack*>> threads;

  static OpenStackRegistry& Global() {
    static OpenStackRegistry* registry = new OpenStackRegistry();  // intentionally leaked
    return *registry;
  }
};

void ListThisThread(bool listed) {
  OpenStackRegistry& registry = OpenStackRegistry::Global();
  std::lock_guard<std::mutex> lock(registry.mutex);
  const std::pair<uint32_t, const TlsSpanStack*> entry(ThisThreadOrdinal(), &t_span_stack);
  auto& threads = registry.threads;
  if (listed) {
    threads.push_back(entry);
  } else {
    threads.erase(std::find(threads.begin(), threads.end(), entry));
  }
}

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
  std::vector<ActiveSpanStack> stacks;
  {
    OpenStackRegistry& registry = OpenStackRegistry::Global();
    std::lock_guard<std::mutex> lock(registry.mutex);
    for (const auto& [thread, stack] : registry.threads) {
      uint32_t depth = std::min(stack->depth.load(std::memory_order_acquire), kMaxSignalSpanDepth);
      std::vector<std::string>& spans = stacks.emplace_back(ActiveSpanStack{thread, {}}).spans;
      for (uint32_t i = 0; i < depth; ++i) {
        spans.push_back(SpanNameForId(stack->ids[i].load(std::memory_order_relaxed)));
      }
    }
  }
  std::sort(stacks.begin(), stacks.end(),
            [](const ActiveSpanStack& a, const ActiveSpanStack& b) { return a.thread < b.thread; });
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

void TraceRecorder::SetCollectEvents(bool collect) {
  std::lock_guard<std::mutex> lock(mutex_);
  collect_events_ = collect;
}

void TraceRecorder::Record(const TraceEvent& event) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (event.name_id >= phases_.size()) phases_.resize(event.name_id + 1);
  PhaseStats& phase = phases_[event.name_id];
  const double wall_ms = event.duration_us / 1e3;
  if (phase.count == 0 || wall_ms < phase.wall_ms_min) phase.wall_ms_min = wall_ms;
  if (phase.count == 0 || wall_ms > phase.wall_ms_max) phase.wall_ms_max = wall_ms;
  phase.wall_ms_total += wall_ms;
  phase.cpu_ms_total += event.cpu_us / 1e3;
  phase.alloc_bytes_total += event.alloc_bytes;
  phase.rss_peak_bytes = std::max(phase.rss_peak_bytes, event.rss_bytes);
  ++phase.count;
  if (!collect_events_) return;
  if (events_.size() >= kMaxEvents) {
    ++dropped_;
    return;
  }
  events_.push_back(event);
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
  phases_.clear();
  events_.clear();
  dropped_ = 0;
}

std::vector<TraceRecorder::PhaseStats> TraceRecorder::PhaseStatsSorted() const {
  std::vector<PhaseStats> phases;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    phases = phases_;
  }
  std::vector<PhaseStats> stats;
  for (uint32_t id = 0; id < phases.size(); ++id) {
    if (phases[id].count == 0) continue;
    PhaseStats& row = stats.emplace_back(std::move(phases[id]));
    row.name = SpanNameForId(id);
    row.wall_ms_mean = row.wall_ms_total / static_cast<double>(row.count);
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
  if (depth == 0) ListThisThread(true);  // listed only once its depth reads >= 1
}

double TraceSpan::ElapsedSeconds() const { return MonotonicSeconds() - start_us_ / 1e6; }

TraceSpan::~TraceSpan() {
  uint32_t depth = t_span_stack.depth.load(std::memory_order_relaxed);
  if (depth == 1) ListThisThread(false);  // unlisted before its depth reads 0
  if (depth > 0) t_span_stack.depth.store(depth - 1, std::memory_order_release);
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

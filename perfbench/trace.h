// In-memory span recorder for the traced benchmark run. Spans are recorded
// from the benchmark's own files only: around the calls the benchmark makes
// into the EDMS API, and inside the scheduler / baseline wrappers it plugs
// into the engine's public seams (Config::scheduler_factory and
// Config::baseline). Nothing inside src/ is instrumented.
#ifndef MIRABEL_PERFBENCH_TRACE_H_
#define MIRABEL_PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (std::chrono::steady_clock).
int64_t NowNs();

struct Span {
  int64_t id = -1;
  /// Id of the span that caused this one; -1 for a root.
  int64_t parent = -1;
  /// Slice (engine time) the span belongs to; the spans of one slice/gate
  /// share it.
  int64_t trace_id = -1;
  /// Static string: one of the layer names ("edms.advance", ...).
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Thread-safe span sink. Spans are kept in memory and written out once the
/// run ends, so the recording cost is two clock reads and one locked push.
class Tracer {
 public:
  /// RAII span: opens at construction, records at destruction. A null
  /// tracer makes it a no-op, so untraced rounds run the same code.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, int64_t trace_id,
          int64_t parent = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    int64_t id() const { return span_.id; }

   private:
    Tracer* tracer_;
    Span span_;
  };

  /// Publishes the open gate span (an edms.advance) that spans opened
  /// inside the engine's seams take as their parent, including those opened
  /// on WorkerPool threads while the control thread waits in Advance().
  void SetGate(int64_t span_id, int64_t trace_id) {
    gate_trace_.store(trace_id, std::memory_order_relaxed);
    gate_span_.store(span_id, std::memory_order_release);
  }
  int64_t gate_span() const { return gate_span_.load(std::memory_order_acquire); }
  int64_t gate_trace() const {
    return gate_trace_.load(std::memory_order_relaxed);
  }

  /// Moves the recorded spans out (call once the run is quiescent).
  std::vector<Span> Take();

 private:
  std::atomic<int64_t> next_id_{0};
  std::atomic<int64_t> gate_span_{-1};
  std::atomic<int64_t> gate_trace_{-1};
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Per-layer totals over a set of spans.
struct LayerTime {
  int64_t count = 0;
  /// Sum of span durations.
  double busy_s = 0.0;
  /// Sum of durations minus the part of each span its children cover.
  double self_s = 0.0;
  double max_s = 0.0;
};

/// Totals per span name. Self time subtracts the union of a span's child
/// intervals clipped to the span, so children that ran in parallel on pool
/// workers are not subtracted twice.
std::map<std::string, LayerTime> Summarize(const std::vector<Span>& spans);

/// Writes one JSON object per span and line; times in microseconds relative
/// to `origin_ns`.
void WriteSpans(std::ostream& out, int round, int64_t origin_ns,
                const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // MIRABEL_PERFBENCH_TRACE_H_

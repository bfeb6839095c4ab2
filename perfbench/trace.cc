#include "trace.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <utility>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, int64_t trace_id,
                     int64_t parent)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.id = tracer_->next_id_.fetch_add(1, std::memory_order_relaxed);
  span_.parent = parent;
  span_.trace_id = trace_id;
  span_.name = name;
  span_.start_ns = NowNs();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end_ns = NowNs();
  std::lock_guard<std::mutex> lock(tracer_->mu_);
  tracer_->spans_.push_back(span_);
}

std::vector<Span> Tracer::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(spans_, {});
}

std::map<std::string, LayerTime> Summarize(const std::vector<Span>& spans) {
  std::unordered_map<int64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, LayerTime> out;
  for (const Span& s : spans) {
    const double dur_s = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    int64_t covered_ns = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<int64_t, int64_t>> iv;
      for (const Span* c : it->second) {
        int64_t lo = std::max(c->start_ns, s.start_ns);
        int64_t hi = std::min(c->end_ns, s.end_ns);
        if (hi > lo) iv.emplace_back(lo, hi);
      }
      std::sort(iv.begin(), iv.end());
      int64_t cur_lo = 0;
      int64_t cur_hi = -1;
      for (const auto& [lo, hi] : iv) {
        if (cur_hi < lo) {
          if (cur_hi > cur_lo) covered_ns += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered_ns += cur_hi - cur_lo;
    }
    LayerTime& lt = out[s.name];
    ++lt.count;
    lt.busy_s += dur_s;
    lt.self_s += dur_s - static_cast<double>(covered_ns) * 1e-9;
    lt.max_s = std::max(lt.max_s, dur_s);
  }
  return out;
}

void WriteSpans(std::ostream& out, int round, int64_t origin_ns,
                const std::vector<Span>& spans) {
  for (const Span& s : spans) {
    out << "{\"round\":" << round << ",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"trace_id\":" << s.trace_id
        << ",\"name\":\"" << s.name << "\",\"start_us\":"
        << static_cast<double>(s.start_ns - origin_ns) * 1e-3
        << ",\"end_us\":" << static_cast<double>(s.end_ns - origin_ns) * 1e-3
        << "}\n";
  }
}

}  // namespace perfbench

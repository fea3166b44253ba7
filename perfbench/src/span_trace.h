// Host-clock span recorder for the benchmark's traced run.
//
// Spans are opened and closed by the benchmark's own code around each call
// it makes into a Norman layer (nothing inside src/ is instrumented). A
// span records its name, host start/end and its parent (the span open when
// it began), so a layer's self time is its duration minus the time covered
// by its children. Spans stay in memory; the caller aggregates them per
// window and writes one window out as Chrome trace-event JSON at the end.
#ifndef PERFBENCH_SPAN_TRACE_H_
#define PERFBENCH_SPAN_TRACE_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// Host steady clock, ns.
int64_t WallNs();
// CPU time consumed by this process, ns.
int64_t CpuNs();
// Resident set size of this process now (VmRSS), MiB.
double RssMib();

class SpanTrace {
 public:
  struct Span {
    const char* layer;  // static strings: module name as in src/ ...
    const char* name;   // ... and the call, e.g. "Socket::SendFrame"
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;  // index into spans(), -1 for a root
  };

  // Per-name totals over the recorded spans, keyed "<layer>/<name>".
  struct Agg {
    uint64_t count = 0;
    int64_t total_ns = 0;  // sum of durations
    int64_t self_ns = 0;   // sum of (duration - children's durations)
    double MeanNs() const {
      return count == 0 ? 0.0
                        : static_cast<double>(total_ns) /
                              static_cast<double>(count);
    }
  };

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // Opens a span under the innermost open span; returns its index.
  int32_t Begin(const char* layer, const char* name);
  void End(int32_t index);

  const std::vector<Span>& spans() const { return spans_; }
  // Index of the first span called `name`, or -1.
  int32_t Find(const char* name) const;
  // Totals over every span, or only over `root` and its descendants (-1
  // after a failed Find yields an empty map).
  std::map<std::string, Agg> Aggregate() const;
  std::map<std::string, Agg> Aggregate(int32_t root) const;

  // Writes the spans with index in [first, last) for each range as Chrome
  // trace-event "X" events (timestamps relative to the first span, in us;
  // args carry the span's index and its parent's), plus one "M" event
  // naming the process `label`.
  void WriteChromeJson(
      std::FILE* out, const std::string& label,
      const std::vector<std::pair<size_t, size_t>>& ranges) const;

  void Clear();

 private:
  std::map<std::string, Agg> Aggregate(size_t first, size_t last) const;

  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

// RAII span; a no-op when the trace is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanTrace* trace, const char* layer, const char* name)
      : trace_(trace),
        index_(trace->enabled() ? trace->Begin(layer, name) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) trace_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanTrace* trace_;
  int32_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_TRACE_H_

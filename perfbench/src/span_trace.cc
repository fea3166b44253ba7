#include "span_trace.h"

#include <time.h>

#include <chrono>
#include <cstdlib>
#include <cstring>

namespace perfbench {

int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double RssMib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

int32_t SpanTrace::Begin(const char* layer, const char* name) {
  const int32_t parent = open_.empty() ? -1 : open_.back();
  const auto index = static_cast<int32_t>(spans_.size());
  spans_.push_back(Span{layer, name, WallNs(), 0, parent});
  open_.push_back(index);
  return index;
}

void SpanTrace::End(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns = WallNs();
  // Spans close in LIFO order (they are scoped), so `index` is innermost.
  open_.pop_back();
}

int32_t SpanTrace::Find(const char* name) const {
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (std::strcmp(spans_[i].name, name) == 0) return static_cast<int32_t>(i);
  }
  return -1;
}

std::map<std::string, SpanTrace::Agg> SpanTrace::Aggregate() const {
  return Aggregate(0, spans_.size());
}

std::map<std::string, SpanTrace::Agg> SpanTrace::Aggregate(
    int32_t root) const {
  if (root < 0) return {};
  // Spans are stored in start order, so a span's descendants directly
  // follow it and start before it ends.
  const auto first = static_cast<size_t>(root);
  size_t last = first + 1;
  while (last < spans_.size() &&
         spans_[last].start_ns <= spans_[first].end_ns) {
    ++last;
  }
  return Aggregate(first, last);
}

std::map<std::string, SpanTrace::Agg> SpanTrace::Aggregate(
    size_t first, size_t last) const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (size_t i = first; i < last; ++i) {
    const Span& s = spans_[i];
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, Agg> out;
  for (size_t i = first; i < last; ++i) {
    const Span& s = spans_[i];
    Agg& a = out[std::string(s.layer) + "/" + s.name];
    const int64_t dur = s.end_ns - s.start_ns;
    ++a.count;
    a.total_ns += dur;
    a.self_ns += dur - child_ns[i];
  }
  return out;
}

void SpanTrace::WriteChromeJson(
    std::FILE* out, const std::string& label,
    const std::vector<std::pair<size_t, size_t>>& ranges) const {
  const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(out,
               "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
               "\"args\":{\"name\":\"%s\"}}",
               label.c_str());
  for (const auto& [first, last] : ranges) {
    for (size_t i = first; i < last && i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"id\":%zu,\"parent\":%d}}",
                   s.name, s.layer, static_cast<double>(s.start_ns - t0) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                   s.parent);
    }
  }
  std::fprintf(out, "\n]}\n");
}

void SpanTrace::Clear() {
  spans_.clear();
  open_.clear();
}

}  // namespace perfbench

// norman_perfbench: the repository's end-to-end benchmark.
//
//   norman_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--out DIR]
//
// Runs identical windows of one workload (see workloads.h) until S seconds
// of wall time have passed, checks every window's outputs, checks that all
// windows agree bit for bit on their virtual metrics and exact counts, and
// that another seed changes them. The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// --trace 0 reports the end-to-end metrics (host-time ones as medians over
// windows); --trace 1 interleaves untraced and traced windows, reports the
// per-layer metrics, and writes DIR/<workload>.trace.json (Chrome trace
// events of one traced window) and DIR/<workload>.layers.json.
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <new>
#include <string>
#include <vector>

#include <malloc.h>
#include <sys/mman.h>

#include "span_trace.h"
#include "workloads.h"

namespace {

std::atomic<uint64_t> g_allocs{0};

}  // namespace

// Counting allocator: every heap allocation in the process, for
// net.allocs_per_pkt.
void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

uint64_t AllocationCount() { return g_allocs.load(std::memory_order_relaxed); }

namespace {

// A run always measures at least this many windows: host-time metrics are
// medians over windows and never rest on one.
constexpr int kMinWindows = 5;
constexpr int kMaxWindows = 256;
// Seed-sensitivity probe: two short windows at seeds s and s+1.
constexpr double kProbeScale = 1.0 / 16;
// Spans of the measured span written to the Chrome trace file (the first
// traced window's set-up calls are written too).
constexpr size_t kMaxTraceSpans = 50'000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out = ".";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "norman_perfbench: %s\nusage: norman_perfbench --workload "
               "NAME --seed N --seconds S --trace 0|1 [--out DIR]\n",
               why);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a.trace = std::atoi(v);
    } else if (flag == "--out") {
      a.out = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    Usage("unknown workload");
  }
  if (a.seconds <= 0 || (a.trace != 0 && a.trace != 1)) Usage("bad value");
  return a;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// The per-layer metrics and their units, in report order. Every workload
// reports every one of them.
const std::vector<std::pair<std::string, const char*>>& LayerUnits() {
  static const std::vector<std::pair<std::string, const char*>> units = {
      {"sim.events_per_pkt", "events/pkt"},
      {"sim.batch_mean", "events/batch"},
      {"sim.run_cpu_ns_per_pkt", "ns/pkt"},
      {"sim.raw_pkts_per_cpu_s", "pkts/s"},
      {"net.allocs_per_pkt", "allocs/pkt"},
      {"net.pkt_pool_hit_frac", "ratio"},
      {"net.parse_ns", "ns"},
      {"net.csum_verify_ns_per_kb", "ns/KiB"},
      {"nic.dma_per_pkt", "dma/pkt"},
      {"nic.pipeline_busy_frac", "ratio"},
      {"nic.stages_busy_ns_per_pkt", "ns/pkt"},
      {"nic.wire_busy_frac", "ratio"},
      {"nic.fastpath_hit_frac", "ratio"},
      {"nic.fastpath_invalidations", "count"},
      {"nic.fastpath_uncacheable_frac", "ratio"},
      {"nic.tx_ring_hw", "slots"},
      {"nic.rx_ring_hw", "slots"},
      {"nic.drops_per_mpkt.filter_deny", "drops/Mpkt"},
      {"nic.drops_per_mpkt.ring_full", "drops/Mpkt"},
      {"nic.drops_per_mpkt.sched_overflow", "drops/Mpkt"},
      {"nic.drops_per_mpkt.policy", "drops/Mpkt"},
      {"nic.sram_peak_kib", "KiB"},
      {"nic.lane_max_share", "ratio"},
      {"nic.tenant_share_err", "ratio"},
      {"dataplane.filter_exec_ns", "ns"},
      {"dataplane.filter_denied_pkts", "count"},
      {"dataplane.stage_filter_p50_ns", "ns"},
      {"overlay.instr_per_pkt", "instr/pkt"},
      {"overlay.exec_ns", "ns"},
      {"kernel.connect_cpu_us", "us"},
      {"kernel.close_cpu_us", "us"},
      {"kernel.rule_update_cpu_us", "us"},
      {"kernel.configure_cpu_us", "us"},
      {"kernel.notify_drained_per_pkt", "notify/pkt"},
      {"kernel.core_busy_ns_per_pkt", "ns/pkt"},
      {"norman.send_cpu_ns", "ns"},
      {"norman.recv_cpu_ns_per_frame", "ns"},
      {"norman.recv_batch_mean", "frames/call"},
      {"norman.send_fail_frac", "ratio"},
      {"workload.harness_cpu_frac", "ratio"},
      {"common.trace_overhead_frac", "ratio"},
      {"common.host_ref_ms", "ms"},
  };
  return units;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

// Host-speed calibration. The benchmark runs on shared VMs whose speed can
// drift by ~1.7x over tens of seconds (most likely other tenants contending
// for the cores and caches), so raw CPU seconds from two sets of runs are
// not comparable.
// Every window therefore times a fixed reference kernel right before and
// right after its measured span, and host-time metrics are scaled to a host
// on which that kernel takes kRefNominalNs. The kernel is benchmark-owned
// and never changes, so a faster Norman still reads as faster.
constexpr int kRefIterations = 2'000'000;
constexpr double kRefNominalNs = 16e6;

constexpr size_t kRefTableEntries = 1 << 19;  // 4 MiB

// The table has its own mapping without transparent huge pages, so it adds
// the same 4 MiB to host_rss_mib, and the same TLB behaviour to the
// kernel's timing, in every process.
uint64_t* RefTable() {
  static uint64_t* const table = [] {
    const size_t bytes = kRefTableEntries * sizeof(uint64_t);
    void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) {
      std::perror("norman_perfbench: mmap");
      std::exit(1);
    }
    (void)madvise(p, bytes, MADV_NOHUGEPAGE);
    auto* t = static_cast<uint64_t*>(p);
    std::fill_n(t, kRefTableEntries, uint64_t{1});
    return t;
  }();
  return table;
}

// Dependent loads and stores over the table plus integer mixing. Of the
// kernels tried (32 KiB to 16 MiB tables, pure ALU), scaling by this one
// kept the spread of run medians lowest in both quiet and noisy spells of
// the host.
double RefCpuNs() {
  uint64_t* const table = RefTable();
  constexpr size_t mask = kRefTableEntries - 1;
  uint64_t x = 0x12345;
  const int64_t t0 = CpuNs();
  for (int i = 0; i < kRefIterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    uint64_t& slot = table[(x ^ table[x & mask]) & mask];
    slot += x;
  }
  const int64_t t1 = CpuNs();
  if (table[x & mask] == 42) std::fprintf(stderr, " ");  // keep the work
  return static_cast<double>(t1 - t0);
}

// Host-speed scale of a window: >1 when the host ran slower than nominal.
double Slowdown(const WindowResult& w) {
  return w.ref_cpu_ns > 0 ? w.ref_cpu_ns / kRefNominalNs : 1.0;
}

double RawPktsPerCpuS(const WindowResult& w) {
  return w.measure_cpu_s > 0
             ? static_cast<double>(w.traversals) / w.measure_cpu_s
             : 0.0;
}

// NIC traversals per CPU second of a nominal-speed host.
double PktsPerCpuS(const WindowResult& w) {
  return RawPktsPerCpuS(w) * Slowdown(w);
}

double SetupS(const WindowResult& w) { return w.setup_cpu_s / Slowdown(w); }

// Everything one invocation accumulates across its windows.
struct Run {
  std::vector<WindowResult> plain;
  std::vector<WindowResult> traced;
  SpanTrace kept;  // the first traced window's spans, written at the end
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Account(const WindowResult& w, const char* mode) {
    attempted += w.ops_attempted;
    failed += w.ops_failed;
    for (const auto& e : w.errors) {
      std::fprintf(stderr, "FAIL %s window: %s\n", mode, e.c_str());
    }
    if (w.ops_failed != 0) correct = false;
    std::fprintf(stderr,
                 "%s window: setup %.4f cpu-s, %" PRIu64
                 " pkts in %.4f cpu-s (%.0f pkts/s raw, %.0f scaled), "
                 "reference kernel %.2f ms, fingerprint %016" PRIx64 "\n",
                 mode, w.setup_cpu_s, w.traversals, w.measure_cpu_s,
                 RawPktsPerCpuS(w), PktsPerCpuS(w), w.ref_cpu_ns / 1e6,
                 w.fingerprint);
  }
};

// Windows until the time budget is spent (at least kMinWindows of each
// kind); traced runs alternate untraced and traced windows.
void RunWindows(const Args& args, Run& run) {
  SpanTrace trace;
  const int64_t t0 = WallNs();
  const auto budget_ns = static_cast<int64_t>(args.seconds * 1e9);
  for (int i = 0; i < kMaxWindows; ++i) {
    const auto done = static_cast<int>(run.plain.size() + run.traced.size());
    if (done >= kMinWindows * (args.trace + 1) && WallNs() - t0 >= budget_ns) {
      break;
    }
    const bool traced = args.trace == 1 && i % 2 == 1;
    trace.Clear();
    trace.set_enabled(traced);
    WindowResult w = RunWindow(args.workload, args.seed, &trace, RefCpuNs);
    run.Account(w, traced ? "traced" : "plain");
    if (traced && run.traced.empty()) run.kept = trace;
    (traced ? run.traced : run.plain).push_back(std::move(w));
    // Hand the freed world's pages back, so every window starts from the
    // same heap and host_rss_mib does not drift with the window count.
    malloc_trim(0);
  }
}

// Every window (traced ones too) must agree exactly, and another seed must
// change the result.
void CheckDeterminism(const Args& args, Run& run) {
  const uint64_t fp = run.plain.front().fingerprint;
  for (const auto* set : {&run.plain, &run.traced}) {
    for (const auto& w : *set) {
      if (w.fingerprint == fp) continue;
      std::fprintf(stderr,
                   "FAIL determinism: window fingerprint %016" PRIx64
                   " != %016" PRIx64
                   " (state leaked between windows, or an observer is not "
                   "neutral)\n",
                   w.fingerprint, fp);
      run.correct = false;
    }
  }
  SpanTrace off;
  const WindowResult a =
      RunWindow(args.workload, args.seed, &off, RefCpuNs, kProbeScale);
  const WindowResult b =
      RunWindow(args.workload, args.seed + 1, &off, RefCpuNs, kProbeScale);
  run.Account(a, "probe");
  run.Account(b, "probe");
  if (a.fingerprint == b.fingerprint) {
    std::fprintf(stderr,
                 "FAIL determinism: seeds %" PRIu64 " and %" PRIu64
                 " gave identical results\n",
                 args.seed, args.seed + 1);
    run.correct = false;
  }
}

std::vector<Metric> EndToEnd(const Args& args, Run& run) {
  std::vector<double> pps;
  std::vector<double> setup;
  std::vector<double> rss;
  for (const auto& w : run.plain) {
    pps.push_back(PktsPerCpuS(w));
    setup.push_back(SetupS(w));
    rss.push_back(w.rss_mib);
  }
  // Virtual metrics are identical in every window (CheckDeterminism).
  const WindowResult& v = run.plain.front();
  std::printf("workload %s seed %" PRIu64 ": %zu windows, rtt samples %" PRIu64
              " (%" PRIu64 " beyond p99.9)\n",
              args.workload.c_str(), args.seed, run.plain.size(),
              v.rtt_samples, v.rtt_beyond_p999);
  if (v.rtt_beyond_p999 < 10) {
    std::fprintf(stderr, "FAIL: fewer than 10 samples beyond p99.9\n");
    run.correct = false;
  }
  return {
      {"sim_pkts_per_cpu_s", Median(pps), "pkts/s"},
      {"setup_s", Median(setup), "s"},
      {"host_rss_mib", Median(rss), "MiB"},
      {"virt_rtt_p50_us", v.rtt_p50_us, "us"},
      {"virt_rtt_p999_us", v.rtt_p999_us, "us"},
      {"virt_goodput_gbps", v.goodput_gbps, "Gb/s"},
      {"ops_delivered_frac", v.delivered_frac, "ratio"},
      {"virt_host_ns_per_pkt", v.host_ns_per_pkt, "ns"},
  };
}

// Medians over the traced windows, plus the tracing overhead against the
// untraced windows of the same run.
std::vector<Metric> PerLayer(Run& run) {
  std::map<std::string, std::vector<double>> values;
  std::vector<double> pps_plain;
  std::vector<double> pps_traced;
  for (const auto& w : run.plain) pps_plain.push_back(PktsPerCpuS(w));
  for (const auto& w : run.traced) {
    for (const auto& [k, x] : w.exact) values[k].push_back(x);
    for (const auto& [k, x] : w.traced) values[k].push_back(x);
    values["common.host_ref_ms"].push_back(w.ref_cpu_ns / 1e6);
    values["sim.raw_pkts_per_cpu_s"].push_back(RawPktsPerCpuS(w));
    pps_traced.push_back(PktsPerCpuS(w));
  }
  values["common.trace_overhead_frac"] = {Median(pps_traced) /
                                          Median(pps_plain)};
  std::vector<Metric> metrics;
  for (const auto& [name, unit] : LayerUnits()) {
    const auto it = values.find(name);
    if (it == values.end()) {
      std::fprintf(stderr, "FAIL: per-layer metric %s missing\n",
                   name.c_str());
      run.correct = false;
      continue;
    }
    metrics.push_back({name, Median(it->second), unit});
  }
  return metrics;
}

std::FILE* OpenOutput(const Args& args, const char* suffix, Run& run) {
  const std::string path = args.out + "/" + args.workload + suffix;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    run.correct = false;
  }
  return f;
}

// <workload>.layers.json: the per-layer summary; <workload>.trace.json:
// one traced window's spans as Chrome trace events.
void WriteTraceOutputs(const Args& args, const std::vector<Metric>& layers,
                       Run& run) {
  if (std::FILE* f = OpenOutput(args, ".layers.json", run)) {
    std::fprintf(f,
                 "{\"workload\": \"%s\", \"seed\": %" PRIu64
                 ", \"traced_windows\": %zu, \"layers\": {",
                 args.workload.c_str(), args.seed, run.traced.size());
    for (size_t i = 0; i < layers.size(); ++i) {
      std::fprintf(f, "%s\n  \"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                   i == 0 ? "" : ",", layers[i].name.c_str(), layers[i].value,
                   layers[i].unit);
    }
    std::fprintf(f, "\n}}\n");
    std::fclose(f);
  }
  if (std::FILE* f = OpenOutput(args, ".trace.json", run)) {
    // Set-up calls (everything before the first simulator slice), then
    // the start of the measured span.
    const SpanTrace& t = run.kept;
    const auto setup_end = static_cast<size_t>(
        std::max(0, t.Find("Simulator::RunUntil")));
    const auto measure = static_cast<size_t>(std::max(0, t.Find("measure")));
    t.WriteChromeJson(f, "norman_perfbench " + args.workload,
                      {{0, setup_end}, {measure, measure + kMaxTraceSpans}});
    std::fclose(f);
  }
}

int Main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  Run run;
  RunWindows(args, run);
  CheckDeterminism(args, run);
  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = EndToEnd(args, run);
  } else {
    metrics = PerLayer(run);
    WriteTraceOutputs(args, metrics, run);
  }
  const bool ok = run.correct && run.failed == 0;
  PrintResult(ok, run.attempted, run.failed, metrics);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

// The benchmark's three workloads, each one a fresh Norman world built
// through the public API, driven single-threaded in virtual time, and
// checked for correctness. One call of RunWindow is one "window": set-up
// (policy, tenants, every connection, warm-up), a measured span, and a
// drain that waits for every measured payload to come back.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "span_trace.h"

namespace perfbench {

// Workload names accepted by RunWindow, in documentation order.
const std::vector<std::string>& WorkloadNames();

struct WindowResult {
  // ---- host time (noisy; the caller takes medians over windows) ----------
  double setup_cpu_s = 0;    // TestBed construction -> ready
  double measure_cpu_s = 0;  // measured span only
  uint64_t traversals = 0;   // nic.tx.seen + nic.rx.seen in the measured span
  double ref_cpu_ns = 0;     // mean CPU ns of the calibration runs
  double rss_mib = 0;        // process RSS at the end of the measured span

  // ---- virtual time (exact at a fixed seed) --------------------------------
  double rtt_p50_us = 0;
  double rtt_p999_us = 0;
  uint64_t rtt_samples = 0;
  uint64_t rtt_beyond_p999 = 0;
  double goodput_gbps = 0;
  double delivered_frac = 0;
  double host_ns_per_pkt = 0;

  // ---- correctness ---------------------------------------------------------
  uint64_t ops_attempted = 0;  // payloads handed to the dataplane
  uint64_t ops_failed = 0;     // lost, corrupted, duplicated or misdelivered
  std::vector<std::string> errors;

  // FNV-1a over every virtual metric and every exact world-owned count.
  // Windows of one workload and seed must agree on it.
  uint64_t fingerprint = 0;

  // Per-layer values. `exact` ones are deterministic counts and ratios
  // (available in every window); `traced` ones need the traced mode.
  std::map<std::string, double> exact;
  std::map<std::string, double> traced;
};

// Runs one window of `workload` at `seed`. With `trace` enabled the window
// also records host-clock spans around every layer call, turns on the
// Profiler and PacketTracer, and replays captured frames through the
// parse/checksum/filter/overlay entry points. `calibrate` runs fixed
// reference work and returns its CPU ns; it is called right before and
// right after the measured span (outside its CPU time). `span_scale`
// shortens the virtual measured span (the seed-sensitivity probe uses
// 1/16).
WindowResult RunWindow(const std::string& workload, uint64_t seed,
                       SpanTrace* trace,
                       const std::function<double()>& calibrate,
                       double span_scale = 1.0);

// Heap allocations made by the process so far (counted by main.cc's global
// operator new).
uint64_t AllocationCount();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

// Extension experiment — flow completion time under a datacenter mix.
//
// The paper's motivation (§1) is hosts running mixed workloads (web
// servers, big data, ML) on shared NICs; the canonical pain is mice flows
// (RPCs) stuck behind elephants (bulk transfers) — Facebook-style traffic
// [43]. This bench runs a heavy-tailed mix on the full system: Poisson-
// arriving mice (2-8 KB) from one tenant versus continuous elephants from
// another, and reports mice flow-completion-time percentiles under FIFO
// (what raw bypass gives you) and under on-NIC WFQ keyed on the kernel-
// attached owner (what KOPI adds).
#include <cstdio>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/dataplane/qdisc.h"
#include "src/nic/fifo_scheduler.h"
#include "src/norman/socket.h"
#include "src/workload/generators.h"
#include "src/workload/testbed.h"

namespace {

using namespace norman;  // NOLINT

struct FctResult {
  LatencyHistogram mice_fct;
  uint64_t mice_flows = 0;
  uint64_t elephant_bytes = 0;
};

FctResult RunMix(bool use_wfq, uint64_t seed) {
  workload::TestBedOptions opts;
  opts.nic.cost.link_rate_bps = 10 * kGbps;
  workload::TestBed bed(opts);
  auto& k = bed.kernel();
  k.processes().AddUser(1001, "rpc");
  k.processes().AddUser(1002, "bulk");
  const auto pid_mice = *k.processes().Spawn(1001, "frontend");
  const auto pid_elephant = *k.processes().Spawn(1002, "backup");

  if (use_wfq) {
    auto wfq = std::make_unique<dataplane::WfqQdisc>(
        dataplane::ClassifyByUid({{1001, 1}, {1002, 2}}));
    wfq->SetWeight(1, 4.0);
    wfq->SetWeight(2, 1.0);
    (void)k.SetQdisc(kernel::kRootUid, std::move(wfq));
  } else {
    (void)k.SetQdisc(kernel::kRootUid,
                     std::make_unique<nic::FifoScheduler>());
  }

  const auto peer = net::Ipv4Address::FromOctets(10, 0, 0, 2);

  // Elephant: saturates its share continuously.
  auto elephant = Socket::Connect(&k, pid_elephant, peer, 9000, {});
  constexpr Nanos kRunFor = 30 * kMillisecond;
  workload::BulkSender bulk(&bed.sim(), &*elephant, 1400,
                            2 * kMicrosecond);
  bulk.Start(0, kRunFor);

  // Mice: Poisson arrivals (mean 100us apart), each flow 2-8 KB sent as a
  // burst of 1KB frames on its own connection.
  FctResult result;
  struct MouseFlow {
    Socket sock;
    Nanos started;
    uint32_t frames_left;
  };
  // Keyed by the flow's local port (visible in egress frames).
  auto flows = std::make_shared<std::map<uint16_t, MouseFlow>>();
  auto rng = std::make_shared<Rng>(seed);

  bed.SetEgressHook([&result, flows, &bed](const net::Packet& p) {
    const net::ParsedPacket* parsed = p.parsed();
    if (!parsed || !parsed->flow() || parsed->flow()->dst_port != 8000) {
      if (parsed && parsed->flow() && parsed->flow()->dst_port == 9000) {
        result.elephant_bytes += p.size();
      }
      return;
    }
    const auto it = flows->find(parsed->flow()->src_port);
    if (it == flows->end()) {
      return;
    }
    if (--it->second.frames_left == 0) {
      result.mice_fct.Add(p.meta().completed_at - it->second.started);
    }
  });
  bed.DiscardEgress();

  std::function<void()> spawn_mouse = [&, flows, rng] {
    if (bed.sim().Now() >= kRunFor) {
      return;
    }
    auto sock = Socket::Connect(&k, pid_mice, peer, 8000, {});
    if (sock.ok()) {
      const uint32_t frames = 2 + static_cast<uint32_t>(rng->NextBounded(7));
      const uint16_t port = sock->tuple().src_port;
      MouseFlow flow{std::move(*sock), bed.sim().Now(), frames};
      const std::vector<uint8_t> payload(958, 0x22);
      for (uint32_t i = 0; i < frames; ++i) {
        (void)flow.sock.Send(payload);
      }
      flows->emplace(port, std::move(flow));
      ++result.mice_flows;
    }
    bed.sim().ScheduleAfter(
        std::max<Nanos>(1, static_cast<Nanos>(rng->NextExponential(
                               100 * kMicrosecond))),
        spawn_mouse);
  };
  bed.sim().ScheduleAfter(0, spawn_mouse);
  bed.sim().RunUntil(kRunFor + 20 * kMillisecond);
  return result;
}

}  // namespace

int main() {
  std::printf("=====================================================\n");
  std::printf("Extension: mice FCT vs elephants (heavy-tailed mix)\n");
  std::printf("(Poisson mice 2-8KB @ ~10k flows/s vs bulk elephant;\n");
  std::printf(" 10G link, full system)\n");
  std::printf("=====================================================\n\n");
  std::printf("%-22s %8s %12s %12s %12s %14s\n", "scheduler", "flows",
              "FCT p50", "FCT p99", "FCT max", "elephant");
  for (const bool wfq : {false, true}) {
    const auto r = RunMix(wfq, /*seed=*/11);
    std::printf("%-22s %8llu %12s %12s %12s %11.2f Gb\n",
                wfq ? "KOPI wfq (owner 4:1)" : "fifo (bypass)",
                static_cast<unsigned long long>(r.mice_flows),
                FormatNanos(r.mice_fct.p50()).c_str(),
                FormatNanos(r.mice_fct.p99()).c_str(),
                FormatNanos(r.mice_fct.max()).c_str(),
                // Bytes accrue through the post-run drain window too.
                AchievedBps(r.elephant_bytes, 50 * kMillisecond) / 1e9);
  }
  std::printf(
      "\nUnder FIFO the elephant's standing queue inflates every mouse's\n"
      "completion time; WFQ by kernel-attached owner isolates the mice\n"
      "(orders of magnitude better tail FCT) while the elephant still\n"
      "consumes the leftover bandwidth.\n");
  return 0;
}

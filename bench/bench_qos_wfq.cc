// E4 — QoS enforcement with on-NIC WFQ (§2 "QoS", §4.4 qdisc overlays).
//
// Alice deprioritizes the game Bob and Charlie play over SSH sessions with
// ephemeral ports. The game traffic is classified by the *owning cgroup*
// (the kernel moved the game processes into /games), which no port-based
// policy could do. Full-system run: real sockets, real NIC pipeline, real
// WFQ dequeued onto a rate-limited wire.
//
// Series reported (paper-figure shape): achieved share of a congested link
// per tenant class, under (a) raw bypass FIFO (no policy possible) and
// (b) KOPI WFQ with 8:1 productive:game weights, across several weight
// settings.
#include <cstdio>

#include "src/common/stats.h"
#include "src/norman/socket.h"
#include "src/tools/tools.h"
#include "src/workload/generators.h"
#include "src/workload/testbed.h"

namespace {

using namespace norman;  // NOLINT

struct RunResult {
  uint64_t productive_bytes = 0;
  uint64_t game_bytes = 0;
};

// Two tenants saturate a 10G (slowed) link; returns achieved egress bytes.
RunResult RunTenants(bool use_wfq, double productive_weight,
                     double game_weight) {
  workload::TestBedOptions opts;
  opts.nic.cost.link_rate_bps = 10 * kGbps;  // congested link
  workload::TestBed bed(opts);
  auto& k = bed.kernel();
  k.processes().AddUser(1001, "bob");
  k.processes().AddUser(1002, "charlie");
  const auto games_cg = *k.processes().CreateCgroup("/games");

  const auto pid_web = *k.processes().Spawn(1001, "webserver");
  const auto pid_game1 = *k.processes().Spawn(1001, "game");
  const auto pid_game2 = *k.processes().Spawn(1002, "game");
  (void)k.processes().MoveToCgroup(pid_game1, games_cg);
  (void)k.processes().MoveToCgroup(pid_game2, games_cg);

  if (use_wfq) {
    char spec[128];
    std::snprintf(spec, sizeof(spec),
                  "qdisc replace dev nic0 root wfq cgroup 1:%.0f cgroup %u:%.0f",
                  productive_weight, games_cg, game_weight);
    const Status s = tools::TcReplace(&k, kernel::kRootUid, spec);
    if (!s.ok()) {
      std::fprintf(stderr, "tc failed: %s\n", s.ToString().c_str());
      return {};
    }
  }

  const auto peer = net::Ipv4Address::FromOctets(10, 0, 0, 2);
  auto web = Socket::Connect(&k, pid_web, peer, 443, {});
  auto g1 = Socket::Connect(&k, pid_game1, peer, 27015, {});
  auto g2 = Socket::Connect(&k, pid_game2, peer, 27016, {});
  if (!web.ok() || !g1.ok() || !g2.ok()) {
    return {};
  }

  // All three offer far more than the link can carry.
  workload::BulkSender s_web(&bed.sim(), &*web, 1400, 2 * kMicrosecond);
  workload::BulkSender s_g1(&bed.sim(), &*g1, 1400, 2 * kMicrosecond);
  workload::BulkSender s_g2(&bed.sim(), &*g2, 1400, 2 * kMicrosecond);
  constexpr Nanos kRunFor = 20 * kMillisecond;
  s_web.Start(0, kRunFor);
  s_g1.Start(0, kRunFor);
  s_g2.Start(0, kRunFor);

  RunResult result;
  bed.SetEgressHook([&](const net::Packet& p) {
    const net::ParsedPacket* parsed = p.parsed();
    if (!parsed || !parsed->flow()) {
      return;
    }
    if (parsed->flow()->dst_port == 443) {
      result.productive_bytes += p.size();
    } else {
      result.game_bytes += p.size();
    }
  });
  bed.DiscardEgress();
  bed.sim().RunUntil(kRunFor);
  return result;
}

}  // namespace

int main() {
  std::printf("=====================================================\n");
  std::printf("E4: on-NIC WFQ shapes multi-tenant traffic by cgroup\n");
  std::printf("=====================================================\n\n");

  const auto fifo = RunTenants(/*use_wfq=*/false, 0, 0);
  const double fifo_total =
      static_cast<double>(fifo.productive_bytes + fifo.game_bytes);
  std::printf("bypass/FIFO (no policy expressible):\n");
  std::printf("  productive %5.1f%%   game %5.1f%%   (game's 2 senders win "
              "by offered load)\n\n",
              100.0 * static_cast<double>(fifo.productive_bytes) / fifo_total,
              100.0 * static_cast<double>(fifo.game_bytes) / fifo_total);

  std::printf("KOPI WFQ by cgroup, weight sweep:\n");
  std::printf("%-18s %16s %12s %14s\n", "weights (prod:game)",
              "productive share", "game share", "achieved ratio");
  for (const double w : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    const auto r = RunTenants(true, w, 1.0);
    const double total =
        static_cast<double>(r.productive_bytes + r.game_bytes);
    if (total == 0 || r.game_bytes == 0) {
      std::printf("%-18.0f (no traffic)\n", w);
      continue;
    }
    std::printf("%10.0f:1 %15.1f%% %11.1f%% %13.2f:1\n", w,
                100.0 * static_cast<double>(r.productive_bytes) / total,
                100.0 * static_cast<double>(r.game_bytes) / total,
                static_cast<double>(r.productive_bytes) /
                    static_cast<double>(r.game_bytes));
  }
  std::printf(
      "\nPaper claim reproduced: with kernel bypass no work-conserving\n"
      "shaping policy is enforceable; with KOPI the NIC classifies by the\n"
      "kernel-attached cgroup (ports are ephemeral!) and achieved shares\n"
      "track the configured weights.\n");
  return 0;
}

// Multi-tenant QoS: the §2 scenario, end to end.
//
// Alice administers a server where Bob and Charlie run productive services
// AND sneak in an online game over ephemeral ports. She moves the game
// processes into a /games cgroup and installs an on-NIC WFQ qdisc with
// norman-tc: productive traffic gets weight 8, the game weight 1. The game
// cannot evade this — classification happens in the NIC, keyed on the
// cgroup the kernel stamped into the flow table, not on ports.
#include <cstdio>

#include "src/common/stats.h"
#include "src/norman/socket.h"
#include "src/tools/tools.h"
#include "src/workload/generators.h"
#include "src/workload/testbed.h"

using namespace norman;  // NOLINT

int main() {
  workload::TestBedOptions options;
  options.nic.cost.link_rate_bps = 10 * kGbps;  // a congested uplink
  workload::TestBed bed(options);
  auto& k = bed.kernel();

  // Users, cgroups, processes.
  k.processes().AddUser(1001, "bob");
  k.processes().AddUser(1002, "charlie");
  const auto games = *k.processes().CreateCgroup("/games");
  const auto pid_db = *k.processes().Spawn(1001, "postgres");
  const auto pid_web = *k.processes().Spawn(1002, "nginx");
  const auto pid_game_b = *k.processes().Spawn(1001, "shootmania");
  const auto pid_game_c = *k.processes().Spawn(1002, "shootmania");
  (void)k.processes().MoveToCgroup(pid_game_b, games);
  (void)k.processes().MoveToCgroup(pid_game_c, games);

  // Alice (root) shapes: cgroup 1 (root) weight 8, /games weight 1.
  char tc_spec[128];
  std::snprintf(tc_spec, sizeof(tc_spec),
                "qdisc replace dev nic0 root wfq cgroup 1:8 cgroup %u:1",
                games);
  if (const Status s = tools::TcReplace(&k, kernel::kRootUid, tc_spec);
      !s.ok()) {
    std::fprintf(stderr, "tc: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("alice# norman-tc %s\n%s\n", tc_spec,
              tools::TcShow(k).c_str());

  // Everyone floods the uplink.
  const auto peer = net::Ipv4Address::FromOctets(10, 0, 0, 2);
  auto db = Socket::Connect(&k, pid_db, peer, 5432, {});
  auto web = Socket::Connect(&k, pid_web, peer, 443, {});
  auto gb = Socket::Connect(&k, pid_game_b, peer, 27015, {});
  auto gc = Socket::Connect(&k, pid_game_c, peer, 27016, {});

  constexpr Nanos kRunFor = 20 * kMillisecond;
  workload::BulkSender s1(&bed.sim(), &*db, 1400, 2 * kMicrosecond);
  workload::BulkSender s2(&bed.sim(), &*web, 1400, 2 * kMicrosecond);
  workload::BulkSender s3(&bed.sim(), &*gb, 1400, 2 * kMicrosecond);
  workload::BulkSender s4(&bed.sim(), &*gc, 1400, 2 * kMicrosecond);
  s1.Start(0, kRunFor);
  s2.Start(0, kRunFor);
  s3.Start(0, kRunFor);
  s4.Start(0, kRunFor);

  uint64_t productive_bytes = 0, game_bytes = 0;
  bed.SetEgressHook([&](const net::Packet& p) {
    const net::ParsedPacket* parsed = p.parsed();
    if (!parsed || !parsed->flow()) {
      return;
    }
    const uint16_t port = parsed->flow()->dst_port;
    (port == 27015 || port == 27016 ? game_bytes : productive_bytes) +=
        p.size();
  });
  bed.DiscardEgress();
  bed.sim().RunUntil(kRunFor);

  const double total = static_cast<double>(productive_bytes + game_bytes);
  std::printf("after %s of congestion on the 10G uplink:\n",
              FormatNanos(kRunFor).c_str());
  std::printf("  productive (postgres+nginx): %5.1f%%  (%s)\n",
              100.0 * static_cast<double>(productive_bytes) / total,
              FormatBps(AchievedBps(productive_bytes, kRunFor)).c_str());
  std::printf("  game (/games cgroup):        %5.1f%%  (%s)\n",
              100.0 * static_cast<double>(game_bytes) / total,
              FormatBps(AchievedBps(game_bytes, kRunFor)).c_str());
  std::printf("  achieved ratio %.2f:1 against configured 8:1\n",
              static_cast<double>(productive_bytes) /
                  static_cast<double>(game_bytes));

  std::printf("\nalice# norman-netstat\n%s", tools::Netstat(k).c_str());
  return 0;
}

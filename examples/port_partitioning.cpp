// Port partitioning with owner-match rules — §2's iptables scenario.
//
// Policy: only Bob's postgres may send or receive on 5432; only Charlie's
// mysql on 3306. Expressed exactly like iptables cmd-owner/uid-owner rules
// and compiled to the NIC overlay, where a rogue process — even one using
// kernel bypass — cannot route around it.
#include <cstdio>

#include "src/norman/socket.h"
#include "src/tools/tools.h"
#include "src/workload/testbed.h"

using namespace norman;  // NOLINT

int main() {
  workload::TestBed bed;
  auto& k = bed.kernel();
  k.processes().AddUser(1001, "bob");
  k.processes().AddUser(1002, "charlie");
  const auto pid_pg = *k.processes().Spawn(1001, "postgres");
  const auto pid_rogue = *k.processes().Spawn(1002, "cryptominer");

  // Root installs the partitioning policy.
  const char* rules[] = {
      "-A OUTPUT -p udp --dport 5432 -m owner --uid-owner 1001 "
      "--cmd-owner postgres -j ACCEPT",
      "-A OUTPUT -p udp --dport 5432 -j DROP",
      "-A OUTPUT -p udp --dport 3306 -m owner --uid-owner 1002 "
      "--cmd-owner mysql -j ACCEPT",
      "-A OUTPUT -p udp --dport 3306 -j DROP",
  };
  for (const char* r : rules) {
    std::printf("root# norman-iptables %s\n", r);
    const auto s = tools::IptablesAppend(&k, kernel::kRootUid, r);
    if (!s.ok()) {
      std::fprintf(stderr, "  -> %s\n", s.status().ToString().c_str());
      return 1;
    }
  }

  // A non-root user cannot change the policy.
  const auto denied = tools::IptablesAppend(
      &k, /*caller=*/1002, "-A OUTPUT -p udp --dport 5432 -j ACCEPT");
  std::printf("\ncharlie# norman-iptables -A OUTPUT ... -j ACCEPT\n  -> %s\n",
              denied.status().ToString().c_str());

  // Traffic: postgres legitimately, the rogue process trying both ports.
  const auto peer = net::Ipv4Address::FromOctets(10, 0, 0, 2);
  auto pg = Socket::Connect(&k, pid_pg, peer, 5432, {});
  auto rogue = Socket::Connect(&k, pid_rogue, peer, 5432, {});
  for (int i = 0; i < 20; ++i) {
    (void)pg->Send("INSERT INTO t VALUES (1)");
    (void)rogue->Send("exfiltrate via 5432");
  }
  bed.sim().Run();

  uint64_t legit = 0, violations = 0;
  for (const auto& frame : bed.egress()) {
    const net::ParsedPacket* parsed = frame->parsed();
    if (parsed && parsed->flow() && parsed->flow()->dst_port == 5432) {
      (parsed->flow()->src_port == pg->tuple().src_port ? legit
                                                        : violations)++;
    }
  }
  std::printf("\non the wire: %llu legitimate postgres frames, "
              "%llu rogue frames\n",
              static_cast<unsigned long long>(legit),
              static_cast<unsigned long long>(violations));
  std::printf("NIC filter drops: %llu\n\n",
              static_cast<unsigned long long>(bed.nic().stats().tx_dropped()));

  std::printf("root# norman-iptables -L -v\n%s",
              tools::IptablesList(k).c_str());
  return violations == 0 ? 0 : 1;
}

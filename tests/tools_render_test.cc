// Golden-string tests for the tool renderers. The scenario is fixed and
// virtual time is deterministic, so the full rendered output is pinned
// byte-for-byte: any change to the stat or iptables rendering (or to the
// dataplane timing feeding it) must update these goldens deliberately.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/net/packet_builder.h"
#include "src/net/packet_pool.h"
#include "src/norman/socket.h"
#include "src/tools/tools.h"
#include "src/workload/testbed.h"

namespace norman {
namespace {

constexpr auto kPeerIp = net::Ipv4Address::FromOctets(10, 0, 0, 2);

// Fixed traffic: 4 accepted UDP sends (echoed), 3 filtered sends, 2
// unmatched peer datagrams, 1 unparseable runt frame, on a NIC with
// `lanes` dataplane lanes.
std::unique_ptr<workload::TestBed> RunRenderWorld(uint16_t lanes) {
  workload::TestBedOptions opts;
  opts.echo = true;
  auto bed = std::make_unique<workload::TestBed>(opts);
  auto& k = bed->kernel();
  kernel::NicConfig cfg;
  cfg.shard_queues = lanes;
  EXPECT_TRUE(k.Configure(kernel::kRootUid, cfg).ok());
  k.processes().AddUser(1001, "alice");
  k.processes().AddUser(1002, "bob");
  const auto web_pid = *k.processes().Spawn(1001, "webapp");
  const auto batch_pid = *k.processes().Spawn(1002, "batch");

  EXPECT_TRUE(tools::IptablesAppend(&k, kernel::kRootUid,
                                    "-A OUTPUT -p udp --dport 7777 "
                                    "-j ACCEPT")
                  .ok());
  EXPECT_TRUE(tools::IptablesAppend(&k, kernel::kRootUid,
                                    "-A OUTPUT -p udp --dport 9999 -j DROP")
                  .ok());

  auto good = Socket::Connect(&k, web_pid, kPeerIp, 7777, {});
  auto bad = Socket::Connect(&k, batch_pid, kPeerIp, 9999, {});
  EXPECT_TRUE(good.ok());
  EXPECT_TRUE(bad.ok());
  const std::vector<uint8_t> payload(200, 0xab);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(good->Send(payload).ok());
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(bad->Send(payload).ok());
  }
  bed->sim().Run();
  Nanos t = bed->sim().Now();
  bed->InjectUdpFromPeer(1234, 4321, 64, t += kMicrosecond);
  bed->InjectUdpFromPeer(1234, 4321, 64, t += kMicrosecond);
  bed->InjectFromNetwork(net::MakePacket(std::vector<uint8_t>(6, 0xee)),
                         t += kMicrosecond);
  bed->sim().Run();
  return bed;
}

class RenderFixture : public ::testing::Test {
 protected:
  RenderFixture() : bed_(RunRenderWorld(/*lanes=*/1)) {}

  std::unique_ptr<workload::TestBed> bed_;
};

TEST_F(RenderFixture, NicStatGolden) {
  if (!telemetry::kHotStatsEnabled) {
    GTEST_SKIP() << "golden renders hot-tier volume counters, which compile "
                    "to no-ops at NORMAN_STATS_LEVEL=0";
  }
  const std::string got = tools::NicStat(bed_->kernel(), bed_->nic());
  const std::string want =
      "NIC statistics (virtual time 8.58us):\n"
      "  tx: seen 7, accepted 4, filtered 3, sched-drop 0, sw-fallback 0, "
      "wire bytes 968\n"
      "  rx: seen 7, accepted 4, filtered 0, unmatched 3, ring-overflow 0, "
      "sw-fallback 0\n"
      "  dma transfers 11, overlay instructions 94\n"
      "  drops by reason (owner-annotated):\n"
      "    tx filter_deny pid=101 (batch): 3\n"
      "  ddio: 72.7% hit (8/11), resident 6144 B of 4194304 B\n"
      "  sram: 1088 / 8388608 B  conntrack=192  flow_table=768  "
      "ring_state=128\n"
      "  utilization: wire 0.9%, pipeline 1.1%, dma 11.6%, kernel-core "
      "0.0%\n";
  EXPECT_EQ(got, want) << "---- actual ----\n" << got;
}

// Carved into 4 lanes, each lane has its own pipeline and DMA engine and
// the born lane's sit idle: the utilization line reports the busiest lane.
TEST(RenderTest, NicStatReportsBusiestLane) {
  const auto bed = RunRenderWorld(/*lanes=*/4);
  const std::string got = tools::NicStat(bed->kernel(), bed->nic());
  const std::string want =
      "  utilization: wire 0.9%, pipeline 0.8%, dma 7.5%, kernel-core 0.0%\n";
  EXPECT_NE(got.find(want), std::string::npos) << "---- actual ----\n"
                                                << got;
}

TEST_F(RenderFixture, NicStatDropsGolden) {
  const std::string got = tools::NicStatDrops(bed_->kernel(), bed_->nic());
  const std::string want =
      "Drop accounting (virtual time 8.58us):\n"
      "  reason                  tx        rx\n"
      "  filter_deny              3         0\n"
      "  total                    3         0\n"
      "  drops by reason (owner-annotated):\n"
      "    tx filter_deny pid=101 (batch): 3\n"
      "  kernel slow path: malformed 1, unmatched 2, sram_exhausted 0\n";
  EXPECT_EQ(got, want) << "---- actual ----\n" << got;
}

TEST_F(RenderFixture, IptablesListGolden) {
  const std::string got = tools::IptablesList(bed_->kernel());
  const std::string want =
      "Chain INPUT (policy ACCEPT, 7 default hits)\n"
      "Chain OUTPUT (policy ACCEPT, 0 default hits)\n"
      "  [0] ACCEPT -p udp --dport 7777:7777  [4 hits]\n"
      "  [1] DROP -p udp --dport 9999:9999  [3 hits]\n";
  EXPECT_EQ(got, want) << "---- actual ----\n" << got;
}

}  // namespace
}  // namespace norman

#include "src/dataplane/filter_engine.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/overlay/interpreter.h"
#include "src/overlay/verifier.h"
#include "tests/test_util.h"

namespace norman::dataplane {
namespace {

using net::Direction;
using net::IpProto;
using net::Ipv4Address;
using overlay::ConnMetadata;
using test::MakeTcpContext;
using test::MakeUdpContext;

nic::Verdict RunFilter(FilterEngine& engine, test::ContextBundle& bundle) {
  return engine.Process(bundle.packet, bundle.ctx).verdict;
}

TEST(FilterEngineTest, EmptyChainUsesDefaultPolicy) {
  FilterEngine accept(FilterAction::kAccept);
  FilterEngine drop(FilterAction::kDrop);
  auto pkt = MakeUdpContext(1000, 2000, Direction::kTx);
  EXPECT_EQ(RunFilter(accept, *pkt), nic::Verdict::kAccept);
  EXPECT_EQ(RunFilter(drop, *pkt), nic::Verdict::kDrop);
  EXPECT_EQ(accept.default_hits(), 1u);
}

TEST(FilterEngineTest, DstPortDropRule) {
  FilterEngine engine;
  FilterRule rule;
  rule.proto = IpProto::kUdp;
  rule.dst_port = PortRange{53, 53};
  rule.action = FilterAction::kDrop;
  ASSERT_TRUE(engine.AppendRule(rule).ok());

  auto dns = MakeUdpContext(1000, 53, Direction::kTx);
  auto web = MakeUdpContext(1000, 80, Direction::kTx);
  EXPECT_EQ(RunFilter(engine, *dns), nic::Verdict::kDrop);
  EXPECT_EQ(RunFilter(engine, *web), nic::Verdict::kAccept);
  EXPECT_EQ(engine.hit_counts()[0], 1u);
  EXPECT_EQ(engine.default_hits(), 1u);
}

TEST(FilterEngineTest, FirstMatchWins) {
  FilterEngine engine;
  FilterRule accept_dns;
  accept_dns.dst_port = PortRange{53, 53};
  accept_dns.action = FilterAction::kAccept;
  FilterRule drop_all_udp;
  drop_all_udp.proto = IpProto::kUdp;
  drop_all_udp.action = FilterAction::kDrop;
  ASSERT_TRUE(engine.AppendRule(accept_dns).ok());
  ASSERT_TRUE(engine.AppendRule(drop_all_udp).ok());

  auto dns = MakeUdpContext(1000, 53, Direction::kTx);
  auto other = MakeUdpContext(1000, 54, Direction::kTx);
  EXPECT_EQ(RunFilter(engine, *dns), nic::Verdict::kAccept);
  EXPECT_EQ(RunFilter(engine, *other), nic::Verdict::kDrop);
  EXPECT_EQ(engine.hit_counts()[0], 1u);
  EXPECT_EQ(engine.hit_counts()[1], 1u);
}

TEST(FilterEngineTest, OwnerUidMatch) {
  // §2 "Partitioning Ports": only Bob (uid 1001) may use port 5432.
  FilterEngine engine;
  FilterRule allow_bob;
  allow_bob.dst_port = PortRange{5432, 5432};
  allow_bob.owner_uid = 1001;
  allow_bob.action = FilterAction::kAccept;
  FilterRule deny_5432;
  deny_5432.dst_port = PortRange{5432, 5432};
  deny_5432.action = FilterAction::kDrop;
  ASSERT_TRUE(engine.AppendRule(allow_bob).ok());
  ASSERT_TRUE(engine.AppendRule(deny_5432).ok());

  auto bob = MakeUdpContext(40000, 5432, Direction::kTx,
                            ConnMetadata{1, 1001, 200, 1, 7});
  auto charlie = MakeUdpContext(40001, 5432, Direction::kTx,
                                ConnMetadata{2, 1002, 201, 1, 8});
  auto bob_other = MakeUdpContext(40002, 80, Direction::kTx,
                                  ConnMetadata{1, 1001, 200, 1, 7});
  EXPECT_EQ(RunFilter(engine, *bob), nic::Verdict::kAccept);
  EXPECT_EQ(RunFilter(engine, *charlie), nic::Verdict::kDrop);
  EXPECT_EQ(RunFilter(engine, *bob_other), nic::Verdict::kAccept);  // default
}

TEST(FilterEngineTest, OwnerCommMatch) {
  // cmd-owner: only processes named "postgres" (comm id 7) on 5432.
  FilterEngine engine;
  FilterRule allow_pg;
  allow_pg.dst_port = PortRange{5432, 5432};
  allow_pg.owner_comm = 7;
  allow_pg.action = FilterAction::kAccept;
  FilterRule deny;
  deny.dst_port = PortRange{5432, 5432};
  deny.action = FilterAction::kDrop;
  ASSERT_TRUE(engine.AppendRule(allow_pg).ok());
  ASSERT_TRUE(engine.AppendRule(deny).ok());

  auto pg = MakeUdpContext(1, 5432, Direction::kTx,
                           ConnMetadata{1, 1001, 200, 1, /*comm=*/7});
  auto rogue = MakeUdpContext(2, 5432, Direction::kTx,
                              ConnMetadata{2, 1001, 201, 1, /*comm=*/9});
  EXPECT_EQ(RunFilter(engine, *pg), nic::Verdict::kAccept);
  EXPECT_EQ(RunFilter(engine, *rogue), nic::Verdict::kDrop);
}

TEST(FilterEngineTest, DirectionScopedRules) {
  FilterEngine engine;
  FilterRule rx_only_drop;
  rx_only_drop.direction = Direction::kRx;
  rx_only_drop.dst_port = PortRange{9999, 9999};
  rx_only_drop.action = FilterAction::kDrop;
  ASSERT_TRUE(engine.AppendRule(rx_only_drop).ok());

  auto tx = MakeUdpContext(1, 9999, Direction::kTx);
  auto rx = MakeUdpContext(1, 9999, Direction::kRx);
  EXPECT_EQ(RunFilter(engine, *tx), nic::Verdict::kAccept);
  EXPECT_EQ(RunFilter(engine, *rx), nic::Verdict::kDrop);
}

TEST(FilterEngineTest, PrefixMatch) {
  FilterEngine engine;
  FilterRule drop_subnet;
  drop_subnet.src_ip = Ipv4Address::FromOctets(10, 0, 0, 0);
  drop_subnet.src_ip_prefix = 24;
  drop_subnet.action = FilterAction::kDrop;
  ASSERT_TRUE(engine.AppendRule(drop_subnet).ok());

  // test_util frames use 10.0.0.x sources.
  auto in_subnet = MakeUdpContext(1, 2, Direction::kTx);
  EXPECT_EQ(RunFilter(engine, *in_subnet), nic::Verdict::kDrop);

  FilterEngine engine2;
  FilterRule drop_other;
  drop_other.src_ip = Ipv4Address::FromOctets(192, 168, 0, 0);
  drop_other.src_ip_prefix = 16;
  drop_other.action = FilterAction::kDrop;
  ASSERT_TRUE(engine2.AppendRule(drop_other).ok());
  EXPECT_EQ(RunFilter(engine2, *in_subnet), nic::Verdict::kAccept);
}

TEST(FilterEngineTest, PortRangeMatch) {
  FilterEngine engine;
  FilterRule rule;
  rule.dst_port = PortRange{1000, 2000};
  rule.action = FilterAction::kDrop;
  ASSERT_TRUE(engine.AppendRule(rule).ok());

  auto below = MakeUdpContext(1, 999, Direction::kTx);
  auto low = MakeUdpContext(1, 1000, Direction::kTx);
  auto mid = MakeUdpContext(1, 1500, Direction::kTx);
  auto high = MakeUdpContext(1, 2000, Direction::kTx);
  auto above = MakeUdpContext(1, 2001, Direction::kTx);
  EXPECT_EQ(RunFilter(engine, *below), nic::Verdict::kAccept);
  EXPECT_EQ(RunFilter(engine, *low), nic::Verdict::kDrop);
  EXPECT_EQ(RunFilter(engine, *mid), nic::Verdict::kDrop);
  EXPECT_EQ(RunFilter(engine, *high), nic::Verdict::kDrop);
  EXPECT_EQ(RunFilter(engine, *above), nic::Verdict::kAccept);
}

TEST(FilterEngineTest, ProtocolRuleDoesNotMatchNonIp) {
  FilterEngine engine;
  FilterRule rule;
  rule.proto = IpProto::kUdp;
  rule.action = FilterAction::kDrop;
  ASSERT_TRUE(engine.AppendRule(rule).ok());

  // ARP frame: proto rules must not match.
  auto arp_frame = net::BuildArpRequest(net::MacAddress::ForHost(1),
                                        test::kLocalIp, test::kRemoteIp);
  net::Packet packet(arp_frame);
  auto parsed = *net::ParseFrame(packet.bytes());
  overlay::PacketContext ctx;
  ctx.frame = packet.bytes();
  ctx.parsed = &parsed;
  ctx.direction = Direction::kTx;
  EXPECT_EQ(engine.Process(packet, ctx).verdict, nic::Verdict::kAccept);
}

TEST(FilterEngineTest, SoftwareFallbackAction) {
  FilterEngine engine;
  FilterRule rule;
  rule.owner_cgroup = 5;
  rule.action = FilterAction::kSoftwareFallback;
  ASSERT_TRUE(engine.AppendRule(rule).ok());
  auto pkt = MakeUdpContext(1, 2, Direction::kTx,
                            ConnMetadata{1, 1000, 100, /*cgroup=*/5, 0});
  EXPECT_EQ(RunFilter(engine, *pkt), nic::Verdict::kSoftwareFallback);
}

TEST(FilterEngineTest, DeleteAndInsertMaintainOrder) {
  FilterEngine engine;
  FilterRule r1;
  r1.dst_port = PortRange{1, 1};
  r1.action = FilterAction::kDrop;
  FilterRule r2;
  r2.dst_port = PortRange{2, 2};
  r2.action = FilterAction::kDrop;
  ASSERT_TRUE(engine.AppendRule(r1).ok());
  ASSERT_TRUE(engine.AppendRule(r2).ok());
  ASSERT_TRUE(engine.DeleteRule(0).ok());
  EXPECT_EQ(engine.rules().size(), 1u);

  auto pkt1 = MakeUdpContext(9, 1, Direction::kTx);
  auto pkt2 = MakeUdpContext(9, 2, Direction::kTx);
  EXPECT_EQ(RunFilter(engine, *pkt1), nic::Verdict::kAccept);
  EXPECT_EQ(RunFilter(engine, *pkt2), nic::Verdict::kDrop);

  FilterRule r3;
  r3.dst_port = PortRange{1, 1};
  r3.action = FilterAction::kDrop;
  ASSERT_TRUE(engine.InsertRule(0, r3).ok());
  EXPECT_EQ(RunFilter(engine, *pkt1), nic::Verdict::kDrop);
  EXPECT_FALSE(engine.DeleteRule(99).ok());
  EXPECT_FALSE(engine.InsertRule(99, r3).ok());
}

TEST(FilterEngineTest, FlushRestoresDefault) {
  FilterEngine engine;
  FilterRule rule;
  rule.action = FilterAction::kDrop;
  ASSERT_TRUE(engine.AppendRule(rule).ok());
  auto pkt = MakeUdpContext(1, 2, Direction::kTx);
  EXPECT_EQ(RunFilter(engine, *pkt), nic::Verdict::kDrop);
  engine.Flush();
  EXPECT_EQ(RunFilter(engine, *pkt), nic::Verdict::kAccept);
  EXPECT_TRUE(engine.rules().empty());
}

TEST(FilterEngineTest, CompiledProgramAlwaysVerifies) {
  FilterEngine engine;
  for (int i = 0; i < 10; ++i) {
    FilterRule rule;
    rule.proto = IpProto::kTcp;
    rule.src_ip = Ipv4Address::FromOctets(10, 0, 0, static_cast<uint8_t>(i));
    rule.dst_port = PortRange{80, 443};
    rule.owner_uid = 1000u + i;
    rule.action = i % 2 == 0 ? FilterAction::kDrop : FilterAction::kAccept;
    ASSERT_TRUE(engine.AppendRule(rule).ok());
    EXPECT_TRUE(overlay::VerifyProgram(engine.compiled()).ok());
  }
}

TEST(FilterEngineTest, ChainCapacityIsEnforced) {
  FilterEngine engine;
  FilterRule fat;  // many predicates -> many instructions
  fat.direction = Direction::kTx;
  fat.proto = IpProto::kTcp;
  fat.src_ip = Ipv4Address::FromOctets(10, 1, 2, 3);
  fat.dst_ip = Ipv4Address::FromOctets(10, 4, 5, 6);
  fat.src_port = PortRange{10, 20};
  fat.dst_port = PortRange{30, 40};
  fat.owner_uid = 1;
  fat.owner_pid = 2;
  fat.owner_comm = 3;
  fat.owner_cgroup = 4;
  fat.action = FilterAction::kDrop;

  Status last = OkStatus();
  size_t added = 0;
  for (int i = 0; i < 100; ++i) {
    auto r = engine.AppendRule(fat);
    if (!r.ok()) {
      last = r.status();
      break;
    }
    ++added;
  }
  EXPECT_EQ(last.code(), StatusCode::kResourceExhausted);
  EXPECT_GT(added, 5u);
  // Engine still functional after the failed append.
  auto pkt = MakeUdpContext(1, 2, Direction::kTx);
  EXPECT_EQ(RunFilter(engine, *pkt), nic::Verdict::kAccept);
}

TEST(FilterEngineTest, TcpFlagsVisibleToCompiledChain) {
  // Sanity: TCP packets flow through the same compiled matcher.
  FilterEngine engine;
  FilterRule rule;
  rule.proto = IpProto::kTcp;
  rule.dst_port = PortRange{22, 22};
  rule.action = FilterAction::kDrop;
  ASSERT_TRUE(engine.AppendRule(rule).ok());
  auto ssh = MakeTcpContext(50000, 22, net::TcpFlags::kSyn, Direction::kTx);
  auto web = MakeTcpContext(50000, 80, net::TcpFlags::kSyn, Direction::kTx);
  EXPECT_EQ(RunFilter(engine, *ssh), nic::Verdict::kDrop);
  EXPECT_EQ(RunFilter(engine, *web), nic::Verdict::kAccept);
}

TEST(FilterEngineTest, InstructionCountReportedForCostCharging) {
  FilterEngine engine;
  FilterRule rule;
  rule.dst_port = PortRange{53, 53};
  rule.action = FilterAction::kDrop;
  ASSERT_TRUE(engine.AppendRule(rule).ok());
  auto pkt = MakeUdpContext(1, 53, Direction::kTx);
  auto result = engine.Process(pkt->packet, pkt->ctx);
  EXPECT_GT(result.overlay_instructions, 0u);
}

// ---- Exact work counts --------------------------------------------------

// The OUTPUT chain of perfbench's fw_churn workload: 22 UDP noise rules on
// dst-port ranges no flow uses (every other one also owner-matched), then
// a pid deny and a uid accept.
constexpr uint32_t kScraperPid = 77;
constexpr uint32_t kBatchUid = 1002;

std::vector<FilterRule> FwChurnOutputChain() {
  std::vector<FilterRule> rules;
  for (uint32_t i = 0; i < 22; ++i) {
    FilterRule r;
    r.proto = IpProto::kUdp;
    const auto port = static_cast<uint16_t>(5000 + 10 * i);
    r.dst_port = PortRange{port, static_cast<uint16_t>(port + 4)};
    if (i % 2 == 0) r.owner_uid = 3000 + i;
    r.action = FilterAction::kDrop;
    rules.push_back(r);
  }
  FilterRule deny;
  deny.owner_pid = kScraperPid;
  deny.action = FilterAction::kDrop;
  rules.push_back(deny);
  FilterRule accept;
  accept.owner_uid = kBatchUid;
  accept.action = FilterAction::kAccept;
  rules.push_back(accept);
  return rules;
}

// Instruction counts are the modelled NIC cost (overlay_instr_ns each), so
// they are pinned: a decoder change that moves them changes virtual time.
// Dispatches are the host's work per packet, gated by a ceiling: the UDP
// bucket's is_ipv4/ip_proto guards fold away, and the 22 port tests are
// one run the engine skips through in one dispatch.
TEST(FilterEngineTest, FwChurnChainWorkCountsArePinned) {
  FilterEngine engine;
  for (const FilterRule& r : FwChurnOutputChain()) {
    ASSERT_TRUE(engine.AppendRule(r).ok());
  }
  const struct {
    const char* owner;
    ConnMetadata meta;
    nic::Verdict verdict;
    uint32_t instructions;
  } cases[] = {
      {"web", {1, 1001, 40, 0, 0, 1001}, nic::Verdict::kAccept, 159},
      {"batch", {2, kBatchUid, 41, 0, 0, kBatchUid}, nic::Verdict::kAccept,
       159},
      {"scraper", {3, 1001, kScraperPid, 0, 0, 1001}, nic::Verdict::kDrop,
       157},
  };
  for (const auto& c : cases) {
    auto pkt = MakeUdpContext(40000, 20000, Direction::kTx, c.meta, 128);
    const nic::StageResult result = engine.Process(pkt->packet, pkt->ctx);
    EXPECT_EQ(result.verdict, c.verdict) << c.owner;
    EXPECT_EQ(result.overlay_instructions, c.instructions) << c.owner;
    const auto stepped =
        overlay::Execute(engine.compiled_for(IpProto::kUdp), pkt->ctx);
    ASSERT_TRUE(stepped.ok()) << stepped.status();
    EXPECT_EQ(stepped->instructions_executed, c.instructions) << c.owner;
    EXPECT_EQ(stepped->dispatches, c.instructions) << c.owner;
    const overlay::ExecResult decoded =
        overlay::Execute(engine.executable_for(IpProto::kUdp), pkt->ctx);
    EXPECT_EQ(decoded.instructions_executed, c.instructions) << c.owner;
    EXPECT_LE(decoded.dispatches, 4u) << c.owner;
  }
}

// ---- Incremental rebuild --------------------------------------------------

FilterRule RandomBucketRule(Rng& rng) {
  FilterRule r;
  switch (rng.NextBounded(4)) {
    case 0:
      break;
    case 1:
      r.proto = IpProto::kTcp;
      break;
    case 2:
      r.proto = IpProto::kUdp;
      break;
    default:
      r.proto = IpProto::kIcmp;
      break;
  }
  if (rng.NextBool(0.7)) {
    const auto lo = static_cast<uint16_t>(rng.NextBounded(50));
    r.dst_port = PortRange{lo, static_cast<uint16_t>(lo + rng.NextBounded(4))};
  }
  if (rng.NextBool(0.3)) {
    r.owner_uid = 1000 + static_cast<uint32_t>(rng.NextBounded(2));
  }
  r.action = static_cast<FilterAction>(rng.NextBounded(3));
  return r;
}

// A rule change rebuilds only the buckets it can alter. After every step
// of a generated append/insert/delete sequence, every program equals a
// from-scratch compile, and every decoded bucket runs like the stepper.
TEST(FilterEngineTest, RuleChangesRebuildEveryProgramTheyAlter) {
  const IpProto protos[] = {IpProto::kTcp, IpProto::kUdp, IpProto::kIcmp};
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    FilterEngine engine;
    for (int step = 0; step < 300; ++step) {
      const size_t n = engine.rules().size();
      const uint64_t pick = rng.NextBounded(100);
      if (pick < 2) {
        engine.SetDefaultAction(static_cast<FilterAction>(rng.NextBounded(3)));
      } else if (pick < 3) {
        engine.Flush();
      } else if (n > 0 && (pick < 35 || n >= 40)) {
        ASSERT_TRUE(engine.DeleteRule(rng.NextBounded(n)).ok());
      } else if (pick < 60) {
        ASSERT_TRUE(
            engine.InsertRule(rng.NextBounded(n + 1), RandomBucketRule(rng))
                .ok());
      } else {
        ASSERT_TRUE(engine.AppendRule(RandomBucketRule(rng)).ok());
      }
      ASSERT_EQ(engine.compiled(),
                CompileFilterChain(engine.rules(), engine.default_action()))
          << "seed " << seed << " step " << step;
      for (const IpProto proto : protos) {
        ASSERT_EQ(engine.compiled_for(proto),
                  CompileFilterBucket(engine.rules(), engine.default_action(),
                                      proto))
            << "seed " << seed << " step " << step << " proto "
            << static_cast<int>(proto);
      }
      const auto dport = static_cast<uint16_t>(rng.NextBounded(55));
      const ConnMetadata owner{
          1, 1000 + static_cast<uint32_t>(rng.NextBounded(2))};
      std::unique_ptr<test::ContextBundle> frames[] = {
          MakeTcpContext(9, dport, net::TcpFlags::kAck, Direction::kTx, owner),
          MakeUdpContext(9, dport, Direction::kTx, owner),
          test::MakeFrameContext(
              net::BuildIcmpEchoFrame(test::LocalToRemote(),
                                      net::IcmpType::kEchoRequest, 1, 1, {}),
              Direction::kTx, owner),
      };
      for (size_t b = 0; b < 3; ++b) {
        const auto stepped =
            overlay::Execute(engine.compiled_for(protos[b]), frames[b]->ctx);
        ASSERT_TRUE(stepped.ok()) << stepped.status();
        const nic::StageResult got =
            engine.Process(frames[b]->packet, frames[b]->ctx);
        ASSERT_EQ(got.overlay_instructions, stepped->instructions_executed)
            << "seed " << seed << " step " << step << " bucket " << b;
        // nic::Verdict and FilterAction share their encodings.
        ASSERT_EQ(static_cast<int64_t>(got.verdict), stepped->verdict & 0x3)
            << "seed " << seed << " step " << step << " bucket " << b;
      }
    }
  }
}

}  // namespace
}  // namespace norman::dataplane
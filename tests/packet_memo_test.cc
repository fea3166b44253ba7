// Packet memos (src/net/packet.h): a packet's parse and its checksum bit
// are memos of its bytes that the type keeps exact. These are generated
// properties, not hand-picked cases:
//
//  * unit level — every pooled builder, the zero-copy Alloc path, payload
//    writes, raw header writes, truncation, garbage bytes, NAT rewrites and
//    checksum offload all leave parsed() == ParseFrame(bytes()) and
//    checksums_ok() ⇒ FrameChecksumsValid;
//  * world level — every frame entering RX from the wire and every frame
//    the NIC puts on the wire passes that check (debug builds also assert
//    it at every NIC TX and RX entry), across NAT in both directions,
//    flow cache on and off, sharding, and wire faults (corrupt, duplicate,
//    and a truncating wire); RX corrupt drops equal exactly the damaged
//    frames that reached RX, and spoofed sources written through raw
//    header access are still caught.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "src/common/drop_reason.h"
#include "src/common/rng.h"
#include "src/kernel/kernel.h"
#include "src/net/frame_checksum.h"
#include "src/net/packet.h"
#include "src/net/packet_builder.h"
#include "src/net/packet_pool.h"
#include "src/net/parsed_packet.h"
#include "src/norman/socket.h"
#include "src/workload/testbed.h"

namespace norman {
namespace {

using net::Ipv4Address;
using net::MacAddress;
using net::Packet;
using net::PacketPtr;

constexpr auto kHostIp = Ipv4Address::FromOctets(10, 0, 0, 1);
constexpr auto kPeerIp = Ipv4Address::FromOctets(10, 0, 0, 2);
constexpr auto kPublicIp = Ipv4Address::FromOctets(203, 0, 113, 9);

// What the memos promise, spelled out against a fresh parse.
void ExpectExact(const Packet& p, const std::string& what) {
  const auto fresh = net::ParseFrame(p.bytes());
  const net::ParsedPacket* memo = p.parsed();
  ASSERT_EQ(memo != nullptr, fresh.has_value()) << what;
  if (memo != nullptr) {
    EXPECT_TRUE(*memo == *fresh) << what << ": parse memo drifted";
  }
  if (p.checksums_ok()) {
    ASSERT_NE(memo, nullptr) << what;
    EXPECT_TRUE(net::FrameChecksumsValid(p.bytes(), *memo))
        << what << ": checksums_ok() on a frame that does not verify";
  }
  EXPECT_TRUE(p.MemosExact()) << what;
}

std::vector<uint8_t> RandomBytes(Rng& rng, size_t n) {
  std::vector<uint8_t> v(n);
  for (auto& b : v) {
    b = static_cast<uint8_t>(rng.NextU32());
  }
  return v;
}

uint16_t RandomPort(Rng& rng) {
  return static_cast<uint16_t>(rng.NextInRange(1, 65535));
}

net::FrameEndpoints RandomEndpoints(Rng& rng) {
  return {MacAddress::ForHost(static_cast<uint32_t>(rng.NextInRange(1, 99))),
          MacAddress::ForHost(static_cast<uint32_t>(rng.NextInRange(1, 99))),
          Ipv4Address{rng.NextU32()}, Ipv4Address{rng.NextU32()}};
}

// One frame from a randomly chosen pooled builder.
PacketPtr BuildRandom(Rng& rng, std::string* what) {
  const auto ep = RandomEndpoints(rng);
  const auto payload = RandomBytes(rng, rng.NextBounded(1500));
  switch (rng.NextBounded(6)) {
    case 0:
      *what = "udp";
      return net::BuildUdpPacket(ep, RandomPort(rng), RandomPort(rng),
                                 payload,
                                 static_cast<uint8_t>(rng.NextBounded(256)),
                                 static_cast<uint8_t>(rng.NextBounded(256)));
    case 1:
      *what = "tcp";
      return net::BuildTcpPacket(
          ep, RandomPort(rng), RandomPort(rng), rng.NextU32(), rng.NextU32(),
          static_cast<uint8_t>(rng.NextBounded(64)), payload,
          static_cast<uint16_t>(rng.NextU32()));
    case 2:
      *what = "icmp";
      return net::BuildIcmpEchoPacket(
          ep,
          rng.NextBool(0.5) ? net::IcmpType::kEchoRequest
                            : net::IcmpType::kEchoReply,
          static_cast<uint16_t>(rng.NextU32()),
          static_cast<uint16_t>(rng.NextU32()), payload);
    case 3:
      *what = "arp request";
      return net::BuildArpRequestPacket(ep.src_mac, ep.src_ip, ep.dst_ip);
    case 4:
      *what = "arp reply";
      return net::BuildArpReplyPacket(ep.src_mac, ep.src_ip, ep.dst_mac,
                                      ep.dst_ip);
    default:
      *what = "udp alloc";
      return net::AllocUdpPacket(ep, RandomPort(rng), RandomPort(rng),
                                 payload.size());
  }
}

TEST(PacketMemoTest, GeneratedFramesAndMutationsKeepMemosExact) {
  Rng rng(0x6d656d6f);
  for (int trial = 0; trial < 3000; ++trial) {
    std::string what;
    PacketPtr p = BuildRandom(rng, &what);
    what += " #" + std::to_string(trial);
    ExpectExact(*p, what + " built");
    EXPECT_EQ(p->checksums_ok(), what.rfind("udp alloc", 0) != 0) << what;

    // A short random walk of mutations, each checked.
    for (int step = 0; step < 4; ++step) {
      const bool was_ok = p->checksums_ok();
      std::optional<net::ParsedPacket> before;
      if (p->parsed() != nullptr) before = *p->parsed();
      switch (rng.NextBounded(6)) {
        case 0: {  // app payload write
          auto pl = p->mutable_payload();
          for (auto& b : pl) b = static_cast<uint8_t>(rng.NextU32());
          EXPECT_FALSE(p->checksums_ok()) << what;
          if (before) {
            EXPECT_TRUE(*p->parsed() == *before) << what;
          }
          break;
        }
        case 1: {  // raw header write: any byte, including the headers
          auto bytes = p->mutable_bytes();
          if (!bytes.empty()) {
            bytes[rng.NextBounded(std::min<size_t>(bytes.size(), 60))] ^=
                static_cast<uint8_t>(1 + rng.NextBounded(255));
          }
          EXPECT_FALSE(p->checksums_ok()) << what;
          break;
        }
        case 2:  // truncation
          p->Resize(rng.NextBounded(p->size() + 1));
          EXPECT_FALSE(p->checksums_ok()) << what;
          break;
        case 3: {  // NAT rewrite keeps a valid frame valid
          const bool src = rng.NextBool(0.5);
          const bool rewrote =
              src ? net::RewriteSource(*p, Ipv4Address{rng.NextU32()},
                                       RandomPort(rng))
                  : net::RewriteDestination(*p, Ipv4Address{rng.NextU32()},
                                            RandomPort(rng));
          EXPECT_EQ(p->checksums_ok(), was_ok) << what;
          if (rewrote && was_ok) {
            EXPECT_TRUE(
                net::FrameChecksumsValid(p->bytes(), *net::ParseFrame(
                                                         p->bytes())))
                << what;
          }
          break;
        }
        case 4:  // TX checksum offload
          net::FixupPacketChecksums(*p);
          if (p->parsed() != nullptr) {
            EXPECT_EQ(p->checksums_ok(),
                      net::FrameChecksumsValid(p->bytes(), *p->parsed()))
                << what;
          }
          break;
        default: {  // RX verification agrees with a fresh verify
          const auto fresh = net::ParseFrame(p->bytes());
          const bool expect =
              !fresh || net::FrameChecksumsValid(p->bytes(), *fresh);
          EXPECT_EQ(p->VerifyChecksums(), expect) << what;
          break;
        }
      }
      ExpectExact(*p, what + " step " + std::to_string(step));
    }
  }
}

TEST(PacketMemoTest, GarbageBytesKeepMemosExact) {
  Rng rng(0x67617262);
  const auto seed_frame =
      net::BuildUdpFrame({MacAddress::ForHost(1), MacAddress::ForHost(2),
                          kHostIp, kPeerIp},
                         1, 2, std::vector<uint8_t>(64, 0x5a));
  for (int trial = 0; trial < 3000; ++trial) {
    // Half pure noise, half a real frame garbled in place, so the parser's
    // deeper layers are reached too.
    std::vector<uint8_t> bytes;
    if (rng.NextBool(0.5)) {
      bytes = RandomBytes(rng, rng.NextBounded(120));
    } else {
      bytes = seed_frame;
      bytes.resize(rng.NextBounded(bytes.size() + 1));
      for (uint64_t i = rng.NextBounded(4); i > 0 && !bytes.empty(); --i) {
        bytes[rng.NextBounded(bytes.size())] =
            static_cast<uint8_t>(rng.NextU32());
      }
    }
    PacketPtr p = net::MakePacket(std::move(bytes));
    const std::string what = "garbage #" + std::to_string(trial);
    EXPECT_FALSE(p->checksums_ok()) << what;
    ExpectExact(*p, what);
    p->VerifyChecksums();
    ExpectExact(*p, what + " verified");
    net::FixupPacketChecksums(*p);
    ExpectExact(*p, what + " offloaded");
  }
}

TEST(PacketMemoTest, AllocPlusOffloadEqualsBuiltFrameByteForByte) {
  Rng rng(0x616c6c6f);
  for (int trial = 0; trial < 500; ++trial) {
    const auto ep = RandomEndpoints(rng);
    const auto payload = RandomBytes(rng, rng.NextBounded(1500));
    const uint16_t sp = RandomPort(rng);
    const uint16_t dp = RandomPort(rng);
    const uint32_t seq = rng.NextU32();
    const bool tcp = rng.NextBool(0.5);
    net::ResetIpIdCounterForTest();
    PacketPtr built =
        tcp ? net::BuildTcpPacket(ep, sp, dp, seq, 0, net::TcpFlags::kAck,
                                  payload)
            : net::BuildUdpPacket(ep, sp, dp, payload);
    net::ResetIpIdCounterForTest();
    PacketPtr alloc =
        tcp ? net::AllocTcpPacket(ep, sp, dp, seq, 0, net::TcpFlags::kAck,
                                  payload.size())
            : net::AllocUdpPacket(ep, sp, dp, payload.size());
    ExpectExact(*alloc, "alloc");
    EXPECT_FALSE(alloc->checksums_ok());
    auto pl = Socket::Payload(*alloc);
    ASSERT_EQ(pl.size(), payload.size());
    std::copy(payload.begin(), payload.end(), pl.begin());
    net::FixupPacketChecksums(*alloc);
    EXPECT_TRUE(alloc->checksums_ok());
    ASSERT_TRUE(std::equal(built->bytes().begin(), built->bytes().end(),
                           alloc->bytes().begin(), alloc->bytes().end()))
        << "trial " << trial;
    EXPECT_TRUE(*alloc->parsed() == *built->parsed()) << "trial " << trial;
  }
}

// ---- world level ----------------------------------------------------------

struct WorldConfig {
  bool flow_cache = false;
  bool nat = false;
  uint16_t shard_queues = 1;
  double corruption = 0;
  double duplication = 0;
  double truncation = 0;  // applied by the wire sink below
};

std::string Describe(const WorldConfig& c) {
  return "cache=" + std::to_string(c.flow_cache) +
         " nat=" + std::to_string(c.nat) +
         " shards=" + std::to_string(c.shard_queues) +
         " corrupt=" + std::to_string(c.corruption) +
         " dup=" + std::to_string(c.duplication) +
         " trunc=" + std::to_string(c.truncation);
}

void RunWorld(const WorldConfig& cfg, uint64_t seed) {
  SCOPED_TRACE(Describe(cfg));
  workload::TestBed::Options opts;
  opts.echo = true;
  opts.fault_seed = seed;
  workload::TestBed bed(opts);
  auto& kernel = bed.kernel();
  Rng rng(seed);

  kernel::NicConfig nc;
  nc.flow_cache = cfg.flow_cache;
  nc.shard_queues = cfg.shard_queues;
  nc.nat = cfg.nat;
  nc.nat_private_prefix = Ipv4Address::FromOctets(10, 0, 0, 0).addr;
  nc.nat_prefix_len = 8;
  nc.nat_public_ip = kPublicIp.addr;
  ASSERT_TRUE(kernel.Configure(kernel::kRootUid, nc).ok());

  sim::FaultProfile fp;
  fp.corruption = cfg.corruption;
  fp.corrupt_bytes = 2;
  fp.duplication = cfg.duplication;
  bed.fault().SetProfile(workload::TestBed::kNetworkToHostLink, fp);

  // Every frame the NIC puts on the wire keeps exact memos.
  uint64_t egress_frames = 0;
  bed.SetEgressHook([&](const Packet& p) {
    ExpectExact(p, "egress");
    ++egress_frames;
  });

  // The RX wire sink, replacing the bed's: a truncating wire, the memo check
  // on every frame entering RX, and the ground-truth count of damaged
  // frames — ones whose fresh parse does not verify — that reach the NIC.
  uint64_t damaged = 0;
  uint64_t wire_frames = 0;
  Rng wire_rng(seed ^ 0x77);
  bed.fault().SetSink(workload::TestBed::kNetworkToHostLink,
                      [&](PacketPtr p) {
                        if (cfg.truncation > 0 &&
                            wire_rng.NextBool(cfg.truncation)) {
                          p->Resize(wire_rng.NextBounded(p->size()));
                        }
                        const auto fresh = net::ParseFrame(p->bytes());
                        if (fresh &&
                            !net::FrameChecksumsValid(p->bytes(), *fresh)) {
                          ++damaged;
                        }
                        ExpectExact(*p, "rx entry");
                        ++wire_frames;
                        bed.nic().DeliverFromWire(std::move(p),
                                                  bed.sim().Now());
                      });

  kernel.processes().AddUser(1000, "app");
  const kernel::Pid pid = *kernel.processes().Spawn(1000, "app");
  std::vector<Socket> socks;
  for (int i = 0; i < 6; ++i) {
    kernel::ConnectOptions co;
    co.proto = i % 2 == 0 ? net::IpProto::kUdp : net::IpProto::kTcp;
    auto s = Socket::Connect(&kernel, pid, kPeerIp,
                             static_cast<uint16_t>(7000 + i), co);
    ASSERT_TRUE(s.ok()) << s.status();
    socks.push_back(std::move(*s));
  }

  uint64_t spoofed = 0;
  const net::FrameEndpoints peer_ep{MacAddress::ForHost(2),
                                    MacAddress::ForHost(1), kPeerIp, kHostIp};
  for (int op = 0; op < 400; ++op) {
    Socket& s = socks[rng.NextBounded(socks.size())];
    const size_t len = rng.NextBounded(1400);
    switch (rng.NextBounded(7)) {
      case 0:  // copy path
        (void)s.Send(RandomBytes(rng, len));
        break;
      case 1: {  // zero-copy path, app writes the payload
        PacketPtr f = s.AllocFrame(len);
        for (auto& b : Socket::Payload(*f)) {
          b = static_cast<uint8_t>(rng.NextU32());
        }
        (void)s.SendFrame(std::move(f));
        break;
      }
      case 2: {  // raw header write the dataplane must re-parse (TTL)
        PacketPtr f = s.AllocFrame(len);
        f->mutable_bytes()[net::kEthernetHeaderSize + 8] =
            static_cast<uint8_t>(1 + rng.NextBounded(255));
        (void)s.SendFrame(std::move(f));
        break;
      }
      case 3: {  // spoofed source address through raw header access
        PacketPtr f = s.AllocFrame(len);
        const auto spoof = Ipv4Address::FromOctets(
            192, 0, 2, static_cast<uint8_t>(rng.NextInRange(1, 254)));
        auto bytes = f->mutable_bytes();
        for (int k = 0; k < 4; ++k) {
          bytes[net::kEthernetHeaderSize + 12 + k] =
              static_cast<uint8_t>(spoof.addr >> (24 - 8 * k));
        }
        if (s.SendFrame(std::move(f)).ok()) ++spoofed;
        break;
      }
      case 4:  // ping from the peer (answered by the NIC's ICMP responder)
        bed.InjectFromNetwork(
            net::BuildIcmpEchoPacket(peer_ep, net::IcmpType::kEchoRequest,
                                     static_cast<uint16_t>(op), 1,
                                     RandomBytes(rng, len % 200)),
            bed.sim().Now());
        break;
      case 5:  // ARP who-has for the host (answered by the ARP service)
        bed.InjectFromNetwork(
            net::BuildArpRequestPacket(MacAddress::ForHost(2), kPeerIp,
                                       kHostIp),
            bed.sim().Now());
        break;
      default:  // garbage from the wire
        bed.InjectFromNetwork(net::MakePacket(RandomBytes(rng, len % 120)),
                              bed.sim().Now());
        break;
    }
    if (op % 8 == 7) {
      bed.sim().Run();
      PacketPtr frames[32];
      for (Socket& r : socks) {
        while (size_t n = r.RecvFrames(frames)) {
          for (size_t i = 0; i < n; ++i) {
            ExpectExact(*frames[i], "delivered");
            frames[i].reset();
          }
        }
      }
    }
  }
  bed.sim().Run();

  const auto& st = bed.nic().stats();
  // Both directions carried traffic through the memo checks above.
  EXPECT_GT(egress_frames, 0u);
  EXPECT_GT(wire_frames, 0u);
  // Verification was skipped only where it was safe to: every damaged
  // frame that reached RX was verified and dropped, and nothing else was.
  EXPECT_EQ(st.rx_drops(DropReason::kRingFull), 0u);
  EXPECT_EQ(st.rx_drops(DropReason::kCorrupt), damaged);
  // A source rewritten through raw header access is re-parsed at the
  // SendFrame trust boundary and caught.
  EXPECT_GT(spoofed, 0u);
  EXPECT_EQ(st.tx_drops(DropReason::kSpoof), spoofed);
  if (cfg.corruption > 0 || cfg.truncation > 0) {
    EXPECT_GT(damaged, 0u);
  }
  if (cfg.nat) {
    EXPECT_GT(kernel.nat()->tx_translated(), 0u);
    EXPECT_GT(kernel.nat()->rx_translated(), 0u);
  }
}

TEST(PacketMemoWorldTest, EveryNicEntrySeesExactMemos) {
  uint64_t seed = 1;
  for (const bool cache : {false, true}) {
    for (const bool nat : {false, true}) {
      for (const uint16_t shards : {uint16_t{1}, uint16_t{4}}) {
        RunWorld({cache, nat, shards, 0, 0, 0}, seed++);
        RunWorld({cache, nat, shards, 0.2, 0, 0}, seed++);
        RunWorld({cache, nat, shards, 0, 0.2, 0}, seed++);
        RunWorld({cache, nat, shards, 0, 0, 0.2}, seed++);
        RunWorld({cache, nat, shards, 0.1, 0.1, 0.1}, seed++);
      }
    }
  }
}

}  // namespace
}  // namespace norman

// Differential property test: the overlay-compiled filter chain must agree
// with an independent reference implementation of iptables first-match
// semantics, over thousands of randomized (ruleset, packet) pairs.
//
// This is the compiler's correctness argument: CompileFilterChain and the
// decoded overlay engine on one side; a direct, obviously-correct C++
// matcher on the other. Any divergence in match semantics (prefix
// arithmetic, port ranges, owner fields, direction, first-match ordering,
// default policy) fails here with the full rule and packet dump. The
// instruction count the engine charges must equal the reference stepper's
// on the same program.
//
// The decoder folds tests on fields a bucket guarantees and skips through
// runs of same-field tests, so the suites below also generate long chains
// built of such runs (overlapping, adjacent and equal port ranges, exact
// ports, prefixes of several lengths), every frame kind the engine sees,
// mid-world rule changes, and random programs loaded with random facts.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>

#include "src/overlay/executable.h"
#include "src/overlay/verifier.h"
#include "src/common/rng.h"
#include "src/dataplane/filter_engine.h"
#include "src/overlay/interpreter.h"
#include "tests/test_util.h"

namespace norman::dataplane {
namespace {

using net::Direction;
using net::IpProto;
using net::Ipv4Address;

// ---- Reference matcher (deliberately naive) ----

bool RefMatches(const FilterRule& r, const overlay::PacketContext& ctx) {
  const net::ParsedPacket* p = ctx.parsed;
  if (r.direction && *r.direction != ctx.direction) {
    return false;
  }
  if (r.proto) {
    if (p == nullptr || !p->is_ipv4() || p->ipv4->protocol != *r.proto) {
      return false;
    }
  }
  auto prefix_match = [](Ipv4Address have, Ipv4Address want,
                         uint32_t prefix) {
    if (prefix == 0) {
      return true;
    }
    const uint32_t shift = 32 - prefix;
    return (have.addr >> shift) == (want.addr >> shift);
  };
  if (r.src_ip) {
    if (p == nullptr || !p->is_ipv4() ||
        !prefix_match(p->ipv4->src, *r.src_ip, r.src_ip_prefix.value_or(32))) {
      return false;
    }
  }
  if (r.dst_ip) {
    if (p == nullptr || !p->is_ipv4() ||
        !prefix_match(p->ipv4->dst, *r.dst_ip, r.dst_ip_prefix.value_or(32))) {
      return false;
    }
  }
  auto port_of = [&](bool src) -> std::optional<uint16_t> {
    if (p == nullptr) {
      return std::nullopt;
    }
    if (p->is_udp()) {
      return src ? p->udp->src_port : p->udp->dst_port;
    }
    if (p->is_tcp()) {
      return src ? p->tcp->src_port : p->tcp->dst_port;
    }
    return std::nullopt;
  };
  if (r.src_port) {
    const auto port = port_of(true);
    // Overlay semantics: missing fields read 0, so a port rule matches a
    // portless packet only if 0 is inside the range.
    const uint16_t value = port.value_or(0);
    if (value < r.src_port->lo || value > r.src_port->hi) {
      return false;
    }
  }
  if (r.dst_port) {
    const auto port = port_of(false);
    const uint16_t value = port.value_or(0);
    if (value < r.dst_port->lo || value > r.dst_port->hi) {
      return false;
    }
  }
  if (r.owner_uid && ctx.conn.owner_uid != *r.owner_uid) {
    return false;
  }
  if (r.owner_pid && ctx.conn.owner_pid != *r.owner_pid) {
    return false;
  }
  if (r.owner_comm && ctx.conn.owner_comm != *r.owner_comm) {
    return false;
  }
  if (r.owner_cgroup && ctx.conn.owner_cgroup != *r.owner_cgroup) {
    return false;
  }
  return true;
}

FilterAction RefEvaluate(const std::vector<FilterRule>& rules,
                         FilterAction default_action,
                         const overlay::PacketContext& ctx) {
  for (const auto& r : rules) {
    if (RefMatches(r, ctx)) {
      return r.action;
    }
  }
  return default_action;
}

// ---- Random generators ----

FilterRule RandomRule(Rng& rng) {
  FilterRule r;
  if (rng.NextBool(0.3)) {
    r.direction = rng.NextBool(0.5) ? Direction::kTx : Direction::kRx;
  }
  if (rng.NextBool(0.4)) {
    r.proto = rng.NextBool(0.5) ? IpProto::kUdp : IpProto::kTcp;
  }
  if (rng.NextBool(0.3)) {
    r.src_ip = Ipv4Address::FromOctets(10, 0, 0,
                                       static_cast<uint8_t>(rng.NextBounded(4)));
    r.src_ip_prefix = static_cast<uint32_t>(rng.NextInRange(8, 32));
  }
  if (rng.NextBool(0.3)) {
    r.dst_ip = Ipv4Address::FromOctets(10, 0, 0,
                                       static_cast<uint8_t>(rng.NextBounded(4)));
    r.dst_ip_prefix = static_cast<uint32_t>(rng.NextInRange(8, 32));
  }
  if (rng.NextBool(0.4)) {
    const auto lo = static_cast<uint16_t>(rng.NextBounded(100));
    const auto hi = static_cast<uint16_t>(lo + rng.NextBounded(5));
    r.dst_port = PortRange{lo, hi};
  }
  if (rng.NextBool(0.2)) {
    const auto lo = static_cast<uint16_t>(rng.NextBounded(100));
    r.src_port = PortRange{lo, static_cast<uint16_t>(lo + rng.NextBounded(3))};
  }
  if (rng.NextBool(0.3)) {
    r.owner_uid = 1000 + static_cast<uint32_t>(rng.NextBounded(3));
  }
  if (rng.NextBool(0.2)) {
    r.owner_pid = 100 + static_cast<uint32_t>(rng.NextBounded(3));
  }
  if (rng.NextBool(0.2)) {
    r.owner_comm = static_cast<uint32_t>(rng.NextBounded(4));
  }
  if (rng.NextBool(0.2)) {
    r.owner_cgroup = static_cast<uint32_t>(rng.NextBounded(3) + 1);
  }
  const auto action = rng.NextBounded(3);
  r.action = static_cast<FilterAction>(action);
  return r;
}

std::unique_ptr<test::ContextBundle> RandomPacket(Rng& rng) {
  // Small value domains so rules and packets actually collide.
  const auto src_port = static_cast<uint16_t>(rng.NextBounded(100));
  const auto dst_port = static_cast<uint16_t>(rng.NextBounded(100));
  const auto dir = rng.NextBool(0.5) ? Direction::kTx : Direction::kRx;
  overlay::ConnMetadata owner;
  owner.conn_id = 1;
  owner.owner_uid = 1000 + static_cast<uint32_t>(rng.NextBounded(3));
  owner.owner_pid = 100 + static_cast<uint32_t>(rng.NextBounded(3));
  owner.owner_comm = static_cast<uint32_t>(rng.NextBounded(4));
  owner.owner_cgroup = static_cast<uint32_t>(rng.NextBounded(3) + 1);
  if (rng.NextBool(0.5)) {
    return test::MakeUdpContext(src_port, dst_port, dir, owner,
                                rng.NextBounded(64));
  }
  return test::MakeTcpContext(src_port, dst_port, net::TcpFlags::kAck, dir,
                              owner, rng.NextBounded(64));
}

std::string DumpRule(const FilterRule& r, size_t index) {
  std::ostringstream out;
  out << "rule[" << index << "]:";
  if (r.direction) {
    out << " dir=" << (*r.direction == Direction::kRx ? "rx" : "tx");
  }
  if (r.proto) {
    out << " proto=" << static_cast<int>(*r.proto);
  }
  if (r.src_ip) {
    out << " src=" << r.src_ip->ToString() << "/" << *r.src_ip_prefix;
  }
  if (r.dst_ip) {
    out << " dst=" << r.dst_ip->ToString() << "/" << *r.dst_ip_prefix;
  }
  if (r.src_port) {
    out << " sport=" << r.src_port->lo << "-" << r.src_port->hi;
  }
  if (r.dst_port) {
    out << " dport=" << r.dst_port->lo << "-" << r.dst_port->hi;
  }
  if (r.owner_uid) {
    out << " uid=" << *r.owner_uid;
  }
  if (r.owner_pid) {
    out << " pid=" << *r.owner_pid;
  }
  if (r.owner_comm) {
    out << " comm=" << *r.owner_comm;
  }
  if (r.owner_cgroup) {
    out << " cgroup=" << *r.owner_cgroup;
  }
  out << " -> " << static_cast<int>(r.action);
  return out.str();
}

class FilterDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FilterDifferentialTest, CompiledChainAgreesWithReference) {
  Rng rng(GetParam());
  for (int world = 0; world < 40; ++world) {
    const size_t num_rules = rng.NextBounded(12);
    FilterEngine engine(rng.NextBool(0.5) ? FilterAction::kAccept
                                          : FilterAction::kDrop);
    std::vector<FilterRule> rules;
    for (size_t i = 0; i < num_rules; ++i) {
      const FilterRule r = RandomRule(rng);
      auto added = engine.AppendRule(r);
      ASSERT_TRUE(added.ok()) << added.status();
      rules.push_back(r);
    }
    for (int trial = 0; trial < 40; ++trial) {
      auto pkt = RandomPacket(rng);
      const FilterAction expected =
          RefEvaluate(rules, engine.default_action(), pkt->ctx);
      const nic::StageResult stage = engine.Process(pkt->packet, pkt->ctx);
      const nic::Verdict got = stage.verdict;
      // The engine runs its protocol bucket decoded; the reference stepper
      // on the same bucket program must charge the same instructions.
      const auto stepped = overlay::Execute(
          engine.compiled_for(pkt->parsed.ipv4->protocol), pkt->ctx);
      ASSERT_TRUE(stepped.ok()) << stepped.status();
      ASSERT_EQ(stage.overlay_instructions, stepped->instructions_executed)
          << "world " << world << " trial " << trial;
      nic::Verdict want = nic::Verdict::kAccept;
      switch (expected) {
        case FilterAction::kAccept:
          want = nic::Verdict::kAccept;
          break;
        case FilterAction::kDrop:
          want = nic::Verdict::kDrop;
          break;
        case FilterAction::kSoftwareFallback:
          want = nic::Verdict::kSoftwareFallback;
          break;
      }
      if (got != want) {
        std::ostringstream dump;
        for (size_t i = 0; i < rules.size(); ++i) {
          dump << DumpRule(rules[i], i) << "\n";
        }
        dump << "default=" << static_cast<int>(engine.default_action())
             << "\npacket: " << (pkt->parsed.is_udp() ? "udp" : "tcp")
             << " dir=" << (pkt->ctx.direction == Direction::kRx ? "rx" : "tx")
             << " flow=" << pkt->parsed.flow()->ToString()
             << " uid=" << pkt->ctx.conn.owner_uid
             << " pid=" << pkt->ctx.conn.owner_pid
             << " comm=" << pkt->ctx.conn.owner_comm
             << " cgroup=" << pkt->ctx.conn.owner_cgroup;
        FAIL() << "divergence (world " << world << " trial " << trial
               << "):\n"
               << dump.str();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FilterDifferentialTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---- Run-heavy chains, every frame kind, mid-world changes ----

// Rules that mostly test one shared field, so consecutive rules form runs:
// port ranges drawn from a narrow domain overlap, abut or repeat, an exact
// port compiles to a jne among range tests, and prefixes of different
// lengths put different shifts on one field.
FilterRule RunHeavyRule(Rng& rng, int shared_field) {
  FilterRule r;
  const uint64_t proto = rng.NextBounded(10);
  if (proto < 6) {
    r.proto = IpProto::kUdp;
  } else if (proto < 8) {
    r.proto = IpProto::kTcp;
  } else if (proto < 9) {
    r.proto = IpProto::kIcmp;
  }
  const auto range = [&] {
    const auto lo = static_cast<uint16_t>(rng.NextBounded(40));
    const auto width = rng.NextBool(0.3) ? 0 : rng.NextBounded(6);
    return PortRange{lo, static_cast<uint16_t>(lo + width)};
  };
  switch (shared_field) {
    case 0:
      r.dst_port = range();
      break;
    case 1:
      r.src_port = range();
      break;
    default:
      r.dst_ip = Ipv4Address::FromOctets(
          10, 0, static_cast<uint8_t>(rng.NextBounded(2)),
          static_cast<uint8_t>(rng.NextBounded(4)));
      r.dst_ip_prefix = rng.NextBool(0.5)
                            ? 32
                            : static_cast<uint32_t>(rng.NextInRange(22, 31));
      break;
  }
  // Now and then a second test, or a rule outside the run.
  if (rng.NextBool(0.2)) {
    r.owner_uid = 1000 + static_cast<uint32_t>(rng.NextBounded(3));
  }
  if (rng.NextBool(0.1)) {
    r = RandomRule(rng);
  }
  r.action = static_cast<FilterAction>(rng.NextBounded(3));
  return r;
}

// Any frame the engine may see: UDP and TCP (bucketed with port fields),
// ICMP (bucketed, portless), ARP and a non-IP frame (full chain, no IPv4),
// a runt that does not parse at all, and a UDP frame cut inside its header
// (IPv4 with protocol UDP but no ports).
std::unique_ptr<test::ContextBundle> AnyFrame(Rng& rng) {
  const auto sport = static_cast<uint16_t>(rng.NextBounded(45));
  const auto dport = static_cast<uint16_t>(rng.NextBounded(45));
  const auto dir = rng.NextBool(0.5) ? Direction::kTx : Direction::kRx;
  overlay::ConnMetadata owner;
  owner.conn_id = 1;
  owner.owner_uid = 1000 + static_cast<uint32_t>(rng.NextBounded(3));
  owner.owner_pid = 100 + static_cast<uint32_t>(rng.NextBounded(3));
  const net::FrameEndpoints ep{
      net::MacAddress::ForHost(1), net::MacAddress::ForHost(2),
      Ipv4Address::FromOctets(10, 0, 0,
                              static_cast<uint8_t>(rng.NextBounded(4))),
      Ipv4Address::FromOctets(10, 0, static_cast<uint8_t>(rng.NextBounded(2)),
                              static_cast<uint8_t>(rng.NextBounded(4)))};
  switch (rng.NextBounded(7)) {
    case 0:
    case 1:
      return test::MakeFrameContext(
          net::BuildUdpFrame(ep, sport, dport, std::vector<uint8_t>(8, 1)),
          dir, owner);
    case 2:
      return test::MakeFrameContext(
          net::BuildTcpFrame(ep, sport, dport, 1, 1, net::TcpFlags::kAck, {}),
          dir, owner);
    case 3:
      return test::MakeFrameContext(
          net::BuildIcmpEchoFrame(ep, net::IcmpType::kEchoRequest, sport, 1,
                                  {}),
          dir, owner);
    case 4:
      return test::MakeFrameContext(
          net::BuildArpRequest(ep.src_mac, ep.src_ip, ep.dst_ip), dir, owner);
    case 5: {
      std::vector<uint8_t> frame =
          net::BuildUdpFrame(ep, sport, dport, std::vector<uint8_t>(8, 1));
      frame.resize(net::kEthernetHeaderSize + 20 + 4);
      return test::MakeFrameContext(std::move(frame), dir, owner);
    }
    default:
      return test::MakeFrameContext(std::vector<uint8_t>(9, 0xab), dir, owner);
  }
}

class FilterRunDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FilterRunDifferentialTest, EngineMatchesStepperAndReference) {
  Rng rng(GetParam());
  int bucketed = 0;
  int full_chain = 0;
  int udp_runs = 0;
  size_t longest = 0;
  for (int world = 0; world < 12; ++world) {
    const int shared_field = static_cast<int>(rng.NextBounded(3));
    FilterEngine engine(static_cast<FilterAction>(rng.NextBounded(3)));
    std::vector<FilterRule> rules;
    std::vector<uint64_t> hits;
    uint64_t default_hits = 0;
    // Grow the chain toward ~60 rules, stopping where the compiled chain
    // would overflow instruction memory.
    const size_t target = 20 + rng.NextBounded(41);
    while (rules.size() < target) {
      const FilterRule r = RunHeavyRule(rng, shared_field);
      if (!engine.AppendRule(r).ok()) break;
      rules.push_back(r);
      hits.push_back(0);
    }
    longest = std::max(longest, rules.size());
    udp_runs += static_cast<int>(engine.executable_for(IpProto::kUdp).runs());
    for (int trial = 0; trial < 120; ++trial) {
      if (trial % 20 == 19) {
        // Mid-world change: delete a random rule or append one.
        if (!rules.empty() && rng.NextBool(0.5)) {
          const size_t at = rng.NextBounded(rules.size());
          ASSERT_TRUE(engine.DeleteRule(at).ok());
          rules.erase(rules.begin() + static_cast<ptrdiff_t>(at));
          hits.erase(hits.begin() + static_cast<ptrdiff_t>(at));
        } else {
          const FilterRule r = RunHeavyRule(rng, shared_field);
          if (engine.AppendRule(r).ok()) {
            rules.push_back(r);
            hits.push_back(0);
          }
        }
      }
      auto pkt = AnyFrame(rng);
      const net::ParsedPacket* parsed = pkt->ctx.parsed;
      const bool bucket = parsed != nullptr && parsed->is_ipv4();
      (bucket ? bucketed : full_chain)++;
      const overlay::Program& program =
          bucket ? engine.compiled_for(parsed->ipv4->protocol)
                 : engine.compiled();
      const auto stepped = overlay::Execute(program, pkt->ctx);
      ASSERT_TRUE(stepped.ok()) << stepped.status();
      const nic::StageResult stage = engine.Process(pkt->packet, pkt->ctx);
      const auto index = static_cast<uint32_t>(stepped->verdict >> 2);
      const auto action = static_cast<FilterAction>(stepped->verdict & 0x3);
      if (index == kDefaultRuleIndex) {
        ++default_hits;
      } else {
        ASSERT_LT(index, hits.size());
        ++hits[index];
      }
      std::ostringstream where;
      where << "seed " << GetParam() << " world " << world << " trial "
            << trial << " rules " << rules.size() << " field "
            << shared_field;
      ASSERT_EQ(stage.overlay_instructions, stepped->instructions_executed)
          << where.str();
      // nic::Verdict and FilterAction share their encodings.
      ASSERT_EQ(static_cast<int>(stage.verdict), static_cast<int>(action))
          << where.str();
      ASSERT_EQ(action, RefEvaluate(rules, engine.default_action(), pkt->ctx))
          << where.str();
      ASSERT_EQ(engine.hit_counts(), hits) << where.str();
      ASSERT_EQ(engine.default_hits(), default_hits) << where.str();
    }
  }
  EXPECT_GT(bucketed, 0);
  EXPECT_GT(full_chain, 0);
  EXPECT_GT(udp_runs, 6);     // the UDP buckets skip through runs
  EXPECT_GE(longest, 40u);    // and chains grow long
}

INSTANTIATE_TEST_SUITE_P(Seeds, FilterRunDifferentialTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// ---- Overlay level: random programs, random facts ----

// Programs shaped like the ones folding and runs act on: blocks that each
// load one of a few fields into r1 or r2 (sometimes shifted) and compare it
// up to three times, mostly jumping to the next block, with ALU work, byte
// probes and early rets mixed in.
overlay::Program RandomFieldTestProgram(Rng& rng) {
  using overlay::Field;
  using overlay::Instruction;
  using overlay::Opcode;
  static constexpr Field kFields[] = {Field::kIsIpv4,  Field::kIpProto,
                                      Field::kDstPort, Field::kSrcPort,
                                      Field::kOwnerUid, Field::kDirection};
  static constexpr Opcode kCompares[] = {Opcode::kJeq, Opcode::kJne,
                                         Opcode::kJgt, Opcode::kJlt,
                                         Opcode::kJge, Opcode::kJle};
  const size_t blocks = 2 + rng.NextBounded(30);
  // Each block's instructions, with jump targets as block ids; block
  // `blocks` is the tail of rets.
  std::vector<overlay::Program> code(blocks + 1);
  const Field run_field = kFields[rng.NextBounded(6)];
  for (size_t b = 0; b < blocks; ++b) {
    overlay::Program& out = code[b];
    const auto reg = static_cast<uint8_t>(1 + rng.NextBounded(2));
    const Field field =
        rng.NextBool(0.6) ? run_field : kFields[rng.NextBounded(6)];
    out.push_back(Instruction::Ldf(reg, field));
    if (rng.NextBool(0.2)) {
      out.push_back(Instruction::AluImm(
          Opcode::kShr, reg, static_cast<int64_t>(rng.NextBounded(3))));
    }
    const uint64_t ncmp = rng.NextBounded(4);
    for (uint64_t c = 0; c < ncmp; ++c) {
      const auto to = rng.NextBool(0.75)
                          ? b + 1
                          : b + 1 + rng.NextBounded(blocks - b);
      const int64_t imm = field == Field::kOwnerUid
                              ? 999 + static_cast<int64_t>(rng.NextBounded(4))
                          : field == Field::kIpProto
                              ? static_cast<int64_t>(rng.NextBounded(18))
                              : static_cast<int64_t>(rng.NextBounded(45));
      out.push_back(Instruction::JmpCmpImm(kCompares[rng.NextBounded(6)], reg,
                                           imm, static_cast<int64_t>(to)));
    }
    switch (rng.NextBounded(8)) {
      case 0:
        out.push_back(Instruction::AluReg(Opcode::kAdd, 3, reg));
        break;
      case 1:
        out.push_back(Instruction::Ldi(
            static_cast<uint8_t>(1 + rng.NextBounded(2)), 5));
        break;
      case 2:
        out.push_back(Instruction::Ldb(
            reg, static_cast<int64_t>(rng.NextBounded(64))));
        break;
      case 3:
        out.push_back(rng.NextBool(0.5)
                          ? Instruction::RetReg(reg)
                          : Instruction::RetImm(static_cast<int64_t>(b)));
        break;
      default:
        break;
    }
  }
  code[blocks] = {Instruction::RetReg(1), Instruction::RetReg(3),
                  Instruction::RetImm(-1)};
  std::vector<int64_t> start(blocks + 1);
  overlay::Program prog;
  for (size_t b = 0; b <= blocks; ++b) {
    start[b] = static_cast<int64_t>(prog.size());
    prog.insert(prog.end(), code[b].begin(), code[b].end());
  }
  for (overlay::Instruction& ins : prog) {
    if (overlay::IsJump(ins.op)) ins.jump_target = start[ins.jump_target];
  }
  return prog;
}

TEST(DecoderFactsDifferentialTest, RandomProgramsWithRandomFactsMatchStepper) {
  using overlay::Field;
  static constexpr Field kFactFields[] = {Field::kIsIpv4, Field::kIpProto,
                                          Field::kDstPort, Field::kOwnerUid,
                                          Field::kDirection};
  Rng rng(2024);
  std::vector<std::unique_ptr<test::ContextBundle>> frames;
  for (int i = 0; i < 48; ++i) frames.push_back(AnyFrame(rng));
  int folded = 0;
  int with_runs = 0;
  int runs_compared = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const overlay::Program prog = RandomFieldTestProgram(rng);
    ASSERT_TRUE(overlay::VerifyProgram(prog).ok()) << trial;
    // Facts taken from one frame, so at least that frame satisfies them.
    const overlay::PacketContext& anchor =
        frames[rng.NextBounded(frames.size())]->ctx;
    overlay::FieldFacts facts;
    for (const Field f : kFactFields) {
      if (rng.NextBool(0.4)) facts.Set(f, anchor.ReadField(f));
    }
    auto exe = overlay::Load(prog, facts);
    auto plain = overlay::Load(prog);
    ASSERT_TRUE(exe.ok() && plain.ok()) << trial;
    folded += exe->dispatches() < plain->dispatches() ? 1 : 0;
    with_runs += exe->runs() > 0 ? 1 : 0;
    for (const auto& frame : frames) {
      const overlay::PacketContext& ctx = frame->ctx;
      bool satisfies = true;
      for (const Field f : kFactFields) {
        satisfies &= !facts.Has(f) || ctx.ReadField(f) == facts.Get(f);
      }
      const auto stepped = overlay::Execute(prog, ctx);
      ASSERT_TRUE(stepped.ok()) << stepped.status();
      const overlay::ExecResult decoded = overlay::Execute(*plain, ctx);
      ASSERT_EQ(decoded.verdict, stepped->verdict) << "trial " << trial;
      ASSERT_EQ(decoded.instructions_executed, stepped->instructions_executed)
          << "trial " << trial;
      ASSERT_LE(decoded.dispatches, stepped->dispatches) << "trial " << trial;
      if (!satisfies) continue;
      const overlay::ExecResult known = overlay::Execute(*exe, ctx);
      ASSERT_EQ(known.verdict, stepped->verdict) << "trial " << trial;
      ASSERT_EQ(known.instructions_executed, stepped->instructions_executed)
          << "trial " << trial;
      runs_compared += exe->runs() > 0 ? 1 : 0;
    }
  }
  // The generator reaches both rewrites.
  EXPECT_GT(folded, 300);
  EXPECT_GT(with_runs, 300);
  EXPECT_GT(runs_compared, 1000);
}

}  // namespace
}  // namespace norman::dataplane

#include <gtest/gtest.h>

#include <initializer_list>

#include "src/net/packet_builder.h"
#include "src/net/parsed_packet.h"
#include "src/overlay/assembler.h"
#include "src/overlay/executable.h"
#include "src/overlay/interpreter.h"
#include "src/overlay/verifier.h"

namespace norman::overlay {
namespace {

using net::FrameEndpoints;
using net::Ipv4Address;
using net::MacAddress;

// A UDP frame plus parse + context, bundled for test convenience.
struct TestPacket {
  std::vector<uint8_t> frame;
  net::ParsedPacket parsed;
  PacketContext ctx;
};

TestPacket MakeUdpPacket(uint16_t src_port, uint16_t dst_port,
                         uint32_t owner_uid = 1000,
                         uint32_t owner_pid = 4242) {
  TestPacket tp;
  FrameEndpoints ep{MacAddress::ForHost(1), MacAddress::ForHost(2),
                    Ipv4Address::FromOctets(10, 0, 0, 1),
                    Ipv4Address::FromOctets(10, 0, 0, 2)};
  const std::vector<uint8_t> payload(32, 0xee);
  tp.frame = BuildUdpFrame(ep, src_port, dst_port, payload);
  tp.parsed = *net::ParseFrame(tp.frame);
  tp.ctx.frame = tp.frame;
  tp.ctx.parsed = &tp.parsed;
  tp.ctx.conn = ConnMetadata{7, owner_uid, owner_pid, 3};
  tp.ctx.direction = net::Direction::kTx;
  return tp;
}

// Runs `prog` on the reference stepper and, decoded, on the dataplane's
// engine; both must agree on the verdict and the instruction count.
ExecResult MustRunBoth(const Program& prog, const PacketContext& ctx) {
  EXPECT_TRUE(VerifyProgram(prog).ok()) << VerifyProgram(prog);
  auto r = Execute(prog, ctx);
  EXPECT_TRUE(r.ok()) << r.status();
  auto exe = Load(prog);
  EXPECT_TRUE(exe.ok()) << exe.status();
  if (!r.ok() || !exe.ok()) return {};
  const ExecResult decoded = Execute(*exe, ctx);
  EXPECT_EQ(decoded.verdict, r->verdict);
  EXPECT_EQ(decoded.instructions_executed, r->instructions_executed);
  return *r;
}

int64_t MustRun(const Program& prog, const PacketContext& ctx) {
  return MustRunBoth(prog, ctx).verdict;
}

TEST(InterpreterTest, RetImmediate) {
  Program p{Instruction::RetImm(42)};
  const auto tp = MakeUdpPacket(1, 2);
  EXPECT_EQ(MustRun(p, tp.ctx), 42);
}

TEST(InterpreterTest, RegistersStartAtZero) {
  Program p{Instruction::RetReg(5)};
  const auto tp = MakeUdpPacket(1, 2);
  EXPECT_EQ(MustRun(p, tp.ctx), 0);
}

TEST(InterpreterTest, AluOperations) {
  // r1 = 10; r1 += 5; r1 *= 3; r1 ^= 1; r1 <<= 2; ret r1 -> ((45^1)<<2)
  Program p{
      Instruction::Ldi(1, 10),
      Instruction::AluImm(Opcode::kAdd, 1, 5),
      Instruction::AluImm(Opcode::kMul, 1, 3),
      Instruction::AluImm(Opcode::kXor, 1, 1),
      Instruction::AluImm(Opcode::kShl, 1, 2),
      Instruction::RetReg(1),
  };
  const auto tp = MakeUdpPacket(1, 2);
  EXPECT_EQ(MustRun(p, tp.ctx), ((45 ^ 1) << 2));
}

TEST(InterpreterTest, RegisterToRegisterAlu) {
  Program p{
      Instruction::Ldi(1, 100),
      Instruction::Ldi(2, 33),
      Instruction::AluReg(Opcode::kSub, 1, 2),
      Instruction::RetReg(1),
  };
  const auto tp = MakeUdpPacket(1, 2);
  EXPECT_EQ(MustRun(p, tp.ctx), 67);
}

TEST(InterpreterTest, FieldLoads) {
  const auto tp = MakeUdpPacket(5432, 3306, /*uid=*/1001, /*pid=*/777);
  struct Case {
    Field field;
    uint64_t expected;
  };
  const Case cases[] = {
      {Field::kEthType, 0x0800},
      {Field::kIsIpv4, 1},
      {Field::kIsArp, 0},
      {Field::kIpProto, 17},
      {Field::kSrcPort, 5432},
      {Field::kDstPort, 3306},
      {Field::kOwnerUid, 1001},
      {Field::kOwnerPid, 777},
      {Field::kConnId, 7},
      {Field::kOwnerCgroup, 3},
      {Field::kDirection, 0},
      {Field::kPayloadLen, 32},
      {Field::kIpSrc, Ipv4Address::FromOctets(10, 0, 0, 1).addr},
      {Field::kIpDst, Ipv4Address::FromOctets(10, 0, 0, 2).addr},
      {Field::kTcpFlags, 0},
  };
  for (const auto& c : cases) {
    Program p{Instruction::Ldf(1, c.field), Instruction::RetReg(1)};
    EXPECT_EQ(static_cast<uint64_t>(MustRun(p, tp.ctx)), c.expected)
        << FieldName(c.field);
  }
}

TEST(InterpreterTest, ByteProbeInAndOutOfBounds) {
  const auto tp = MakeUdpPacket(1, 2);
  {
    Program p{Instruction::Ldb(1, 0), Instruction::RetReg(1)};
    EXPECT_EQ(MustRun(p, tp.ctx), tp.frame[0]);
  }
  {
    Program p{Instruction::Ldb(1, 200), Instruction::RetReg(1)};
    EXPECT_EQ(MustRun(p, tp.ctx), 0);  // past end reads 0
  }
}

TEST(InterpreterTest, ConditionalBranchTakenAndNot) {
  const auto tp = MakeUdpPacket(100, 200);
  // if dst_port == 200 ret 1 else ret 0
  Program p{
      Instruction::Ldf(1, Field::kDstPort),
      Instruction::JmpCmpImm(Opcode::kJeq, 1, 200, 3),
      Instruction::RetImm(0),
      Instruction::RetImm(1),
  };
  EXPECT_EQ(MustRun(p, tp.ctx), 1);
  const auto tp2 = MakeUdpPacket(100, 999);
  EXPECT_EQ(MustRun(p, tp2.ctx), 0);
}

TEST(InterpreterTest, AllComparisonOps) {
  struct Case {
    Opcode op;
    int64_t cmp;
    int64_t expected;  // 1 if branch taken
  };
  // r1 holds 50.
  const Case cases[] = {
      {Opcode::kJeq, 50, 1}, {Opcode::kJeq, 51, 0}, {Opcode::kJne, 51, 1},
      {Opcode::kJne, 50, 0}, {Opcode::kJgt, 49, 1}, {Opcode::kJgt, 50, 0},
      {Opcode::kJlt, 51, 1}, {Opcode::kJlt, 50, 0}, {Opcode::kJge, 50, 1},
      {Opcode::kJge, 51, 0}, {Opcode::kJle, 50, 1}, {Opcode::kJle, 49, 0},
  };
  const auto tp = MakeUdpPacket(1, 2);
  for (const auto& c : cases) {
    Program p{
        Instruction::Ldi(1, 50),
        Instruction::JmpCmpImm(c.op, 1, c.cmp, 3),
        Instruction::RetImm(0),
        Instruction::RetImm(1),
    };
    EXPECT_EQ(MustRun(p, tp.ctx), c.expected)
        << OpcodeName(c.op) << " vs " << c.cmp;
  }
}

TEST(InterpreterTest, InstructionCountReported) {
  Program p{
      Instruction::Ldi(1, 1),
      Instruction::Ldi(2, 2),
      Instruction::RetImm(0),
  };
  const auto tp = MakeUdpPacket(1, 2);
  auto r = Execute(p, tp.ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->instructions_executed, 3u);
}

TEST(InterpreterTest, UnverifiedFallOffEndFails) {
  Program p{Instruction::Ldi(1, 1)};
  const auto tp = MakeUdpPacket(1, 2);
  EXPECT_FALSE(Execute(p, tp.ctx).ok());
}

// --- Load-time decoding ---

size_t Dispatches(const Program& prog) {
  auto exe = Load(prog);
  EXPECT_TRUE(exe.ok()) << exe.status();
  return exe.ok() ? exe->dispatches() : 0;
}

TEST(DecoderTest, FusedFieldTestChargesEachInstructionItRuns) {
  // ldf + shr + three compares fuse into one dispatch; each exit charges
  // exactly what the stepper executes up to its jump, plus the ret.
  Program p{
      Instruction::Ldf(1, Field::kDstPort),
      Instruction::AluImm(Opcode::kShr, 1, 4),
      Instruction::JmpCmpImm(Opcode::kJeq, 1, 1, 6),   // port 16..31
      Instruction::JmpCmpImm(Opcode::kJlt, 1, 3, 7),   // port 0..15, 32..47
      Instruction::JmpCmpImm(Opcode::kJgt, 1, 10, 8),  // port >= 176
      Instruction::RetImm(0),
      Instruction::RetImm(1),
      Instruction::RetImm(2),
      Instruction::RetImm(3),
  };
  EXPECT_EQ(Dispatches(p), 5u);
  const struct {
    uint16_t port;
    int64_t verdict;
    uint32_t instructions;
  } cases[] = {{20, 1, 4}, {40, 2, 5}, {500, 3, 6}, {100, 0, 6}};
  for (const auto& c : cases) {
    const auto tp = MakeUdpPacket(1, c.port);
    const ExecResult r = MustRunBoth(p, tp.ctx);
    EXPECT_EQ(r.verdict, c.verdict) << c.port;
    EXPECT_EQ(r.instructions_executed, c.instructions) << c.port;
  }
}

TEST(DecoderTest, FourthCompareStartsANewDispatch) {
  Program p{
      Instruction::Ldf(1, Field::kDstPort),
      Instruction::JmpCmpImm(Opcode::kJeq, 1, 1, 6),
      Instruction::JmpCmpImm(Opcode::kJeq, 1, 2, 6),
      Instruction::JmpCmpImm(Opcode::kJeq, 1, 3, 6),
      Instruction::JmpCmpImm(Opcode::kJeq, 1, 4, 6),
      Instruction::RetImm(0),
      Instruction::RetImm(1),
  };
  EXPECT_EQ(Dispatches(p), 4u);
  for (uint16_t port = 0; port < 6; ++port) {
    MustRunBoth(p, MakeUdpPacket(1, port).ctx);
  }
}

TEST(DecoderTest, JumpIntoAGroupSplitsIt) {
  // The guard at 1 lands on the 2nd (shr) or 3rd (first compare)
  // instruction of the would-be group at 2: the group must end before the
  // target, so both entry paths run the same instructions as the stepper.
  for (const int64_t entry : {3, 4}) {
    Program p{
        Instruction::Ldf(2, Field::kSrcPort),
        Instruction::JmpCmpImm(Opcode::kJeq, 2, 7, entry),
        Instruction::Ldf(1, Field::kDstPort),
        Instruction::AluImm(Opcode::kShr, 1, 1),
        Instruction::JmpCmpImm(Opcode::kJne, 1, 50, 7),
        Instruction::JmpCmpImm(Opcode::kJeq, 1, 50, 8),
        Instruction::RetImm(0),
        Instruction::RetReg(1),
        Instruction::RetImm(2),
    };
    // [ldf+jeq] [ldf(+shr)] [target...] ... four rets/tails.
    EXPECT_EQ(Dispatches(p), entry == 3 ? 8u : 7u) << entry;
    for (const uint16_t sport : std::initializer_list<uint16_t>{7, 8}) {
      for (const uint16_t dport :
           std::initializer_list<uint16_t>{100, 101, 3}) {
        MustRunBoth(p, MakeUdpPacket(sport, dport).ctx);
      }
    }
  }
}

TEST(DecoderTest, CompareOnAnotherRegisterDoesNotFuse) {
  Program p{
      Instruction::Ldi(2, 5),
      Instruction::Ldf(1, Field::kDstPort),
      Instruction::JmpCmpImm(Opcode::kJeq, 2, 5, 4),  // r2, not r1
      Instruction::RetImm(0),
      Instruction::RetReg(1),
  };
  EXPECT_EQ(Dispatches(p), 5u);
  EXPECT_EQ(MustRun(p, MakeUdpPacket(1, 80).ctx), 80);
}

TEST(DecoderTest, CompareAgainstRegisterDoesNotFuse) {
  Program p{
      Instruction::Ldi(2, 80),
      Instruction::Ldf(1, Field::kDstPort),
      Instruction::JmpCmpReg(Opcode::kJeq, 1, 2, 4),
      Instruction::RetImm(0),
      Instruction::RetImm(1),
  };
  EXPECT_EQ(Dispatches(p), 5u);
  EXPECT_EQ(MustRun(p, MakeUdpPacket(1, 80).ctx), 1);
  EXPECT_EQ(MustRun(p, MakeUdpPacket(1, 81).ctx), 0);
}

TEST(DecoderTest, ShiftByRegisterDoesNotFuse) {
  Program p{
      Instruction::Ldi(2, 4),
      Instruction::Ldf(1, Field::kDstPort),
      Instruction::AluReg(Opcode::kShr, 1, 2),
      Instruction::JmpCmpImm(Opcode::kJeq, 1, 5, 5),
      Instruction::RetImm(0),
      Instruction::RetReg(1),
  };
  // ldi, ldf (alone: the shift is by register), shr, jeq, two rets.
  EXPECT_EQ(Dispatches(p), 6u);
  EXPECT_EQ(MustRun(p, MakeUdpPacket(1, 80).ctx), 5);
  EXPECT_EQ(MustRun(p, MakeUdpPacket(1, 96).ctx), 0);
}

TEST(DecoderTest, RetByRegisterSeesTheShiftedLoad) {
  Program p{
      Instruction::Ldf(3, Field::kIpSrc),
      Instruction::AluImm(Opcode::kShr, 3, 24),
      Instruction::RetReg(3),
  };
  EXPECT_EQ(Dispatches(p), 2u);
  EXPECT_EQ(MustRun(p, MakeUdpPacket(1, 2).ctx), 10);
}

TEST(DecoderTest, EveryFieldMatchesTheStepper) {
  const auto udp = MakeUdpPacket(5432, 3306, /*uid=*/1001, /*pid=*/777);
  PacketContext unparsed = udp.ctx;
  unparsed.parsed = nullptr;
  unparsed.direction = net::Direction::kRx;
  for (int f = 0; f < kNumFields; ++f) {
    const auto field = static_cast<Field>(f);
    for (const PacketContext& ctx : {udp.ctx, unparsed}) {
      const uint64_t value = ctx.ReadField(field);
      // The field is loaded twice (the second read comes from the memo)
      // and tested by a fused compare.
      Program p{
          Instruction::Ldf(1, field),
          Instruction::JmpCmpImm(Opcode::kJne, 1,
                                 static_cast<int64_t>(value), 4),
          Instruction::Ldf(2, field),
          Instruction::RetReg(2),
          Instruction::RetImm(-1),
      };
      EXPECT_EQ(static_cast<uint64_t>(MustRun(p, ctx)), value)
          << FieldName(field);
    }
  }
}

TEST(DecoderTest, LoadRejectsWhatTheVerifierRejects) {
  EXPECT_FALSE(Load({}).ok());
  EXPECT_FALSE(Load({Instruction::Ldi(1, 0)}).ok());  // falls off the end
  EXPECT_FALSE(Load({Instruction::Ldf(1, static_cast<Field>(kNumFields)),
                     Instruction::RetImm(0)})
                   .ok());
  EXPECT_TRUE(Executable().empty());
  auto exe = Load({Instruction::RetImm(1)});
  ASSERT_TRUE(exe.ok());
  EXPECT_EQ(exe->size(), 1u);
}

// --- Verifier ---

TEST(VerifierTest, AcceptsMinimalProgram) {
  EXPECT_TRUE(VerifyProgram({Instruction::RetImm(1)}).ok());
}

TEST(VerifierTest, RejectsEmpty) {
  EXPECT_FALSE(VerifyProgram({}).ok());
}

TEST(VerifierTest, RejectsOverlongProgram) {
  Program p(kMaxProgramLength + 1, Instruction::RetImm(0));
  EXPECT_FALSE(VerifyProgram(p).ok());
}

TEST(VerifierTest, RejectsBackwardJump) {
  Program p{
      Instruction::Ldi(1, 0),
      Instruction::JmpCmpImm(Opcode::kJeq, 1, 0, 0),  // backward
      Instruction::RetImm(0),
  };
  auto s = VerifyProgram(p);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("backward"), std::string::npos);
}

TEST(VerifierTest, RejectsSelfJump) {
  Program p{
      Instruction::Jmp(0),
      Instruction::RetImm(0),
  };
  EXPECT_FALSE(VerifyProgram(p).ok());
}

TEST(VerifierTest, RejectsOutOfBoundsJump) {
  Program p{
      Instruction::JmpCmpImm(Opcode::kJeq, 1, 0, 99),
      Instruction::RetImm(0),
  };
  EXPECT_FALSE(VerifyProgram(p).ok());
}

TEST(VerifierTest, RejectsFallOffEnd) {
  Program p{Instruction::Ldi(1, 5)};
  EXPECT_FALSE(VerifyProgram(p).ok());
}

TEST(VerifierTest, RejectsTrailingUnconditionalJump) {
  Program p{Instruction::RetImm(0), Instruction::Jmp(1)};
  EXPECT_FALSE(VerifyProgram(p).ok());
}

TEST(VerifierTest, RejectsBadRegister) {
  Instruction bad = Instruction::Ldi(99, 0);
  EXPECT_FALSE(VerifyProgram({bad, Instruction::RetImm(0)}).ok());
}

TEST(VerifierTest, RejectsBadFieldId) {
  Instruction bad = Instruction::Ldf(1, static_cast<Field>(200));
  EXPECT_FALSE(VerifyProgram({bad, Instruction::RetImm(0)}).ok());
}

TEST(VerifierTest, RejectsBadByteOffset) {
  EXPECT_FALSE(
      VerifyProgram({Instruction::Ldb(1, 9999), Instruction::RetImm(0)})
          .ok());
  EXPECT_FALSE(
      VerifyProgram({Instruction::Ldb(1, -1), Instruction::RetImm(0)}).ok());
}

TEST(VerifierTest, RejectsHugeShiftImmediate) {
  EXPECT_FALSE(VerifyProgram({Instruction::AluImm(Opcode::kShl, 1, 64),
                              Instruction::RetImm(0)})
                   .ok());
  EXPECT_TRUE(VerifyProgram({Instruction::AluImm(Opcode::kShl, 1, 63),
                             Instruction::RetImm(0)})
                  .ok());
}

// --- Assembler ---

TEST(AssemblerTest, AssemblesAndRunsFilter) {
  constexpr std::string_view kSource = R"(
      ; accept only UDP to port 53
      ldf r1, ip_proto
      jne r1, 17, drop
      ldf r2, dst_port
      jeq r2, 53, accept
  drop:
      ret 0
  accept:
      ret 1
  )";
  auto prog = Assemble(kSource);
  ASSERT_TRUE(prog.ok()) << prog.status();
  ASSERT_TRUE(VerifyProgram(*prog).ok()) << VerifyProgram(*prog);

  const auto dns = MakeUdpPacket(1234, 53);
  const auto web = MakeUdpPacket(1234, 80);
  EXPECT_EQ(Execute(*prog, dns.ctx)->verdict, 1);
  EXPECT_EQ(Execute(*prog, web.ctx)->verdict, 0);
}

TEST(AssemblerTest, LabelOnSameLineAsInstruction) {
  auto prog = Assemble("start: ret 7");
  ASSERT_TRUE(prog.ok()) << prog.status();
  EXPECT_EQ(prog->size(), 1u);
  EXPECT_EQ((*prog)[0], Instruction::RetImm(7));
}

TEST(AssemblerTest, HexImmediates) {
  auto prog = Assemble("ldi r1, 0x0800\nret r1");
  ASSERT_TRUE(prog.ok()) << prog.status();
  const auto tp = MakeUdpPacket(1, 2);
  EXPECT_EQ(MustRun(*prog, tp.ctx), 0x0800);
}

TEST(AssemblerTest, NegativeImmediates) {
  auto prog = Assemble("ldi r1, -5\nret r1");
  ASSERT_TRUE(prog.ok()) << prog.status();
  ASSERT_EQ((*prog)[0].imm, -5);
}

TEST(AssemblerTest, CommentsAndBlankLines) {
  auto prog = Assemble("# hash comment\n\n  ; semi comment\nret 1 ; tail\n");
  ASSERT_TRUE(prog.ok()) << prog.status();
  EXPECT_EQ(prog->size(), 1u);
}

TEST(AssemblerTest, ErrorsCarryLineNumbers) {
  auto prog = Assemble("ret 1\nbogus r1, r2\n");
  ASSERT_FALSE(prog.ok());
  EXPECT_NE(prog.status().message().find("line 2"), std::string::npos);
}

TEST(AssemblerTest, UnknownLabelFails) {
  auto prog = Assemble("jmp nowhere\nret 0");
  EXPECT_FALSE(prog.ok());
}

TEST(AssemblerTest, DuplicateLabelFails) {
  auto prog = Assemble("a: ret 0\na: ret 1");
  EXPECT_FALSE(prog.ok());
}

TEST(AssemblerTest, WrongOperandCountFails) {
  EXPECT_FALSE(Assemble("ldi r1\nret 0").ok());
  EXPECT_FALSE(Assemble("ret 0, 1").ok());
  EXPECT_FALSE(Assemble("jeq r1, 2\nret 0").ok());
}

TEST(AssemblerTest, BadRegisterFails) {
  EXPECT_FALSE(Assemble("ldi r16, 0\nret 0").ok());
  EXPECT_FALSE(Assemble("ldi rx, 0\nret 0").ok());
}

TEST(AssemblerTest, UnknownFieldFails) {
  EXPECT_FALSE(Assemble("ldf r1, not_a_field\nret 0").ok());
}

TEST(AssemblerTest, DisassembleRoundTrip) {
  constexpr std::string_view kSource = R"(
      ldf r1, owner_uid
      jeq r1, 1000, yes
      ldb r2, 14
      add r2, r1
      shr r2, 3
      ret r2
  yes:
      ret 1
  )";
  auto prog = Assemble(kSource);
  ASSERT_TRUE(prog.ok()) << prog.status();
  const std::string text = Disassemble(*prog);
  // Disassembly mentions each mnemonic and resolves fields symbolically.
  EXPECT_NE(text.find("ldf r1, owner_uid"), std::string::npos);
  EXPECT_NE(text.find("jeq r1, 1000, 6"), std::string::npos);
  EXPECT_NE(text.find("ret 1"), std::string::npos);
}

TEST(AssemblerTest, RegisterComparandJump) {
  constexpr std::string_view kSource = R"(
      ldf r1, src_port
      ldf r2, dst_port
      jeq r1, r2, same
      ret 0
  same:
      ret 1
  )";
  auto prog = Assemble(kSource);
  ASSERT_TRUE(prog.ok()) << prog.status();
  const auto same = MakeUdpPacket(77, 77);
  const auto diff = MakeUdpPacket(77, 78);
  EXPECT_EQ(MustRun(*prog, same.ctx), 1);
  EXPECT_EQ(MustRun(*prog, diff.ctx), 0);
}

}  // namespace
}  // namespace norman::overlay

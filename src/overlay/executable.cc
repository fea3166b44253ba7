#include "src/overlay/executable.h"

#include <array>

#include "src/common/logging.h"
#include "src/overlay/verifier.h"

namespace norman::overlay {
namespace {

// Execute() keeps one valid bit per Field in a 32-bit mask.
static_assert(kNumFields <= 32, "Field ids must fit the field memo's mask");

bool IsCompareJump(Opcode op) { return IsJump(op) && op != Opcode::kJmp; }

bool Taken(Opcode op, uint64_t lhs, uint64_t rhs) {
  switch (op) {
    case Opcode::kJeq:
      return lhs == rhs;
    case Opcode::kJne:
      return lhs != rhs;
    case Opcode::kJgt:
      return lhs > rhs;
    case Opcode::kJlt:
      return lhs < rhs;
    case Opcode::kJge:
      return lhs >= rhs;
    case Opcode::kJle:
      return lhs <= rhs;
    default:
      return false;
  }
}

}  // namespace

StatusOr<Executable> Load(const Program& program) {
  NORMAN_RETURN_IF_ERROR(VerifyProgram(program));
  // Verified: size <= kMaxProgramLength and every jump target lies in
  // (pc, size), so both tables below are indexed in bounds.
  const size_t n = program.size();
  std::array<bool, kMaxProgramLength> is_target{};
  for (const Instruction& ins : program) {
    if (IsJump(ins.op)) {
      is_target[static_cast<size_t>(ins.jump_target)] = true;
    }
  }
  // Instruction index -> dispatch index, filled for dispatch starts.
  std::array<uint32_t, kMaxProgramLength> dispatch_of{};
  // Instruction `pc` may join the group before it: no branch lands on it.
  const auto joinable = [&](size_t pc) { return pc < n && !is_target[pc]; };

  Executable exe;
  exe.program_size_ = n;
  exe.ops_.reserve(n);
  for (size_t pc = 0; pc < n;) {
    const Instruction& ins = program[pc];
    dispatch_of[pc] = static_cast<uint32_t>(exe.ops_.size());
    // Filled in place: building the op on the stack and copying it in
    // made decoding 2.5x slower.
    Executable::Op& op = exe.ops_.emplace_back();
    op.op = ins.op;
    op.dst = ins.dst;
    op.src = ins.src;
    op.use_imm = ins.use_imm;
    op.imm = ins.imm;
    if (IsJump(ins.op)) {
      op.target = static_cast<uint32_t>(ins.jump_target);
    }
    ++pc;
    if (ins.op == Opcode::kLdf) {
      if (joinable(pc) && program[pc].op == Opcode::kShr &&
          program[pc].use_imm && program[pc].dst == ins.dst) {
        op.has_shift = true;
        op.shift = static_cast<uint8_t>(program[pc].imm);
        ++pc;
      }
      while (op.ncmp < kMaxFusedCompares && joinable(pc) &&
             IsCompareJump(program[pc].op) && program[pc].use_imm &&
             program[pc].dst == ins.dst) {
        Executable::Compare& cmp = op.cmps[op.ncmp++];
        cmp.op = program[pc].op;
        cmp.imm = static_cast<uint64_t>(program[pc].imm);
        cmp.target = static_cast<uint32_t>(program[pc].jump_target);
        ++pc;
      }
    }
  }
  // Branch targets become dispatch indices. Groups never absorb a jump
  // target, so every target starts a dispatch, and a later one: Execute()
  // relies on that to terminate.
  for (size_t i = 0; i < exe.ops_.size(); ++i) {
    Executable::Op& op = exe.ops_[i];
    const auto remap = [&](uint32_t pc) {
      const uint32_t d = dispatch_of[pc];
      NORMAN_CHECK(d > i) << "overlay: jump target " << pc
                          << " does not start a later dispatch";
      return d;
    };
    if (IsJump(op.op)) {
      op.target = remap(op.target);
    }
    for (int k = 0; k < op.ncmp; ++k) {
      op.cmps[k].target = remap(op.cmps[k].target);
    }
  }
  return exe;
}

ExecResult Execute(const Executable& exe, const PacketContext& ctx) {
  NORMAN_CHECK(!exe.empty()) << "overlay: no program loaded";
  std::array<uint64_t, kNumRegisters> regs{};
  // Per-run field memo: each distinct field is read from `ctx` once.
  std::array<uint64_t, kNumFields> fields;
  uint32_t valid = 0;
  uint32_t executed = 0;
  // Verified and decoded: branches only go forward and the last dispatch
  // is a ret, so the walk ends at a ret without bounds checks.
  const Executable::Op* ops = exe.ops_.data();
  size_t i = 0;
  for (;;) {
    const Executable::Op& op = ops[i];
    ++executed;
    const auto rhs = [&] {
      return op.use_imm ? static_cast<uint64_t>(op.imm) : regs[op.src];
    };
    switch (op.op) {
      case Opcode::kNop:
        break;
      case Opcode::kLdi:
        regs[op.dst] = static_cast<uint64_t>(op.imm);
        break;
      case Opcode::kLdf: {
        const auto f = static_cast<uint32_t>(op.imm);
        if ((valid & (1u << f)) == 0) {
          fields[f] = ctx.ReadField(static_cast<Field>(f));
          valid |= 1u << f;
        }
        uint64_t value = fields[f];
        if (op.has_shift) {
          value >>= op.shift;
          ++executed;
        }
        regs[op.dst] = value;
        size_t next = i + 1;
        for (int k = 0; k < op.ncmp; ++k) {
          ++executed;
          if (Taken(op.cmps[k].op, value, op.cmps[k].imm)) {
            next = op.cmps[k].target;
            break;
          }
        }
        i = next;
        continue;
      }
      case Opcode::kLdb:
        regs[op.dst] = ctx.ReadByte(op.imm);
        break;
      case Opcode::kAdd:
        regs[op.dst] += rhs();
        break;
      case Opcode::kSub:
        regs[op.dst] -= rhs();
        break;
      case Opcode::kAnd:
        regs[op.dst] &= rhs();
        break;
      case Opcode::kOr:
        regs[op.dst] |= rhs();
        break;
      case Opcode::kXor:
        regs[op.dst] ^= rhs();
        break;
      case Opcode::kShl:
        regs[op.dst] <<= (rhs() & 63);
        break;
      case Opcode::kShr:
        regs[op.dst] >>= (rhs() & 63);
        break;
      case Opcode::kMul:
        regs[op.dst] *= rhs();
        break;
      case Opcode::kJmp:
        i = op.target;
        continue;
      case Opcode::kJeq:
      case Opcode::kJne:
      case Opcode::kJgt:
      case Opcode::kJlt:
      case Opcode::kJge:
      case Opcode::kJle:
        if (Taken(op.op, regs[op.dst], rhs())) {
          i = op.target;
          continue;
        }
        break;
      case Opcode::kRet:
        return ExecResult{
            op.use_imm ? op.imm : static_cast<int64_t>(regs[op.dst]),
            executed};
    }
    ++i;
  }
}

}  // namespace norman::overlay

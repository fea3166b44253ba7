#include "src/overlay/verifier.h"

#include <string>
#include <vector>

namespace norman::overlay {
namespace {

Status Err(size_t pc, const std::string& what) {
  return InvalidArgumentError("overlay verifier: instr " + std::to_string(pc) +
                              ": " + what);
}

bool ValidField(int64_t raw) {
  return raw >= 0 && raw < kNumFields;
}

}  // namespace

Status VerifyProgram(const Program& program) {
  if (program.empty()) {
    return InvalidArgumentError("overlay verifier: empty program");
  }
  if (program.size() > kMaxProgramLength) {
    return InvalidArgumentError(
        "overlay verifier: program exceeds instruction memory (" +
        std::to_string(program.size()) + " > " +
        std::to_string(kMaxProgramLength) + ")");
  }

  const auto size = static_cast<int64_t>(program.size());
  for (size_t pc = 0; pc < program.size(); ++pc) {
    const Instruction& ins = program[pc];
    if (ins.dst >= kNumRegisters) {
      return Err(pc, "register r" + std::to_string(ins.dst) + " out of range");
    }
    if (!ins.use_imm && ins.src >= kNumRegisters) {
      return Err(pc, "register r" + std::to_string(ins.src) + " out of range");
    }
    switch (ins.op) {
      case Opcode::kLdf:
        if (!ins.use_imm || !ValidField(ins.imm)) {
          return Err(pc, "invalid field id");
        }
        break;
      case Opcode::kLdb:
        if (!ins.use_imm || ins.imm < 0 || ins.imm > kMaxByteProbeOffset) {
          return Err(pc, "byte probe offset out of range");
        }
        break;
      case Opcode::kLdi:
        if (!ins.use_imm) {
          return Err(pc, "ldi requires an immediate");
        }
        break;
      case Opcode::kShl:
      case Opcode::kShr:
        if (ins.use_imm && (ins.imm < 0 || ins.imm > 63)) {
          return Err(pc, "shift amount out of range");
        }
        break;
      default:
        break;
    }
    if (IsJump(ins.op)) {
      if (ins.jump_target <= static_cast<int64_t>(pc)) {
        return Err(pc, "backward or self jump (loops are not allowed)");
      }
      if (ins.jump_target >= size) {
        return Err(pc, "jump target out of bounds");
      }
    }
  }

  // Fall-through analysis: instruction i is "terminal" if it is kRet or an
  // unconditional kJmp. Reaching the last instruction requires it to be
  // terminal; conditional jumps fall through, so any non-terminal
  // instruction at index size-1 is an error. Because all jumps are forward,
  // checking the final instruction suffices for "cannot fall off the end".
  const Instruction& last = program.back();
  if (last.op != Opcode::kRet && last.op != Opcode::kJmp) {
    return Err(program.size() - 1,
               "program can fall off the end (last instruction must be ret)");
  }
  // A trailing jmp must target... nothing exists past the end, and forward
  // jumps past size are rejected above, so a final kJmp is always invalid.
  if (last.op == Opcode::kJmp) {
    return Err(program.size() - 1, "unconditional jump cannot be last");
  }
  return OkStatus();
}

}  // namespace norman::overlay

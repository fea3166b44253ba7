// Load-time decoded overlay programs — what the per-packet path runs.
//
// The stepper in interpreter.h walks a Program one instruction at a time and
// re-reads a packet field at every `ldf`. Filter chains compiled by the
// dataplane are mostly `ldf` [+ `shr imm`] followed by compare-immediate
// jumps on the loaded register, and they load the same few fields
// (is_ipv4, ip_proto, dst_port, ...) once per rule. Load() verifies a
// program once, at install time, and pre-decodes it:
//
//  * `ldf rX` [+ `shr rX, imm`] + up to kMaxFusedCompares following
//    compare-immediate jumps on rX become one dispatch. A group never
//    extends over a jump target, so every branch lands on a dispatch
//    boundary;
//  * jump targets are rewritten from instruction indices to dispatch
//    indices;
//  * Execute() reads each distinct field at most once per run (a memo with
//    a valid bit per Field).
//
// Acceleration must not change the model: a fused dispatch charges
// `instructions_executed` exactly as the stepper would — the load, the
// shift, and each compare up to and including the one that jumps — so the
// NIC's overlay_instr_ns charge, verdicts and register effects are the
// stepper's, bit for bit. The stepper stays as the reference the tests
// compare against.
#ifndef NORMAN_OVERLAY_EXECUTABLE_H_
#define NORMAN_OVERLAY_EXECUTABLE_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/overlay/interpreter.h"
#include "src/overlay/isa.h"
#include "src/overlay/packet_context.h"

namespace norman::overlay {

// Compare-immediate jumps one fused field test may carry.
inline constexpr int kMaxFusedCompares = 3;

class Executable {
 public:
  // An empty executable (no program loaded); Execute() requires a loaded
  // one.
  Executable() = default;

  bool empty() const { return ops_.empty(); }
  // Instructions of the source program (its instruction-memory footprint).
  size_t size() const { return program_size_; }
  // Decoded dispatches: at most size(), fewer the more was fused.
  size_t dispatches() const { return ops_.size(); }

 private:
  friend StatusOr<Executable> Load(const Program& program);
  friend ExecResult Execute(const Executable& exe, const PacketContext& ctx);

  struct Compare {
    Opcode op = Opcode::kJeq;
    uint32_t target = 0;  // dispatch index
    uint64_t imm = 0;
  };
  // One dispatch. op == kLdf is a (possibly fused) field test; anything
  // else is the single source instruction of that opcode.
  struct Op {
    Opcode op = Opcode::kNop;
    uint8_t dst = 0;
    uint8_t src = 0;
    bool use_imm = false;
    // kLdf only: the fused `shr dst, shift` (has_shift), then `ncmp`
    // compare-immediate jumps on dst.
    bool has_shift = false;
    uint8_t shift = 0;
    uint8_t ncmp = 0;
    uint32_t target = 0;  // jumps: dispatch index
    int64_t imm = 0;      // immediate / field id / byte offset
    Compare cmps[kMaxFusedCompares];
  };

  std::vector<Op> ops_;
  size_t program_size_ = 0;
};

// Verifies `program` (VerifyProgram) and decodes it. The only way to build
// a non-empty Executable, so everything Execute() runs was verified.
StatusOr<Executable> Load(const Program& program);

// Runs a loaded program. Same verdict and instruction count as the stepper
// Execute(const Program&, ...) on the source program; cannot fail.
ExecResult Execute(const Executable& exe, const PacketContext& ctx);

}  // namespace norman::overlay

#endif  // NORMAN_OVERLAY_EXECUTABLE_H_

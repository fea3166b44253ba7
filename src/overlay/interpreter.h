// Overlay program interpreter — the functional model of the soft processor.
//
// Programs must pass VerifyProgram before execution; the interpreter still
// carries cheap runtime guards (it is the reference model the hardware is
// checked against). Execution reports the instruction count so the NIC model
// can charge overlay_instr_ns per instruction.
//
// This one-instruction-at-a-time stepper is the reference semantics. The
// dataplane runs programs decoded at install time (executable.h), which
// tests check against this stepper for verdicts and instruction counts.
#ifndef NORMAN_OVERLAY_INTERPRETER_H_
#define NORMAN_OVERLAY_INTERPRETER_H_

#include <cstdint>

#include "src/common/status.h"
#include "src/overlay/isa.h"
#include "src/overlay/packet_context.h"

namespace norman::overlay {

struct ExecResult {
  int64_t verdict = 0;
  uint32_t instructions_executed = 0;
  // Steps the engine took: decoded dispatches for an Executable; the
  // stepper takes one per instruction, so it reports its instruction count.
  uint32_t dispatches = 0;
};

StatusOr<ExecResult> Execute(const Program& program, const PacketContext& ctx);

}  // namespace norman::overlay

#endif  // NORMAN_OVERLAY_INTERPRETER_H_

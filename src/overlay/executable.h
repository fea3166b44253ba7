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
//    compare-immediate jumps on rX become one dispatch (a field test). A
//    group never extends over a jump target, so every branch lands on a
//    dispatch boundary;
//  * known-field folding: a field test on a field the caller guarantees
//    (FieldFacts) has one outcome, so it is resolved at load time and its
//    instructions ride as a fixed charge on the edge into the dispatch it
//    leads to. Only when that dispatch overwrites the test's register (or
//    returns an immediate), so no register value the stepper would leave
//    behind is lost;
//  * same-field runs: field tests on one field, shift and register, where
//    every compare of each sends the packet to the next, become skip
//    dispatches into one table per run. A binary search over the run's
//    compare breakpoints yields the first member at or after the entry
//    whose compares all fall through, and the exact instructions the
//    stepper spends failing the members before it;
//  * Execute() reads each distinct field at most once per run (a memo with
//    a valid bit per Field).
//
// Acceleration must not change the model: every dispatch charges
// `instructions_executed` exactly as the stepper would — the load, the
// shift, each compare up to and including the one that jumps, and every
// folded or skipped instruction on the way — so the NIC's overlay_instr_ns
// charge, verdicts and register effects are the stepper's, bit for bit.
// The stepper stays as the reference the tests compare against.
#ifndef NORMAN_OVERLAY_EXECUTABLE_H_
#define NORMAN_OVERLAY_EXECUTABLE_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/overlay/interpreter.h"
#include "src/overlay/isa.h"
#include "src/overlay/packet_context.h"

namespace norman::overlay {

// Compare-immediate jumps one fused field test may carry.
inline constexpr int kMaxFusedCompares = 3;
// Members of one same-field run (a bit each in a 32-bit mask). Bounds a
// run's table at 2 * kMaxFusedCompares * kMaxRunMembers + 1 intervals of
// kMaxRunMembers + 1 charges; a longer chain of tests becomes several runs.
inline constexpr size_t kMaxRunMembers = 32;
static_assert(kMaxProgramLength <= UINT16_MAX,
              "decoded indices and charges are 16-bit");

// Field values a caller guarantees for every context it will run the
// executable on. Load() folds tests on them; a fact that does not hold
// makes Execute() diverge from the stepper, so only pass what the caller
// itself checks before it runs the executable.
class FieldFacts {
 public:
  FieldFacts& Set(Field f, uint64_t value) {
    known_ |= 1u << static_cast<uint32_t>(f);
    values_[static_cast<size_t>(f)] = value;
    return *this;
  }
  bool Has(Field f) const {
    return (known_ & (1u << static_cast<uint32_t>(f))) != 0;
  }
  uint64_t Get(Field f) const { return values_[static_cast<size_t>(f)]; }

 private:
  uint32_t known_ = 0;
  std::array<uint64_t, kNumFields> values_{};
};

class Executable {
 public:
  // An empty executable (no program loaded); Execute() requires a loaded
  // one.
  Executable() = default;

  bool empty() const { return ops_.empty(); }
  // Instructions of the source program (its instruction-memory footprint).
  size_t size() const { return program_size_; }
  // Decoded dispatches: at most size(), fewer the more was fused or
  // folded.
  size_t dispatches() const { return ops_.size(); }
  // Same-field runs turned into skip tables.
  size_t runs() const { return runs_.size(); }

 private:
  friend class Decoder;
  friend ExecResult Execute(const Executable& exe, const PacketContext& ctx);

  static constexpr uint16_t kNoRun = UINT16_MAX;
  // Dispatch indices and instruction charges both stay below
  // kMaxProgramLength: a verified path runs each instruction at most once.
  using Index = uint16_t;

  // Every control transfer names the dispatch it lands on and the
  // instructions the stepper executes along it: those of the dispatch it
  // leaves, and of every folded dispatch it passes.
  struct Compare {
    Opcode op = Opcode::kJeq;
    Index target = 0;  // dispatch index
    Index charge = 0;  // when this compare jumps
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
    // kLdf only: the run this test belongs to (kNoRun: none) and its
    // position in it.
    uint16_t run = kNoRun;
    uint16_t member = 0;
    Index next = 0;    // fall-through dispatch (none after a ret)
    Index charge = 0;  // on fall-through; a ret's own instruction
    Index target = 0;  // jumps: dispatch index when taken
    Index target_charge = 0;
    int64_t imm = 0;      // immediate / field id / byte offset
    Compare cmps[kMaxFusedCompares];
  };
  struct Run {
    std::vector<Index> members;  // dispatch index of each member
    // Sorted compare breakpoints: interval t is [bounds[t-1], bounds[t]),
    // with bounds[-1] = 0 and bounds[size] = 2^64. No member's compares
    // change outcome inside an interval.
    std::vector<uint64_t> bounds;
    // Per interval t: bit i set when member i's compares all fall through.
    std::vector<uint32_t> pass;
    // Per interval t, [t * (members + 1) + i]: what failing members 0..i-1
    // charges (a passing member adds nothing).
    std::vector<Index> prefix;
  };
  std::vector<Op> ops_;
  std::vector<Run> runs_;
  // The first dispatch, after any folded ones, and what they charge.
  Index entry_ = 0;
  Index entry_charge_ = 0;
  size_t program_size_ = 0;
};

// Verifies `program` (VerifyProgram) and decodes it. The only way to build
// a non-empty Executable, so everything Execute() runs was verified.
// `facts` are field values every context the executable will run on has.
StatusOr<Executable> Load(const Program& program,
                          const FieldFacts& facts = {});

// Runs a loaded program. Same verdict and instruction count as the stepper
// Execute(const Program&, ...) on the source program, for any context
// that satisfies the facts it was loaded with; cannot fail. `dispatches`
// counts the decoded dispatches it ran.
ExecResult Execute(const Executable& exe, const PacketContext& ctx);

}  // namespace norman::overlay

#endif  // NORMAN_OVERLAY_EXECUTABLE_H_

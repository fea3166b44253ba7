#include "src/overlay/executable.h"

#include <algorithm>
#include <array>
#include <bit>

#include "src/common/logging.h"
#include "src/overlay/verifier.h"

namespace norman::overlay {
namespace {

// Execute() keeps one valid bit per Field in a 32-bit mask.
static_assert(kNumFields <= 32, "Field ids must fit the field memo's mask");
// A run's pass mask holds one bit per member.
static_assert(kMaxRunMembers <= 32, "run members must fit the pass mask");

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

// Builds an Executable from a verified program in four passes: decode
// (fuse field tests), fold (resolve tests on known fields), compact (drop
// folded dispatches, land every edge on a live one) and runs (skip tables
// for same-field test chains). Rule churn reloads programs, so every pass
// is linear in the program but for a run's table.
class Decoder {
 public:
  Decoder(const Program& program, const FieldFacts& facts)
      : program_(program), facts_(facts) {}

  Executable Build() {
    exe_.program_size_ = program_.size();
    Decode();
    if (Fold()) Compact();
    FindRuns();
    return std::move(exe_);
  }

 private:
  using Op = Executable::Op;
  using Index = Executable::Index;
  // A transfer to dispatch `to` that charges `charge` instructions.
  struct Edge {
    Index to = 0;
    Index charge = 0;
  };

  // One dispatch per instruction, except that a field test fuses its load,
  // shift and compares. Targets become dispatch indices; each transfer
  // charges the instructions of the dispatch it leaves.
  void Decode() {
    // Verified: size <= kMaxProgramLength and every jump target lies in
    // (pc, size), so both tables below are indexed in bounds.
    const size_t n = program_.size();
    std::array<bool, kMaxProgramLength> is_target{};
    for (const Instruction& ins : program_) {
      if (IsJump(ins.op)) {
        is_target[static_cast<size_t>(ins.jump_target)] = true;
      }
    }
    // Instruction index -> dispatch index, filled for dispatch starts.
    std::array<Index, kMaxProgramLength> dispatch_of{};
    // Instruction `pc` may join the group before it: no branch lands on it.
    const auto joinable = [&](size_t pc) { return pc < n && !is_target[pc]; };

    std::vector<Op>& ops = exe_.ops_;
    ops.reserve(n);
    for (size_t pc = 0; pc < n;) {
      const Instruction& ins = program_[pc];
      dispatch_of[pc] = static_cast<Index>(ops.size());
      // Filled in place: building the op on the stack and copying it in
      // made decoding 2.5x slower.
      Op& op = ops.emplace_back();
      op.op = ins.op;
      op.dst = ins.dst;
      op.src = ins.src;
      op.use_imm = ins.use_imm;
      op.imm = ins.imm;
      op.charge = 1;
      if (IsJump(ins.op)) {
        op.target = static_cast<Index>(ins.jump_target);
        op.target_charge = 1;
      }
      ++pc;
      if (ins.op == Opcode::kLdf) {
        if (joinable(pc) && program_[pc].op == Opcode::kShr &&
            program_[pc].use_imm && program_[pc].dst == ins.dst) {
          op.has_shift = true;
          op.shift = static_cast<uint8_t>(program_[pc].imm);
          ++op.charge;
          ++pc;
        }
        while (op.ncmp < kMaxFusedCompares && joinable(pc) &&
               IsCompareJump(program_[pc].op) && program_[pc].use_imm &&
               program_[pc].dst == ins.dst) {
          Executable::Compare& cmp = op.cmps[op.ncmp++];
          cmp.op = program_[pc].op;
          cmp.imm = static_cast<uint64_t>(program_[pc].imm);
          cmp.target = static_cast<Index>(program_[pc].jump_target);
          cmp.charge = ++op.charge;
          ++pc;
        }
      }
      // Only a ret or a jmp ends a verified program, and neither falls
      // through.
      if (ins.op != Opcode::kRet && ins.op != Opcode::kJmp) {
        op.next = static_cast<Index>(pc);
      }
    }
    // Branch targets become dispatch indices. Groups never absorb a jump
    // target, so every target starts a dispatch, and a later one: Execute()
    // relies on that to terminate.
    for (size_t i = 0; i < ops.size(); ++i) {
      const auto remap = [&](Index& pc) {
        pc = dispatch_of[pc];
        NORMAN_CHECK(pc > i) << "overlay: jump target does not start a "
                                "later dispatch";
      };
      Op& op = ops[i];
      if (op.op != Opcode::kRet && op.op != Opcode::kJmp) remap(op.next);
      if (IsJump(op.op)) remap(op.target);
      for (int k = 0; k < op.ncmp; ++k) remap(op.cmps[k].target);
    }
  }

  // Whether a value left in `reg` is dead on arrival at `op`: it
  // overwrites the register before reading it, or returns an immediate.
  static bool Kills(const Op& op, uint8_t reg) {
    switch (op.op) {
      case Opcode::kLdf:
      case Opcode::kLdi:
      case Opcode::kLdb:
        return op.dst == reg;
      case Opcode::kRet:
        return op.use_imm;
      default:
        return false;
    }
  }

  // Resolves, back to front, every dispatch to the live dispatch it leads
  // to. A field test on a known field has one outcome; it folds into the
  // edge to that outcome's resolved dispatch when that dispatch kills the
  // test's register. A folded test reads only the register it just wrote,
  // so the value it leaves is its only effect, and it is dead. Returns
  // whether anything folded.
  bool Fold() {
    const std::vector<Op>& ops = exe_.ops_;
    bool folded = false;
    for (size_t d = ops.size(); d-- > 0;) {
      const Op& op = ops[d];
      resolved_[d] = {static_cast<Index>(d), 0};
      if (op.op != Opcode::kLdf || !facts_.Has(static_cast<Field>(op.imm))) {
        continue;
      }
      uint64_t value = facts_.Get(static_cast<Field>(op.imm));
      if (op.has_shift) value >>= op.shift;
      Edge out{op.next, op.charge};
      for (int k = 0; k < op.ncmp; ++k) {
        if (Taken(op.cmps[k].op, value, op.cmps[k].imm)) {
          out = {op.cmps[k].target, op.cmps[k].charge};
          break;
        }
      }
      const Edge land = resolved_[out.to];
      if (Kills(ops[land.to], op.dst)) {
        resolved_[d] = {land.to, static_cast<Index>(out.charge + land.charge)};
        folded = true;
      }
    }
    return folded;
  }

  // Drops folded dispatches and lands every edge on its resolved dispatch,
  // adding the instructions of the dispatches it passes.
  void Compact() {
    std::vector<Op>& ops = exe_.ops_;
    std::array<Index, kMaxProgramLength> index;
    Index live = 0;
    for (size_t d = 0; d < ops.size(); ++d) {
      if (resolved_[d].to == d) index[d] = live++;
    }
    const auto land = [&](Index& to, Index& charge) {
      const Edge r = resolved_[to];
      to = index[r.to];
      charge = static_cast<Index>(charge + r.charge);
    };
    Index out = 0;
    for (size_t d = 0; d < ops.size(); ++d) {
      if (resolved_[d].to != d) continue;
      Op& op = ops[out++];
      op = ops[d];
      if (op.op != Opcode::kRet && op.op != Opcode::kJmp) {
        land(op.next, op.charge);
      }
      if (IsJump(op.op)) land(op.target, op.target_charge);
      for (int k = 0; k < op.ncmp; ++k) {
        land(op.cmps[k].target, op.cmps[k].charge);
      }
    }
    ops.resize(out);
    const Edge entry = resolved_[0];
    exe_.entry_ = index[entry.to];
    exe_.entry_charge_ = entry.charge;
  }

  static bool SameField(const Op& a, const Op& b) {
    return a.op == Opcode::kLdf && b.op == Opcode::kLdf && a.imm == b.imm &&
           a.dst == b.dst && a.has_shift == b.has_shift && a.shift == b.shift;
  }

  // Chains field tests into runs: a test whose compares all jump to one
  // test of the same field, shift and register links to it, and a run
  // follows links from its first member, up to kMaxRunMembers.
  void FindRuns() {
    std::vector<Op>& ops = exe_.ops_;
    constexpr Index kNoLink = 0;  // links always go forward, never to 0
    std::array<Index, kMaxProgramLength> link;
    bool any = false;
    for (size_t d = 0; d < ops.size(); ++d) {
      const Op& op = ops[d];
      link[d] = kNoLink;
      if (op.op != Opcode::kLdf || op.ncmp == 0) continue;
      const Index to = op.cmps[0].target;
      bool one_target = true;
      for (int k = 1; k < op.ncmp; ++k) {
        one_target &= op.cmps[k].target == to;
      }
      if (one_target && SameField(op, ops[to])) {
        link[d] = to;
        any = true;
      }
    }
    if (!any) return;
    std::vector<Index> members;
    for (size_t d = 0; d < ops.size(); ++d) {
      if (ops[d].run != Executable::kNoRun || link[d] == kNoLink) continue;
      members.assign(1, static_cast<Index>(d));
      while (members.size() < kMaxRunMembers) {
        const Index to = link[members.back()];
        if (to == kNoLink || ops[to].run != Executable::kNoRun) break;
        members.push_back(to);
      }
      if (members.size() >= 2) AddRun(members);
    }
  }

  // Tabulates a run: for every interval between compare breakpoints, which
  // members' compares all fall through, and the prefix sums of what
  // failing the others charges. Execute() lands on the first passing
  // member at or after the entry (or the last member) and charges the
  // difference of two prefix sums.
  void AddRun(const std::vector<Index>& members) {
    std::vector<Op>& ops = exe_.ops_;
    Executable::Run run;
    run.members = members;
    // A member's breakpoints: where one of its compares changes outcome.
    const auto breakpoints = [&](const Op& op, auto&& emit) {
      for (int k = 0; k < op.ncmp; ++k) {
        const uint64_t imm = op.cmps[k].imm;
        const bool above = imm != UINT64_MAX;  // imm + 1 exists
        switch (op.cmps[k].op) {
          case Opcode::kJeq:
          case Opcode::kJne:
            emit(imm);
            if (above) emit(imm + 1);
            break;
          case Opcode::kJlt:
          case Opcode::kJge:
            emit(imm);
            break;
          default:  // kJgt, kJle
            if (above) emit(imm + 1);
            break;
        }
      }
    };
    // Kept sorted and unique as they arrive: runs repeat breakpoints (every
    // guard of a chain tests one value) or emit them in order (ascending
    // port ranges), and sorting the raw list cost more than the table.
    run.bounds.reserve(2 * kMaxFusedCompares * members.size());
    for (const Index m : members) {
      breakpoints(ops[m], [&](uint64_t b) {
        if (b == 0) return;  // [0, 0) is empty
        if (run.bounds.empty() || b > run.bounds.back()) {
          run.bounds.push_back(b);
          return;
        }
        const auto at =
            std::lower_bound(run.bounds.begin(), run.bounds.end(), b);
        if (*at != b) run.bounds.insert(at, b);
      });
    }
    const size_t k = members.size();
    const size_t intervals = run.bounds.size() + 1;
    // What failing member i charges for `value` (0: its compares all fall
    // through; a failing member charges at least 2).
    const auto fail_charge = [&](size_t i, uint64_t value) -> Index {
      const Op& op = ops[members[i]];
      for (int m = 0; m < op.ncmp; ++m) {
        if (Taken(op.cmps[m].op, value, op.cmps[m].imm)) {
          return op.cmps[m].charge;
        }
      }
      return 0;
    };
    // A member's outcome changes only at its own breakpoints. Bucket those
    // by interval (a counting sort), so each interval revisits only the
    // members that change there.
    constexpr size_t kMaxEvents = 2 * kMaxFusedCompares * kMaxRunMembers;
    std::array<uint16_t, kMaxEvents + 2> first{};  // per interval, + end
    std::array<uint8_t, kMaxEvents> changed;
    std::array<uint16_t, kMaxEvents> event_interval;
    size_t events = 0;
    for (size_t i = 0; i < k; ++i) {
      breakpoints(ops[members[i]], [&](uint64_t b) {
        const auto t = static_cast<size_t>(
            std::upper_bound(run.bounds.begin(), run.bounds.end(), b) -
            run.bounds.begin());
        if (t == 0) return;  // b == 0: interval 0 evaluates every member
        event_interval[events] = static_cast<uint16_t>(t);
        changed[events++] = static_cast<uint8_t>(i);
        ++first[t + 1];
      });
    }
    for (size_t t = 0; t < intervals; ++t) first[t + 1] += first[t];
    std::array<uint8_t, kMaxEvents> by_interval;
    {
      std::array<uint16_t, kMaxEvents + 2> fill = first;
      for (size_t e = 0; e < events; ++e) {
        by_interval[fill[event_interval[e]]++] = changed[e];
      }
    }
    // Interval 0 from scratch; each later one is its predecessor with the
    // changed members' charges updated, and the prefix sums after each
    // shifted by the difference. Sums are exact: a path never runs an
    // instruction twice, so none exceeds the program.
    run.pass.resize(intervals);
    run.prefix.resize(intervals * (k + 1));
    std::array<Index, kMaxRunMembers> fail;
    uint32_t pass = 0;
    Index* row = run.prefix.data();
    for (size_t i = 0; i < k; ++i) {
      fail[i] = fail_charge(i, 0);
      if (fail[i] == 0) pass |= 1u << i;
      row[i + 1] = static_cast<Index>(row[i] + fail[i]);
    }
    run.pass[0] = pass;
    for (size_t t = 1; t < intervals; ++t) {
      // Every value in an interval takes the same branches as its least.
      const uint64_t value = run.bounds[t - 1];
      Index* next = row + (k + 1);
      std::copy(row, row + k + 1, next);
      row = next;
      for (size_t e = first[t]; e < first[t + 1]; ++e) {
        const size_t i = by_interval[e];
        const Index charge = fail_charge(i, value);
        const auto delta = static_cast<Index>(charge - fail[i]);
        fail[i] = charge;
        pass = charge == 0 ? pass | (1u << i) : pass & ~(1u << i);
        for (size_t x = i + 1; x <= k; ++x) {
          row[x] = static_cast<Index>(row[x] + delta);
        }
      }
      run.pass[t] = pass;
    }
    const auto id = static_cast<uint16_t>(exe_.runs_.size());
    for (size_t j = 0; j < k; ++j) {
      ops[members[j]].run = id;
      ops[members[j]].member = static_cast<uint16_t>(j);
    }
    exe_.runs_.push_back(std::move(run));
  }

  const Program& program_;
  const FieldFacts& facts_;
  // Per decoded dispatch: the live dispatch it resolves to (filled by
  // Fold for every dispatch; on the stack, as a reload is a hot path).
  std::array<Edge, kMaxProgramLength> resolved_;
  Executable exe_;
};

StatusOr<Executable> Load(const Program& program, const FieldFacts& facts) {
  NORMAN_RETURN_IF_ERROR(VerifyProgram(program));
  return Decoder(program, facts).Build();
}

ExecResult Execute(const Executable& exe, const PacketContext& ctx) {
  NORMAN_CHECK(!exe.empty()) << "overlay: no program loaded";
  std::array<uint64_t, kNumRegisters> regs{};
  // Per-run field memo: each distinct field is read from `ctx` once.
  std::array<uint64_t, kNumFields> fields;
  uint32_t valid = 0;
  uint32_t executed = exe.entry_charge_;
  uint32_t dispatches = 0;
  // Verified and decoded: branches only go forward and the last dispatch
  // is a ret, so the walk ends at a ret without bounds checks.
  const Executable::Op* ops = exe.ops_.data();
  size_t i = exe.entry_;
  for (;;) {
    const Executable::Op& op = ops[i];
    ++dispatches;
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
        if (op.has_shift) value >>= op.shift;
        regs[op.dst] = value;
        // A run member skips to the member whose compares decide.
        const Executable::Op* test = &op;
        if (op.run != Executable::kNoRun) {
          const Executable::Run& run = exe.runs_[op.run];
          const auto t = static_cast<size_t>(
              std::upper_bound(run.bounds.begin(), run.bounds.end(), value) -
              run.bounds.begin());
          const uint32_t ahead = run.pass[t] >> op.member;
          const size_t land = ahead != 0
                                  ? op.member + std::countr_zero(ahead)
                                  : run.members.size() - 1;
          const Executable::Index* prefix =
              &run.prefix[t * (run.members.size() + 1)];
          executed += prefix[land] - prefix[op.member];
          test = &ops[run.members[land]];
        }
        size_t next = test->next;
        uint32_t charge = test->charge;
        for (int k = 0; k < test->ncmp; ++k) {
          if (Taken(test->cmps[k].op, value, test->cmps[k].imm)) {
            next = test->cmps[k].target;
            charge = test->cmps[k].charge;
            break;
          }
        }
        executed += charge;
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
        executed += op.target_charge;
        i = op.target;
        continue;
      case Opcode::kJeq:
      case Opcode::kJne:
      case Opcode::kJgt:
      case Opcode::kJlt:
      case Opcode::kJge:
      case Opcode::kJle:
        if (Taken(op.op, regs[op.dst], rhs())) {
          executed += op.target_charge;
          i = op.target;
          continue;
        }
        break;
      case Opcode::kRet:
        return ExecResult{
            op.use_imm ? op.imm : static_cast<int64_t>(regs[op.dst]),
            executed + op.charge, dispatches};
    }
    executed += op.charge;
    i = op.next;
  }
}

}  // namespace norman::overlay

// On-NIC per-flow accounting for `norman-top`.
//
// A bounded table of the busiest flows crossing the NIC, charged against NIC
// SRAM like every other piece of NIC-resident state (flow table, conntrack,
// ring descriptors — §5's limited-memory constraint). Unlike conntrack,
// which refuses new flows when full so established state survives, a
// top-talkers table exists to surface the *current* heavy hitters: when full
// it evicts the entry with the fewest bytes (smallest-first, tuple order as
// the deterministic tie-break) to admit the new flow.
//
// Every packet crossing the NIC is recorded, and under flow churn most
// records of a new flow evict, so both paths are O(log n) at worst: entries
// live in dense slots found through an open-addressing FiveTuple index, and
// an indexed binary min-heap keyed (bytes, tuple) keeps the victim at its
// root. A hit only grows bytes, so it only sifts down; an evict-and-admit
// writes the new flow over the root and sifts it down, moving the victim's
// SRAM charge to the new flow's tenant in one step.
//
// Recording is pure observation — no events, no virtual-time cost — so the
// packet trajectory is bit-identical whether the table is enabled or not.
// It is off by default; the kernel enables it through the control plane.
#ifndef NORMAN_NIC_TOP_TALKERS_H_
#define NORMAN_NIC_TOP_TALKERS_H_

#include <cstdint>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/units.h"
#include "src/net/types.h"
#include "src/nic/sram.h"

namespace norman::nic {

// SRAM cost per tracked flow: tuple + counters + timestamps, padded.
inline constexpr uint64_t kTopTalkerEntryBytes = 48;

struct TopTalkerEntry {
  net::FiveTuple tuple;
  uint32_t owner_pid = 0;  // process the flow belongs to; 0 = unowned
  uint32_t tenant = 0;     // tenant whose SRAM quota holds the entry
  uint64_t packets = 0;
  uint64_t bytes = 0;
  Nanos first_seen = 0;
  Nanos last_seen = 0;
};

class TopTalkers {
 public:
  TopTalkers(SramAllocator* sram, telemetry::MetricsRegistry* registry,
             size_t max_entries);
  ~TopTalkers();

  TopTalkers(const TopTalkers&) = delete;
  TopTalkers& operator=(const TopTalkers&) = delete;

  // Accounts one packet of `bytes` to `tuple`. New flows are admitted by
  // charging SRAM; at capacity (table bound or SRAM exhausted) the
  // smallest-bytes entry is evicted to make room. A flow that cannot be
  // admitted at all (empty table and no SRAM) counts as untracked.
  void Record(const net::FiveTuple& tuple, uint32_t owner_pid, uint32_t bytes,
              Nanos now, uint32_t tenant = 0);

  size_t size() const { return slots_.size(); }
  size_t max_entries() const { return max_entries_; }
  uint64_t tracked() const { return tracked_->value(); }
  uint64_t evicted() const { return evicted_->value(); }
  uint64_t untracked() const { return untracked_->value(); }

  // The entry for `tuple`, or null. Valid until the next Record.
  const TopTalkerEntry* Lookup(const net::FiveTuple& tuple) const;

  // The n busiest flows, most bytes first; ties break on tuple order, so
  // the ranking is deterministic.
  std::vector<TopTalkerEntry> Top(size_t n) const;

 private:
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  // The bucket `tuple` hashes to, from the top hash bits (FiveTupleHash's
  // low bits do not depend on the source port).
  size_t Home(const net::FiveTuple& tuple) const;
  // The index bucket holding `tuple`, or the empty bucket where it would go.
  size_t Bucket(const net::FiveTuple& tuple) const;
  uint32_t Find(const net::FiveTuple& tuple) const;
  void EraseFromIndex(const net::FiveTuple& tuple);
  // Heap order: fewer bytes first, then smaller tuple.
  bool HeapLess(uint32_t a, uint32_t b) const;
  void HeapSet(size_t pos, uint32_t slot);
  void SiftUp(size_t pos);
  void SiftDown(size_t pos);
  // Drops the heap root (fewest bytes, smallest tuple) and refunds its SRAM.
  void EvictMin();
  // Writes a new flow over the heap root, whose SRAM charge the caller has
  // already handed to the flow's tenant.
  void ReplaceMin(const net::FiveTuple& tuple, uint32_t owner_pid,
                  uint32_t bytes, Nanos now, uint32_t tenant);

  SramAllocator* sram_;
  size_t max_entries_;
  // Entries the table can ever hold: max_entries_, or fewer when NIC SRAM
  // cannot cover that many. Storage is reserved to it up front.
  size_t capacity_;
  // Live entries, dense; a removal moves the last slot into the hole.
  std::vector<TopTalkerEntry> slots_;
  // Min-heap of slot ids and each slot's position in it.
  std::vector<uint32_t> heap_;
  std::vector<uint32_t> heap_pos_;
  // Open addressing, linear probing: slot id + 1, 0 = empty. At least
  // twice capacity_ buckets, a power of two.
  std::vector<uint32_t> index_;
  int index_shift_ = 0;
  // Last slot recorded: packet trains skip the index probe.
  uint32_t hot_ = kNoSlot;

  telemetry::Counter* tracked_;    // flow.tracked
  telemetry::Counter* evicted_;    // flow.evicted
  telemetry::Counter* untracked_;  // flow.untracked
  telemetry::Gauge* entries_;      // flow.entries
};

}  // namespace norman::nic

#endif  // NORMAN_NIC_TOP_TALKERS_H_

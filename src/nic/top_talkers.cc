#include "src/nic/top_talkers.h"

#include <algorithm>
#include <bit>

namespace norman::nic {

namespace {
const std::string kSramCategory = "top_talkers";
}  // namespace

TopTalkers::TopTalkers(SramAllocator* sram,
                       telemetry::MetricsRegistry* registry,
                       size_t max_entries)
    : sram_(sram),
      max_entries_(max_entries),
      capacity_(std::min<uint64_t>(max_entries,
                                   sram->capacity() / kTopTalkerEntryBytes)),
      tracked_(registry->GetCounter("flow.tracked")),
      evicted_(registry->GetCounter("flow.evicted")),
      untracked_(registry->GetCounter("flow.untracked")),
      entries_(registry->GetGauge("flow.entries")) {
  slots_.reserve(capacity_);
  heap_.reserve(capacity_);
  heap_pos_.reserve(capacity_);
  const size_t buckets = std::bit_ceil(std::max<size_t>(2 * capacity_, 2));
  index_.assign(buckets, 0);
  index_shift_ = 64 - std::countr_zero(buckets);
}

TopTalkers::~TopTalkers() {
  // Per-entry so each owning tenant's quota usage is refunded.
  for (const TopTalkerEntry& entry : slots_) {
    sram_->Free(kSramCategory, kTopTalkerEntryBytes, entry.tenant);
  }
}

size_t TopTalkers::Home(const net::FiveTuple& tuple) const {
  return static_cast<uint64_t>(net::FiveTupleHash{}(tuple)) >> index_shift_;
}

size_t TopTalkers::Bucket(const net::FiveTuple& tuple) const {
  const size_t mask = index_.size() - 1;
  size_t b = Home(tuple);
  while (index_[b] != 0 && slots_[index_[b] - 1].tuple != tuple) {
    b = (b + 1) & mask;
  }
  return b;
}

uint32_t TopTalkers::Find(const net::FiveTuple& tuple) const {
  return index_[Bucket(tuple)] - 1;  // empty bucket: 0 - 1 == kNoSlot
}

void TopTalkers::EraseFromIndex(const net::FiveTuple& tuple) {
  // Backward-shift deletion: later members of the probe run move into the
  // hole when their home bucket allows, so no tombstones build up.
  const size_t mask = index_.size() - 1;
  size_t hole = Bucket(tuple);
  for (size_t b = (hole + 1) & mask; index_[b] != 0; b = (b + 1) & mask) {
    const size_t home = Home(slots_[index_[b] - 1].tuple);
    if (((b - home) & mask) >= ((b - hole) & mask)) {
      index_[hole] = index_[b];
      hole = b;
    }
  }
  index_[hole] = 0;
}

bool TopTalkers::HeapLess(uint32_t a, uint32_t b) const {
  const TopTalkerEntry& x = slots_[a];
  const TopTalkerEntry& y = slots_[b];
  return x.bytes != y.bytes ? x.bytes < y.bytes : x.tuple < y.tuple;
}

void TopTalkers::HeapSet(size_t pos, uint32_t slot) {
  heap_[pos] = slot;
  heap_pos_[slot] = static_cast<uint32_t>(pos);
}

void TopTalkers::SiftUp(size_t pos) {
  const uint32_t slot = heap_[pos];
  while (pos > 0) {
    const size_t parent = (pos - 1) / 2;
    if (!HeapLess(slot, heap_[parent])) break;
    HeapSet(pos, heap_[parent]);
    pos = parent;
  }
  HeapSet(pos, slot);
}

void TopTalkers::SiftDown(size_t pos) {
  const uint32_t slot = heap_[pos];
  const size_t n = heap_.size();
  for (;;) {
    size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && HeapLess(heap_[child + 1], heap_[child])) ++child;
    if (!HeapLess(heap_[child], slot)) break;
    HeapSet(pos, heap_[child]);
    pos = child;
  }
  HeapSet(pos, slot);
}

void TopTalkers::EvictMin() {
  const uint32_t victim = heap_[0];
  const uint32_t victim_tenant = slots_[victim].tenant;
  EraseFromIndex(slots_[victim].tuple);
  const uint32_t tail = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    HeapSet(0, tail);
    SiftDown(0);
  }
  // Keep slots dense: the last slot moves into the victim's.
  const auto last = static_cast<uint32_t>(slots_.size() - 1);
  if (hot_ == victim) hot_ = kNoSlot;
  if (victim != last) {
    slots_[victim] = slots_[last];
    index_[Bucket(slots_[victim].tuple)] = victim + 1;
    HeapSet(heap_pos_[last], victim);
    if (hot_ == last) hot_ = victim;
  }
  slots_.pop_back();
  heap_pos_.pop_back();
  sram_->Free(kSramCategory, kTopTalkerEntryBytes, victim_tenant);
  evicted_->Increment();
}

void TopTalkers::ReplaceMin(const net::FiveTuple& tuple, uint32_t owner_pid,
                            uint32_t bytes, Nanos now, uint32_t tenant) {
  const uint32_t slot = heap_[0];
  EraseFromIndex(slots_[slot].tuple);
  slots_[slot] = {tuple, owner_pid, tenant, 1, bytes, now, now};
  index_[Bucket(tuple)] = slot + 1;
  // Eviction order is a total order on (bytes, tuple), so which entry
  // goes next does not depend on how the heap got its shape.
  SiftDown(0);
  hot_ = slot;
  evicted_->Increment();
  tracked_->Increment();
}

void TopTalkers::Record(const net::FiveTuple& tuple, uint32_t owner_pid,
                        uint32_t bytes, Nanos now, uint32_t tenant) {
  // Hot-flow shortcut: trains of back-to-back packets from one flow skip
  // the index probe.
  uint32_t slot = hot_;
  if (slot == kNoSlot || slots_[slot].tuple != tuple) slot = Find(tuple);
  if (slot != kNoSlot) {
    TopTalkerEntry& entry = slots_[slot];
    ++entry.packets;
    entry.bytes += bytes;
    entry.last_seen = now;
    SiftDown(heap_pos_[slot]);  // bytes only grow
    hot_ = slot;
    return;
  }

  // New flow. Make room first: evict the smallest-bytes entry (smallest
  // tuple on ties) when the table bound is hit, or when SRAM cannot cover
  // another entry. Evict-and-admit is one step — the flow takes the
  // victim's slot and SRAM charge — unless its tenant's quota refuses it.
  if (!slots_.empty() && (slots_.size() >= max_entries_ ||
                          sram_->available() < kTopTalkerEntryBytes)) {
    if (sram_->Recharge(kTopTalkerEntryBytes, owner_pid,
                        slots_[heap_[0]].tenant, tenant)) {
      ReplaceMin(tuple, owner_pid, bytes, now, tenant);
      return;
    }
    EvictMin();
  }

  if (slots_.size() >= capacity_ ||
      !sram_->Allocate(kSramCategory, kTopTalkerEntryBytes, owner_pid, tenant)
           .ok()) {
    // No room even after an eviction (no SRAM left, or the tenant's quota
    // refuses the entry): the flow goes unaccounted.
    untracked_->Increment();
    entries_->Set(static_cast<int64_t>(slots_.size()));
    return;
  }

  slot = static_cast<uint32_t>(slots_.size());
  TopTalkerEntry& entry = slots_.emplace_back();
  entry.tuple = tuple;
  entry.owner_pid = owner_pid;
  entry.tenant = tenant;
  entry.packets = 1;
  entry.bytes = bytes;
  entry.first_seen = now;
  entry.last_seen = now;
  index_[Bucket(tuple)] = slot + 1;
  heap_.push_back(slot);
  heap_pos_.push_back(static_cast<uint32_t>(heap_.size() - 1));
  SiftUp(heap_.size() - 1);
  hot_ = slot;
  tracked_->Increment();
  entries_->Set(static_cast<int64_t>(slots_.size()));
}

const TopTalkerEntry* TopTalkers::Lookup(const net::FiveTuple& tuple) const {
  const uint32_t slot = Find(tuple);
  return slot == kNoSlot ? nullptr : &slots_[slot];
}

std::vector<TopTalkerEntry> TopTalkers::Top(size_t n) const {
  std::vector<TopTalkerEntry> out(slots_.begin(), slots_.end());
  const auto busiest_first = [](const TopTalkerEntry& a,
                                const TopTalkerEntry& b) {
    return a.bytes != b.bytes ? a.bytes > b.bytes : a.tuple < b.tuple;
  };
  n = std::min(n, out.size());
  std::partial_sort(out.begin(), out.begin() + static_cast<ptrdiff_t>(n),
                    out.end(), busiest_first);
  out.resize(n);
  return out;
}

}  // namespace norman::nic

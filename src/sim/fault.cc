#include "src/sim/fault.h"

#include <cassert>
#include <utility>
#include <vector>

#include "src/net/headers.h"
#include "src/net/packet_pool.h"
#include "src/sim/simulator.h"

namespace norman::sim {

namespace {
// "fault.inject" probe: a0 = which fault activated, a1 = link index.
void EmitFault(Simulator* sim, telemetry::FaultActivation kind, size_t link) {
  sim->tracepoints().Emit(telemetry::Probe::kFaultInject,
                          telemetry::Tracepoints::kCoreNic, /*pid=*/0,
                          static_cast<uint64_t>(kind),
                          static_cast<uint64_t>(link));
}
}  // namespace

FaultInjector::FaultInjector(Simulator* sim, uint64_t seed) : sim_(sim) {
  // Each link gets an independent RNG stream expanded from the one seed, so
  // traffic on link 0 never perturbs the dice on link 1.
  SplitMix64 expand(seed);
  for (auto& link : links_) {
    link.rng = Rng(expand.Next());
  }
  auto& m = sim_->metrics();
  transmitted_ = m.GetCounter("fault.transmitted");
  delivered_ = m.GetCounter("fault.delivered");
  injected_loss_ = m.GetCounter("fault.injected.loss");
  injected_duplicate_ = m.GetCounter("fault.injected.duplicate");
  injected_corrupt_ = m.GetCounter("fault.injected.corrupt");
  injected_reorder_ = m.GetCounter("fault.injected.reorder");
  injected_jitter_ = m.GetCounter("fault.injected.jitter");
  injected_link_down_ = m.GetCounter("fault.injected.link_down");
  link_down_gauge_ = m.GetGauge("fault.link.down");
}

void FaultInjector::SetSink(size_t link, Sink sink) {
  assert(link < kMaxLinks);
  links_[link].sink = std::move(sink);
}

void FaultInjector::SetProfile(size_t link, const FaultProfile& profile) {
  assert(link < kMaxLinks);
  links_[link].profile = profile;
}

void FaultInjector::SetLinkDown(size_t link, bool down) {
  assert(link < kMaxLinks);
  Link& l = links_[link];
  if (l.admin_down == down) {
    return;
  }
  l.admin_down = down;
  link_down_gauge_->Add(down ? 1 : -1);
}

void FaultInjector::AddDownWindow(size_t link, Nanos from, Nanos until) {
  assert(link < kMaxLinks);
  if (until <= from) {
    return;
  }
  links_[link].down_windows.push_back({from, until});
  // Drive the gauge through the window edges so the sampled
  // "fault.link.down" series shows the flap, not just the drops.
  sim_->ScheduleAt(from, [this] { link_down_gauge_->Add(1); });
  sim_->ScheduleAt(until, [this] { link_down_gauge_->Add(-1); });
}

bool FaultInjector::link_up(size_t link, Nanos at) const {
  assert(link < kMaxLinks);
  const Link& l = links_[link];
  if (l.admin_down) {
    return false;
  }
  for (const auto& w : l.down_windows) {
    if (at >= w.from && at < w.until) {
      return false;
    }
  }
  return true;
}

void FaultInjector::Transmit(size_t link, net::PacketPtr packet, Nanos when) {
  assert(link < kMaxLinks);
  Link& l = links_[link];
  l.stats.transmitted++;
  transmitted_->Increment();
  if (!link_up(link, when)) {
    l.stats.dropped_link_down++;
    injected_link_down_->Increment();
    EmitFault(sim_, telemetry::FaultActivation::kLinkDown, link);
    return;  // the frame evaporates; the PacketPtr returns to its pool
  }
  if (!l.profile.active()) {
    Deliver(l, std::move(packet), when);
    return;
  }
  // Fixed draw order — loss, duplication, corruption, jitter, reorder — so
  // a profile change never resequences the dice of the faults it kept.
  if (l.profile.loss > 0.0 && l.rng.NextBool(l.profile.loss)) {
    l.stats.lost++;
    injected_loss_->Increment();
    EmitFault(sim_, telemetry::FaultActivation::kLoss, link);
    return;
  }
  if (l.profile.duplication > 0.0 && l.rng.NextBool(l.profile.duplication)) {
    // The duplicate is a clean copy made before corruption: real wires
    // duplicate at a hop, they do not replay the damage.
    auto span = packet->bytes();
    net::PacketPtr dup =
        net::MakePacket(std::vector<uint8_t>(span.begin(), span.end()));
    dup->meta() = packet->meta();
    l.stats.duplicated++;
    injected_duplicate_->Increment();
    EmitFault(sim_, telemetry::FaultActivation::kDuplicate, link);
    Deliver(l, std::move(dup), when);
  }
  if (l.profile.corruption > 0.0 && l.rng.NextBool(l.profile.corruption)) {
    Corrupt(l, *packet);
  }
  Nanos t = when;
  if (l.profile.jitter > 0) {
    const Nanos extra = static_cast<Nanos>(
        l.rng.NextBounded(static_cast<uint64_t>(l.profile.jitter)));
    if (extra > 0) {
      l.stats.jittered++;
      injected_jitter_->Increment();
      EmitFault(sim_, telemetry::FaultActivation::kJitter, link);
      t += extra;
    }
  }
  if (l.profile.reorder > 0.0 && l.profile.reorder_delay > 0 &&
      l.rng.NextBool(l.profile.reorder)) {
    l.stats.reordered++;
    injected_reorder_->Increment();
    EmitFault(sim_, telemetry::FaultActivation::kReorder, link);
    t += l.profile.reorder_delay;
  }
  Deliver(l, std::move(packet), t);
}

void FaultInjector::Deliver(Link& link, net::PacketPtr packet, Nanos when) {
  link.stats.delivered++;
  delivered_->Increment();
  sim_->ScheduleAt(when, [sink = &link.sink, p = std::move(packet)]() mutable {
    (*sink)(std::move(p));
  });
}

void FaultInjector::Corrupt(Link& link, net::Packet& packet) {
  // Raw write access drops the packet's parse and checksum memos, so RX
  // re-parses the damaged frame and verifies it in full.
  auto bytes = packet.mutable_bytes();
  // Damage past the Ethernet header: L2 corruption would be caught by the
  // (unmodelled) FCS, while IP/L4 damage is what RX verification must find.
  if (bytes.size() <= net::kEthernetHeaderSize) {
    return;
  }
  const size_t span = bytes.size() - net::kEthernetHeaderSize;
  const size_t n = link.profile.corrupt_bytes > 0 ? link.profile.corrupt_bytes
                                                  : 1;
  for (size_t i = 0; i < n; ++i) {
    const size_t idx =
        net::kEthernetHeaderSize + link.rng.NextBounded(span);
    bytes[idx] ^= static_cast<uint8_t>(1 + link.rng.NextBounded(255));
  }
  link.stats.corrupted++;
  injected_corrupt_->Increment();
  EmitFault(sim_, telemetry::FaultActivation::kCorrupt,
            static_cast<size_t>(&link - links_.data()));
}

uint64_t FaultInjector::frames_lost() const {
  uint64_t total = 0;
  for (const auto& l : links_) {
    total += l.stats.lost + l.stats.dropped_link_down;
  }
  return total;
}

uint64_t FaultInjector::frames_delivered() const {
  uint64_t total = 0;
  for (const auto& l : links_) {
    total += l.stats.delivered;
  }
  return total;
}

}  // namespace norman::sim

// Congestion control as a kernel module driving the NIC pacer (§4.2 lists
// congestion control among the on-NIC dataplane functionality).
//
// Split exactly as the paper prescribes: the *policy* lives in the kernel
// (an AIMD controller observing per-connection delivery), the *mechanism*
// lives in the NIC (the per-connection pacer enforcing the current rate at
// line speed). Two senders share a 1 Gbps bottleneck: watch AIMD walk both
// to ~half the link each, with the NIC enforcing every intermediate rate.
#include <cstdio>
#include <functional>

#include "src/common/stats.h"
#include "src/norman/socket.h"
#include "src/workload/generators.h"
#include "src/workload/testbed.h"

using namespace norman;  // NOLINT

namespace {

// A minimal AIMD rate controller: additive increase while deliveries keep
// up with the enforced rate, multiplicative decrease when the NIC backlog
// (our congestion signal) grows.
class AimdController {
 public:
  AimdController(kernel::Kernel* k, net::ConnectionId conn,
                 BitsPerSecond initial, BitsPerSecond probe_step)
      : kernel_(k), conn_(conn), rate_(initial), step_(probe_step) {
    Apply();
  }

  void Update(uint64_t backlog_packets) {
    if (backlog_packets > 64) {
      rate_ = static_cast<BitsPerSecond>(static_cast<double>(rate_) * 0.7);
      rate_ = std::max<BitsPerSecond>(rate_, 50'000'000);
    } else {
      rate_ += step_;
    }
    Apply();
  }

  BitsPerSecond rate() const { return rate_; }

 private:
  void Apply() {
    (void)kernel_->SetConnRateLimit(kernel::kRootUid, conn_, rate_,
                                    /*burst=*/16 * 1024);
  }

  kernel::Kernel* kernel_;
  net::ConnectionId conn_;
  BitsPerSecond rate_;
  BitsPerSecond step_;
};

}  // namespace

int main() {
  workload::TestBedOptions options;
  options.nic.cost.link_rate_bps = 1 * kGbps;  // the bottleneck
  workload::TestBed bed(options);
  auto& k = bed.kernel();
  k.processes().AddUser(1, "tenant");
  const auto pid = *k.processes().Spawn(1, "sender");

  const auto peer = net::Ipv4Address::FromOctets(10, 0, 0, 2);
  auto a = Socket::Connect(&k, pid, peer, 1111, {});
  auto b = Socket::Connect(&k, pid, peer, 2222, {});

  constexpr Nanos kRunFor = 100 * kMillisecond;
  workload::BulkSender sender_a(&bed.sim(), &*a, 1400, 4 * kMicrosecond);
  workload::BulkSender sender_b(&bed.sim(), &*b, 1400, 4 * kMicrosecond);
  sender_a.Start(0, kRunFor);
  sender_b.Start(0, kRunFor);

  // Start asymmetric: A at 100 Mbit/s, B at 700 Mbit/s. AIMD should
  // converge them toward a fair split of the 1G link.
  AimdController cc_a(&k, a->conn_id(), 100'000'000, 40'000'000);
  AimdController cc_b(&k, b->conn_id(), 700'000'000, 40'000'000);

  uint64_t bytes_a = 0, bytes_b = 0;
  bed.SetEgressHook([&](const net::Packet& p) {
    const net::ParsedPacket* parsed = p.parsed();
    if (!parsed || !parsed->flow()) {
      return;
    }
    (parsed->flow()->dst_port == 1111 ? bytes_a : bytes_b) += p.size();
  });
  bed.DiscardEgress();

  // The kernel's CC tick: every 2 ms read the NIC backlog and adjust.
  std::printf("%8s %14s %14s %14s %14s\n", "time", "rate A", "rate B",
              "goodput A", "goodput B");
  uint64_t last_a = 0, last_b = 0;
  std::function<void()> tick = [&] {
    // Congestion = packets contending for the wire (not pacer queues).
    const uint64_t backlog = k.LinkBacklog();
    cc_a.Update(backlog);
    cc_b.Update(backlog);
    if (bed.sim().Now() % (10 * kMillisecond) == 0) {
      const Nanos window = 10 * kMillisecond;
      std::printf("%8s %14s %14s %14s %14s\n",
                  FormatNanos(bed.sim().Now()).c_str(),
                  FormatBps(static_cast<double>(cc_a.rate())).c_str(),
                  FormatBps(static_cast<double>(cc_b.rate())).c_str(),
                  FormatBps(AchievedBps(bytes_a - last_a, window)).c_str(),
                  FormatBps(AchievedBps(bytes_b - last_b, window)).c_str());
      last_a = bytes_a;
      last_b = bytes_b;
    }
    if (bed.sim().Now() < kRunFor) {
      bed.sim().ScheduleAfter(2 * kMillisecond, tick);
    }
  };
  bed.sim().ScheduleAfter(2 * kMillisecond, tick);
  bed.sim().RunUntil(kRunFor);

  const double share_a =
      static_cast<double>(bytes_a) / static_cast<double>(bytes_a + bytes_b);
  std::printf("\ntotals: A %s (%.1f%%), B %s — link %s\n",
              FormatBps(AchievedBps(bytes_a, kRunFor)).c_str(),
              share_a * 100,
              FormatBps(AchievedBps(bytes_b, kRunFor)).c_str(),
              FormatBps(AchievedBps(bytes_a + bytes_b, kRunFor)).c_str());
  std::printf(
      "\nkernel policy (AIMD) + NIC mechanism (pacer): rates converge\n"
      "toward a fair split without any application cooperation.\n");
  return 0;
}

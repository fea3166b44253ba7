// Ablation — queueing discipline choice (§4.4's "instruction set for
// defining traffic shaping policies" must cover the kernel's qdisc zoo).
//
// The same congested two-class workload (latency-sensitive small packets vs
// bulk 1400B flood) runs under every discipline Norman implements. Reported
// per class: achieved share of the link and p50/p99 in-NIC latency. This is
// the design-choice evidence for why a KOPI must be *programmable*: no
// single discipline fits all four rows.
#include <cstdio>
#include <functional>
#include <map>

#include "src/common/stats.h"
#include "src/norman/socket.h"
#include "src/dataplane/qdisc.h"
#include "src/nic/fifo_scheduler.h"
#include "src/tools/tools.h"
#include "src/workload/generators.h"
#include "src/workload/testbed.h"

namespace {

using namespace norman;  // NOLINT

struct ClassMetrics {
  uint64_t bytes = 0;
  LatencyHistogram latency;
};

struct AblationResult {
  ClassMetrics latency_class;  // uid 1001, small packets
  ClassMetrics bulk_class;     // uid 1002, 1400B flood
};

// Builds the qdisc under test; uid 1001 = RPC class, uid 1002 = bulk.
using QdiscFactory = std::function<std::unique_ptr<nic::Scheduler>()>;

AblationResult RunWorkload(const QdiscFactory& make_qdisc) {
  workload::TestBedOptions opts;
  opts.nic.cost.link_rate_bps = 5 * kGbps;  // heavily congested
  workload::TestBed bed(opts);
  auto& k = bed.kernel();
  k.processes().AddUser(1001, "latency");
  k.processes().AddUser(1002, "bulk");
  const auto pid_lat = *k.processes().Spawn(1001, "rpc");
  const auto pid_bulk = *k.processes().Spawn(1002, "backup");

  const Status s = k.SetQdisc(kernel::kRootUid, make_qdisc());
  if (!s.ok()) {
    std::fprintf(stderr, "qdisc install: %s\n", s.ToString().c_str());
    return {};
  }

  const auto peer = net::Ipv4Address::FromOctets(10, 0, 0, 2);
  auto lat_sock = Socket::Connect(&k, pid_lat, peer, 443, {});
  auto bulk_sock = Socket::Connect(&k, pid_bulk, peer, 9999, {});

  constexpr Nanos kRunFor = 10 * kMillisecond;
  // RPC class: 200B packets every 10us (160 Mbps offered).
  workload::CbrSender rpc(&bed.sim(), &*lat_sock, 200, 10 * kMicrosecond);
  // Bulk class: as fast as the ring allows (far over the link rate).
  workload::BulkSender bulk(&bed.sim(), &*bulk_sock, 1400,
                            2 * kMicrosecond);
  rpc.Start(0, kRunFor);
  bulk.Start(0, kRunFor);

  AblationResult result;
  bed.SetEgressHook([&](const net::Packet& p) {
    const net::ParsedPacket* parsed = p.parsed();
    if (!parsed || !parsed->flow()) {
      return;
    }
    ClassMetrics& m = parsed->flow()->dst_port == 443
                          ? result.latency_class
                          : result.bulk_class;
    m.bytes += p.size();
    m.latency.Add(p.meta().completed_at - p.meta().created_at);
  });
  bed.DiscardEgress();
  bed.sim().RunUntil(kRunFor);
  return result;
}

void Report(const char* name, const AblationResult& r) {
  const double total =
      static_cast<double>(r.latency_class.bytes + r.bulk_class.bytes);
  std::printf("%-28s %7.1f%% %10s %10s | %7.1f%% %10s\n", name,
              total > 0 ? 100.0 * static_cast<double>(r.latency_class.bytes) / total : 0.0,
              FormatNanos(r.latency_class.latency.p50()).c_str(),
              FormatNanos(r.latency_class.latency.p99()).c_str(),
              total > 0 ? 100.0 * static_cast<double>(r.bulk_class.bytes) / total : 0.0,
              FormatNanos(r.bulk_class.latency.p50()).c_str());
}

}  // namespace

int main() {
  std::printf("=====================================================\n");
  std::printf("Ablation: queueing disciplines under 2-class contention\n");
  std::printf("(RPC: 200B @ 160Mbps offered; bulk: 1400B flood; 5G link)\n");
  std::printf("=====================================================\n\n");
  std::printf("%-28s %8s %10s %10s | %8s %10s\n", "qdisc", "rpc %",
              "rpc p50", "rpc p99", "bulk %", "bulk p50");
  std::printf("%-28s %8s %10s %10s | %8s %10s\n", "", "(share)", "", "", "",
              "");

  const std::map<uint32_t, uint32_t> rpc_first{{1001, 0}, {1002, 1}};
  const std::map<uint32_t, uint32_t> two_classes{{1001, 1}, {1002, 2}};

  Report("fifo", RunWorkload([] {
           return std::make_unique<nic::FifoScheduler>();
         }));
  Report("prio (rpc=band0)", RunWorkload([&] {
           return std::make_unique<dataplane::PrioQdisc>(
               2, dataplane::ClassifyByUid(rpc_first));
         }));
  Report("drr quantum 1514", RunWorkload([&] {
           return std::make_unique<dataplane::DrrQdisc>(
               dataplane::ClassifyByUid(two_classes), 1514);
         }));
  Report("wfq 4:1", RunWorkload([&] {
           auto wfq = std::make_unique<dataplane::WfqQdisc>(
               dataplane::ClassifyByUid(two_classes));
           wfq->SetWeight(1, 4.0);
           wfq->SetWeight(2, 1.0);
           return wfq;
         }));
  Report("tbf 1gbit (shapes all)", RunWorkload([] {
           return std::make_unique<dataplane::TokenBucketQdisc>(
               1'000'000'000ULL, 64 * 1024);
         }));

  std::printf(
      "\nReading: FIFO lets the bulk flood inflate RPC tail latency; WFQ\n"
      "holds the RPC class near its offered share with low tails; DRR\n"
      "equalizes per-class bytes; TBF shapes the aggregate (not work-\n"
      "conserving). No fixed-function discipline serves every tenant mix —\n"
      "the reason the paper requires a *programmable* dataplane (§3).\n");
  return 0;
}

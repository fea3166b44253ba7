// Continuous-monitoring stack: time-series ring semantics, sampler
// derivation (counter->rate, gauge->level, histogram->p99), health
// watchdog state machine with owner-annotated alerts, the on-NIC
// top-talkers table under SRAM pressure, the bounded sniffer capture,
// queue watermark latching, and norman-top's byte-stable rendering.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "src/common/health.h"
#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/common/timeseries.h"
#include "src/dataplane/sniffer.h"
#include "src/net/packet_builder.h"
#include "src/net/parsed_packet.h"
#include "src/nic/sram.h"
#include "src/nic/top_talkers.h"
#include "src/norman/socket.h"
#include "src/sim/simulator.h"
#include "src/tools/tools.h"
#include "src/workload/testbed.h"

namespace norman {
namespace {

using telemetry::HealthState;

// ---- TimeSeries ring ------------------------------------------------------

TEST(TimeSeriesTest, RingKeepsNewestCapacityPoints) {
  telemetry::TimeSeries s(4);
  for (int i = 1; i <= 6; ++i) {
    s.Push(i * 10, i);
  }
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s.capacity(), 4u);
  EXPECT_EQ(s.total_pushed(), 6u);
  // Oldest retained point is push #3; newest is push #6.
  EXPECT_EQ(s.At(0).t, 30);
  EXPECT_EQ(s.At(0).value, 3);
  EXPECT_EQ(s.At(3).t, 60);
  EXPECT_EQ(s.Latest().value, 6);
}

TEST(TimeSeriesTest, PartiallyFilledReadsInOrder) {
  telemetry::TimeSeries s(8);
  s.Push(1, 1.5);
  s.Push(2, 2.5);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.At(0).value, 1.5);
  EXPECT_EQ(s.At(1).value, 2.5);
}

// ---- Sampler derivation ---------------------------------------------------

TEST(SamplerTest, DerivesRateLevelAndTailSeries) {
  telemetry::MetricsRegistry reg;
  auto* packets = reg.GetCounter("nic.tx.seen");
  auto* depth = reg.GetGauge("queue.test.depth");
  auto* lat = reg.GetHistogram("trace.stage.test");
  telemetry::TimeSeriesSampler sampler(&reg);

  packets->Increment(1000);
  depth->Set(7);
  lat->Add(500);
  lat->Add(900);
  sampler.Sample(1 * kSecond);  // window [0, 1s): 1000 pkts -> 1000/s

  packets->Increment(250);
  depth->Set(3);
  sampler.Sample(3 * kSecond);  // window [1s, 3s): 250 pkts -> 125/s

  const auto* rate = sampler.Find("nic.tx.seen.rate");
  ASSERT_NE(rate, nullptr);
  ASSERT_EQ(rate->size(), 2u);
  EXPECT_DOUBLE_EQ(rate->At(0).value, 1000.0);
  EXPECT_DOUBLE_EQ(rate->At(1).value, 125.0);

  const auto* level = sampler.Find("queue.test.depth");
  ASSERT_NE(level, nullptr);
  EXPECT_DOUBLE_EQ(level->At(0).value, 7.0);
  EXPECT_DOUBLE_EQ(level->At(1).value, 3.0);

  const auto* p99 = sampler.Find("trace.stage.test.p99");
  ASSERT_NE(p99, nullptr);
  EXPECT_GE(p99->At(0).value, 900.0);  // bucket upper bound >= max added

  EXPECT_EQ(sampler.samples_taken(), 2u);
  EXPECT_EQ(sampler.last_sample_at(), 3 * kSecond);
}

TEST(SamplerTest, RepeatedTimestampIsNoop) {
  telemetry::MetricsRegistry reg;
  reg.GetCounter("c")->Increment(10);
  telemetry::TimeSeriesSampler sampler(&reg);
  sampler.Sample(kSecond);
  sampler.Sample(kSecond);  // zero-width window: dropped
  EXPECT_EQ(sampler.samples_taken(), 1u);
  EXPECT_EQ(sampler.Find("c.rate")->size(), 1u);
}

TEST(SamplerTest, JsonReportIsByteStable) {
  auto run = [] {
    telemetry::MetricsRegistry reg;
    auto* c = reg.GetCounter("pkts");
    auto* g = reg.GetGauge("depth");
    telemetry::TimeSeriesSampler sampler(&reg);
    for (int i = 1; i <= 5; ++i) {
      c->Increment(100 + i);
      g->Set(i);
      sampler.Sample(i * kMillisecond);
    }
    return sampler.JsonReport();
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"samples\":5"), std::string::npos);
  EXPECT_NE(a.find("\"pkts.rate\""), std::string::npos);
}

// ---- Health watchdog ------------------------------------------------------

TEST(WatchdogTest, StalledQueueDegradesThenStallsThenRecovers) {
  telemetry::MetricsRegistry reg;
  auto* depth = reg.GetGauge("queue.test.depth");
  telemetry::TimeSeriesSampler sampler(&reg);
  telemetry::HealthWatchdog dog(&sampler, &reg);
  dog.AddQueueStallRule("test.q", "queue.test.depth", "team.dataplane",
                        /*windows=*/3, /*min_depth=*/1);

  // One backed-up window: still healthy (streak 1 < degraded threshold 2).
  depth->Set(5);
  sampler.Sample(1 * kMillisecond);
  dog.Evaluate(1 * kMillisecond);
  EXPECT_EQ(dog.StateOf("test.q"), HealthState::kHealthy);

  // Second window at the same depth: degraded.
  depth->Set(5);
  sampler.Sample(2 * kMillisecond);
  dog.Evaluate(2 * kMillisecond);
  EXPECT_EQ(dog.StateOf("test.q"), HealthState::kDegraded);

  // Third window, still not draining: stalled.
  depth->Set(6);
  sampler.Sample(3 * kMillisecond);
  dog.Evaluate(3 * kMillisecond);
  EXPECT_EQ(dog.StateOf("test.q"), HealthState::kStalled);

  // The queue drains: recovered.
  depth->Set(0);
  sampler.Sample(4 * kMillisecond);
  dog.Evaluate(4 * kMillisecond);
  EXPECT_EQ(dog.StateOf("test.q"), HealthState::kHealthy);

  ASSERT_EQ(dog.alerts().size(), 3u);
  EXPECT_EQ(dog.alerts()[0].to, HealthState::kDegraded);
  EXPECT_EQ(dog.alerts()[1].to, HealthState::kStalled);
  EXPECT_EQ(dog.alerts()[2].to, HealthState::kHealthy);
  EXPECT_EQ(dog.alerts()[2].reason, "recovered");
  for (const auto& a : dog.alerts()) {
    EXPECT_EQ(a.owner, "team.dataplane");
    EXPECT_EQ(a.component, "test.q");
  }
  // Counter tracks the alert volume; gauges track the component census.
  EXPECT_EQ(reg.GetCounter("health.alerts")->value(), 3u);
  EXPECT_EQ(reg.GetGauge("health.components.healthy")->value(), 1);
}

TEST(WatchdogTest, AlertLogOverflowEvictsOldestFirst) {
  telemetry::MetricsRegistry reg;
  auto* depth = reg.GetGauge("queue.test.depth");
  telemetry::TimeSeriesSampler sampler(&reg);
  telemetry::HealthWatchdog::Options opts;
  opts.max_alerts = 4;
  telemetry::HealthWatchdog dog(&sampler, &reg, opts);
  dog.AddQueueStallRule("test.q", "queue.test.depth", "o", /*windows=*/3, 1);

  Nanos t = 0;
  auto window = [&](int64_t d) {
    depth->Set(d);
    t += kMillisecond;
    sampler.Sample(t);
    dog.Evaluate(t);
  };
  // Each stall/drain cycle logs degraded, stalled, recovered — three
  // cycles log 9 alerts against a bound of 4.
  for (int cycle = 0; cycle < 3; ++cycle) {
    window(5);
    window(5);  // degraded
    window(6);  // stalled
    window(0);  // recovered
  }
  EXPECT_EQ(dog.alerts().size(), 4u);
  EXPECT_EQ(dog.alerts_dropped(), 5u);
  // The registry counter still counts every transition ever logged.
  EXPECT_EQ(reg.GetCounter("health.alerts")->value(), 9u);
  // Oldest-first eviction: the survivors are the newest four (cycle 2's
  // recovery at t=8ms, then all of cycle 3), in chronological order.
  EXPECT_EQ(dog.alerts().front().t, 8 * kMillisecond);
  EXPECT_EQ(dog.alerts().front().to, HealthState::kHealthy);
  EXPECT_EQ(dog.alerts().back().t, 12 * kMillisecond);
  for (size_t i = 1; i < dog.alerts().size(); ++i) {
    EXPECT_LT(dog.alerts()[i - 1].t, dog.alerts()[i].t);
  }
}

TEST(WatchdogTest, StalledHealthyStalledFlapLogsDistinctAlerts) {
  telemetry::MetricsRegistry reg;
  auto* down = reg.GetGauge("fault.link.down");
  telemetry::TimeSeriesSampler sampler(&reg);
  telemetry::HealthWatchdog dog(&sampler, &reg);
  dog.AddLinkDownRule("link", "fault.link.down", "net.wire");

  Nanos t = 0;
  auto window = [&](int64_t v) {
    down->Set(v);
    t += kMillisecond;
    sampler.Sample(t);
    dog.Evaluate(t);
  };
  window(1);  // stalled
  window(0);  // recovered
  window(1);  // stalled again: a distinct alert, not a dedup
  ASSERT_EQ(dog.alerts().size(), 3u);
  EXPECT_EQ(dog.alerts()[0].to, HealthState::kStalled);
  EXPECT_EQ(dog.alerts()[1].to, HealthState::kHealthy);
  EXPECT_EQ(dog.alerts()[1].reason, "recovered");
  EXPECT_EQ(dog.alerts()[2].to, HealthState::kStalled);
  EXPECT_NE(dog.alerts()[0].t, dog.alerts()[2].t);
  EXPECT_EQ(dog.alerts_dropped(), 0u);
}

TEST(WatchdogTest, DrainingQueueIsNotAStall) {
  telemetry::MetricsRegistry reg;
  auto* depth = reg.GetGauge("queue.test.depth");
  telemetry::TimeSeriesSampler sampler(&reg);
  telemetry::HealthWatchdog dog(&sampler, &reg);
  dog.AddQueueStallRule("test.q", "queue.test.depth", "o", 3, 1);
  // Deep but strictly draining each window: backpressure, not a stall.
  for (int i = 0; i < 5; ++i) {
    depth->Set(100 - 20 * i);
    sampler.Sample((i + 1) * kMillisecond);
    dog.Evaluate((i + 1) * kMillisecond);
  }
  EXPECT_EQ(dog.StateOf("test.q"), HealthState::kHealthy);
  EXPECT_TRUE(dog.alerts().empty());
}

TEST(WatchdogTest, RateSpikeDegradesWhileElevated) {
  telemetry::MetricsRegistry reg;
  auto* drops = reg.GetCounter("nic.drops");
  telemetry::TimeSeriesSampler sampler(&reg);
  telemetry::HealthWatchdog dog(&sampler, &reg);
  dog.AddRateSpikeRule("nic", "nic.drops.rate", "oncall", /*per_second=*/50.0);

  drops->Increment(10);  // 10 drops over 1s = 10/s: fine
  sampler.Sample(1 * kSecond);
  dog.Evaluate(1 * kSecond);
  EXPECT_EQ(dog.StateOf("nic"), HealthState::kHealthy);

  drops->Increment(200);  // 200/s: spike
  sampler.Sample(2 * kSecond);
  dog.Evaluate(2 * kSecond);
  EXPECT_EQ(dog.StateOf("nic"), HealthState::kDegraded);

  sampler.Sample(3 * kSecond);  // no new drops: 0/s
  dog.Evaluate(3 * kSecond);
  EXPECT_EQ(dog.StateOf("nic"), HealthState::kHealthy);
  EXPECT_EQ(dog.alerts().size(), 2u);
}

// ---- Top talkers ----------------------------------------------------------

net::FiveTuple Tuple(uint16_t src_port) {
  return {net::Ipv4Address::FromOctets(10, 0, 0, 1),
          net::Ipv4Address::FromOctets(10, 0, 0, 2), src_port, 80,
          net::IpProto::kUdp};
}

TEST(TopTalkersTest, EvictsSmallestUnderSramPressure) {
  telemetry::MetricsRegistry reg;
  // Room for exactly two entries: 2 * 48 = 96 bytes.
  nic::SramAllocator sram(2 * nic::kTopTalkerEntryBytes);
  nic::TopTalkers tt(&sram, &reg, /*max_entries=*/64);

  tt.Record(Tuple(1000), 1, 5000, 10);  // heavy
  tt.Record(Tuple(2000), 2, 100, 20);   // light
  EXPECT_EQ(tt.size(), 2u);
  EXPECT_EQ(sram.available(), 0u);

  // A third flow arrives with SRAM exhausted: the light flow is evicted.
  tt.Record(Tuple(3000), 3, 700, 30);
  EXPECT_EQ(tt.size(), 2u);
  EXPECT_EQ(tt.evicted(), 1u);
  EXPECT_EQ(tt.Lookup(Tuple(2000)), nullptr);
  ASSERT_NE(tt.Lookup(Tuple(1000)), nullptr);
  ASSERT_NE(tt.Lookup(Tuple(3000)), nullptr);

  // Ranking: most bytes first.
  const auto top = tt.Top(10);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].bytes, 5000u);
  EXPECT_EQ(top[1].bytes, 700u);
}

TEST(TopTalkersTest, MaxEntriesBoundEvicts) {
  telemetry::MetricsRegistry reg;
  nic::SramAllocator sram(1 << 20);  // ample SRAM: the table bound governs
  nic::TopTalkers tt(&sram, &reg, /*max_entries=*/2);
  tt.Record(Tuple(1), 1, 300, 1);
  tt.Record(Tuple(2), 1, 200, 2);
  tt.Record(Tuple(3), 1, 900, 3);
  EXPECT_EQ(tt.size(), 2u);
  EXPECT_EQ(tt.evicted(), 1u);
  EXPECT_EQ(tt.Lookup(Tuple(2)), nullptr);  // smallest evicted
  // SRAM stays charged for exactly the live entries.
  EXPECT_EQ(sram.used(), 2 * nic::kTopTalkerEntryBytes);
}

TEST(TopTalkersTest, UntrackedWhenNoSramAtAll) {
  telemetry::MetricsRegistry reg;
  nic::SramAllocator sram(nic::kTopTalkerEntryBytes - 8);  // fits nothing
  nic::TopTalkers tt(&sram, &reg, 64);
  tt.Record(Tuple(1), 1, 100, 1);
  EXPECT_EQ(tt.size(), 0u);
  EXPECT_EQ(tt.untracked(), 1u);
  EXPECT_EQ(reg.GetCounter("flow.untracked")->value(), 1u);
}

TEST(TopTalkersTest, RepeatedPacketsAccumulateThroughHotCache) {
  telemetry::MetricsRegistry reg;
  nic::SramAllocator sram(1 << 20);
  nic::TopTalkers tt(&sram, &reg, 64);
  for (int i = 0; i < 100; ++i) {
    tt.Record(Tuple(1), 7, 100, i);
  }
  tt.Record(Tuple(2), 8, 1, 200);
  for (int i = 0; i < 50; ++i) {
    tt.Record(Tuple(1), 7, 100, 300 + i);
  }
  const auto* e = tt.Lookup(Tuple(1));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->packets, 150u);
  EXPECT_EQ(e->bytes, 15000u);
  EXPECT_EQ(e->first_seen, 0);
  EXPECT_EQ(e->last_seen, 349);
  EXPECT_EQ(e->owner_pid, 7u);
}

// ---- Top talkers against a naive model -----------------------------------

// The table as first specified: a tuple-sorted map and a linear scan for the
// eviction victim (fewest bytes; the first in tuple order on ties).
class NaiveTopTalkers {
 public:
  NaiveTopTalkers(nic::SramAllocator* sram, size_t max_entries)
      : sram_(sram), max_entries_(max_entries) {}
  ~NaiveTopTalkers() {
    for (const auto& [tuple, e] : table_) {
      sram_->Free("top_talkers", nic::kTopTalkerEntryBytes, e.tenant);
    }
  }

  void Record(const net::FiveTuple& tuple, uint32_t pid, uint32_t bytes,
              Nanos now, uint32_t tenant) {
    const auto it = table_.find(tuple);
    if (it != table_.end()) {
      ++it->second.packets;
      it->second.bytes += bytes;
      it->second.last_seen = now;
      return;
    }
    if (!table_.empty() &&
        (table_.size() >= max_entries_ ||
         sram_->available() < nic::kTopTalkerEntryBytes)) {
      auto victim = table_.begin();
      for (auto c = table_.begin(); c != table_.end(); ++c) {
        if (c->second.bytes < victim->second.bytes) victim = c;
      }
      sram_->Free("top_talkers", nic::kTopTalkerEntryBytes,
                  victim->second.tenant);
      last_victim_tenant = victim->second.tenant;
      table_.erase(victim);
      ++evicted;
    }
    if (!sram_->Allocate("top_talkers", nic::kTopTalkerEntryBytes, pid,
                         tenant)
             .ok()) {
      ++untracked;
      return;
    }
    table_[tuple] = {tuple, pid, tenant, 1, bytes, now, now};
    ++tracked;
  }

  // SRAM the table's entries hold for `tenant`, counted from the entries.
  uint64_t TenantBytes(uint32_t tenant) const {
    uint64_t n = 0;
    for (const auto& [tuple, e] : table_) n += e.tenant == tenant ? 1 : 0;
    return n * nic::kTopTalkerEntryBytes;
  }

  const nic::TopTalkerEntry* Lookup(const net::FiveTuple& tuple) const {
    const auto it = table_.find(tuple);
    return it == table_.end() ? nullptr : &it->second;
  }

  std::vector<nic::TopTalkerEntry> Top() const {
    std::vector<nic::TopTalkerEntry> out;
    for (const auto& [tuple, e] : table_) out.push_back(e);
    std::stable_sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      return a.bytes > b.bytes;
    });
    return out;
  }

  size_t size() const { return table_.size(); }

  uint64_t tracked = 0;
  uint64_t evicted = 0;
  uint64_t untracked = 0;
  uint32_t last_victim_tenant = 0;

 private:
  nic::SramAllocator* sram_;
  size_t max_entries_;
  std::map<net::FiveTuple, nic::TopTalkerEntry> table_;
};

bool SameEntry(const nic::TopTalkerEntry& a, const nic::TopTalkerEntry& b) {
  return a.tuple == b.tuple && a.owner_pid == b.owner_pid &&
         a.tenant == b.tenant && a.packets == b.packets &&
         a.bytes == b.bytes && a.first_seen == b.first_seen &&
         a.last_seen == b.last_seen;
}

struct TopTalkersModelCase {
  uint64_t seed;
  size_t max_entries;
  uint64_t sram_entries;   // SRAM capacity, in entries
  uint64_t quota_entries;  // tenant 2's SRAM quota, in entries (0 = none)
  double hot_share;        // chance a record goes to the current hot flow
};

// How often a model run took each evict-and-admit path.
struct TopTalkersModelPaths {
  int same_tenant = 0;   // the new flow replaced a victim of its tenant
  int cross_tenant = 0;  // ... of another tenant
  int evict_then_refuse = 0;  // evicted, then the quota refused the flow
};

// Drives the same seeded Record stream into TopTalkers and the naive model
// (each with its own SRAM and registry) and compares every observable
// after every step — entries, counters, device and per-tenant SRAM (against
// the model's entries, and as the tenant observer last reported it) — and
// the SRAM refunds after destruction.
TopTalkersModelPaths RunTopTalkersModel(const TopTalkersModelCase& c) {
  Rng rng(c.seed);
  telemetry::MetricsRegistry reg;
  nic::SramAllocator sram(c.sram_entries * nic::kTopTalkerEntryBytes);
  nic::SramAllocator model_sram(c.sram_entries * nic::kTopTalkerEntryBytes);
  if (c.quota_entries > 0) {
    sram.SetTenantQuota(2, c.quota_entries * nic::kTopTalkerEntryBytes);
    model_sram.SetTenantQuota(2, c.quota_entries * nic::kTopTalkerEntryBytes);
  }
  // 48 flows over two destinations, so tuple order is not port order.
  std::vector<net::FiveTuple> flows;
  for (uint16_t i = 0; i < 48; ++i) {
    flows.push_back({net::Ipv4Address::FromOctets(10, 0, 0, 1),
                     net::Ipv4Address::FromOctets(10, 0, 1, i % 2),
                     static_cast<uint16_t>(7000 - 13 * i), 80,
                     net::IpProto::kUdp});
  }
  // Few distinct sizes (and zero), so byte ties are common.
  constexpr uint32_t kSizes[] = {0, 1, 64, 64, 100, 1500};
  // The last usage the tenant observer reported, per tenant.
  std::map<uint32_t, uint64_t> observed;
  sram.SetTenantObserver(
      [&observed](uint32_t tenant, uint64_t used) { observed[tenant] = used; });
  TopTalkersModelPaths paths;
  {
    nic::TopTalkers tt(&sram, &reg, c.max_entries);
    NaiveTopTalkers model(&model_sram, c.max_entries);
    // A hot flow that changes now and then, interleaved with random
    // flows: its trains straddle evictions and refused admissions.
    size_t hot = 0;
    for (int step = 0; step < 3000; ++step) {
      if (rng.NextBool(1.0 / 16)) hot = rng.NextBounded(flows.size());
      const size_t flow =
          rng.NextBool(c.hot_share) ? hot : rng.NextBounded(flows.size());
      const uint32_t bytes = kSizes[rng.NextBounded(6)];
      const auto pid = static_cast<uint32_t>(100 + flow % 5);
      const uint32_t tenant = flow % 3 == 0 ? 2 : 1;
      const uint64_t evicted_before = model.evicted;
      const uint64_t untracked_before = model.untracked;
      tt.Record(flows[flow], pid, bytes, step, tenant);
      model.Record(flows[flow], pid, bytes, step, tenant);
      if (model.evicted > evicted_before) {
        if (model.untracked > untracked_before) {
          ++paths.evict_then_refuse;
        } else if (model.last_victim_tenant == tenant) {
          ++paths.same_tenant;
        } else {
          ++paths.cross_tenant;
        }
      }

      const auto top = tt.Top(tt.size());
      const auto want = model.Top();
      EXPECT_EQ(tt.size(), model.size()) << "step " << step;
      EXPECT_EQ(top.size(), want.size()) << "step " << step;
      for (size_t i = 0; i < std::min(top.size(), want.size()); ++i) {
        EXPECT_TRUE(SameEntry(top[i], want[i]))
            << "step " << step << " rank " << i << ": "
            << top[i].tuple.ToString() << " vs " << want[i].tuple.ToString();
      }
      for (const auto& t : flows) {
        const auto* got = tt.Lookup(t);
        const auto* exp = model.Lookup(t);
        EXPECT_EQ(got == nullptr, exp == nullptr)
            << "step " << step << " " << t.ToString();
        if (got != nullptr && exp != nullptr) {
          EXPECT_TRUE(SameEntry(*got, *exp)) << "step " << step;
        }
      }
      EXPECT_EQ(tt.tracked(), model.tracked) << "step " << step;
      EXPECT_EQ(tt.evicted(), model.evicted) << "step " << step;
      EXPECT_EQ(tt.untracked(), model.untracked) << "step " << step;
      EXPECT_EQ(sram.used(), model_sram.used()) << "step " << step;
      for (const uint32_t t : {1u, 2u}) {
        EXPECT_EQ(sram.TenantUsed(t), model_sram.TenantUsed(t))
            << "step " << step << " tenant " << t;
        EXPECT_EQ(sram.TenantUsed(t), model.TenantBytes(t))
            << "step " << step << " tenant " << t;
        if (observed.count(t) != 0) {
          EXPECT_EQ(observed[t], sram.TenantUsed(t))
              << "step " << step << " tenant " << t;
        }
      }
      EXPECT_EQ(sram.UsedBy("top_talkers"), sram.used()) << "step " << step;
      if (::testing::Test::HasFailure()) return paths;
    }
    EXPECT_GT(tt.evicted(), 0u);
  }
  // Destruction refunds every entry to its tenant.
  EXPECT_EQ(sram.used(), 0u);
  EXPECT_EQ(model_sram.used(), 0u);
  EXPECT_EQ(sram.TenantUsed(1), model_sram.TenantUsed(1));
  EXPECT_EQ(sram.TenantUsed(2), model_sram.TenantUsed(2));
  return paths;
}

TEST(TopTalkersModelTest, TableBound) {
  TopTalkersModelPaths paths;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const auto p = RunTopTalkersModel({seed, /*max_entries=*/8,
                                       /*sram_entries=*/1024,
                                       /*quota_entries=*/0, /*hot_share=*/0.0});
    paths.same_tenant += p.same_tenant;
    paths.cross_tenant += p.cross_tenant;
  }
  // Both replacement paths ran: the charge stays with its tenant, or
  // moves to another.
  EXPECT_GT(paths.same_tenant, 0);
  EXPECT_GT(paths.cross_tenant, 0);
}

TEST(TopTalkersModelTest, SramPressure) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    RunTopTalkersModel({seed, /*max_entries=*/64, /*sram_entries=*/6,
                        /*quota_entries=*/0, /*hot_share=*/0.0});
  }
}

TEST(TopTalkersModelTest, QuotaRefusesAdmissionAfterEviction) {
  int evict_then_refuse = 0;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    evict_then_refuse +=
        RunTopTalkersModel({seed, /*max_entries=*/10, /*sram_entries=*/1024,
                            /*quota_entries=*/2, /*hot_share=*/0.2})
            .evict_then_refuse;
  }
  EXPECT_GT(evict_then_refuse, 0) << "the stream never hit the path";
}

TEST(TopTalkersModelTest, HotFlowTrains) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    RunTopTalkersModel({seed, /*max_entries=*/12, /*sram_entries=*/10,
                        /*quota_entries=*/3, /*hot_share=*/0.8});
  }
}

// ---- Sniffer capture bound ------------------------------------------------

TEST(SnifferTest, CaptureBufferIsBounded) {
  sim::Simulator sim;
  dataplane::SnifferTap tap(&sim, /*snaplen=*/96, /*max_records=*/3);
  tap.Start();

  const net::FrameEndpoints ep{net::MacAddress::ForHost(1),
                               net::MacAddress::ForHost(2),
                               net::Ipv4Address::FromOctets(10, 0, 0, 1),
                               net::Ipv4Address::FromOctets(10, 0, 0, 2)};
  const auto frame =
      net::BuildUdpFrame(ep, 1111, 2222, std::vector<uint8_t>(64, 0xcd));
  const auto parsed = *net::ParseFrame(frame);
  overlay::PacketContext ctx;
  ctx.frame = frame;
  ctx.parsed = &parsed;
  ctx.direction = net::Direction::kTx;

  net::Packet packet(frame);
  for (int i = 0; i < 5; ++i) {
    tap.Process(packet, ctx);
  }
  // tcpdump -c semantics: the first 3 are retained, 2 overflowed, and the
  // pcap byte stream stays consistent with the record list.
  EXPECT_EQ(tap.records().size(), 3u);
  EXPECT_EQ(tap.overflow(), 2u);
  EXPECT_EQ(tap.pcap().record_count(), 3u);
  EXPECT_EQ(sim.metrics().GetCounter("sniffer.overflow")->value(), 2u);
}

// ---- Queue watermarks -----------------------------------------------------

TEST(QueueDepthGaugesTest, HighWaterLatches) {
  telemetry::MetricsRegistry reg;
  telemetry::QueueDepthGauges g(&reg, "unit");
  g.Add(3);
  EXPECT_EQ(g.depth(), 3);
  EXPECT_EQ(g.high_water(), 3);
  g.Add(-2);
  EXPECT_EQ(g.depth(), 1);
  EXPECT_EQ(g.high_water(), 3);  // watermark holds
  g.Set(9);
  EXPECT_EQ(g.high_water(), 9);
  g.Set(0);
  EXPECT_EQ(reg.GetGauge("queue.unit.depth")->value(), 0);
  EXPECT_EQ(reg.GetGauge("queue.unit.high_water")->value(), 9);
}

// ---- norman-top rendering -------------------------------------------------

std::pair<std::string, std::string> RunTopScenario() {
  workload::TestBedOptions opts;
  opts.echo = true;
  opts.kernel.housekeeping_period = 200 * kMicrosecond;
  workload::TestBed bed(opts);
  auto& k = bed.kernel();
  k.processes().AddUser(1, "u");
  const auto pid = *k.processes().Spawn(1, "app");
  kernel::NicConfig cfg;
  cfg.top_talkers = true;
  cfg.top_talker_entries = 8;
  cfg.maintenance = true;
  EXPECT_TRUE(k.Configure(kernel::kRootUid, cfg).ok());

  const auto peer = net::Ipv4Address::FromOctets(10, 0, 0, 2);
  auto s = Socket::Connect(&k, pid, peer, 4242, {});
  const std::vector<uint8_t> payload(400, 0x5e);
  for (int i = 0; i < 12; ++i) {
    (void)s->Send(payload);
  }
  bed.sim().Run();
  return {tools::TopRender(k, bed.nic()), tools::TopJson(k, bed.nic())};
}

TEST(NormanTopTest, RenderAndJsonAreByteIdenticalAcrossRuns) {
  const auto [text_a, json_a] = RunTopScenario();
  const auto [text_b, json_b] = RunTopScenario();
  EXPECT_EQ(text_a, text_b);
  EXPECT_EQ(json_a, json_b);
}

TEST(NormanTopTest, RenderShowsFlowsQueuesAndHealth) {
  const auto [text, json] = RunTopScenario();
  EXPECT_NE(text.find("flows (on-NIC top talkers):"), std::string::npos);
  EXPECT_NE(text.find("pid=100 (app)"), std::string::npos);
  EXPECT_NE(text.find("queues (depth / high-water):"), std::string::npos);
  EXPECT_NE(text.find("nic.qdisc"), std::string::npos);
  EXPECT_NE(text.find("health:"), std::string::npos);
  EXPECT_NE(json.find("\"flows\":["), std::string::npos);
  EXPECT_NE(json.find("\"health\":{"), std::string::npos);
  EXPECT_NE(json.find("\"queues\":{"), std::string::npos);
}

// ---- Kernel maintenance tick ---------------------------------------------

TEST(MaintenanceTest, TickDrivesSamplerAndParksWhenIdle) {
  workload::TestBedOptions opts;
  opts.echo = true;
  opts.kernel.housekeeping_period = 100 * kMicrosecond;
  workload::TestBed bed(opts);
  auto& k = bed.kernel();
  k.processes().AddUser(1, "u");
  const auto pid = *k.processes().Spawn(1, "app");
  kernel::NicConfig cfg;
  cfg.maintenance = true;
  ASSERT_TRUE(k.Configure(kernel::kRootUid, cfg).ok());
  EXPECT_TRUE(k.maintenance_running());

  const auto peer = net::Ipv4Address::FromOctets(10, 0, 0, 2);
  auto s = Socket::Connect(&k, pid, peer, 999, {});
  (void)s->Send(std::vector<uint8_t>(200, 1));
  bed.sim().Run();

  // Ticks ran while traffic kept the heap alive, then the timer parked
  // itself instead of spinning the simulation forever.
  EXPECT_GE(k.maintenance_ticks(), 1u);
  EXPECT_GE(k.sampler().samples_taken(), 1u);
  EXPECT_FALSE(k.maintenance_running());
  EXPECT_EQ(k.sampler().samples_taken(), k.maintenance_ticks());
}

}  // namespace
}  // namespace norman

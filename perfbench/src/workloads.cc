#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "src/common/rng.h"
#include "src/dataplane/filter_engine.h"
#include "src/kernel/kernel.h"
#include "src/net/frame_checksum.h"
#include "src/net/packet_pool.h"
#include "src/net/parsed_packet.h"
#include "src/norman/socket.h"
#include "src/overlay/assembler.h"
#include "src/overlay/interpreter.h"
#include "src/workload/testbed.h"

namespace perfbench {
namespace {

using namespace norman;  // NOLINT

constexpr auto kPeerIp = net::Ipv4Address::FromOctets(10, 0, 0, 2);

// Every payload starts with (flow, seq, due) and ends with a hash of those
// and its own length, so a receiver can prove which send it answers and
// that the bytes survived the round trip.
constexpr size_t kStampBytes = 16;
constexpr size_t kTailBytes = 8;
constexpr size_t kMinPayload = kStampBytes + kTailBytes;

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  return x ^ (x >> 33);
}

uint64_t TailOf(uint32_t flow, uint32_t seq, uint64_t due, size_t len) {
  return Mix((uint64_t{flow} << 32 | seq) ^ Mix(due) ^ (len * 0x9e37ULL));
}

struct Fnv {
  uint64_t h = 1469598103934665603ULL;
  void Add(std::string_view s) {
    for (const char c : s) {
      h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ULL;
    }
  }
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ULL;
    }
  }
  void Add(double d) {
    uint64_t v = 0;
    std::memcpy(&v, &d, sizeof(v));
    Add(v);
  }
};

// ---- workload shapes -------------------------------------------------------

struct Shape {
  Nanos warmup = 0;       // virtual set-up traffic before measuring
  Nanos measure = 0;      // virtual measured span
  Nanos slice = 0;        // app poll period (RunUntil slice)
  Nanos drain_limit = 0;  // after `measure`, wait this long for replies
};

Shape ShapeOf(const std::string& w) {
  if (w == "echo_small") {
    return {5 * kMillisecond, 40 * kMillisecond, 1 * kMicrosecond,
            2 * kMillisecond};
  }
  if (w == "fw_churn") {
    return {10 * kMillisecond, 60 * kMillisecond, 2 * kMicrosecond,
            4 * kMillisecond};
  }
  return {2 * kMillisecond, 30 * kMillisecond, 2 * kMicrosecond,
          10 * kMillisecond};
}

// The control channel of echo_small and bulk_sharded: open-loop Poisson.
constexpr uint16_t kControlPort = 6000;
constexpr Nanos kControlMeanGap = 20 * kMicrosecond;  // 50 kpps
constexpr size_t kControlPayload = 64;

// echo_small: open-loop Poisson, 64-byte payloads, 32 polled flows plus
// the control channel.
constexpr int kEchoFlows = 32;
constexpr Nanos kEchoMeanGap = 500;  // 2 Mpps aggregate
constexpr size_t kEchoPayload = 64;

// fw_churn: two tenants, ~1k flows, filter chains, flow cache below the
// flow count, a payload-reading tenant program, blocking receivers, and a
// control-plane schedule running through the measured span.
constexpr kernel::Uid kUidWeb = 1001;
constexpr kernel::Uid kUidBatch = 1002;
constexpr int kWebFlows = 576;
constexpr int kDeniedFlows = 64;
constexpr int kBatchFlows = 384;
constexpr Nanos kWebMeanGap = 1250;     // 800 kpps over web + denied flows
constexpr Nanos kBatchMeanGap = 10000;  // 100 kpps over batch flows
constexpr size_t kFwPayload = 128;
// Web traffic is skewed: 80% of its sends go to 128 hot flows, whose cache
// entries fit; the long tail misses.
constexpr size_t kHotFlows = 128;
constexpr double kHotShare = 0.8;
constexpr int kNoiseRules = 22;
constexpr size_t kFwCacheEntries = 512;
constexpr Nanos kRulePeriod = 4 * kMillisecond;
constexpr Nanos kChurnPeriod = 1 * kMillisecond;

// bulk_sharded: 16 closed-loop senders, ~1400-byte payloads, 4 RSS queues,
// tenants weighted 3:1 with isolation on, plus the control channel.
constexpr kernel::Uid kUidGold = 2001;
constexpr kernel::Uid kUidBronze = 2002;
constexpr int kBulkFlowsPerTenant = 8;
constexpr uint16_t kBulkQueues = 4;
constexpr uint32_t kGoldWeight = 3;
constexpr uint32_t kBronzeWeight = 1;
constexpr uint32_t kBulkWindow = 192;  // payloads in flight per flow
constexpr size_t kBulkPayloadLo = 1300;
constexpr size_t kBulkPayloadHi = 1472;

// Frames kept for the traced replay through the parse/checksum/filter/
// overlay entry points.
constexpr size_t kReplayFrames = 4096;
constexpr int kReplayRounds = 8;

struct Flow {
  Socket sock;
  uint32_t id = 0;
  bool admitted = true;  // false: the policy drops every send
  bool blocking = false;
  bool churn = false;
  bool open = true;
  bool in_active = false;
  bool bulk = false;  // closed-loop sender, refilled at every poll
  uint32_t next_seq = 0;
  uint32_t outstanding = 0;
  std::vector<uint8_t> got;  // per seq: received yet?
};

// Open-loop Poisson arrivals over a set of flows (a superposition of
// per-flow Poisson streams, drawn as one stream picking a flow per send).
struct Generator {
  std::vector<uint32_t> flows;
  // Skew: `hot_share` of sends go to the first `hot_flows` flows, the rest
  // to any flow (0 = uniform).
  size_t hot_flows = 0;
  double hot_share = 0;
  Nanos mean_gap = 0;
  size_t payload = 0;
  Rng rng{1};
};

// Counter values at one instant, by name: the world's registry plus a few
// process-side counts (heap, packet pool, harness calls, profiler cores).
using Snap = std::map<std::string, double>;

// Change of every counter across the measured span.
struct Delta {
  Snap before;
  Snap after;

  double operator()(const std::string& name) const {
    const auto a = after.find(name);
    const auto b = before.find(name);
    return (a == after.end() ? 0.0 : a->second) -
           (b == before.end() ? 0.0 : b->second);
  }
  // Sum over every name starting with `prefix`.
  double Sum(const std::string& prefix) const {
    double sum = 0;
    for (auto it = after.lower_bound(prefix);
         it != after.end() && it->first.rfind(prefix, 0) == 0; ++it) {
      sum += (*this)(it->first);
    }
    return sum;
  }
  // Largest change among names starting with `prefix`.
  double Max(const std::string& prefix) const {
    double max = 0;
    for (auto it = after.lower_bound(prefix);
         it != after.end() && it->first.rfind(prefix, 0) == 0; ++it) {
      max = std::max(max, (*this)(it->first));
    }
    return max;
  }
  // NIC traversals: every packet the NIC saw, both directions.
  double Packets() const {
    return (*this)("nic.tx.seen") + (*this)("nic.rx.seen");
  }
  double PerPacket(const std::string& name) const {
    const double p = Packets();
    return p == 0 ? 0.0 : (*this)(name) / p;
  }
};

class Window {
 public:
  Window(std::string workload, uint64_t seed, SpanTrace* trace,
         double span_scale, std::function<double()> calibrate)
      : workload_(std::move(workload)),
        calibrate_(std::move(calibrate)),
        seed_(seed),
        trace_(trace),
        traced_(trace->enabled()),
        shape_(ShapeOf(workload_)),
        rng_(Mix(seed) ^ 0x6e6f726d616eULL),
        poll_rng_(Mix(seed ^ 0x9011)) {
    shape_.measure = static_cast<Nanos>(
        static_cast<double>(shape_.measure) * span_scale);
    warm_end_ = shape_.warmup;
    measure_end_ = shape_.warmup + shape_.measure;
  }

  WindowResult Run();

 private:
  // set-up
  void BuildWorld();
  void SetupEcho();
  void SetupFirewall();
  void SetupBulk();
  void Configure(const kernel::NicConfig& cfg);
  kernel::Tenant CreateTenant(kernel::Uid uid, const kernel::TenantSpec& s);
  Flow& Connect(kernel::Pid pid, uint16_t port, bool blocking);
  void AddControlFlow(kernel::Pid pid);
  Generator& AddGenerator(Nanos mean_gap, size_t payload, uint64_t salt);
  void Fail(std::string what);

  // traffic
  void StartGenerator(Generator& g);
  void GeneratorTick(Generator& g);
  void BulkFill(Flow& f, Nanos now);
  bool Send(Flow& f, size_t len, Nanos due);
  void Receive(Flow& f, std::span<const uint8_t> payload, Nanos when);
  void ArmBlocking(Flow& f);
  void RuleTick();
  void ChurnTick();
  void CloseFlow(Flow& f);

  // driving
  void RunTo(Nanos end);
  void Drain(Nanos now);
  bool AllReplied() const;

  // phases of a window
  void Setup();
  void DrainReplies();
  void CheckOutputs();

  // results
  void VirtualMetrics(WindowResult& r, const Delta& d);
  void ExactLayers(WindowResult& r, const Delta& d);
  uint64_t Fingerprint(const WindowResult& r) const;
  void TracedLayers(WindowResult& r, const Delta& d);
  void Replay(WindowResult& r);
  // Runs body(round) kReplayRounds times inside one span; host ns per round.
  template <typename Fn>
  double TimedRounds(const char* layer, const char* name, Fn body);
  uint64_t Counter(std::string_view name) const;
  int64_t Gauge(std::string_view name) const;
  Snap Take() const;

  std::string workload_;
  std::function<double()> calibrate_;
  uint64_t seed_;
  SpanTrace* trace_;
  bool traced_;
  Shape shape_;
  Rng rng_;
  Nanos warm_end_ = 0;
  Nanos measure_end_ = 0;
  Nanos send_stop_ = 0;
  Nanos clock_ = 0;  // the app's poll clock: end of the last slice
  Rng poll_rng_;

  // Declaration order is teardown order in reverse: flows and tenants go
  // before the world they live in.
  std::unique_ptr<workload::TestBed> bed_;
  std::vector<kernel::Tenant> tenants_;
  std::vector<std::unique_ptr<Flow>> flows_;
  std::vector<uint32_t> active_;  // polled flows with replies outstanding
  std::vector<std::unique_ptr<Generator>> generators_;
  std::vector<uint32_t> bulk_flows_;
  kernel::Pid pid_churn_ = 0;
  uint16_t next_churn_port_ = 40000;
  uint16_t next_rule_port_ = 61000;
  std::optional<size_t> live_rule_;
  std::optional<overlay::Program> tenant_program_;

  // accounting for the measured span (sends due in [warm_end, measure_end))
  uint64_t m_attempts_ = 0;  // sends tried on admitted flows, refused too
  uint64_t m_refused_ = 0;
  uint64_t m_delivered_ = 0;
  uint64_t m_bytes_ = 0;
  std::vector<int64_t> rtts_;
  // whole-window accounting
  uint64_t sent_ = 0;
  uint64_t denied_sent_ = 0;
  uint64_t send_calls_ = 0;
  uint64_t send_refused_ = 0;
  uint64_t recv_calls_ = 0;
  uint64_t recv_frames_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> errors_;
  std::vector<std::vector<uint8_t>> captured_;
};

// ---- set-up ----------------------------------------------------------------

void Window::Fail(std::string what) {
  ++failed_;
  if (errors_.size() < 8) errors_.push_back(std::move(what));
}

void Window::Configure(const kernel::NicConfig& cfg) {
  ScopedSpan span(trace_, "kernel", "Kernel::Configure");
  const Status s = bed_->kernel().Configure(kernel::kRootUid, cfg);
  if (!s.ok()) Fail("configure: " + s.ToString());
}

kernel::Tenant Window::CreateTenant(kernel::Uid uid,
                                    const kernel::TenantSpec& spec) {
  ScopedSpan span(trace_, "kernel", "Kernel::CreateTenant");
  auto t = bed_->kernel().CreateTenant(kernel::kRootUid, uid, spec);
  if (!t.ok()) {
    Fail("create tenant: " + t.status().ToString());
    return kernel::Tenant();
  }
  return std::move(*t);
}

Flow& Window::Connect(kernel::Pid pid, uint16_t port, bool blocking) {
  auto f = std::make_unique<Flow>();
  f->id = static_cast<uint32_t>(flows_.size());
  f->blocking = blocking;
  kernel::ConnectOptions opts;
  opts.notify_rx = blocking;
  StatusOr<Socket> s = UnavailableError("unset");
  {
    ScopedSpan span(trace_, "kernel", "Socket::Connect");
    s = Socket::Connect(&bed_->kernel(), pid, kPeerIp, port, opts);
  }
  if (!s.ok()) {
    Fail("connect: " + s.status().ToString());
    f->open = false;
  } else {
    f->sock = std::move(*s);
  }
  flows_.push_back(std::move(f));
  return *flows_.back();
}

void Window::BuildWorld() {
  ScopedSpan span(trace_, "workload", "TestBed");
  workload::TestBedOptions opts;
  opts.echo = true;
  bed_ = std::make_unique<workload::TestBed>(opts);
  bed_->DiscardEgress();
  if (traced_) {
    bed_->sim().profiler().set_enabled(true);
    bed_->sim().tracer().set_sample_interval(16);
    bed_->SetEgressHook([this](const net::Packet& p) {
      const Nanos now = bed_->sim().Now();
      if (now >= warm_end_ && now < measure_end_ &&
          captured_.size() < kReplayFrames) {
        captured_.emplace_back(p.bytes().begin(), p.bytes().end());
      }
    });
  }
}

void Window::SetupEcho() {
  auto& k = bed_->kernel();
  k.processes().AddUser(1000, "app");
  const kernel::Pid pid = *k.processes().Spawn(1000, "echo");
  Configure(kernel::NicConfig{});  // unsharded, no cache, no monitoring
  Generator& g = AddGenerator(kEchoMeanGap, kEchoPayload, 0xec0);
  for (int i = 0; i < kEchoFlows; ++i) {
    g.flows.push_back(Connect(pid, static_cast<uint16_t>(7000 + i), false).id);
  }
  AddControlFlow(pid);
}

Generator& Window::AddGenerator(Nanos mean_gap, size_t payload,
                                uint64_t salt) {
  auto g = std::make_unique<Generator>();
  g->mean_gap = mean_gap;
  g->payload = payload;
  g->rng = Rng(Mix(seed_ ^ salt));
  generators_.push_back(std::move(g));
  return *generators_.back();
}

// A low-rate control channel whose thread sleeps in RecvBlocking. It keeps
// the kernel's wake-up path, and so virt_host_ns_per_pkt, above zero on a
// workload that is otherwise pure bypass (a bound cannot be set on 0).
void Window::AddControlFlow(kernel::Pid pid) {
  AddGenerator(kControlMeanGap, kControlPayload, 0xc0)
      .flows.push_back(Connect(pid, kControlPort, true).id);
}

void Window::SetupFirewall() {
  auto& k = bed_->kernel();
  k.processes().AddUser(kUidWeb, "web");
  k.processes().AddUser(kUidBatch, "batch");
  const kernel::Pid web = *k.processes().Spawn(kUidWeb, "frontend");
  const kernel::Pid blocked = *k.processes().Spawn(kUidWeb, "scraper");
  pid_churn_ = *k.processes().Spawn(kUidWeb, "probe");
  const kernel::Pid batch = *k.processes().Spawn(kUidBatch, "indexer");

  kernel::TenantSpec web_spec;
  tenants_.push_back(CreateTenant(kUidWeb, web_spec));
  kernel::TenantSpec batch_spec;
  batch_spec.overlay_slots = 1;
  tenants_.push_back(CreateTenant(kUidBatch, batch_spec));

  // A few dozen owner/port rules per chain. The noise rules name ports and
  // owners no flow uses, so every packet walks them; the deny rule drops
  // everything the "scraper" process sends.
  for (const auto chain : {kernel::Chain::kOutput, kernel::Chain::kInput}) {
    for (int i = 0; i < kNoiseRules; ++i) {
      dataplane::FilterRule r;
      r.proto = net::IpProto::kUdp;
      const auto port = static_cast<uint16_t>(5000 + 10 * i);
      const dataplane::PortRange ports{port, static_cast<uint16_t>(port + 4)};
      if (chain == kernel::Chain::kOutput) {
        r.dst_port = ports;
        if (i % 2 == 0) r.owner_uid = 3000 + static_cast<uint32_t>(i);
      } else {
        r.src_port = ports;
      }
      r.action = dataplane::FilterAction::kDrop;
      ScopedSpan span(trace_, "kernel", "Kernel::AppendFilterRule");
      if (!k.AppendFilterRule(kernel::kRootUid, chain, r).ok()) {
        Fail("append noise rule");
      }
    }
    dataplane::FilterRule last;
    last.label = "batch-accept";
    last.owner_uid = kUidBatch;
    last.action = dataplane::FilterAction::kAccept;
    if (chain == kernel::Chain::kOutput) {
      dataplane::FilterRule deny;
      deny.label = "scraper-deny";
      deny.owner_pid = blocked;
      deny.action = dataplane::FilterAction::kDrop;
      ScopedSpan span(trace_, "kernel", "Kernel::AppendFilterRule");
      if (!k.AppendFilterRule(kernel::kRootUid, chain, deny).ok()) {
        Fail("append deny rule");
      }
    }
    ScopedSpan span(trace_, "kernel", "Kernel::AppendFilterRule");
    if (!k.AppendFilterRule(kernel::kRootUid, chain, last).ok()) {
      Fail("append accept rule");
    }
  }

  // The batch tenant's TX policy reads payload bytes, so its chain slot is
  // uncacheable: every TX packet leaves the fast path.
  auto program = overlay::Assemble(
      "ldf r1, owner_uid\n"
      "jne r1, 1002, pass\n"
      "ldf r2, payload_len\n"
      "jlt r2, 24, drop\n"
      "ldb r3, 42\n"
      "ldb r4, 43\n"
      "or r3, r4\n"
      "pass: ret 1\n"
      "drop: ret 0\n");
  if (!program.ok()) {
    Fail("assemble tenant program: " + program.status().ToString());
  } else {
    tenant_program_ = *program;
    ScopedSpan span(trace_, "kernel", "Kernel::LoadTenantPolicy");
    if (!k.LoadTenantPolicy(kUidBatch, kernel::Chain::kOutput, *program)
             .ok()) {
      Fail("load tenant policy");
    }
  }

  kernel::NicConfig cfg;
  cfg.flow_cache = true;
  cfg.flow_cache_entries = kFwCacheEntries;
  cfg.top_talkers = true;
  cfg.maintenance = true;
  Configure(cfg);

  Generator& web_gen = AddGenerator(kWebMeanGap, kFwPayload, 0xfeb);
  web_gen.hot_flows = kHotFlows;
  web_gen.hot_share = kHotShare;
  Generator& batch_gen = AddGenerator(kBatchMeanGap, kFwPayload, 0xba7c);
  for (int i = 0; i < kWebFlows + kDeniedFlows + kBatchFlows; ++i) {
    const auto port = static_cast<uint16_t>(20000 + i);
    if (i < kWebFlows) {
      web_gen.flows.push_back(Connect(web, port, false).id);
    } else if (i < kWebFlows + kDeniedFlows) {
      Flow& f = Connect(blocked, port, false);
      f.admitted = false;
      web_gen.flows.push_back(f.id);
    } else {
      batch_gen.flows.push_back(Connect(batch, port, true).id);
    }
  }
}

void Window::SetupBulk() {
  auto& k = bed_->kernel();
  k.processes().AddUser(kUidGold, "gold");
  k.processes().AddUser(kUidBronze, "bronze");
  const kernel::Pid gold = *k.processes().Spawn(kUidGold, "replicator");
  const kernel::Pid bronze = *k.processes().Spawn(kUidBronze, "backup");
  kernel::TenantSpec gold_spec;
  gold_spec.cycle_weight = kGoldWeight;
  tenants_.push_back(CreateTenant(kUidGold, gold_spec));
  kernel::TenantSpec bronze_spec;
  bronze_spec.cycle_weight = kBronzeWeight;
  tenants_.push_back(CreateTenant(kUidBronze, bronze_spec));

  kernel::NicConfig cfg;
  cfg.shard_queues = kBulkQueues;
  cfg.flow_cache = true;
  cfg.flow_cache_entries = 64;  // holds both directions of every flow
  cfg.tenant_isolation = true;
  Configure(cfg);

  for (int i = 0; i < 2 * kBulkFlowsPerTenant; ++i) {
    const bool gold_flow = i < kBulkFlowsPerTenant;
    Flow& f = Connect(gold_flow ? gold : bronze,
                      static_cast<uint16_t>(10000 + i), /*blocking=*/false);
    f.bulk = true;
    bulk_flows_.push_back(f.id);
  }
  AddControlFlow(gold);
}

// ---- traffic ---------------------------------------------------------------

bool Window::Send(Flow& f, size_t len, Nanos due) {
  if (!f.open) return false;  // its Connect failed, which failed the window
  const bool measured = due >= warm_end_ && due < measure_end_;
  net::PacketPtr frame;
  {
    ScopedSpan span(trace_, "norman", "Socket::AllocFrame");
    frame = f.sock.AllocFrame(len);
  }
  const std::span<uint8_t> pl = Socket::Payload(*frame);
  const uint32_t seq = f.next_seq;
  std::memcpy(pl.data(), &f.id, 4);
  std::memcpy(pl.data() + 4, &seq, 4);
  const auto due_u = static_cast<uint64_t>(due);
  std::memcpy(pl.data() + 8, &due_u, 8);
  const uint64_t tail = TailOf(f.id, seq, due_u, pl.size());
  std::memcpy(pl.data() + pl.size() - kTailBytes, &tail, kTailBytes);
  Status st;
  {
    ScopedSpan span(trace_, "norman", "Socket::SendFrame");
    st = f.sock.SendFrame(std::move(frame));
  }
  ++send_calls_;
  if (measured && f.admitted) ++m_attempts_;
  if (!st.ok()) {
    // Ring full: back-pressure, not a lost payload. It counts against
    // ops_delivered_frac; a bulk sender retries at its next poll, an
    // open-loop one moves on.
    ++send_refused_;
    if (measured && f.admitted) ++m_refused_;
    return false;
  }
  ++f.next_seq;
  f.got.push_back(0);
  if (!f.admitted) {
    ++denied_sent_;
    return true;
  }
  ++sent_;
  ++f.outstanding;
  if (!f.blocking && !f.in_active) {
    f.in_active = true;
    active_.push_back(f.id);
  }
  return true;
}

void Window::Receive(Flow& f, std::span<const uint8_t> payload, Nanos when) {
  if (payload.size() < kMinPayload) {
    Fail("short payload on flow " + std::to_string(f.id));
    return;
  }
  uint32_t id = 0;
  uint32_t seq = 0;
  uint64_t due = 0;
  uint64_t tail = 0;
  std::memcpy(&id, payload.data(), 4);
  std::memcpy(&seq, payload.data() + 4, 4);
  std::memcpy(&due, payload.data() + 8, 8);
  std::memcpy(&tail, payload.data() + payload.size() - kTailBytes, kTailBytes);
  if (id != f.id || seq >= f.next_seq ||
      tail != TailOf(id, seq, due, payload.size())) {
    Fail("corrupt or misdelivered payload on flow " + std::to_string(f.id));
    return;
  }
  if (f.got[seq] != 0) {
    Fail("duplicate payload on flow " + std::to_string(f.id));
    return;
  }
  if (!f.admitted) {
    Fail("denied flow " + std::to_string(f.id) + " delivered a payload");
    return;
  }
  f.got[seq] = 1;
  --f.outstanding;
  const auto d = static_cast<Nanos>(due);
  if (d >= warm_end_ && d < measure_end_) {
    ++m_delivered_;
    m_bytes_ += payload.size();
    rtts_.push_back(when - d);
  }
}

void Window::ArmBlocking(Flow& f) {
  ScopedSpan span(trace_, "norman", "Socket::RecvBlocking");
  const Status s = f.sock.RecvBlocking([this, &f](std::vector<uint8_t> p) {
    ScopedSpan app(trace_, "workload", "app.on_data");
    // An empty wake-up means the frame raced an earlier consumer; the next
    // notification carries it.
    if (!p.empty()) Receive(f, p, bed_->sim().Now());
    if (f.open) ArmBlocking(f);
  });
  if (!s.ok()) Fail("RecvBlocking: " + s.ToString());
}

void Window::StartGenerator(Generator& g) {
  bed_->sim().ScheduleAt(0, [this, &g] { GeneratorTick(g); });
}

void Window::GeneratorTick(Generator& g) {
  ScopedSpan span(trace_, "workload", "app.send_tick");
  const Nanos now = bed_->sim().Now();
  if (now >= send_stop_) return;
  const bool hot = g.hot_flows != 0 && g.rng.NextDouble() < g.hot_share;
  Flow& f = *flows_[g.flows[g.rng.NextBounded(hot ? g.hot_flows
                                                   : g.flows.size())]];
  Send(f, g.payload, now);
  const auto gap = static_cast<Nanos>(
      g.rng.NextExponential(static_cast<double>(g.mean_gap)));
  bed_->sim().ScheduleAt(now + std::max<Nanos>(1, gap),
                         [this, &g] { GeneratorTick(g); });
}

void Window::BulkFill(Flow& f, Nanos now) {
  ScopedSpan span(trace_, "workload", "app.bulk_fill");
  while (f.outstanding < kBulkWindow && now < send_stop_) {
    const size_t len =
        kBulkPayloadLo + rng_.NextBounded(kBulkPayloadHi - kBulkPayloadLo + 1);
    if (!Send(f, len, now)) break;  // ring full: retry at the next poll
  }
}

void Window::RuleTick() {
  ScopedSpan span(trace_, "workload", "app.rule_tick");
  auto& k = bed_->kernel();
  const Nanos now = bed_->sim().Now();
  if (now >= send_stop_) return;
  if (live_rule_) {
    ScopedSpan call(trace_, "kernel", "Kernel::DeleteFilterRule");
    if (!k.DeleteFilterRule(kernel::kRootUid, kernel::Chain::kInput,
                            *live_rule_)
             .ok()) {
      Fail("delete churn rule");
    }
    live_rule_.reset();
  } else {
    dataplane::FilterRule r;
    r.proto = net::IpProto::kUdp;
    r.dst_port = dataplane::PortRange{next_rule_port_, next_rule_port_};
    r.action = dataplane::FilterAction::kDrop;
    next_rule_port_ = static_cast<uint16_t>(
        61000 + (next_rule_port_ - 61000 + 1) % 1000);
    ScopedSpan call(trace_, "kernel", "Kernel::AppendFilterRule");
    auto idx = k.AppendFilterRule(kernel::kRootUid, kernel::Chain::kInput, r);
    if (!idx.ok()) {
      Fail("append churn rule");
    } else {
      live_rule_ = *idx;
    }
  }
  bed_->sim().ScheduleAt(now + kRulePeriod / 2, [this] { RuleTick(); });
}

void Window::ChurnTick() {
  ScopedSpan span(trace_, "workload", "app.churn_tick");
  const Nanos now = bed_->sim().Now();
  if (now >= send_stop_) return;
  Flow& f = Connect(pid_churn_, next_churn_port_, false);
  f.churn = true;
  next_churn_port_ = static_cast<uint16_t>(
      40000 + (next_churn_port_ - 40000 + 1) % 4000);
  if (f.open) Send(f, kFwPayload, now);
  bed_->sim().ScheduleAt(now + kChurnPeriod, [this] { ChurnTick(); });
}

void Window::CloseFlow(Flow& f) {
  if (!f.open) return;
  f.open = false;
  ScopedSpan span(trace_, "kernel", "Socket::Close");
  if (!f.sock.Close().ok()) Fail("close flow " + std::to_string(f.id));
}

// ---- driving ---------------------------------------------------------------

void Window::Drain(Nanos now) {
  ScopedSpan span(trace_, "workload", "app.drain");
  net::PacketPtr frames[32];
  size_t keep = 0;
  for (const uint32_t id : active_) {
    Flow& f = *flows_[id];
    size_t n = 0;
    do {
      {
        ScopedSpan call(trace_, "norman", "Socket::RecvFrames");
        n = f.sock.RecvFrames(frames);
      }
      ++recv_calls_;
      recv_frames_ += n;
      for (size_t i = 0; i < n; ++i) {
        Receive(f, Socket::Payload(static_cast<const net::Packet&>(*frames[i])),
                now);
        frames[i].reset();
      }
    } while (n == std::size(frames));
    if (f.bulk) BulkFill(f, now);
    if (f.outstanding > 0) {
      active_[keep++] = id;
    } else {
      f.in_active = false;
      if (f.churn) CloseFlow(f);
    }
  }
  active_.resize(keep);
}

void Window::RunTo(Nanos end) {
  for (;;) {
    // The app's poll loop does not run like clockwork: each iteration takes
    // between half and one and a half nominal slices.
    const auto jitter =
        poll_rng_.NextBounded(static_cast<uint64_t>(shape_.slice));
    const Nanos next = clock_ + shape_.slice / 2 + static_cast<Nanos>(jitter);
    if (next > end) break;
    clock_ = next;
    {
      ScopedSpan span(trace_, "sim", "Simulator::RunUntil");
      bed_->sim().RunUntil(clock_);
    }
    Drain(clock_);
  }
}

bool Window::AllReplied() const {
  for (const auto& f : flows_) {
    if (f->admitted && f->outstanding > 0) return false;
  }
  return true;
}

// ---- results ---------------------------------------------------------------

uint64_t Window::Counter(std::string_view name) const {
  const auto* c = bed_->sim().metrics().FindCounter(name);
  return c == nullptr ? 0 : c->value();
}

int64_t Window::Gauge(std::string_view name) const {
  const auto* g = bed_->sim().metrics().FindGauge(name);
  return g == nullptr ? 0 : g->value();
}

Snap Window::Take() const {
  Snap s;
  const auto& reg = bed_->sim().metrics();
  reg.FlushPending();
  reg.ForEachCounter([&](const std::string& name, const auto& c) {
    s[name] = static_cast<double>(c.value());
  });
  s["sim.events"] = static_cast<double>(bed_->sim().events_processed());
  s["heap.allocs"] = static_cast<double>(AllocationCount());
  const auto& pool = net::PacketPool::Default().counters();
  s["pool.packet.hits"] = static_cast<double>(pool.hits);
  s["pool.packet.acquisitions"] = static_cast<double>(pool.acquisitions());
  s["kernel.core.busy_ns"] =
      static_cast<double>(bed_->kernel().kernel_core().busy_ns());
  s["app.send_calls"] = static_cast<double>(send_calls_);
  s["app.send_refused"] = static_cast<double>(send_refused_);
  s["app.recv_calls"] = static_cast<double>(recv_calls_);
  s["app.recv_frames"] = static_cast<double>(recv_frames_);
  if (traced_) {
    for (const auto& core : bed_->sim().profiler().CoreReports()) {
      s["prof." + core.name] = static_cast<double>(core.busy_ns);
    }
  }
  return s;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

WindowResult Window::Run() {
  WindowResult r;
  const int64_t setup_cpu0 = CpuNs();
  Setup();
  RunTo(warm_end_);
  r.setup_cpu_s = static_cast<double>(CpuNs() - setup_cpu0) / 1e9;

  const Snap before = Take();
  // Host speed is sampled right before and right after the work it scales.
  const double ref_before = calibrate_();
  {
    ScopedSpan span(trace_, "workload", "measure");
    const int64_t cpu0 = CpuNs();
    RunTo(measure_end_);
    r.measure_cpu_s = static_cast<double>(CpuNs() - cpu0) / 1e9;
  }
  r.ref_cpu_ns = (ref_before + calibrate_()) / 2;
  r.rss_mib = RssMib();
  const Delta d{before, Take()};
  r.traversals = static_cast<uint64_t>(d.Packets());

  DrainReplies();
  CheckOutputs();
  VirtualMetrics(r, d);
  ExactLayers(r, d);
  r.fingerprint = Fingerprint(r);
  if (traced_) {
    TracedLayers(r, d);
    Replay(r);
  }

  // Teardown: close every connection (timed in the traced run).
  for (auto& f : flows_) CloseFlow(*f);
  if (traced_) {
    const auto agg = trace_->Aggregate();
    const auto it = agg.find("kernel/Socket::Close");
    r.traced["kernel.close_cpu_us"] =
        it == agg.end() ? 0.0 : it->second.MeanNs() / 1e3;
  }
  r.ops_attempted = sent_ + denied_sent_;
  r.ops_failed = failed_;
  r.errors = errors_;
  return r;
}

void Window::Setup() {
  BuildWorld();
  if (workload_ == "echo_small") {
    SetupEcho();
  } else if (workload_ == "fw_churn") {
    SetupFirewall();
  } else {
    SetupBulk();
  }
  send_stop_ = measure_end_;
  for (auto& g : generators_) StartGenerator(*g);
  for (const uint32_t id : bulk_flows_) {
    bed_->sim().ScheduleAt(0, [this, id] { BulkFill(*flows_[id], 0); });
  }
  for (auto& f : flows_) {
    if (f->blocking && f->open) ArmBlocking(*f);
  }
  if (workload_ == "fw_churn") {
    bed_->sim().ScheduleAt(kRulePeriod / 2, [this] { RuleTick(); });
    bed_->sim().ScheduleAt(kChurnPeriod / 3, [this] { ChurnTick(); });
  }
}

// No new sends after the measured span; waits for every payload still in
// flight, and fails the window for any that never comes back.
void Window::DrainReplies() {
  const Nanos deadline = measure_end_ + shape_.drain_limit;
  while (clock_ < deadline && !AllReplied()) {
    const Nanos before_step = clock_;
    RunTo(std::min(deadline, clock_ + 50 * kMicrosecond));
    if (clock_ == before_step) break;
  }
  for (const auto& f : flows_) {
    if (f->admitted && f->outstanding > 0) {
      Fail("flow " + std::to_string(f->id) + ": " +
           std::to_string(f->outstanding) + " payloads never came back");
    }
  }
}

void Window::CheckOutputs() {
  if (m_delivered_ == 0) Fail("no payload delivered in the measured span");
  if (workload_ != "fw_churn") return;
  // The denied flows deliver nothing (Receive fails any that does), and
  // the firewall accounts for every one of their sends.
  const uint64_t denied_drops = Counter("nic.tx.drop.filter_deny") +
                                Counter("nic.rx.drop.filter_deny");
  if (denied_sent_ == 0 || denied_drops != denied_sent_) {
    Fail("filter_deny drops " + std::to_string(denied_drops) +
         " != denied sends " + std::to_string(denied_sent_));
  }
}

void Window::VirtualMetrics(WindowResult& r, const Delta& d) {
  std::sort(rtts_.begin(), rtts_.end());
  r.rtt_samples = rtts_.size();
  if (!rtts_.empty()) {
    const size_t n = rtts_.size();
    const size_t i50 = (n - 1) / 2;
    const auto i999 =
        static_cast<size_t>(std::ceil(0.999 * static_cast<double>(n))) - 1;
    r.rtt_p50_us = static_cast<double>(rtts_[i50]) / 1e3;
    r.rtt_p999_us = static_cast<double>(rtts_[i999]) / 1e3;
    r.rtt_beyond_p999 = n - 1 - i999;
  }
  r.goodput_gbps = static_cast<double>(m_bytes_) * 8.0 /
                   static_cast<double>(shape_.measure);
  r.delivered_frac = Ratio(static_cast<double>(m_delivered_),
                           static_cast<double>(m_attempts_));
  r.host_ns_per_pkt = d.PerPacket("kernel.core.busy_ns");
}

void Window::ExactLayers(WindowResult& r, const Delta& d) {
  auto& ex = r.exact;
  ex["sim.events_per_pkt"] = d.PerPacket("sim.events");
  ex["sim.batch_mean"] =
      Ratio(d("sim.dispatch.batched_events"), d("sim.dispatch.batches"));
  ex["net.allocs_per_pkt"] = d.PerPacket("heap.allocs");
  ex["net.pkt_pool_hit_frac"] =
      Ratio(d("pool.packet.hits"), d("pool.packet.acquisitions"));
  ex["nic.dma_per_pkt"] = d.PerPacket("nic.dma.transfers");
  const double hits = d("fastpath.hits");
  ex["nic.fastpath_hit_frac"] = Ratio(hits, hits + d("fastpath.misses"));
  ex["nic.fastpath_invalidations"] = d("fastpath.invalidations");
  ex["nic.fastpath_uncacheable_frac"] = d.PerPacket("fastpath.uncacheable");
  ex["nic.tx_ring_hw"] =
      static_cast<double>(Gauge("queue.nic.tx_ring.high_water"));
  ex["nic.rx_ring_hw"] =
      static_cast<double>(Gauge("queue.nic.rx_ring.high_water"));
  for (const std::string reason :
       {"filter_deny", "ring_full", "sched_overflow", "policy"}) {
    ex["nic.drops_per_mpkt." + reason] =
        1e6 * (d.PerPacket("nic.tx.drop." + reason) +
               d.PerPacket("nic.rx.drop." + reason));
  }
  ex["nic.sram_peak_kib"] =
      static_cast<double>(Gauge("queue.nic.sram.high_water")) / 1024.0;
  double lane_total = 0;
  double lane_max = 0;
  for (int q = 0; q < 8; ++q) {
    const double v = d("rss.steered.q" + std::to_string(q));
    lane_total += v;
    lane_max = std::max(lane_max, v);
  }
  // With no steering counted, one lane carries everything.
  ex["nic.lane_max_share"] = lane_total == 0 ? 1.0 : lane_max / lane_total;
  double share_err = 0;
  if (workload_ == "bulk_sharded") {
    const double gold = d("tenant." + std::to_string(kUidGold) + ".cycles_ns");
    const double bronze =
        d("tenant." + std::to_string(kUidBronze) + ".cycles_ns");
    share_err = std::abs(Ratio(gold, gold + bronze) -
                         static_cast<double>(kGoldWeight) /
                             (kGoldWeight + kBronzeWeight));
  }
  ex["nic.tenant_share_err"] = share_err;
  ex["dataplane.filter_denied_pkts"] =
      d("nic.tx.drop.filter_deny") + d("nic.rx.drop.filter_deny");
  ex["overlay.instr_per_pkt"] = d.PerPacket("nic.overlay.instructions");
  ex["kernel.notify_drained_per_pkt"] = d.PerPacket("kernel.notify.drained");
  ex["norman.recv_batch_mean"] =
      Ratio(d("app.recv_frames"), d("app.recv_calls"));
  ex["norman.send_fail_frac"] =
      Ratio(d("app.send_refused"), d("app.send_calls"));
}

// FNV-1a over the virtual metrics, the exact per-layer values and every
// count the world owns. Observer-owned series (tracer, profiler, probes,
// owner ledger) exist only in traced windows, and pool.* and the heap are
// process-wide, so those stay out.
uint64_t Window::Fingerprint(const WindowResult& r) const {
  Fnv fp;
  auto world_owned = [](const std::string& name) {
    for (const char* p : {"trace.", "prof.", "attr.", "probe.", "pool.",
                          "net.allocs", "net.pkt_pool"}) {
      if (name.rfind(p, 0) == 0) return false;
    }
    return true;
  };
  const auto& reg = bed_->sim().metrics();
  reg.ForEachCounter([&](const std::string& name, const auto& c) {
    if (!world_owned(name)) return;
    fp.Add(name);
    fp.Add(c.value());
  });
  reg.ForEachGauge([&](const std::string& name, const auto& g) {
    if (!world_owned(name)) return;
    fp.Add(name);
    fp.Add(static_cast<uint64_t>(g.value()));
  });
  for (const auto& [name, v] : r.exact) {
    if (!world_owned(name)) continue;
    fp.Add(name);
    fp.Add(v);
  }
  for (const double v : {r.rtt_p50_us, r.rtt_p999_us, r.goodput_gbps,
                         r.delivered_frac, r.host_ns_per_pkt}) {
    fp.Add(v);
  }
  for (const uint64_t v : {r.rtt_samples, r.traversals, m_attempts_,
                           m_refused_, sent_, denied_sent_}) {
    fp.Add(v);
  }
  return fp.h;
}

void Window::TracedLayers(WindowResult& r, const Delta& d) {
  auto& tr = r.traced;
  // Spans of the measured span only; self time is a span minus its
  // children, so RunUntil's self time excludes the app callbacks it ran.
  const auto measure = trace_->Aggregate(trace_->Find("measure"));
  double sim_self = 0;
  double harness_self = 0;
  for (const auto& [key, a] : measure) {
    if (key.rfind("sim/", 0) == 0) sim_self += static_cast<double>(a.self_ns);
    if (key.rfind("workload/", 0) == 0) {
      harness_self += static_cast<double>(a.self_ns);
    }
  }
  auto get = [](const std::map<std::string, SpanTrace::Agg>& m,
                const char* key) {
    const auto it = m.find(key);
    return it == m.end() ? SpanTrace::Agg{} : it->second;
  };
  tr["sim.run_cpu_ns_per_pkt"] = Ratio(sim_self, d.Packets());
  tr["workload.harness_cpu_frac"] = Ratio(
      harness_self,
      static_cast<double>(get(measure, "workload/measure").total_ns));
  tr["norman.send_cpu_ns"] = get(measure, "norman/Socket::SendFrame").MeanNs();
  tr["norman.recv_cpu_ns_per_frame"] =
      Ratio(static_cast<double>(
                get(measure, "norman/Socket::RecvFrames").total_ns),
            d("app.recv_frames"));

  const auto all = trace_->Aggregate();
  auto mean_us = [&](std::initializer_list<const char*> keys) {
    SpanTrace::Agg sum;
    for (const char* k : keys) {
      sum.count += get(all, k).count;
      sum.total_ns += get(all, k).total_ns;
    }
    return sum.MeanNs() / 1e3;
  };
  tr["kernel.connect_cpu_us"] = mean_us({"kernel/Socket::Connect"});
  tr["kernel.rule_update_cpu_us"] = mean_us(
      {"kernel/Kernel::AppendFilterRule", "kernel/Kernel::DeleteFilterRule"});
  tr["kernel.configure_cpu_us"] =
      mean_us({"kernel/Kernel::Configure", "kernel/Kernel::CreateTenant"});

  // Modelled (virtual-time) busy time of the profiler's cores; with
  // sharding each lane has its own pipeline, and the busiest one counts.
  const auto span_ns = static_cast<double>(shape_.measure);
  tr["nic.pipeline_busy_frac"] = d.Max("prof.nic.pipeline") / span_ns;
  tr["nic.wire_busy_frac"] = d.Max("prof.nic.wire") / span_ns;
  tr["nic.stages_busy_ns_per_pkt"] =
      Ratio(d.Sum("prof.nic.stages"), d.Packets());
  tr["kernel.core_busy_ns_per_pkt"] =
      Ratio(d.Sum("prof.kernel.core"), d.Packets());
  const auto* filter = bed_->sim().tracer().StageHistogram("filter");
  tr["dataplane.stage_filter_p50_ns"] =
      filter == nullptr ? 0.0 : static_cast<double>(filter->p50());
}

template <typename Fn>
double Window::TimedRounds(const char* layer, const char* name, Fn body) {
  ScopedSpan span(trace_, layer, name);
  const int64_t t0 = WallNs();
  for (int round = 0; round < kReplayRounds; ++round) body(round);
  return static_cast<double>(WallNs() - t0) / kReplayRounds;
}

// Replays the frames captured in the measured span through the layer entry
// points, one span per replay. Host ns per call.
void Window::Replay(WindowResult& r) {
  auto& tr = r.traced;
  const auto frames = static_cast<double>(captured_.size());
  std::vector<net::ParsedPacket> parsed;
  parsed.reserve(captured_.size());
  tr["net.parse_ns"] = Ratio(
      TimedRounds("net", "net::ParseFrame",
                  [&](int round) {
                    for (const auto& bytes : captured_) {
                      auto p = net::ParseFrame(bytes);
                      if (round == 0 && p) parsed.push_back(*p);
                    }
                  }),
      frames);
  if (parsed.size() != captured_.size()) {
    Fail("captured frame failed to parse");
    return;
  }

  double kib = 0;
  for (const auto& bytes : captured_) kib += static_cast<double>(bytes.size());
  kib /= 1024.0;
  bool all_valid = true;
  tr["net.csum_verify_ns_per_kb"] = Ratio(
      TimedRounds("net", "net::FrameChecksumsValid",
                  [&](int) {
                    for (size_t i = 0; i < parsed.size(); ++i) {
                      all_valid &=
                          net::FrameChecksumsValid(captured_[i], parsed[i]);
                    }
                  }),
      kib);
  if (!all_valid) Fail("captured frame failed its checksum");

  // Owner metadata per local port, as the kernel stamped it.
  std::unordered_map<uint16_t, overlay::ConnMetadata> owners;
  for (const auto& c : bed_->kernel().ListConnections()) {
    overlay::ConnMetadata m;
    m.conn_id = c.conn_id;
    m.owner_uid = c.uid;
    m.owner_pid = c.pid;
    m.owner_tenant = c.uid;
    owners[c.tuple.src_port] = m;
  }
  std::vector<overlay::PacketContext> ctxs(parsed.size());
  std::vector<net::Packet> packets;
  packets.reserve(captured_.size());
  for (size_t i = 0; i < parsed.size(); ++i) {
    ctxs[i].frame = captured_[i];
    ctxs[i].parsed = &parsed[i];
    ctxs[i].direction = net::Direction::kTx;
    if (const auto flow = parsed[i].flow()) {
      const auto it = owners.find(flow->src_port);
      if (it != owners.end()) ctxs[i].conn = it->second;
    }
    packets.emplace_back(captured_[i]);
  }

  // A benchmark-owned engine holding the OUTPUT chain's rules.
  const auto& live = bed_->kernel().filter(kernel::Chain::kOutput);
  dataplane::FilterEngine engine(live.default_action());
  for (const auto& rule : live.rules()) (void)engine.AppendRule(rule);
  tr["dataplane.filter_exec_ns"] = Ratio(
      TimedRounds("dataplane", "FilterEngine::Process",
                  [&](int) {
                    for (size_t i = 0; i < packets.size(); ++i) {
                      (void)engine.Process(packets[i], ctxs[i]);
                    }
                  }),
      frames);

  // The tenant program where one is loaded; otherwise the compiled TX
  // filter chain, the program every packet runs.
  const overlay::Program& program =
      tenant_program_ ? *tenant_program_
                      : live.compiled_for(net::IpProto::kUdp);
  bool all_ran = true;
  tr["overlay.exec_ns"] = Ratio(
      TimedRounds("overlay", "overlay::Execute",
                  [&](int) {
                    for (const auto& ctx : ctxs) {
                      all_ran &= overlay::Execute(program, ctx).ok();
                    }
                  }),
      frames);
  if (!all_ran) Fail("overlay replay failed");
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"echo_small", "fw_churn",
                                                 "bulk_sharded"};
  return names;
}

WindowResult RunWindow(const std::string& workload, uint64_t seed,
                       SpanTrace* trace,
                       const std::function<double()>& calibrate,
                       double span_scale) {
  Window w(workload, seed, trace, span_scale, calibrate);
  return w.Run();
}

}  // namespace perfbench

// The on-NIC packet filter (the iptables of Norman).
//
// Rules match on network fields (addresses, ports, protocol, direction) and
// — uniquely for an on-NIC interposition layer — on *process identity*
// (uid-owner, pid-owner, cmd-owner, cgroup), which works because the kernel
// stamps owner metadata into the NIC flow table at connection setup (§2
// "Partitioning Ports", §3 "integrated with the OS").
//
// First-match-wins semantics, like an iptables chain; a configurable default
// policy applies when nothing matches. The ruleset is *compiled to an
// overlay program*, verified and decoded once per rule change (only the
// programs the change can alter), and executed by the overlay engine — the
// engine is literally running on the simulated soft processor, and its
// per-packet instruction count is charged by the NIC at overlay_instr_ns
// each.
#ifndef NORMAN_DATAPLANE_FILTER_ENGINE_H_
#define NORMAN_DATAPLANE_FILTER_ENGINE_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/tracepoint.h"
#include "src/net/types.h"
#include "src/nic/pipeline.h"
#include "src/overlay/executable.h"
#include "src/overlay/isa.h"

namespace norman::dataplane {

enum class FilterAction : uint8_t {
  kAccept = 0,
  kDrop = 1,
  kSoftwareFallback = 2,
};

struct PortRange {
  uint16_t lo = 0;
  uint16_t hi = 65535;
  friend bool operator==(const PortRange&, const PortRange&) = default;
};

// All match fields are optional; an unset field matches everything.
struct FilterRule {
  std::string label;  // for tooling output
  std::optional<net::Direction> direction;
  std::optional<net::IpProto> proto;
  std::optional<net::Ipv4Address> src_ip;
  std::optional<uint32_t> src_ip_prefix;  // bits, default 32 when src_ip set
  std::optional<net::Ipv4Address> dst_ip;
  std::optional<uint32_t> dst_ip_prefix;
  std::optional<PortRange> src_port;
  std::optional<PortRange> dst_port;
  // Process view (owner matches).
  std::optional<uint32_t> owner_uid;
  std::optional<uint32_t> owner_pid;
  std::optional<uint32_t> owner_comm;    // interned comm id
  std::optional<uint32_t> owner_cgroup;
  FilterAction action = FilterAction::kAccept;
};

// Compiles a rule chain into a single overlay program implementing
// first-match-wins with `default_action` as the tail. The program's return
// value encodes (rule_index << 2) | action, so the engine can attribute hits
// to rules for counters; the sentinel rule index 0x3fffffff means "default".
overlay::Program CompileFilterChain(const std::vector<FilterRule>& rules,
                                    FilterAction default_action);

// The chain restricted to the rules a frame of `proto` could match
// (proto-unset rules plus proto == `proto`), compiled with the rules'
// original chain indices: the program FilterEngine runs for an IPv4 frame
// of `proto`.
overlay::Program CompileFilterBucket(const std::vector<FilterRule>& rules,
                                     FilterAction default_action,
                                     net::IpProto proto);

inline constexpr uint32_t kDefaultRuleIndex = 0x3fffffff;

class FilterEngine : public nic::PipelineStage {
 public:
  explicit FilterEngine(FilterAction default_action = FilterAction::kAccept);

  std::string_view name() const override { return "filter"; }
  // Rules match on headers and connection identity only — a pure function
  // of the flow key until the rule set changes (which bumps the fast-path
  // epoch through the kernel).
  nic::StageCacheClass cache_class() const override {
    return nic::StageCacheClass::kPure;
  }

  // Rule management (called by the kernel on behalf of iptables).
  // Appends at the end of the chain; returns the rule's index. Fails with
  // ResourceExhausted when the compiled chain would exceed overlay
  // instruction memory.
  StatusOr<size_t> AppendRule(const FilterRule& rule);
  Status InsertRule(size_t index, const FilterRule& rule);
  Status DeleteRule(size_t index);
  void Flush();
  void SetDefaultAction(FilterAction action);

  const std::vector<FilterRule>& rules() const { return rules_; }
  FilterAction default_action() const { return default_action_; }

  // Per-rule hit counters (index-aligned with rules()).
  const std::vector<uint64_t>& hit_counts() const { return hits_; }
  uint64_t default_hits() const { return default_hits_; }

  // The compiled overlay program for the full chain (the program frames
  // that are not IPv4 run).
  const overlay::Program& compiled() const { return all_.program; }

  // The program Process() would run for a frame of `proto` (introspection
  // for tests/tools; kNone-style fallthrough uses compiled()).
  const overlay::Program& compiled_for(net::IpProto proto) const {
    return chain_for(proto).program;
  }
  // Its decoded form, which Process() runs.
  const overlay::Executable& executable_for(net::IpProto proto) const {
    return chain_for(proto).executable;
  }

  nic::StageResult Process(net::Packet& packet,
                      const overlay::PacketContext& ctx) override;

  // "filter.verdict" probe hookup.
  void AttachTracepoints(telemetry::Tracepoints* tp) { tp_ = tp; }

 private:
  // A compiled program and its load-time decoded form, which Process runs.
  struct CompiledChain {
    overlay::Program program;
    overlay::Executable executable;
  };

  // Bit i of a bucket mask stands for buckets_[i].
  static constexpr uint32_t kAllBuckets = 0x7;
  // The buckets holding any of rules_[first..]: after an append, insert or
  // delete at `first`, the ones holding the changed rule or a rule whose
  // index shifted — the only programs the change can alter.
  uint32_t BucketsFrom(size_t first) const;
  // Rebuilds the full chain and the buckets in `buckets`. Fails, changing
  // nothing, when the full chain no longer fits instruction memory.
  Status Recompile(uint32_t buckets);
  const CompiledChain& chain_for(net::IpProto proto) const;

  FilterAction default_action_;
  std::vector<FilterRule> rules_;
  std::vector<uint64_t> hits_;
  uint64_t default_hits_ = 0;
  // Full chain; serves the frames that are not IPv4 (ARP, non-IP,
  // unparseable), where proto-specific rules cannot match thanks to their
  // kIsIpv4/kIpProto guards. It is loaded with both fields known to be 0,
  // so those rules fold away.
  CompiledChain all_;
  // Install-time protocol buckets for TCP, UDP and ICMP: the chain
  // restricted to rules that could match that protocol (proto-unset rules
  // plus proto == P), compiled with *original* rule indices so first-match
  // order and per-rule hit attribution are untouched. TCP traffic never
  // scans UDP-only rules. Process() runs a bucket only on IPv4 frames of
  // its protocol, so each is loaded with those two fields as facts.
  std::array<CompiledChain, 3> buckets_;
  telemetry::Tracepoints* tp_ = nullptr;
};

}  // namespace norman::dataplane

#endif  // NORMAN_DATAPLANE_FILTER_ENGINE_H_

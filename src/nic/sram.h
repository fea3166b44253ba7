// Bounded on-NIC SRAM allocator.
//
// §5 of the paper: "SmartNICs inherently have limited memory relative to the
// amount of available on-host memory", making a KOPI vulnerable to resource
// exhaustion. Every piece of NIC-resident state — flow table entries, ring
// descriptor state, firewall rules, scheduler state — is charged against
// this allocator, so experiment E7 can drive it to exhaustion and exercise
// the software-fallback path.
#ifndef NORMAN_NIC_SRAM_H_
#define NORMAN_NIC_SRAM_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "src/common/metrics.h"
#include "src/common/status.h"
#include "src/common/tracepoint.h"

namespace norman::nic {

class SramAllocator {
 public:
  explicit SramAllocator(uint64_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  uint64_t capacity() const { return capacity_; }
  uint64_t used() const { return used_; }
  uint64_t available() const { return capacity_ - used_; }

  // Charges `bytes` to the named category (e.g. "flow_table", "qdisc").
  // Anonymous form: no owning pid/tenant (wire traffic, shared state).
  Status Allocate(const std::string& category, uint64_t bytes) {
    return Allocate(category, bytes, /*pid=*/0, /*tenant=*/0);
  }

  // Owner-attributed charge. `tenant` 0 is the unquota'd system share;
  // a nonzero tenant is additionally checked against its byte quota (if
  // one is set), so one tenant's blow-up exhausts its own budget, not the
  // device. Both exhaustion paths name the culprit: the tracepoint carries
  // the requesting pid and a2 = tenant so postmortem bundles can attribute
  // the pressure instead of reporting a bare category.
  Status Allocate(const std::string& category, uint64_t bytes, uint32_t pid,
                  uint32_t tenant) {
    if (tenant != 0) {
      const auto quota = tenant_quota_.find(tenant);
      if (quota != tenant_quota_.end() &&
          tenant_used_[tenant] + bytes > quota->second) {
        if (tp_ != nullptr) {
          tp_->Emit(telemetry::Probe::kSramExhausted,
                    telemetry::Tracepoints::kCoreNic, pid, bytes,
                    quota->second - tenant_used_[tenant], tenant);
        }
        return ResourceExhaustedError(
            "tenant " + std::to_string(tenant) + " SRAM quota exhausted: need " +
            std::to_string(bytes) + "B, have " +
            std::to_string(quota->second - tenant_used_[tenant]) +
            "B of quota (category " + category + ", pid " +
            std::to_string(pid) + ")");
      }
    }
    if (bytes > available()) {
      if (tp_ != nullptr) {
        tp_->Emit(telemetry::Probe::kSramExhausted,
                  telemetry::Tracepoints::kCoreNic, pid, bytes, available(),
                  tenant);
      }
      return ResourceExhaustedError(
          "NIC SRAM exhausted: need " + std::to_string(bytes) + "B, have " +
          std::to_string(available()) + "B (category " + category + ", pid " +
          std::to_string(pid) + ")");
    }
    used_ += bytes;
    by_category_[category] += bytes;
    if (tenant != 0) {
      tenant_used_[tenant] += bytes;
      if (tenant_observer_) tenant_observer_(tenant, tenant_used_[tenant]);
    }
    if (gauges_ != nullptr) gauges_->Set(static_cast<int64_t>(used_));
    if (tp_ != nullptr) {
      tp_->Emit(telemetry::Probe::kSramAlloc, telemetry::Tracepoints::kCoreNic,
                pid, bytes, used_, tenant);
    }
    return OkStatus();
  }

  void Free(const std::string& category, uint64_t bytes,
            uint32_t tenant = 0) {
    const auto it = by_category_.find(category);
    if (it == by_category_.end() || it->second < bytes || used_ < bytes) {
      return;  // tolerate sloppy callers; accounting stays non-negative
    }
    it->second -= bytes;
    used_ -= bytes;
    if (tenant != 0) {
      auto tu = tenant_used_.find(tenant);
      if (tu != tenant_used_.end()) {
        tu->second -= tu->second < bytes ? tu->second : bytes;
        if (tenant_observer_) tenant_observer_(tenant, tu->second);
      }
    }
    if (gauges_ != nullptr) gauges_->Set(static_cast<int64_t>(used_));
  }

  // Hands a live `bytes` charge from `from_tenant` to (`pid`,
  // `to_tenant`), keeping its category: the accounting of Free(category,
  // bytes, from_tenant) then Allocate(category, bytes, pid, to_tenant), in
  // one step. The device total and the category's bytes do not move, so
  // neither is touched; tenant usage and its observer change only across
  // tenants. The "sram.alloc" probe fires as the Allocate would. Returns
  // false, changing nothing, when `to_tenant`'s quota would refuse the
  // bytes once `from_tenant`'s are refunded; the caller then takes the
  // Free + Allocate path, which reports the refusal.
  bool Recharge(uint64_t bytes, uint32_t pid, uint32_t from_tenant,
                uint32_t to_tenant) {
    if (to_tenant != 0) {
      const auto quota = tenant_quota_.find(to_tenant);
      if (quota != tenant_quota_.end()) {
        uint64_t used = TenantUsed(to_tenant);
        if (from_tenant == to_tenant) used -= used < bytes ? used : bytes;
        if (used + bytes > quota->second) return false;
      }
    }
    if (from_tenant != to_tenant) {
      if (from_tenant != 0) {
        auto tu = tenant_used_.find(from_tenant);
        if (tu != tenant_used_.end()) {
          tu->second -= tu->second < bytes ? tu->second : bytes;
          if (tenant_observer_) tenant_observer_(from_tenant, tu->second);
        }
      }
      if (to_tenant != 0) {
        uint64_t& used = tenant_used_[to_tenant];
        used += bytes;
        if (tenant_observer_) tenant_observer_(to_tenant, used);
      }
    }
    if (tp_ != nullptr) {
      tp_->Emit(telemetry::Probe::kSramAlloc, telemetry::Tracepoints::kCoreNic,
                pid, bytes, used_, to_tenant);
    }
    return true;
  }

  // ---- per-tenant quota dimension ----------------------------------------

  // Caps `tenant`'s total SRAM footprint at `bytes`. Existing usage is not
  // reclaimed; new charges over the cap fail with ResourceExhausted.
  void SetTenantQuota(uint32_t tenant, uint64_t bytes) {
    if (tenant != 0) tenant_quota_[tenant] = bytes;
  }

  // Removes the cap (usage tracking continues while entries remain).
  void ClearTenantQuota(uint32_t tenant) { tenant_quota_.erase(tenant); }

  uint64_t TenantUsed(uint32_t tenant) const {
    const auto it = tenant_used_.find(tenant);
    return it == tenant_used_.end() ? 0 : it->second;
  }

  // 0 = no quota configured (unlimited).
  uint64_t TenantQuota(uint32_t tenant) const {
    const auto it = tenant_quota_.find(tenant);
    return it == tenant_quota_.end() ? 0 : it->second;
  }

  // Observer invoked with (tenant, used_bytes) after every attributed
  // charge/free; the NIC wires this to the tenant.<id>.sram_bytes gauge.
  void SetTenantObserver(std::function<void(uint32_t, uint64_t)> fn) {
    tenant_observer_ = std::move(fn);
  }

  // Occupancy in *bytes* (not packets) under "queue.nic.sram.depth" /
  // ".high_water" — SRAM is the NIC's one bounded byte pool, and exhaustion
  // shows up in the same dashboard as every other full queue.
  void AttachGauges(telemetry::QueueDepthGauges* gauges) {
    gauges_ = gauges;
    if (gauges_ != nullptr) gauges_->Set(static_cast<int64_t>(used_));
  }

  // "sram.alloc" / "sram.exhausted" probe hookup (same attachment pattern
  // as the gauges; the allocator has no simulator pointer of its own).
  void AttachTracepoints(telemetry::Tracepoints* tp) { tp_ = tp; }

  uint64_t UsedBy(const std::string& category) const {
    const auto it = by_category_.find(category);
    return it == by_category_.end() ? 0 : it->second;
  }

  const std::map<std::string, uint64_t>& by_category() const {
    return by_category_;
  }

 private:
  uint64_t capacity_;
  uint64_t used_ = 0;
  std::map<std::string, uint64_t> by_category_;
  std::map<uint32_t, uint64_t> tenant_used_;
  std::map<uint32_t, uint64_t> tenant_quota_;
  std::function<void(uint32_t, uint64_t)> tenant_observer_;
  telemetry::QueueDepthGauges* gauges_ = nullptr;
  telemetry::Tracepoints* tp_ = nullptr;
};

}  // namespace norman::nic

#endif  // NORMAN_NIC_SRAM_H_

#include "src/common/profiler.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "src/common/logging.h"

namespace norman::telemetry {

namespace {

const char* KindName(Profiler::CoreKind kind) {
  return kind == Profiler::CoreKind::kNic ? "nic" : "host";
}

void Appendf(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) {
    out->append(buf, std::min(static_cast<size_t>(n), sizeof(buf) - 1));
  }
}

}  // namespace

Profiler::Profiler() {
  Node root;
  root.name = "";
  root.parent = 0;
  nodes_.push_back(std::move(root));
  owners_.push_back(Owner{});  // slot 0: pid 0 / unowned
}

uint32_t Profiler::RegisterCore(std::string name, CoreKind kind,
                                std::function<Nanos()> busy) {
  // Folding an extra core into an existing one would silently misattribute
  // its cycles, so running out of cores is fatal in every build.
  NORMAN_CHECK(cores_.size() < kMaxCores)
      << "profiler core '" << name << "' exceeds Profiler::kMaxCores ("
      << kMaxCores << "); raise the cap";
  cores_.push_back(Core{std::move(name), kind, std::move(busy)});
  return static_cast<uint32_t>(cores_.size() - 1);
}

uint32_t Profiler::RegisterOwner(uint32_t pid) {
  // Same slot-assignment path the hot side uses, so numbering is identical
  // whether an owner is first seen by the control plane or by a charge.
  return OwnerSlot(pid);
}

uint32_t Profiler::OwnerSlotSlow(uint32_t pid) {
  uint32_t slot = 0;
  bool found = false;
  for (uint32_t i = 0; i < owners_.size(); ++i) {
    if (owners_[i].pid == pid) {
      slot = i;
      found = true;
      break;
    }
  }
  if (!found) {
    if (owners_.size() >= kMaxOwners - 1) {
      // Cap reached: fold into the explicit overflow bucket (created on
      // first use) instead of silently dropping attribution.
      if (owners_.size() == kMaxOwners - 1) {
        Owner overflow;
        overflow.pid = kOverflowPid;
        owners_.push_back(overflow);
      }
      slot = kOverflowSlot;
    } else {
      Owner owner;
      owner.pid = pid;
      owners_.push_back(owner);
      slot = static_cast<uint32_t>(owners_.size() - 1);
    }
  }
  memo_pid_ = pid;
  memo_slot_ = slot;
  return slot;
}

uint32_t Profiler::ResolveSlow(ProfSite& site) {
  const uint32_t parent = top_;
  uint32_t node = 0;
  bool found = false;
  for (const uint32_t child : nodes_[parent].children) {
    if (nodes_[child].name == site.name) {
      node = child;
      found = true;
      break;
    }
  }
  if (!found) {
    Node fresh;
    fresh.name = std::string(site.name);
    fresh.parent = parent;
    node = static_cast<uint32_t>(nodes_.size());
    nodes_.push_back(std::move(fresh));
    nodes_[parent].children.push_back(node);
  }
  site.parent_plus1 = parent + 1;
  site.node = node;
  return node;
}

void Profiler::AllocCells(uint32_t node) {
  nodes_[node].cells =
      std::make_unique<uint64_t[]>(size_t{kMaxCores} * kMaxOwners);
}

std::string Profiler::PathOf(uint32_t node) const {
  if (node == 0) {
    return "";
  }
  std::string path = PathOf(nodes_[node].parent);
  if (!path.empty()) {
    path += ';';
  }
  path += nodes_[node].name;
  return path;
}

std::vector<Profiler::CoreReport> Profiler::CoreReports() const {
  std::vector<CoreReport> reports;
  reports.reserve(cores_.size());
  for (uint32_t c = 0; c < cores_.size(); ++c) {
    CoreReport r;
    r.name = cores_[c].name;
    r.kind = cores_[c].kind;
    r.busy_ns = static_cast<uint64_t>(std::max<Nanos>(0, cores_[c].busy()));
    for (const Node& node : nodes_) {
      if (node.cells == nullptr) {
        continue;
      }
      const uint64_t* row = node.cells.get() + size_t{c} * kMaxOwners;
      for (uint32_t o = 0; o < kMaxOwners; ++o) {
        r.attributed_ns += row[o];
      }
    }
    r.unaccounted_ns =
        r.busy_ns > r.attributed_ns ? r.busy_ns - r.attributed_ns : 0;
    reports.push_back(std::move(r));
  }
  std::sort(reports.begin(), reports.end(),
            [](const CoreReport& a, const CoreReport& b) {
              return a.name < b.name;
            });
  return reports;
}

std::vector<Profiler::OwnerReport> Profiler::OwnerReports() const {
  std::vector<OwnerReport> reports;
  reports.reserve(owners_.size());
  for (uint32_t o = 0; o < owners_.size(); ++o) {
    OwnerReport r;
    r.pid = owners_[o].pid;
    r.pkts = owners_[o].pkts;
    r.bytes = owners_[o].bytes;
    r.drops = owners_[o].drops;
    r.sram_bytes = owners_[o].sram_bytes;
    for (const Node& node : nodes_) {
      if (node.cells == nullptr) {
        continue;
      }
      for (uint32_t c = 0; c < cores_.size(); ++c) {
        const uint64_t ns = node.cells[size_t{c} * kMaxOwners + o];
        if (cores_[c].kind == CoreKind::kNic) {
          r.nic_ns += ns;
        } else {
          r.host_ns += ns;
        }
      }
    }
    reports.push_back(r);
  }
  std::sort(reports.begin(), reports.end(),
            [](const OwnerReport& a, const OwnerReport& b) {
              return a.pid < b.pid;
            });
  return reports;
}

std::vector<Profiler::StackReport> Profiler::StackReports() const {
  std::vector<StackReport> reports;
  for (uint32_t n = 1; n < nodes_.size(); ++n) {
    const Node& node = nodes_[n];
    const std::string path = PathOf(n);
    if (node.entries > 0) {
      StackReport r;
      r.stack = path;
      r.entries = node.entries;
      reports.push_back(std::move(r));
    }
    if (node.cells == nullptr) {
      continue;
    }
    for (uint32_t c = 0; c < cores_.size(); ++c) {
      uint64_t ns = 0;
      const uint64_t* row = node.cells.get() + size_t{c} * kMaxOwners;
      for (uint32_t o = 0; o < kMaxOwners; ++o) {
        ns += row[o];
      }
      if (ns == 0) {
        continue;
      }
      StackReport r;
      r.stack = path;
      r.core = cores_[c].name;
      r.ns = ns;
      reports.push_back(std::move(r));
    }
  }
  std::sort(reports.begin(), reports.end(),
            [](const StackReport& a, const StackReport& b) {
              if (a.stack != b.stack) {
                return a.stack < b.stack;
              }
              return a.core < b.core;
            });
  return reports;
}

std::string Profiler::FoldedStacks() const {
  // One "core;frame;...;frame <ns>" line per nonzero (path, core); a
  // trailing "[unaccounted]" frame per core keeps the flamegraph tiling to
  // exactly busy_ns. Lexicographically sorted -> byte-stable.
  std::vector<std::string> lines;
  for (const StackReport& r : StackReports()) {
    if (r.ns == 0) {
      continue;  // entries-only rows are for the JSON view
    }
    std::string line = r.core;
    line += ';';
    line += r.stack;
    Appendf(&line, " %" PRIu64, r.ns);
    lines.push_back(std::move(line));
  }
  for (const CoreReport& r : CoreReports()) {
    if (r.unaccounted_ns == 0) {
      continue;
    }
    std::string line = r.name;
    Appendf(&line, ";[unaccounted] %" PRIu64, r.unaccounted_ns);
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

std::string Profiler::JsonReport() const {
  std::string out = "{\"cores\":[";
  bool first = true;
  for (const CoreReport& r : CoreReports()) {
    if (!first) {
      out += ',';
    }
    first = false;
    Appendf(&out,
            "{\"name\":\"%s\",\"kind\":\"%s\",\"busy_ns\":%" PRIu64
            ",\"attributed_ns\":%" PRIu64 ",\"unaccounted_ns\":%" PRIu64 "}",
            r.name.c_str(), KindName(r.kind), r.busy_ns, r.attributed_ns,
            r.unaccounted_ns);
  }
  out += "],\"owners\":[";
  first = true;
  for (const OwnerReport& r : OwnerReports()) {
    if (!first) {
      out += ',';
    }
    first = false;
    Appendf(&out,
            "{\"pid\":%u,\"nic_ns\":%" PRIu64 ",\"host_ns\":%" PRIu64
            ",\"pkts\":%" PRIu64 ",\"bytes\":%" PRIu64 ",\"drops\":%" PRIu64
            ",\"sram_bytes\":%lld}",
            r.pid, r.nic_ns, r.host_ns, r.pkts, r.bytes, r.drops,
            static_cast<long long>(r.sram_bytes));
  }
  out += "],\"stacks\":[";
  first = true;
  for (const StackReport& r : StackReports()) {
    if (!first) {
      out += ',';
    }
    first = false;
    Appendf(&out,
            "{\"stack\":\"%s\",\"core\":\"%s\",\"ns\":%" PRIu64
            ",\"entries\":%" PRIu64 "}",
            r.stack.c_str(), r.core.c_str(), r.ns, r.entries);
  }
  out += "]}";
  return out;
}

void Profiler::PublishToRegistry(MetricsRegistry* registry) const {
  uint64_t total_unaccounted = 0;
  for (const CoreReport& r : CoreReports()) {
    const std::string prefix = "prof.core." + r.name;
    registry->GetGauge(prefix + ".busy_ns")
        ->Set(static_cast<int64_t>(r.busy_ns));
    registry->GetGauge(prefix + ".attributed_ns")
        ->Set(static_cast<int64_t>(r.attributed_ns));
    registry->GetGauge(prefix + ".unaccounted_ns")
        ->Set(static_cast<int64_t>(r.unaccounted_ns));
    total_unaccounted += r.unaccounted_ns;
  }
  registry->GetGauge("attr.unaccounted")
      ->Set(static_cast<int64_t>(total_unaccounted));
  for (const OwnerReport& r : OwnerReports()) {
    std::string prefix;
    if (r.pid == 0) {
      prefix = "attr.unowned";
    } else if (r.pid == kOverflowPid) {
      prefix = "attr.overflow";
    } else {
      prefix = "attr.pid." + std::to_string(r.pid);
    }
    registry->GetGauge(prefix + ".nic_ns")->Set(static_cast<int64_t>(r.nic_ns));
    registry->GetGauge(prefix + ".host_ns")
        ->Set(static_cast<int64_t>(r.host_ns));
    registry->GetGauge(prefix + ".pkts")->Set(static_cast<int64_t>(r.pkts));
    registry->GetGauge(prefix + ".bytes")->Set(static_cast<int64_t>(r.bytes));
    registry->GetGauge(prefix + ".drops")->Set(static_cast<int64_t>(r.drops));
    registry->GetGauge(prefix + ".sram_bytes")->Set(r.sram_bytes);
  }
}

void Profiler::Reset() {
  for (Node& node : nodes_) {
    node.entries = 0;
    if (node.cells != nullptr) {
      std::fill_n(node.cells.get(), size_t{kMaxCores} * kMaxOwners, 0);
    }
  }
  for (Owner& owner : owners_) {
    owner.pkts = 0;
    owner.bytes = 0;
    owner.drops = 0;
    owner.sram_bytes = 0;
  }
}

}  // namespace norman::telemetry

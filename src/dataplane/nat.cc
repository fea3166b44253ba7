#include "src/dataplane/nat.h"

#include "src/net/packet_builder.h"
#include "src/net/parsed_packet.h"

namespace norman::dataplane {

NatEngine::NatEngine(nic::SramAllocator* sram,
                     net::Ipv4Address private_prefix, uint32_t prefix_len,
                     net::Ipv4Address public_ip, uint16_t port_base,
                     uint16_t port_count)
    : sram_(sram),
      private_prefix_(private_prefix),
      prefix_len_(prefix_len),
      public_ip_(public_ip),
      port_base_(port_base),
      port_count_(port_count) {}

nic::StageResult NatEngine::Process(net::Packet& packet,
                                    const overlay::PacketContext& ctx) {
  nic::StageResult result;
  const net::ParsedPacket* parsed = ctx.parsed;
  if (parsed == nullptr || !parsed->is_ipv4() ||
      (!parsed->is_udp() && !parsed->is_tcp())) {
    return result;
  }
  const auto flow = parsed->flow();
  if (!flow) {
    return result;
  }
  const uint8_t proto = static_cast<uint8_t>(flow->proto);

  if (ctx.direction == net::Direction::kTx) {
    if (!InPrivatePrefix(flow->src_ip)) {
      return result;
    }
    const PrivateKey key{flow->src_ip.addr, flow->src_port, proto};
    auto it = by_private_.find(key);
    if (it == by_private_.end()) {
      // Allocate a public port (linear probe over the pool).
      uint16_t public_port = 0;
      for (uint16_t tried = 0; tried < port_count_; ++tried) {
        const uint16_t candidate = static_cast<uint16_t>(
            port_base_ + (next_port_offset_ + tried) % port_count_);
        const uint32_t pub_key = (uint32_t{candidate} << 8) | proto;
        if (!by_public_.contains(pub_key)) {
          public_port = candidate;
          next_port_offset_ =
              static_cast<uint16_t>((next_port_offset_ + tried + 1) %
                                    port_count_);
          break;
        }
      }
      if (public_port == 0 ||
          !sram_->Allocate("nat", kNatEntryBytes).ok()) {
        // Port pool or NIC memory exhausted: drop rather than leak
        // un-NATed private addresses.
        ++exhausted_drops_;
        result.verdict = nic::Verdict::kDrop;
        result.drop_reason = DropReason::kSramExhausted;
        return result;
      }
      const Mapping m{flow->src_ip, flow->src_port, public_port};
      it = by_private_.emplace(key, m).first;
      by_public_.emplace((uint32_t{public_port} << 8) | proto, m);
    }
    net::RewriteSource(packet, public_ip_, it->second.public_port);
    result.mutated = true;  // the packet's parse memo was patched in place
    ++tx_translated_;
    return result;
  }

  // RX: reverse-translate packets addressed to the public endpoint.
  if (flow->dst_ip != public_ip_) {
    return result;
  }
  const uint32_t pub_key = (uint32_t{flow->dst_port} << 8) | proto;
  const auto it = by_public_.find(pub_key);
  if (it == by_public_.end()) {
    return result;  // not ours; let the filter decide
  }
  net::RewriteDestination(packet, it->second.private_ip,
                          it->second.private_port);
  result.mutated = true;  // the packet's parse memo was patched in place
  ++rx_translated_;
  return result;
}

}  // namespace norman::dataplane

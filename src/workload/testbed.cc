#include "src/workload/testbed.h"

#include "src/net/packet_builder.h"
#include "src/net/parsed_packet.h"

namespace norman::workload {

TestBed::TestBed(Options options)
    : options_(options), fault_(&sim_, options.fault_seed) {
  nic_ = std::make_unique<nic::SmartNic>(&sim_, options_.nic);
  kernel_ =
      std::make_unique<kernel::Kernel>(&sim_, nic_.get(), options_.kernel);
  nic_->SetWireSink(
      [this](net::PacketPtr packet) { HandleEgress(std::move(packet)); });
  fault_.SetSink(kNetworkToHostLink, [this](net::PacketPtr packet) {
    nic_->DeliverFromWire(std::move(packet), sim_.Now());
  });
}

void TestBed::HandleEgress(net::PacketPtr packet) {
  egress_bytes_ += packet->size();
  if (egress_hook_) {
    egress_hook_(*packet);
  }
  if (options_.echo) {
    // Egress frames carry the parse memo the datapath kept exact, so the
    // peer reads the headers without re-walking them.
    const net::ParsedPacket* parsed = packet->parsed();
    if (parsed != nullptr && parsed->is_ipv4() &&
        (parsed->is_udp() || parsed->is_tcp())) {
      // Build the mirrored response at the peer.
      auto flow = parsed->flow();
      net::FrameEndpoints ep{parsed->eth.dst, parsed->eth.src, flow->dst_ip,
                             flow->src_ip};
      const auto payload = packet->bytes().subspan(parsed->payload_offset);
      net::PacketPtr reply =
          parsed->is_udp()
              ? net::BuildUdpPacket(ep, flow->dst_port, flow->src_port,
                                    payload)
              : net::BuildTcpPacket(ep, flow->dst_port, flow->src_port,
                                    parsed->tcp->ack, parsed->tcp->seq,
                                    net::TcpFlags::kAck, payload);
      // Round trip: propagation out + propagation back.
      InjectFromNetwork(std::move(reply),
                        sim_.Now() + 2 * options_.propagation_delay);
    }
  }
  if (keep_egress_) {
    egress_.push_back(std::move(packet));
  }
}

void TestBed::InjectFromNetwork(net::PacketPtr packet, Nanos when) {
  packet->meta().created_at = when;
  // Through the fault plane: with no profile configured this is exactly one
  // scheduled delivery, the same event shape as before the plane existed.
  fault_.Transmit(kNetworkToHostLink, std::move(packet), when);
}

void TestBed::InjectUdpFromPeer(uint16_t src_port, uint16_t dst_port,
                                size_t payload_size, Nanos when) {
  net::FrameEndpoints ep{net::MacAddress::ForHost(2),
                         options_.kernel.host_mac,
                         net::Ipv4Address::FromOctets(10, 0, 0, 2),
                         options_.kernel.host_ip};
  const std::vector<uint8_t> payload(payload_size, 0x5a);
  InjectFromNetwork(net::BuildUdpPacket(ep, src_port, dst_port, payload),
                    when);
}

}  // namespace norman::workload

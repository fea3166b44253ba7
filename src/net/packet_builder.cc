#include "src/net/packet_builder.h"

#include <cstring>

#include "src/net/byte_io.h"
#include "src/net/packet_memo.h"
#include "src/net/packet_pool.h"
#include "src/net/parsed_packet.h"

namespace norman::net {
namespace {

// Sequential IPv4 identification for generated frames; wraps naturally.
uint16_t& IpIdCounter() {
  static uint16_t id = 0;
  return id;
}

uint16_t NextIpId() { return ++IpIdCounter(); }

// Writers fill a caller-provided frame of exactly the right size, so both
// the std::vector builders and the pooled-packet builders share one
// serialization path (the pooled path reuses recycled buffer capacity and
// never allocates on a steady-state hot path). Each returns the parse of
// what it wrote, assembled from the header structs it serialized: the
// pooled builders install it as the packet's parse memo, so a built frame
// is never re-parsed.

ParsedPacket WriteIpv4Header(std::span<uint8_t> frame,
                             const FrameEndpoints& ep, IpProto proto,
                             size_t l4_size, uint8_t dscp, uint8_t ttl) {
  ParsedPacket memo;
  memo.eth.dst = ep.dst_mac;
  memo.eth.src = ep.src_mac;
  memo.eth.ether_type = static_cast<uint16_t>(EtherType::kIpv4);
  memo.eth.Serialize(frame);

  Ipv4Header& ip = memo.ipv4.emplace();
  ip.dscp = static_cast<uint8_t>(dscp & 0x3f);  // the 6 bits the wire holds
  ip.total_length = static_cast<uint16_t>(kIpv4MinHeaderSize + l4_size);
  ip.identification = NextIpId();
  ip.ttl = ttl;
  ip.protocol = proto;
  ip.src = ep.src_ip;
  ip.dst = ep.dst_ip;
  ip.Serialize(frame.subspan(kEthernetHeaderSize));

  memo.frame_size = frame.size();
  memo.l3_offset = kEthernetHeaderSize;
  memo.l4_offset = kEthernetHeaderSize + kIpv4MinHeaderSize;
  return memo;
}

// Copies `payload` after the headers and fills the transport checksum in
// both the frame and the memo.
void FinishL4(std::span<uint8_t> frame, ParsedPacket& memo,
              std::span<const uint8_t> payload) {
  if (!payload.empty()) {
    std::memcpy(frame.data() + memo.payload_offset, payload.data(),
                payload.size());
  }
  WriteTransportChecksum(frame.subspan(memo.l4_offset), memo);
}

size_t UdpFrameSize(size_t payload_size) {
  return kEthernetHeaderSize + kIpv4MinHeaderSize + kUdpHeaderSize +
         payload_size;
}

// Headers only; the transport checksum is left zero.
ParsedPacket WriteUdpHeaders(std::span<uint8_t> frame,
                             const FrameEndpoints& ep, uint16_t src_port,
                             uint16_t dst_port, size_t payload_size,
                             uint8_t dscp, uint8_t ttl) {
  const size_t l4_size = kUdpHeaderSize + payload_size;
  ParsedPacket memo =
      WriteIpv4Header(frame, ep, IpProto::kUdp, l4_size, dscp, ttl);
  UdpHeader& udp = memo.udp.emplace();
  udp.src_port = src_port;
  udp.dst_port = dst_port;
  udp.length = static_cast<uint16_t>(l4_size);
  udp.Serialize(frame.subspan(memo.l4_offset));
  memo.payload_offset = memo.l4_offset + kUdpHeaderSize;
  return memo;
}

ParsedPacket WriteUdpFrame(std::span<uint8_t> frame, const FrameEndpoints& ep,
                           uint16_t src_port, uint16_t dst_port,
                           std::span<const uint8_t> payload, uint8_t dscp,
                           uint8_t ttl) {
  ParsedPacket memo = WriteUdpHeaders(frame, ep, src_port, dst_port,
                                      payload.size(), dscp, ttl);
  FinishL4(frame, memo, payload);
  return memo;
}

size_t TcpFrameSize(size_t payload_size) {
  return kEthernetHeaderSize + kIpv4MinHeaderSize + kTcpMinHeaderSize +
         payload_size;
}

// Headers only; the transport checksum is left zero.
ParsedPacket WriteTcpHeaders(std::span<uint8_t> frame,
                             const FrameEndpoints& ep, uint16_t src_port,
                             uint16_t dst_port, uint32_t seq, uint32_t ack,
                             uint8_t flags, size_t payload_size,
                             uint16_t window) {
  const size_t l4_size = kTcpMinHeaderSize + payload_size;
  ParsedPacket memo = WriteIpv4Header(frame, ep, IpProto::kTcp, l4_size,
                                      /*dscp=*/0, /*ttl=*/64);
  TcpHeader& tcp = memo.tcp.emplace();
  tcp.src_port = src_port;
  tcp.dst_port = dst_port;
  tcp.seq = seq;
  tcp.ack = ack;
  tcp.flags = flags;
  tcp.window = window;
  tcp.Serialize(frame.subspan(memo.l4_offset));
  memo.payload_offset = memo.l4_offset + kTcpMinHeaderSize;
  return memo;
}

ParsedPacket WriteTcpFrame(std::span<uint8_t> frame, const FrameEndpoints& ep,
                           uint16_t src_port, uint16_t dst_port, uint32_t seq,
                           uint32_t ack, uint8_t flags,
                           std::span<const uint8_t> payload, uint16_t window) {
  ParsedPacket memo = WriteTcpHeaders(frame, ep, src_port, dst_port, seq, ack,
                                      flags, payload.size(), window);
  FinishL4(frame, memo, payload);
  return memo;
}

size_t IcmpFrameSize(std::span<const uint8_t> payload) {
  return kEthernetHeaderSize + kIpv4MinHeaderSize + kIcmpHeaderSize +
         payload.size();
}

ParsedPacket WriteIcmpEchoFrame(std::span<uint8_t> frame,
                                const FrameEndpoints& ep, IcmpType type,
                                uint16_t identifier, uint16_t sequence,
                                std::span<const uint8_t> payload) {
  const size_t l4_size = kIcmpHeaderSize + payload.size();
  ParsedPacket memo = WriteIpv4Header(frame, ep, IpProto::kIcmp, l4_size,
                                      /*dscp=*/0, /*ttl=*/64);
  IcmpHeader& icmp = memo.icmp.emplace();
  icmp.type = type;
  icmp.identifier = identifier;
  icmp.sequence = sequence;
  icmp.Serialize(frame.subspan(memo.l4_offset));
  memo.payload_offset = memo.l4_offset + kIcmpHeaderSize;
  FinishL4(frame, memo, payload);
  return memo;
}

constexpr size_t kArpFrameSize = kEthernetHeaderSize + kArpBodySize;

ParsedPacket WriteArp(std::span<uint8_t> frame, ArpOp op,
                      MacAddress sender_mac, Ipv4Address sender_ip,
                      MacAddress target_mac, Ipv4Address target_ip,
                      MacAddress eth_dst) {
  ParsedPacket memo;
  memo.eth.dst = eth_dst;
  memo.eth.src = sender_mac;
  memo.eth.ether_type = static_cast<uint16_t>(EtherType::kArp);
  memo.eth.Serialize(frame);
  ArpMessage& arp = memo.arp.emplace();
  arp.op = op;
  arp.sender_mac = sender_mac;
  arp.sender_ip = sender_ip;
  arp.target_mac = target_mac;
  arp.target_ip = target_ip;
  arp.Serialize(frame.subspan(kEthernetHeaderSize));
  memo.frame_size = frame.size();
  memo.l3_offset = kEthernetHeaderSize;
  return memo;
}

ParsedPacket WriteArpRequest(std::span<uint8_t> frame, MacAddress sender_mac,
                             Ipv4Address sender_ip, Ipv4Address target_ip) {
  return WriteArp(frame, ArpOp::kRequest, sender_mac, sender_ip,
                  MacAddress::Zero(), target_ip, MacAddress::Broadcast());
}

ParsedPacket WriteArpReply(std::span<uint8_t> frame, MacAddress sender_mac,
                           Ipv4Address sender_ip, MacAddress requester_mac,
                           Ipv4Address requester_ip) {
  return WriteArp(frame, ArpOp::kReply, sender_mac, sender_ip, requester_mac,
                  requester_ip, requester_mac);
}

// A pooled packet of `size` bytes whose contents `write` fills entirely,
// returning the parse memo of what it wrote; the frame's checksums are all
// valid (`checksums_ok`) unless the writer left one unset.
template <typename Write>
PacketPtr BuildPooled(size_t size, bool checksums_ok, Write write) {
  PacketPtr p = PacketPool::Default().AcquireUninitialized(size);
  PacketMemoAccess::Install(*p, write(PacketMemoAccess::bytes(*p)));
  if (checksums_ok) {
    PacketMemoAccess::MarkChecksumsOk(*p);
  }
  return p;
}

}  // namespace

void ResetIpIdCounterForTest() { IpIdCounter() = 0; }

std::vector<uint8_t> BuildUdpFrame(const FrameEndpoints& ep, uint16_t src_port,
                                   uint16_t dst_port,
                                   std::span<const uint8_t> payload,
                                   uint8_t dscp, uint8_t ttl) {
  std::vector<uint8_t> frame(UdpFrameSize(payload.size()));
  WriteUdpFrame(frame, ep, src_port, dst_port, payload, dscp, ttl);
  return frame;
}

PacketPtr BuildUdpPacket(const FrameEndpoints& ep, uint16_t src_port,
                         uint16_t dst_port, std::span<const uint8_t> payload,
                         uint8_t dscp, uint8_t ttl) {
  return BuildPooled(UdpFrameSize(payload.size()), true,
                     [&](std::span<uint8_t> frame) {
                       return WriteUdpFrame(frame, ep, src_port, dst_port,
                                            payload, dscp, ttl);
                     });
}

PacketPtr AllocUdpPacket(const FrameEndpoints& ep, uint16_t src_port,
                         uint16_t dst_port, size_t payload_size) {
  return BuildPooled(UdpFrameSize(payload_size), false,
                     [&](std::span<uint8_t> frame) {
                       ParsedPacket memo =
                           WriteUdpHeaders(frame, ep, src_port, dst_port,
                                           payload_size, /*dscp=*/0,
                                           /*ttl=*/64);
                       std::memset(frame.data() + memo.payload_offset, 0,
                                   payload_size);
                       return memo;
                     });
}

std::vector<uint8_t> BuildTcpFrame(const FrameEndpoints& ep, uint16_t src_port,
                                   uint16_t dst_port, uint32_t seq,
                                   uint32_t ack, uint8_t flags,
                                   std::span<const uint8_t> payload,
                                   uint16_t window) {
  std::vector<uint8_t> frame(TcpFrameSize(payload.size()));
  WriteTcpFrame(frame, ep, src_port, dst_port, seq, ack, flags, payload,
                window);
  return frame;
}

PacketPtr BuildTcpPacket(const FrameEndpoints& ep, uint16_t src_port,
                         uint16_t dst_port, uint32_t seq, uint32_t ack,
                         uint8_t flags, std::span<const uint8_t> payload,
                         uint16_t window) {
  return BuildPooled(TcpFrameSize(payload.size()), true,
                     [&](std::span<uint8_t> frame) {
                       return WriteTcpFrame(frame, ep, src_port, dst_port,
                                            seq, ack, flags, payload, window);
                     });
}

PacketPtr AllocTcpPacket(const FrameEndpoints& ep, uint16_t src_port,
                         uint16_t dst_port, uint32_t seq, uint32_t ack,
                         uint8_t flags, size_t payload_size) {
  return BuildPooled(TcpFrameSize(payload_size), false,
                     [&](std::span<uint8_t> frame) {
                       ParsedPacket memo = WriteTcpHeaders(
                           frame, ep, src_port, dst_port, seq, ack, flags,
                           payload_size, /*window=*/65535);
                       std::memset(frame.data() + memo.payload_offset, 0,
                                   payload_size);
                       return memo;
                     });
}

std::vector<uint8_t> BuildIcmpEchoFrame(const FrameEndpoints& ep,
                                        IcmpType type, uint16_t identifier,
                                        uint16_t sequence,
                                        std::span<const uint8_t> payload) {
  std::vector<uint8_t> frame(IcmpFrameSize(payload));
  WriteIcmpEchoFrame(frame, ep, type, identifier, sequence, payload);
  return frame;
}

PacketPtr BuildIcmpEchoPacket(const FrameEndpoints& ep, IcmpType type,
                              uint16_t identifier, uint16_t sequence,
                              std::span<const uint8_t> payload) {
  return BuildPooled(IcmpFrameSize(payload), true,
                     [&](std::span<uint8_t> frame) {
                       return WriteIcmpEchoFrame(frame, ep, type, identifier,
                                                 sequence, payload);
                     });
}

std::vector<uint8_t> BuildArpRequest(MacAddress sender_mac,
                                     Ipv4Address sender_ip,
                                     Ipv4Address target_ip) {
  std::vector<uint8_t> frame(kArpFrameSize);
  WriteArpRequest(frame, sender_mac, sender_ip, target_ip);
  return frame;
}

PacketPtr BuildArpRequestPacket(MacAddress sender_mac, Ipv4Address sender_ip,
                                Ipv4Address target_ip) {
  return BuildPooled(kArpFrameSize, true, [&](std::span<uint8_t> frame) {
    return WriteArpRequest(frame, sender_mac, sender_ip, target_ip);
  });
}

std::vector<uint8_t> BuildArpReply(MacAddress sender_mac,
                                   Ipv4Address sender_ip,
                                   MacAddress requester_mac,
                                   Ipv4Address requester_ip) {
  std::vector<uint8_t> frame(kArpFrameSize);
  WriteArpReply(frame, sender_mac, sender_ip, requester_mac, requester_ip);
  return frame;
}

PacketPtr BuildArpReplyPacket(MacAddress sender_mac, Ipv4Address sender_ip,
                              MacAddress requester_mac,
                              Ipv4Address requester_ip) {
  return BuildPooled(kArpFrameSize, true, [&](std::span<uint8_t> frame) {
    return WriteArpReply(frame, sender_mac, sender_ip, requester_mac,
                         requester_ip);
  });
}

namespace {

// Incremental checksum update per RFC 1624: HC' = ~(~HC + ~m + m').
uint16_t IncrementalFix(uint16_t csum, uint16_t old16, uint16_t new16) {
  uint32_t sum = static_cast<uint32_t>(static_cast<uint16_t>(~csum));
  sum += static_cast<uint16_t>(~old16);
  sum += new16;
  while (sum >> 16) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  return static_cast<uint16_t>(~sum);
}

// Rewrites one endpoint through the packet's parse memo: offsets and old
// values come from the memo (exact by Packet's invariant), and the new
// address, port and both checksums land in the bytes and the memo alike.
// checksums_ok() is left as it was — the incremental update keeps a valid
// checksum valid and an invalid one invalid.
bool Rewrite(Packet& packet, bool source, Ipv4Address new_ip,
             uint16_t new_port) {
  ParsedPacket* parsed = PacketMemoAccess::parse(packet);
  if (parsed == nullptr || !parsed->ipv4 || (!parsed->udp && !parsed->tcp)) {
    return false;
  }
  const std::span<uint8_t> frame = PacketMemoAccess::bytes(packet);
  const size_t l3 = parsed->l3_offset;
  const size_t l4 = parsed->l4_offset;
  const bool udp = parsed->is_udp();
  Ipv4Address& ip = source ? parsed->ipv4->src : parsed->ipv4->dst;
  uint16_t& port = udp ? (source ? parsed->udp->src_port
                                 : parsed->udp->dst_port)
                       : (source ? parsed->tcp->src_port
                                 : parsed->tcp->dst_port);
  uint16_t& ip_csum = parsed->ipv4->checksum;
  uint16_t& l4_csum = udp ? parsed->udp->checksum : parsed->tcp->checksum;
  const uint32_t old_ip = ip.addr;
  const uint16_t old_port = port;

  // IPv4 header checksum: fix for the two 16-bit halves of the address.
  ip_csum = IncrementalFix(ip_csum, static_cast<uint16_t>(old_ip >> 16),
                           static_cast<uint16_t>(new_ip.addr >> 16));
  ip_csum = IncrementalFix(ip_csum, static_cast<uint16_t>(old_ip),
                           static_cast<uint16_t>(new_ip.addr));
  StoreBe16(&frame[l3 + 10], ip_csum);

  // Transport checksum covers the pseudo header (address) and the port.
  const bool udp_no_csum = udp && l4_csum == 0;
  if (!udp_no_csum) {
    l4_csum = IncrementalFix(l4_csum, static_cast<uint16_t>(old_ip >> 16),
                             static_cast<uint16_t>(new_ip.addr >> 16));
    l4_csum = IncrementalFix(l4_csum, static_cast<uint16_t>(old_ip),
                             static_cast<uint16_t>(new_ip.addr));
    l4_csum = IncrementalFix(l4_csum, old_port, new_port);
    if (udp && l4_csum == 0) {
      l4_csum = 0xffff;
    }
    StoreBe16(&frame[l4 + (udp ? 6 : 16)], l4_csum);
  }

  ip = new_ip;
  port = new_port;
  StoreBe32(&frame[l3 + (source ? 12 : 16)], new_ip.addr);
  StoreBe16(&frame[l4 + (source ? 0 : 2)], new_port);
  return true;
}

}  // namespace

bool RewriteSource(Packet& packet, Ipv4Address new_src_ip,
                   uint16_t new_src_port) {
  return Rewrite(packet, /*source=*/true, new_src_ip, new_src_port);
}

bool RewriteDestination(Packet& packet, Ipv4Address new_dst_ip,
                        uint16_t new_dst_port) {
  return Rewrite(packet, /*source=*/false, new_dst_ip, new_dst_port);
}

}  // namespace norman::net

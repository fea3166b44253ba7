// Full-frame parser: Ethernet -> {ARP | IPv4 -> {UDP | TCP | ICMP}}.
//
// Produces a ParsedPacket with decoded headers plus byte offsets into the
// original frame, so the filter engine and the overlay VM agree on where
// each field lives.
#ifndef NORMAN_NET_PARSED_PACKET_H_
#define NORMAN_NET_PARSED_PACKET_H_

#include <optional>
#include <span>

#include "src/net/headers.h"
#include "src/net/types.h"

namespace norman::net {

struct ParsedPacket {
  EthernetHeader eth;
  std::optional<ArpMessage> arp;
  std::optional<Ipv4Header> ipv4;
  std::optional<UdpHeader> udp;
  std::optional<TcpHeader> tcp;
  std::optional<IcmpHeader> icmp;

  size_t l3_offset = 0;       // start of ARP/IPv4
  size_t l4_offset = 0;       // start of UDP/TCP/ICMP (0 if none)
  size_t payload_offset = 0;  // start of application payload (0 if none)
  size_t frame_size = 0;

  bool is_arp() const { return arp.has_value(); }
  bool is_ipv4() const { return ipv4.has_value(); }
  bool is_udp() const { return udp.has_value(); }
  bool is_tcp() const { return tcp.has_value(); }
  bool is_icmp() const { return icmp.has_value(); }

  // Flow identity for IPv4/TCP|UDP packets; nullopt otherwise.
  std::optional<FiveTuple> flow() const;

  size_t payload_size() const {
    return payload_offset == 0 ? 0 : frame_size - payload_offset;
  }

  friend bool operator==(const ParsedPacket&, const ParsedPacket&) = default;
};

// Parses a frame. Returns nullopt only if the Ethernet header itself is
// truncated; unknown/garbled upper layers simply leave the optionals empty
// (the dataplane forwards frames it cannot parse rather than dropping them).
std::optional<ParsedPacket> ParseFrame(std::span<const uint8_t> frame);

}  // namespace norman::net

#endif  // NORMAN_NET_PARSED_PACKET_H_

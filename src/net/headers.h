// Protocol header codecs: Ethernet, ARP, IPv4, UDP, TCP, ICMP.
//
// Each header type is a plain value struct with Parse/Serialize functions.
// Parsing is bounds-checked and returns std::nullopt on truncation; the
// overlay VM and filter engine operate on the same wire offsets these
// codecs define (see overlay/field_offsets.h).
#ifndef NORMAN_NET_HEADERS_H_
#define NORMAN_NET_HEADERS_H_

#include <cstdint>
#include <optional>
#include <span>

#include "src/net/types.h"

namespace norman::net {

inline constexpr size_t kEthernetHeaderSize = 14;
inline constexpr size_t kArpBodySize = 28;
inline constexpr size_t kIpv4MinHeaderSize = 20;
inline constexpr size_t kUdpHeaderSize = 8;
inline constexpr size_t kTcpMinHeaderSize = 20;
inline constexpr size_t kIcmpHeaderSize = 8;

struct EthernetHeader {
  MacAddress dst;
  MacAddress src;
  uint16_t ether_type = 0;

  static std::optional<EthernetHeader> Parse(std::span<const uint8_t> data);
  // Writes kEthernetHeaderSize bytes; `out` must be large enough.
  void Serialize(std::span<uint8_t> out) const;

  friend bool operator==(const EthernetHeader&, const EthernetHeader&) = default;
};

enum class ArpOp : uint16_t { kRequest = 1, kReply = 2 };

struct ArpMessage {
  ArpOp op = ArpOp::kRequest;
  MacAddress sender_mac;
  Ipv4Address sender_ip;
  MacAddress target_mac;
  Ipv4Address target_ip;

  static std::optional<ArpMessage> Parse(std::span<const uint8_t> data);
  void Serialize(std::span<uint8_t> out) const;  // kArpBodySize bytes

  friend bool operator==(const ArpMessage&, const ArpMessage&) = default;
};

struct Ipv4Header {
  uint8_t dscp = 0;
  uint16_t total_length = 0;
  uint16_t identification = 0;
  uint8_t ttl = 64;
  IpProto protocol = IpProto::kUdp;
  uint16_t checksum = 0;  // as parsed; filled by Serialize when compute_checksum
  Ipv4Address src;
  Ipv4Address dst;

  size_t header_length() const { return kIpv4MinHeaderSize; }  // no options

  static std::optional<Ipv4Header> Parse(std::span<const uint8_t> data);
  // Serializes a 20-byte header. If compute_checksum, fills the checksum
  // field from the serialized bytes (and updates this->checksum).
  void Serialize(std::span<uint8_t> out, bool compute_checksum = true);
  // Validates the checksum of a raw header.
  static bool ChecksumValid(std::span<const uint8_t> header_bytes);

  friend bool operator==(const Ipv4Header&, const Ipv4Header&) = default;
};

struct UdpHeader {
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  uint16_t length = 0;
  uint16_t checksum = 0;

  static std::optional<UdpHeader> Parse(std::span<const uint8_t> data);
  void Serialize(std::span<uint8_t> out) const;  // kUdpHeaderSize bytes

  friend bool operator==(const UdpHeader&, const UdpHeader&) = default;
};

// TCP flag bits (wire positions).
struct TcpFlags {
  static constexpr uint8_t kFin = 0x01;
  static constexpr uint8_t kSyn = 0x02;
  static constexpr uint8_t kRst = 0x04;
  static constexpr uint8_t kPsh = 0x08;
  static constexpr uint8_t kAck = 0x10;
};

struct TcpHeader {
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  uint32_t seq = 0;
  uint32_t ack = 0;
  uint8_t data_offset_words = 5;  // header length in 32-bit words
  uint8_t flags = 0;
  uint16_t window = 65535;
  uint16_t checksum = 0;

  size_t header_length() const { return size_t{data_offset_words} * 4; }

  static std::optional<TcpHeader> Parse(std::span<const uint8_t> data);
  void Serialize(std::span<uint8_t> out) const;  // kTcpMinHeaderSize bytes

  friend bool operator==(const TcpHeader&, const TcpHeader&) = default;
};

enum class IcmpType : uint8_t { kEchoReply = 0, kEchoRequest = 8 };

struct IcmpHeader {
  IcmpType type = IcmpType::kEchoRequest;
  uint8_t code = 0;
  uint16_t checksum = 0;
  uint16_t identifier = 0;
  uint16_t sequence = 0;

  static std::optional<IcmpHeader> Parse(std::span<const uint8_t> data);
  void Serialize(std::span<uint8_t> out) const;  // kIcmpHeaderSize bytes

  friend bool operator==(const IcmpHeader&, const IcmpHeader&) = default;
};

}  // namespace norman::net

#endif  // NORMAN_NET_HEADERS_H_

#include "src/net/frame_checksum.h"

#include <algorithm>

#include "src/net/byte_io.h"
#include "src/net/checksum.h"
#include "src/net/headers.h"
#include "src/net/packet_memo.h"

namespace norman::net {

namespace {

// Ones-complement sum of the pseudo header plus the L4 segment *including*
// its stored checksum folds to zero iff the checksum is valid; the RFC 768
// "transmit 0 as 0xffff" substitution also folds to zero, so one test
// covers both encodings.
bool TransportChecksumFolds(Ipv4Address src, Ipv4Address dst, IpProto proto,
                            std::span<const uint8_t> l4) {
  uint8_t pseudo[12];
  StoreBe32(&pseudo[0], src.addr);
  StoreBe32(&pseudo[4], dst.addr);
  pseudo[8] = 0;
  pseudo[9] = static_cast<uint8_t>(proto);
  StoreBe16(&pseudo[10], static_cast<uint16_t>(l4.size()));
  uint32_t sum = ChecksumPartial(std::span<const uint8_t>(pseudo, 12));
  sum = ChecksumPartial(l4, sum);
  return ChecksumFinish(sum) == 0;
}

// The L4 bytes the checksum covers: from l4_offset to the end of the IP
// datagram, clamped to the frame (a frame shorter than total_length cannot
// verify and reads as corrupt, which is the right answer for a truncated
// datagram).
std::span<const uint8_t> L4Span(std::span<const uint8_t> frame,
                                const ParsedPacket& parsed) {
  const size_t ip_len = parsed.ipv4->total_length;
  const size_t header_len = parsed.l4_offset - parsed.l3_offset;
  if (ip_len < header_len) {
    return frame.subspan(parsed.l4_offset);
  }
  const size_t l4_len =
      std::min(ip_len - header_len, frame.size() - parsed.l4_offset);
  return frame.subspan(parsed.l4_offset, l4_len);
}

// Recomputes the IPv4 header checksum and the L4 checksum of `frame` in
// place, writing each new value into `parsed` (which describes `frame`) as
// well. Returns true iff the frame now verifies.
bool FixupFrameChecksums(std::span<uint8_t> frame, ParsedPacket& parsed) {
  if (!parsed.is_ipv4() ||
      frame.size() < parsed.l3_offset + kIpv4MinHeaderSize) {
    return true;  // nothing to fix, nothing the verifier checks
  }
  // IPv4 header checksum.
  const size_t ip_csum_at = parsed.l3_offset + 10;
  StoreBe16(&frame[ip_csum_at], 0);
  parsed.ipv4->checksum = InternetChecksum(
      frame.subspan(parsed.l3_offset, kIpv4MinHeaderSize));
  StoreBe16(&frame[ip_csum_at], parsed.ipv4->checksum);
  if (parsed.l4_offset == 0 || parsed.l4_offset >= frame.size()) {
    return true;
  }
  return WriteTransportChecksum(
      frame.subspan(parsed.l4_offset, L4Span(frame, parsed).size()), parsed);
}

}  // namespace

bool WriteTransportChecksum(std::span<uint8_t> l4, ParsedPacket& parsed) {
  const Ipv4Address src = parsed.ipv4->src;
  const Ipv4Address dst = parsed.ipv4->dst;
  if (parsed.is_udp()) {
    if (l4.size() < kUdpHeaderSize) {
      return false;
    }
    StoreBe16(&l4[6], 0);
    parsed.udp->checksum = TransportChecksum(src, dst, IpProto::kUdp, l4);
    StoreBe16(&l4[6], parsed.udp->checksum);
  } else if (parsed.is_tcp()) {
    if (l4.size() < kTcpMinHeaderSize) {
      return false;
    }
    StoreBe16(&l4[16], 0);
    parsed.tcp->checksum = TransportChecksum(src, dst, IpProto::kTcp, l4);
    StoreBe16(&l4[16], parsed.tcp->checksum);
  } else if (parsed.is_icmp()) {
    if (l4.size() < kIcmpHeaderSize) {
      return false;
    }
    StoreBe16(&l4[2], 0);
    parsed.icmp->checksum = InternetChecksum(l4);
    StoreBe16(&l4[2], parsed.icmp->checksum);
  }
  return true;
}

bool FrameChecksumsValid(std::span<const uint8_t> frame,
                         const ParsedPacket& parsed) {
  if (!parsed.is_ipv4() ||
      frame.size() < parsed.l3_offset + kIpv4MinHeaderSize) {
    return true;  // nothing verifiable
  }
  if (!Ipv4Header::ChecksumValid(
          frame.subspan(parsed.l3_offset, kIpv4MinHeaderSize))) {
    return false;
  }
  if (parsed.l4_offset == 0 || parsed.l4_offset >= frame.size()) {
    return true;  // unknown or absent L4: IP header was the whole contract
  }
  const auto l4 = L4Span(frame, parsed);
  if (parsed.is_udp()) {
    if (l4.size() < kUdpHeaderSize) {
      return false;
    }
    if (LoadBe16(&l4[6]) == 0) {
      return true;  // UDP checksum not computed by the sender (RFC 768)
    }
    return TransportChecksumFolds(parsed.ipv4->src, parsed.ipv4->dst,
                                  IpProto::kUdp, l4);
  }
  if (parsed.is_tcp()) {
    if (l4.size() < kTcpMinHeaderSize) {
      return false;
    }
    return TransportChecksumFolds(parsed.ipv4->src, parsed.ipv4->dst,
                                  IpProto::kTcp, l4);
  }
  if (parsed.is_icmp()) {
    return l4.size() >= kIcmpHeaderSize && ChecksumFinish(ChecksumPartial(l4)) == 0;
  }
  return true;
}

void FixupPacketChecksums(Packet& packet) {
  ParsedPacket* parsed = PacketMemoAccess::Reparse(packet);
  if (parsed != nullptr &&
      FixupFrameChecksums(PacketMemoAccess::bytes(packet), *parsed)) {
    PacketMemoAccess::MarkChecksumsOk(packet);
  }
}

}  // namespace norman::net

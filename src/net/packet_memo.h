// Memo-preserving write access to a Packet, for the src/net writers that
// keep its parse and checksum memos exact themselves instead of dropping
// them: the pooled builders (which know the headers they just serialized),
// TX checksum offload (one fresh parse fused with the fixup), and NAT's
// in-place rewrite (which patches the fields it changed). Everything else
// writes through Packet::mutable_bytes() / mutable_payload(). Internal to
// src/net.
#ifndef NORMAN_NET_PACKET_MEMO_H_
#define NORMAN_NET_PACKET_MEMO_H_

#include <span>

#include "src/net/packet.h"
#include "src/net/parsed_packet.h"

namespace norman::net {

struct PacketMemoAccess {
  // The bytes, for a write the caller mirrors into the memos itself.
  static std::span<uint8_t> bytes(Packet& p) { return p.bytes_; }

  // The parse memo (computed if stale), for patching the fields the caller
  // rewrote; nullptr when the frame has no parse.
  static ParsedPacket* parse(Packet& p) {
    p.parsed();
    return p.parse_.has_value() ? &*p.parse_ : nullptr;
  }

  // A fresh parse of the current bytes, whatever the memo held; drops the
  // checksum bit.
  static ParsedPacket* Reparse(Packet& p) {
    p.checksums_ok_ = false;
    p.Reparse();
    return p.parse_.has_value() ? &*p.parse_ : nullptr;
  }

  // Installs `parse`, which must describe the current bytes, as the memo;
  // drops the checksum bit.
  static void Install(Packet& p, const ParsedPacket& parse) {
    p.parse_.emplace(parse);
    p.parse_fresh_ = true;
    p.checksums_ok_ = false;
  }

  // Sets the checksum bit. Only for a caller that knows FrameChecksumsValid
  // holds for the current bytes and memo.
  static void MarkChecksumsOk(Packet& p) {
    p.checksums_ok_ = p.parse_fresh_ && p.parse_.has_value();
  }
};

// Writes the UDP, TCP or ICMP checksum of `l4`, the transport segment that
// `parsed` describes, into both the segment and `parsed` — the one rule the
// builders and TX checksum offload share. Returns false, writing nothing,
// when the segment is too short to carry its checksum. Defined in
// frame_checksum.cc.
bool WriteTransportChecksum(std::span<uint8_t> l4, ParsedPacket& parsed);

}  // namespace norman::net

#endif  // NORMAN_NET_PACKET_MEMO_H_

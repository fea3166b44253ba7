#include "src/net/packet.h"

#include "src/net/frame_checksum.h"

namespace norman::net {

std::span<uint8_t> Packet::mutable_payload() {
  const ParsedPacket* p = parsed();
  checksums_ok_ = false;
  if (p == nullptr || p->payload_offset == 0) {
    return {};
  }
  return std::span<uint8_t>(bytes_).subspan(p->payload_offset);
}

bool Packet::VerifyChecksums() {
  if (checksums_ok_) {
    return true;
  }
  const ParsedPacket* p = parsed();
  if (p == nullptr) {
    return true;
  }
  checksums_ok_ = FrameChecksumsValid(bytes_, *p);
  return checksums_ok_;
}

bool Packet::MemosExact() const {
  if (parse_fresh_ && parse_ != ParseFrame(bytes_)) {
    return false;
  }
  if (!checksums_ok_) {
    return true;
  }
  const ParsedPacket* p = parsed();
  return p != nullptr && FrameChecksumsValid(bytes_, *p);
}

void Packet::Reparse() const {
  parse_ = ParseFrame(bytes_);
  parse_fresh_ = true;
}

}  // namespace norman::net

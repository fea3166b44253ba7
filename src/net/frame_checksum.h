// Whole-frame checksum verification and recomputation.
//
// The graceful-degradation half of the fault model: the wire can damage
// bytes (sim::FaultInjector), so RX ingest verifies the IPv4 header
// checksum and the L4 checksum before a frame is allowed past the NIC
// (DropReason::kCorrupt). The TX side models checksum offload: frames the
// library publishes get their checksums recomputed at SendFrame time, which
// is what makes the zero-copy AllocFrame/Payload path legal — AllocFrame
// leaves the transport checksum unset, the application writes the payload,
// the "hardware" fills the checksums on the way out.
#ifndef NORMAN_NET_FRAME_CHECKSUM_H_
#define NORMAN_NET_FRAME_CHECKSUM_H_

#include <span>

#include "src/net/packet.h"
#include "src/net/parsed_packet.h"

namespace norman::net {

// True iff the frame's IPv4 header checksum and, when present, its UDP/TCP/
// ICMP checksum are valid. `parsed` must describe `frame` (same bytes). A
// UDP checksum of zero means "not computed" (RFC 768) and passes. Frames
// that are not IPv4 — ARP, unparsed garbage — vacuously pass: the dataplane
// forwards what it cannot parse, and only corruption of understood headers
// is detectable.
bool FrameChecksumsValid(std::span<const uint8_t> frame,
                         const ParsedPacket& parsed);

// TX checksum offload for a packet whose bytes an application could write
// freely: one fresh parse, installed as the packet's parse memo, fused with
// recomputing the IPv4 header checksum and the L4 checksum in place — each
// new value lands in both the bytes and the memo. checksums_ok() is set when
// the frame now verifies, which fails only for an L4 segment too short to
// carry its checksum. Non-IPv4 frames keep their bytes and verify
// vacuously.
void FixupPacketChecksums(Packet& packet);

}  // namespace norman::net

#endif  // NORMAN_NET_FRAME_CHECKSUM_H_

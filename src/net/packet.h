// Packet buffer and simulation metadata.
//
// A Packet owns its bytes (wire format, starting at the Ethernet header) and
// carries sideband metadata the simulated hardware attaches as the packet
// moves: timestamps, the RSS queue, and — crucially for KOPI — the identity
// of the *sending connection*, which the kernel stamped into the NIC flow
// table at connection setup. The identity travels as metadata, never as
// packet bytes, mirroring how a real on-NIC dataplane knows the source ring
// (and therefore the owning process) of every TX descriptor.
#ifndef NORMAN_NET_PACKET_H_
#define NORMAN_NET_PACKET_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/common/units.h"
#include "src/net/parsed_packet.h"
#include "src/net/types.h"

namespace norman::net {

// Identifies a NIC-visible connection (== one ring-buffer pair). 0 is
// reserved for "unknown / not from a registered connection".
using ConnectionId = uint32_t;
inline constexpr ConnectionId kUnknownConnection = 0;

enum class Direction : uint8_t { kTx, kRx };

struct PacketMeta {
  Nanos created_at = 0;       // when the app/workload produced it
  Nanos nic_arrival = 0;      // when it entered the NIC pipeline
  Nanos completed_at = 0;     // when it hit the wire / app ring
  Direction direction = Direction::kTx;
  ConnectionId connection = kUnknownConnection;
  uint16_t rx_queue = 0;      // RSS result (RX only)
  uint32_t flow_hash = 0;
  bool software_fallback = false;  // diverted through host slow path (E7)
  // Owning process, stamped where the dataplane first resolves it (flow
  // entry owner on TX, kernel fallback-connection owner on injected
  // frames). Carried so later charge points (wire drain) can attribute
  // cycles without re-walking the flow table. 0 = no registered owner.
  uint32_t owner_pid = 0;
  // Owning tenant (kernel-assigned; 0 = untenanted), stamped alongside
  // owner_pid from the flow entry so per-tenant cycle shares and drop
  // attribution work anywhere in the pipeline.
  uint32_t tenant = 0;
  // Lifecycle tracing (telemetry::PacketTracer): nonzero when this packet
  // was sampled at NIC arrival; spans are recorded under this id.
  uint32_t trace_id = 0;
  // When the TX scheduler accepted the packet (start of the qdisc-wait
  // span; meaningful only while trace_id != 0).
  Nanos sched_enqueued_at = 0;
};

class PacketPool;

// A Packet carries two memos of its bytes that the type itself keeps exact
// (DESIGN.md §5a):
//
//  * parsed()       — ParseFrame(bytes()), computed on first use. The pooled
//                     builders and the trusted src/net writers (checksum
//                     offload, NAT rewrite) fill or patch it directly from
//                     the headers they wrote, so a frame is parsed at most
//                     once per traversal.
//  * checksums_ok() — "FrameChecksumsValid(bytes(), *parsed()) holds", the
//                     analogue of Linux's CHECKSUM_UNNECESSARY. Set by the
//                     builders, by TX checksum offload, and by a successful
//                     RX verification.
//
// Every write path clears what it may invalidate: mutable_bytes() and
// Resize() clear both memos, mutable_payload() clears only the checksum bit
// (payload bytes are not part of the parse).
class Packet {
 public:
  Packet() = default;
  explicit Packet(std::vector<uint8_t> bytes) : bytes_(std::move(bytes)) {}

  std::span<const uint8_t> bytes() const { return bytes_; }
  size_t size() const { return bytes_.size(); }

  // Raw write access: any byte may change, so both memos are dropped.
  std::span<uint8_t> mutable_bytes() {
    ForgetMemos();
    return bytes_;
  }
  // Write access to the application payload only (parsed()->payload_offset
  // to the end of the frame; empty when the frame has none). Headers cannot
  // change through it, so the parse stays and only the checksum bit drops.
  std::span<uint8_t> mutable_payload();

  void Resize(size_t n) {
    ForgetMemos();
    bytes_.resize(n);
  }

  PacketMeta& meta() { return meta_; }
  const PacketMeta& meta() const { return meta_; }

  // The parse of bytes(); nullptr when the Ethernet header is truncated.
  // Schedulers, RSS, stages and observers all read this one copy.
  const ParsedPacket* parsed() const {
    if (!parse_fresh_) {
      Reparse();
    }
    return parse_.has_value() ? &*parse_ : nullptr;
  }

  bool checksums_ok() const { return checksums_ok_; }

  // RX checksum verification through the memo: true when checksums_ok(),
  // otherwise runs FrameChecksumsValid and sets the bit on success. Frames
  // with no parse have nothing to verify and pass without setting it.
  bool VerifyChecksums();

  // The invariant the memos promise: a filled parse equals a fresh
  // ParseFrame(bytes()), and checksums_ok() implies the frame verifies.
  // A full re-parse and checksum pass — for assertions and tests only.
  bool MemosExact() const;

 private:
  friend class PacketPool;
  friend struct PacketDeleter;
  friend struct PacketMemoAccess;

  void ForgetMemos() {
    parse_fresh_ = false;
    checksums_ok_ = false;
  }
  void Reparse() const;

  std::vector<uint8_t> bytes_;
  PacketMeta meta_;
  // Lazily computed, hence mutable: filling the memo does not change what
  // the packet is. Single-threaded, like the simulator that owns it.
  mutable std::optional<ParsedPacket> parse_;
  mutable bool parse_fresh_ = false;
  bool checksums_ok_ = false;  // implies parse_fresh_
  // Owning pool, or nullptr for plain heap/stack packets. Set by PacketPool
  // on acquisition; PacketDeleter routes the buffer back through it.
  PacketPool* pool_ = nullptr;
};

// Deleter for pooled packets: returns the buffer to its owning pool (which
// recycles Packet + vector capacity) or plain-deletes unpooled packets.
struct PacketDeleter {
  void operator()(Packet* p) const noexcept;
};

// Owning packet handle. The deleter is stateless, so PacketPtr can still be
// constructed directly from a raw pointer (release()/re-wrap round trips).
using PacketPtr = std::unique_ptr<Packet, PacketDeleter>;

}  // namespace norman::net

#endif  // NORMAN_NET_PACKET_H_

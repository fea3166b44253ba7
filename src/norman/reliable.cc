#include "src/norman/reliable.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/net/byte_io.h"

namespace norman {
namespace {

constexpr uint8_t kTypeData = 0;
constexpr uint8_t kTypeAck = 1;
constexpr size_t kHeaderBytes = 5;

// Sequence comparison robust to wrap (standard serial-number arithmetic).
bool SeqLess(uint32_t a, uint32_t b) {
  return static_cast<int32_t>(a - b) < 0;
}

}  // namespace

ReliableChannel::ReliableChannel(sim::Simulator* sim, kernel::Kernel* kernel,
                                 Socket* socket, ReliableOptions options)
    : sim_(sim),
      kernel_(kernel),
      socket_(socket),
      options_(options),
      current_rto_(options.initial_rto) {}

Status ReliableChannel::Start() {
  if (started_) {
    return FailedPreconditionError("reliable channel already started");
  }
  started_ = true;
  PumpRx();
  return OkStatus();
}

void ReliableChannel::PumpRx() {
  pump_registered_ = false;
  if (failed_) {
    return;  // pump parks until Resync() restarts it
  }
  // Drain whatever is already in the ring, then block for more. The
  // zero-copy lane keeps this loop allocation-free: Payload() reuses the
  // frame's parse memo and HandleFrame reads the bytes in place.
  while (net::PacketPtr frame = socket_->RecvFrame()) {
    HandleFrame(Socket::Payload(static_cast<const net::Packet&>(*frame)));
  }
  const Status blocked = kernel_->BlockOnRx(socket_->conn_id(), [this] {
    PumpRx();
  });
  if (!blocked.ok()) {
    Fail(blocked);
    return;
  }
  pump_registered_ = true;
}

void ReliableChannel::HandleFrame(std::span<const uint8_t> payload) {
  if (payload.size() < kHeaderBytes) {
    return;  // runt; ignore
  }
  const uint8_t type = payload[0];
  const uint32_t seq = net::LoadBe32(&payload[1]);

  if (type == kTypeAck) {
    // Cumulative: everything below `seq` is delivered.
    if (!SeqLess(base_seq_, seq)) {
      return;  // stale ACK
    }
    while (SeqLess(base_seq_, seq)) {
      in_flight_.erase(base_seq_);
      ++base_seq_;
    }
    current_rto_ = options_.initial_rto;  // fresh progress resets backoff
    ++timer_generation_;                  // cancel outstanding timer
    timer_armed_ = false;
    if (!in_flight_.empty()) {
      ArmRetransmitTimer();
    }
    TransmitWindow();
    return;
  }
  if (type != kTypeData) {
    return;
  }

  // Receiver side.
  if (SeqLess(seq, expected_seq_)) {
    ++stats_.duplicates_discarded;
    SendAck();  // re-ACK so the sender stops resending
    return;
  }
  if (seq != expected_seq_) {
    // Out of order: buffer if within bounds; duplicate buffering is a no-op.
    if (reorder_buffer_.size() < options_.max_reorder_buffer &&
        !reorder_buffer_.contains(seq)) {
      reorder_buffer_.emplace(
          seq, std::vector<uint8_t>(payload.begin() + kHeaderBytes,
                                    payload.end()));
      ++stats_.out_of_order_buffered;
    } else if (reorder_buffer_.contains(seq)) {
      ++stats_.duplicates_discarded;
    }
    SendAck();
    return;
  }
  // In-order delivery, plus anything it unblocks.
  std::vector<uint8_t> message(payload.begin() + kHeaderBytes,
                               payload.end());
  ++expected_seq_;
  ++stats_.messages_delivered;
  if (on_message_) {
    on_message_(std::move(message));
  }
  auto it = reorder_buffer_.find(expected_seq_);
  while (it != reorder_buffer_.end()) {
    ++stats_.messages_delivered;
    if (on_message_) {
      on_message_(std::move(it->second));
    }
    reorder_buffer_.erase(it);
    ++expected_seq_;
    it = reorder_buffer_.find(expected_seq_);
  }
  SendAck();
}

void ReliableChannel::SendAck() {
  std::vector<uint8_t> frame(kHeaderBytes);
  frame[0] = kTypeAck;
  net::StoreBe32(&frame[1], expected_seq_);
  ++stats_.acks_sent;
  (void)socket_->Send(frame);  // ACK loss is repaired by retransmission
}

Status ReliableChannel::Send(std::vector<uint8_t> payload) {
  if (failed_) {
    // Surface the root cause, not a generic "failed".
    return last_error_.ok() ? UnavailableError("reliable channel failed")
                            : last_error_;
  }
  ++stats_.messages_sent;
  send_queue_.push_back(std::move(payload));
  TransmitWindow();
  return OkStatus();
}

void ReliableChannel::TransmitWindow() {
  while (!send_queue_.empty() &&
         next_seq_ - base_seq_ < options_.window) {
    const uint32_t seq = next_seq_++;
    in_flight_.emplace(seq,
                       PendingSegment{std::move(send_queue_.front()), 0});
    send_queue_.pop_front();
    TransmitSegment(seq, /*is_retransmit=*/false);
  }
  if (!in_flight_.empty()) {
    ArmRetransmitTimer();
  }
}

void ReliableChannel::TransmitSegment(uint32_t seq, bool is_retransmit) {
  const auto it = in_flight_.find(seq);
  if (it == in_flight_.end()) {
    return;
  }
  std::vector<uint8_t> frame(kHeaderBytes + it->second.payload.size());
  frame[0] = kTypeData;
  net::StoreBe32(&frame[1], seq);
  std::copy(it->second.payload.begin(), it->second.payload.end(),
            frame.begin() + kHeaderBytes);
  ++stats_.segments_transmitted;
  if (is_retransmit) {
    ++stats_.retransmissions;
  }
  // A full TX ring behaves like loss: the retransmit timer recovers.
  (void)socket_->Send(frame);
}

void ReliableChannel::ArmRetransmitTimer() {
  if (timer_armed_) {
    return;
  }
  timer_armed_ = true;
  const uint64_t generation = ++timer_generation_;
  sim_->ScheduleAfter(current_rto_, [this, generation] {
    OnRetransmitTimeout(generation);
  });
}

void ReliableChannel::OnRetransmitTimeout(uint64_t timer_generation) {
  if (failed_ || timer_generation != timer_generation_) {
    return;  // stale timer (progress was made since it was armed)
  }
  timer_armed_ = false;
  if (in_flight_.empty()) {
    return;
  }
  ++stats_.rto_expirations;
  // Go-back-style: retransmit the oldest unacked segment only; the
  // cumulative ACK it triggers tells us where the receiver actually is.
  const uint32_t seq = base_seq_;
  auto it = in_flight_.find(seq);
  if (it == in_flight_.end()) {
    return;
  }
  if (++it->second.retries > options_.max_retries) {
    Fail(UnavailableError("segment " + std::to_string(seq) + " exceeded " +
                          std::to_string(options_.max_retries) +
                          " retries"));
    return;
  }
  TransmitSegment(seq, /*is_retransmit=*/true);
  if (current_rto_ < options_.max_rto) {
    ++stats_.rto_backoffs;
  }
  current_rto_ = std::min(current_rto_ * 2, options_.max_rto);
  ArmRetransmitTimer();
}

Status ReliableChannel::Resync() {
  if (!failed_) {
    return FailedPreconditionError("resync: channel has not failed");
  }
  failed_ = false;
  last_error_ = OkStatus();
  ++stats_.resyncs;
  current_rto_ = options_.initial_rto;
  for (auto& [seq, segment] : in_flight_) {
    segment.retries = 0;
  }
  ++timer_generation_;  // orphan any timer armed before the failure
  timer_armed_ = false;
  if (started_ && !pump_registered_) {
    PumpRx();
  }
  if (!in_flight_.empty()) {
    // Probe the path with the oldest unacked segment; the peer's cumulative
    // ACK tells us how far it actually got while we were dark.
    TransmitSegment(base_seq_, /*is_retransmit=*/true);
    ArmRetransmitTimer();
  } else {
    TransmitWindow();
  }
  return OkStatus();
}

void ReliableChannel::Fail(const Status& reason) {
  if (failed_) {
    return;
  }
  failed_ = true;
  last_error_ = reason;
  if (on_failure_) {
    on_failure_(reason);
  }
}

}  // namespace norman

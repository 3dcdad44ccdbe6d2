// Reliable, ordered message delivery over Norman's unreliable frame lane.
//
// The library half of the paper's transport story: the NIC dataplane moves
// frames and enforces pacing (congestion control *mechanism*, §4.2), while
// protocol logic that needs no privileged view lives in the application
// library ("the library also implements dataplane functionality that does
// not require privileged interposition", §4.2). ReliableChannel is that
// logic: a sliding-window ARQ with cumulative ACKs, retransmission timers
// with exponential backoff, out-of-order buffering, and duplicate
// suppression — delivering each message exactly once, in order, over a
// lossy, reordering network.
//
// Message-oriented (one Send = one segment), in the spirit of datacenter
// RPC transports rather than a byte-stream TCP clone.
//
// Wire format (inside the UDP payload):
//   [0]    type: 0 = DATA, 1 = ACK
//   [1..4] big-endian sequence number (DATA: this segment;
//          ACK: cumulative — all segments < seq received)
//   [5..]  application payload (DATA only)
#ifndef NORMAN_NORMAN_RELIABLE_H_
#define NORMAN_NORMAN_RELIABLE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/norman/socket.h"
#include "src/sim/simulator.h"

namespace norman {

struct ReliableOptions {
  uint32_t window = 32;           // max unacked segments in flight
  Nanos initial_rto = 200 * kMicrosecond;
  Nanos max_rto = 50 * kMillisecond;
  uint32_t max_retries = 20;      // per segment before the channel fails
  size_t max_reorder_buffer = 256;
};

struct ReliableStats {
  uint64_t messages_sent = 0;       // accepted from the application
  uint64_t segments_transmitted = 0;  // includes retransmissions
  uint64_t retransmissions = 0;
  uint64_t acks_sent = 0;
  uint64_t duplicates_discarded = 0;
  uint64_t out_of_order_buffered = 0;
  uint64_t messages_delivered = 0;
  // RTO visibility (graceful-degradation accounting under wire faults).
  uint64_t rto_expirations = 0;     // timers that fired and were not stale
  uint64_t rto_backoffs = 0;        // exponential-backoff applications
  uint64_t resyncs = 0;             // successful Resync() calls
};

class ReliableChannel {
 public:
  // `socket` must be connected with notify_rx enabled (the channel blocks
  // on the NIC notification queue between arrivals). The channel borrows
  // the socket; it must outlive the channel.
  ReliableChannel(sim::Simulator* sim, kernel::Kernel* kernel,
                  Socket* socket, ReliableOptions options = {});

  ReliableChannel(const ReliableChannel&) = delete;
  ReliableChannel& operator=(const ReliableChannel&) = delete;

  // Delivered exactly once, in order, in virtual time.
  void SetMessageHandler(std::function<void(std::vector<uint8_t>)> handler) {
    on_message_ = std::move(handler);
  }
  // Invoked if a segment exhausts max_retries (peer presumed dead).
  void SetFailureHandler(std::function<void(Status)> handler) {
    on_failure_ = std::move(handler);
  }

  // Queues a message; transmits as the window allows.
  Status Send(std::vector<uint8_t> payload);
  Status Send(const std::string& payload) {
    return Send(std::vector<uint8_t>(payload.begin(), payload.end()));
  }

  // Starts the receive loop (blocking on RX notifications).
  Status Start();

  // Recovers a failed channel after the operator believes the path is back
  // (e.g. a link flap ended): clears the failure, resets retry budgets and
  // the RTO, restarts the receive pump, and retransmits the oldest unacked
  // segment to probe the path. Sequence state is preserved, so the peer's
  // cumulative ACK re-synchronizes both ends without loss or duplication.
  // FailedPrecondition if the channel has not failed.
  Status Resync();

  const ReliableStats& stats() const { return stats_; }
  uint32_t unacked_segments() const {
    return next_seq_ - base_seq_;
  }
  bool failed() const { return failed_; }
  // Why the channel failed; OK while healthy. Send() returns this after
  // failure, so callers see the root cause, not a generic error.
  const Status& last_error() const { return last_error_; }

 private:
  struct PendingSegment {
    std::vector<uint8_t> payload;
    uint32_t retries = 0;
  };

  void PumpRx();
  void HandleFrame(std::span<const uint8_t> payload);
  void TransmitWindow();
  void TransmitSegment(uint32_t seq, bool is_retransmit);
  void SendAck();
  void ArmRetransmitTimer();
  void OnRetransmitTimeout(uint64_t timer_generation);
  void Fail(const Status& reason);

  sim::Simulator* sim_;
  kernel::Kernel* kernel_;
  Socket* socket_;
  ReliableOptions options_;

  // Sender state.
  uint32_t base_seq_ = 0;   // oldest unacked
  uint32_t next_seq_ = 0;   // next sequence to assign
  std::map<uint32_t, PendingSegment> in_flight_;  // seq -> segment
  std::deque<std::vector<uint8_t>> send_queue_;   // not yet in the window
  Nanos current_rto_;  // doubles per timeout up to max_rto; resets on progress
  uint64_t timer_generation_ = 0;  // invalidates stale timers
  bool timer_armed_ = false;

  // Receiver state.
  uint32_t expected_seq_ = 0;
  std::map<uint32_t, std::vector<uint8_t>> reorder_buffer_;

  std::function<void(std::vector<uint8_t>)> on_message_;
  std::function<void(Status)> on_failure_;
  ReliableStats stats_;
  bool started_ = false;
  bool failed_ = false;
  Status last_error_ = OkStatus();
  // True while a BlockOnRx waiter is registered with the kernel; Resync()
  // only restarts the pump when the old waiter has already unwound (a
  // failed channel's pump deregisters itself on its next wake-up).
  bool pump_registered_ = false;
};

}  // namespace norman

#endif  // NORMAN_NORMAN_RELIABLE_H_

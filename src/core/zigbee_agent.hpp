#pragma once
// Common machinery for requester-side coordination agents.
//
// Every scheme evaluated in the paper (BiCord, ECC, plain CSMA) drives the
// same sender workload: bursts of data packets arrive, are queued, and must
// reach the receiver reliably (every packet ACKed). The base class owns the
// queue, per-packet delay/throughput accounting, and the MAC pumping loop;
// subclasses decide *when* the channel may be used. The MAC itself is only
// reachable through the core::RequesterMac port — the base never names a
// concrete radio stack.

#include <cstdint>
#include <deque>
#include <memory>

#include "core/ports.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

namespace bicord::core {

/// Delivery statistics for a requester-side sender under a coordination
/// scheme.
struct ZigbeeLinkStats {
  Samples delay_ms;             ///< burst arrival -> ACK, per packet
  std::uint64_t generated = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;    ///< gave up after max attempts
  std::uint64_t payload_bytes_delivered = 0;

  [[nodiscard]] double delivery_ratio() const {
    return generated ? static_cast<double>(delivered) / static_cast<double>(generated)
                     : 0.0;
  }
};

class ZigbeeAgentBase {
 public:
  /// Takes ownership of the requester port (see zigbee::requester_port).
  ZigbeeAgentBase(std::unique_ptr<RequesterMac> mac, phy::NodeId receiver);
  virtual ~ZigbeeAgentBase() = default;

  ZigbeeAgentBase(const ZigbeeAgentBase&) = delete;
  ZigbeeAgentBase& operator=(const ZigbeeAgentBase&) = delete;

  /// Most packets the agent queues; one arriving at a full queue is counted
  /// as generated and discarded, so an offered load the link cannot drain
  /// does not exhaust memory. Preset backlogs stay in the tens.
  static constexpr std::size_t kMaxBacklog = 10'000;

  /// Hands a burst of `count` packets of `payload_bytes` to the agent
  /// (wire this to zigbee::BurstSource).
  void submit_burst(int count, std::uint32_t payload_bytes);

  [[nodiscard]] const ZigbeeLinkStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t backlog() const { return queue_.size(); }
  [[nodiscard]] RequesterMac& port() { return *mac_; }

 protected:
  struct Pending {
    std::uint32_t payload_bytes;
    TimePoint arrival;
    int attempts = 0;
  };

  /// Subclass hook: new work arrived or a transmission finished; decide what
  /// to do next (signal, wait, or call pump_head()).
  virtual void kick() = 0;

  /// Sends the head-of-queue packet through the MAC; exactly one in flight.
  /// Safe to call when idle — no-ops if empty or already pumping.
  void pump_head(double power_dbm_override = kNoPowerOverride);
  [[nodiscard]] bool pumping() const { return pumping_; }
  [[nodiscard]] bool queue_empty() const { return queue_.empty(); }
  [[nodiscard]] const Pending* head() const { return queue_.empty() ? nullptr : &queue_.front(); }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

  /// Called on every completed MAC attempt for the head packet. Default:
  /// success -> account + pop + kick; failure -> bump attempts (drop after
  /// `max_attempts_`) + kick.
  virtual void on_head_outcome(const DataOutcome& outcome);

  std::unique_ptr<RequesterMac> mac_;
  sim::Simulator& sim_;
  phy::NodeId receiver_;
  ZigbeeLinkStats stats_;
  int max_attempts_ = 12;  ///< agent-level attempts (each w/ MAC retries)
  /// Application pacing between packets of a burst (T_i in the paper's
  /// Eq. 1): sensor firmware needs time to produce the next packet. With
  /// MAC overheads this yields the paper's ~6 ms per-packet cycle.
  Duration inter_packet_gap_ = Duration::from_us(1600);

 private:
  std::deque<Pending> queue_;
  bool pumping_ = false;
};

}  // namespace bicord::core

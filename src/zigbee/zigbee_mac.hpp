#pragma once
// IEEE 802.15.4 unslotted CSMA/CA MAC with ACKs and retransmission, plus the
// "raw" transmit path BiCord needs: control packets are deliberately sent
// *without* clear-channel assessment so they overlap ongoing Wi-Fi frames —
// that overlap is the cross-technology signal.

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>

#include "phy/frame.hpp"
#include "phy/medium.hpp"
#include "phy/radio.hpp"
#include "sim/simulator.hpp"
#include "zigbee/zigbee_phy.hpp"

namespace bicord::zigbee {

class ZigbeeMac {
 public:
  struct Config {
    PhyTimings timings;
    /// Operating channel (paper: 802.15.4 channel 24 or 26).
    int channel = 24;
    double tx_power_dbm = 0.0;
    /// CCA energy threshold (CC2420 default around -77 dBm).
    double cca_threshold_dbm = -77.0;
    int retry_limit = 3;
    bool ack_data = true;
  };

  struct SendRequest {
    phy::NodeId dst = phy::kBroadcastNode;
    std::uint32_t payload_bytes = 0;
    phy::FrameKind kind = phy::FrameKind::Data;
    /// Optional per-frame PA override (PowerMap-selected signaling power);
    /// NaN means "use Config::tx_power_dbm".
    double power_dbm_override = kNoOverride;
    std::int32_t tag = 0;
  };
  static constexpr double kNoOverride = -1000.0;

  struct SendOutcome {
    phy::Frame frame;
    bool delivered = false;          ///< ACKed (or sent, for broadcast/raw)
    bool channel_access_failure = false;  ///< CSMA gave up before airing once
    int retries = 0;
    TimePoint enqueued;
    TimePoint completed;
  };

  using SentCallback = std::function<void(const SendOutcome&)>;
  using RxHook = std::function<void(const phy::RxResult&)>;

  ZigbeeMac(phy::Medium& medium, phy::NodeId node, Config config);

  ZigbeeMac(const ZigbeeMac&) = delete;
  ZigbeeMac& operator=(const ZigbeeMac&) = delete;

  [[nodiscard]] phy::NodeId node() const { return node_; }
  [[nodiscard]] phy::Radio& radio() { return radio_; }
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] phy::Medium& medium() { return medium_; }

  void set_sent_callback(SentCallback cb) { sent_cb_ = std::move(cb); }
  void set_rx_hook(RxHook cb) { rx_hook_ = std::move(cb); }

  /// Queues a frame for CSMA/CA transmission.
  void enqueue(const SendRequest& req);
  /// Transmits immediately with no CCA and no ACK expectation — BiCord's
  /// cross-technology control packets. Throws if the radio is transmitting.
  /// `done` fires when the frame leaves the air.
  void send_raw(const SendRequest& req, std::function<void()> done = {});

  /// Energy-detect view of the channel (true = above CCA threshold).
  [[nodiscard]] bool channel_busy() const;
  /// True while any transmission work is pending or in flight (queued
  /// frames, a CSMA attempt, an awaited ACK) — duty cyclers must not sleep
  /// the radio then.
  [[nodiscard]] bool busy() const {
    return current_.has_value() || transmitting_ || awaiting_ack_ || !queue_.empty();
  }
  [[nodiscard]] double channel_energy_dbm() const { return radio_.energy_dbm(); }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
  /// Drops all queued frames (not the in-flight attempt).
  void flush_queue() { queue_.clear(); }

  // Stats.
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 private:
  struct Attempt {
    SendRequest req;
    TimePoint enqueued;
    std::uint64_t seq = 0;
    int retries = 0;
    int nb = 0;  ///< CSMA backoff attempts this transmission
    int be = 3;
  };

  void maybe_start_attempt();
  void start_csma();
  void backoff_expired();
  void transmit_current();
  void on_tx_complete();
  void ack_timeout_fired();
  void handle_rx(const phy::RxResult& rx);
  void send_ack(const phy::Frame& data);
  void finish_attempt(bool delivered, bool access_failure);
  [[nodiscard]] double tx_power(const SendRequest& req) const;

  phy::Medium& medium_;
  sim::Simulator& sim_;
  phy::NodeId node_;
  Config config_;
  phy::Radio radio_;

  std::deque<Attempt> queue_;
  std::optional<Attempt> current_;
  bool awaiting_ack_ = false;
  bool transmitting_ = false;
  sim::Timer backoff_timer_{sim_};  ///< CSMA backoff, then the Rx->Tx turnaround
  sim::Timer ack_timer_{sim_};
  std::uint64_t next_seq_ = 1;

  SentCallback sent_cb_;
  RxHook rx_hook_;

  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace bicord::zigbee

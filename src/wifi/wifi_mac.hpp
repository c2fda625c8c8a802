#pragma once
// IEEE 802.11 DCF-style MAC: CSMA/CA with binary exponential backoff,
// energy-detect + preamble carrier sense, SIFS-spaced ACKs, NAV honoring
// (CTS reservations), and explicit pause support.
//
// The pause mechanism is how white spaces are realised: a coordination agent
// broadcasts a CTS whose `nav` field silences every other Wi-Fi MAC that
// decodes it, and calls pause_for() on its own MAC for the same period.

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>

#include "phy/frame.hpp"
#include "phy/medium.hpp"
#include "phy/radio.hpp"
#include "sim/simulator.hpp"
#include "wifi/wifi_phy.hpp"

namespace bicord::wifi {

class WifiMac {
 public:
  struct Config {
    PhyTimings timings;
    /// Operating channel (paper: Wi-Fi channel 11 or 13).
    int channel = 11;
    double tx_power_dbm = 20.0;
    /// Energy-detect CCA threshold for non-Wi-Fi energy. Note: ED applies
    /// to the whole 20 MHz channel, so a 2 MHz ZigBee signal must be ~10 dB
    /// stronger than a Wi-Fi signal to trip it.
    double ed_threshold_dbm = -62.0;
    /// Measurement noise on each ED check (dB std-dev); > 0 softens the
    /// threshold into a logistic deferral probability, which is what real
    /// radios exhibit near the ED edge.
    double cca_noise_sigma_db = 0.0;
    int retry_limit = 7;
    /// Acknowledge unicast data (and retransmit on ACK timeout).
    bool ack_data = true;
  };

  struct SendRequest {
    phy::NodeId dst = phy::kBroadcastNode;
    std::uint32_t payload_bytes = 0;
    phy::FrameKind kind = phy::FrameKind::Data;
    Duration nav;       ///< reservation advertised in Cts/Notify frames
    int priority = 0;   ///< application tag copied into frame.tag
  };

  /// Outcome of a send: delivered (ACKed or broadcast sent) or dropped after
  /// retry exhaustion. `enqueued` enables delay accounting.
  struct SendOutcome {
    phy::Frame frame;
    bool delivered = false;
    int retries = 0;
    TimePoint enqueued;
    TimePoint completed;
  };

  using SentCallback = std::function<void(const SendOutcome&)>;
  /// Every successfully decoded frame (any dst) — feeds agents and the CSI
  /// extractor. Corrupted frames are also forwarded (success = false).
  using RxHook = std::function<void(const phy::RxResult&)>;
  /// Fires when an explicit pause (white space) elapses; the argument is the
  /// instant the pause ended. Coordination agents use this to start their
  /// end-of-burst silence timers.
  using PauseEndCallback = std::function<void(TimePoint)>;

  WifiMac(phy::Medium& medium, phy::NodeId node, Config config);

  WifiMac(const WifiMac&) = delete;
  WifiMac& operator=(const WifiMac&) = delete;

  [[nodiscard]] phy::NodeId node() const { return node_; }
  [[nodiscard]] phy::Radio& radio() { return radio_; }
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] phy::Medium& medium() { return medium_; }

  void set_sent_callback(SentCallback cb) { sent_cb_ = std::move(cb); }
  void set_rx_hook(RxHook cb) { rx_hook_ = std::move(cb); }
  void set_pause_end_callback(PauseEndCallback cb) { pause_end_cb_ = std::move(cb); }

  /// Most frames enqueue() holds. A frame offered to a full queue is
  /// discarded and counted, so an offered load the channel cannot drain does
  /// not exhaust memory; the saturated and priority sources keep at most 24
  /// queued. Same bound as core::ZigbeeAgentBase::kMaxBacklog.
  static constexpr std::size_t kMaxQueue = 10'000;

  /// Queues a frame for transmission through the normal DCF procedure, or
  /// discards it, spending no sequence number, when kMaxQueue are queued.
  void enqueue(const SendRequest& req);
  /// Queues at the front (used for time-critical CTS reservations). Never
  /// discarded: the BiCord reservation must go out even behind a full queue.
  void enqueue_front(const SendRequest& req);

  /// Silences this MAC for `d` from now (white space / voluntary deferral).
  /// Pauses extend but never shorten an existing pause. Transmitting a Cts
  /// or Notify frame with a non-zero `nav` pauses the sender automatically
  /// for the advertised reservation (CTS-to-self semantics).
  void pause_for(Duration d);
  [[nodiscard]] bool paused() const;
  /// Instant until which this MAC honours a NAV set by an overheard CTS.
  [[nodiscard]] TimePoint nav_until() const { return nav_until_; }

  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }

  // Stats.
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  /// Frames enqueue() turned away at a full queue.
  [[nodiscard]] std::uint64_t discarded() const { return discarded_; }

 private:
  struct Attempt {
    SendRequest req;
    TimePoint enqueued;
    std::uint64_t seq = 0;
    int retries = 0;
    int cw = 0;
    int backoff_slots = 0;
    bool backoff_armed = false;
  };

  void maybe_start_attempt();
  /// Re-evaluates medium state; arms/disarms the access timer.
  void reevaluate();
  [[nodiscard]] bool channel_busy() const;
  [[nodiscard]] TimePoint earliest_access_time() const;
  void access_timer_fired();
  void start_transmission();
  void on_tx_complete();
  void ack_timeout_fired();
  void handle_rx(const phy::RxResult& rx);
  void send_ack(const phy::Frame& data);
  void finish_attempt(bool delivered);
  [[nodiscard]] Duration frame_airtime(const SendRequest& req) const;

  phy::Medium& medium_;
  sim::Simulator& sim_;
  phy::NodeId node_;
  Config config_;
  phy::Radio radio_;
  mutable Rng cca_rng_;

  std::deque<Attempt> queue_;
  std::optional<Attempt> current_;
  bool awaiting_ack_ = false;
  bool transmitting_ = false;
  sim::Timer access_timer_{sim_};
  sim::Timer ack_timer_{sim_};
  sim::Timer gate_timer_{sim_};
  sim::Timer pause_timer_{sim_};
  sim::Timer recheck_timer_{sim_};

  TimePoint pause_until_;
  TimePoint nav_until_;
  std::uint64_t next_seq_ = 1;

  SentCallback sent_cb_;
  RxHook rx_hook_;
  PauseEndCallback pause_end_cb_;

  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t discarded_ = 0;
};

}  // namespace bicord::wifi

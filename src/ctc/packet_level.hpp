#pragma once
// Packet-level cross-technology communication baselines (paper Sec. II/III-B).
//
// Before BiCord, sending information from ZigBee to Wi-Fi meant *packet-
// level modulation*: segment time into windows and encode one bit per
// window as ZigBee-transmission presence/absence. Two archetypes are
// modelled here, faithful to the properties the paper argues about:
//
//  * ZigfiCtcLink — ZigFi/AdaComm style, works on a *busy* channel: the
//    Wi-Fi receiver reads each window from its CSI stream, but first has to
//    synchronise to the window grid via a Barker-7 preamble (AdaComm's
//    measured synchronisation cost is ~110 ms). Only after sync can the
//    payload be decoded.
//  * FreeBeeCtcLink — FreeBee style, embeds symbols in the *timing shift*
//    of periodic beacons: cheap, but a beacon conveys information only if
//    it arrives on a clear channel, so throughput collapses exactly when
//    coordination is needed (Wi-Fi busy).
//
// The bench `bench_motivation_ctc` compares the time these schemes need to
// convey one channel request against BiCord's one-bit signaling — the
// quantitative version of the paper's "CTC is too slow to coordinate"
// argument.

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "csi/csi_model.hpp"
#include "phy/medium.hpp"
#include "sim/simulator.hpp"
#include "wifi/wifi_mac.hpp"
#include "zigbee/zigbee_mac.hpp"

namespace bicord::ctc {

/// Barker-7 code used as the synchronisation preamble (AdaComm uses a
/// Barker sequence for window alignment).
inline constexpr int kBarker7[7] = {1, 1, 1, 0, 0, 1, 0};

struct ZigfiConfig {
  /// Window length; one payload bit (or preamble chip) per window.
  Duration window = Duration::from_ms(16);
  /// Payload bits per message (a minimal "channel request" datagram).
  int payload_bits = 8;
  /// ZigBee transmit power for the modulated packets.
  double tx_power_dbm = 0.0;
  /// Per-window packet payload (same role as BiCord's control packets).
  std::uint32_t packet_bytes = 120;
  /// Fraction of a window's CSI samples that must be "high" to read a 1.
  double decision_ratio = 0.25;
};

/// One-directional ZigFi-style CTC link from a ZigBee MAC to a Wi-Fi MAC's
/// CSI stream. Drives the full pipeline: preamble, payload, window-energy
/// decoding with majority decisions, retransmission on decode failure.
class ZigfiCtcLink {
 public:
  /// Called when a message decodes; the argument is the decoded byte and
  /// the end-to-end latency from transmission start.
  using MessageCallback = std::function<void(std::uint8_t, Duration)>;

  ZigfiCtcLink(zigbee::ZigbeeMac& sender, wifi::WifiMac& receiver,
               csi::CsiModelParams csi_params, ZigfiConfig config = ZigfiConfig{});

  /// Transmits one message (retries until decoded or `max_attempts`).
  void send(std::uint8_t message, int max_attempts = 5);
  void set_message_callback(MessageCallback cb) { callback_ = std::move(cb); }

  [[nodiscard]] bool busy() const { return sending_; }
  [[nodiscard]] std::uint64_t windows_transmitted() const { return windows_tx_; }
  [[nodiscard]] std::uint64_t messages_decoded() const { return decoded_; }
  [[nodiscard]] std::uint64_t attempts_used() const { return attempts_used_; }
  /// Synchronisation cost alone: preamble chips * window.
  [[nodiscard]] Duration sync_duration() const {
    return config_.window * 7;
  }

 private:
  void start_attempt();
  void send_window(std::size_t index);
  /// Sends up to `remaining` more packets back to back inside window
  /// `index`, which ends at `window_end`, then moves on to the next window.
  void fill_window(std::size_t index, TimePoint window_end, int remaining);
  [[nodiscard]] std::vector<int> frame_bits(std::uint8_t message) const;
  void decode();

  zigbee::ZigbeeMac& sender_;
  wifi::WifiMac& receiver_;
  sim::Simulator& sim_;
  ZigfiConfig config_;
  csi::CsiStream csi_;

  // Sender state.
  bool sending_ = false;
  std::uint8_t message_ = 0;
  int attempts_left_ = 0;
  std::vector<int> bits_;
  TimePoint message_start_;

  // Receiver state: per-window high-sample counts.
  std::vector<int> window_high_;
  std::vector<int> window_total_;
  TimePoint window_origin_;

  MessageCallback callback_;
  std::uint64_t windows_tx_ = 0;
  std::uint64_t decoded_ = 0;
  std::uint64_t attempts_used_ = 0;
};

struct FreeBeeConfig {
  /// Beacon interval (FreeBee piggybacks on periodic beacons).
  Duration beacon_interval = Duration::from_ms(100);
  /// Timing-shift granularity conveying one symbol.
  Duration shift_unit = Duration::from_us(576);
  /// Beacon frame payload.
  std::uint32_t beacon_bytes = 20;
  double tx_power_dbm = 0.0;
  /// Symbols (clean beacons) needed to convey one request message.
  int symbols_per_message = 5;
};

/// FreeBee-style timing-shift CTC. A beacon conveys its symbol only when it
/// does not collide with Wi-Fi activity at the receiver — the paper's
/// "only effective in the presence of a clear channel". Overlap is tracked
/// edge-exactly via a medium listener.
class FreeBeeCtcLink final : public phy::MediumListener {
 public:
  using MessageCallback = std::function<void(Duration)>;

  FreeBeeCtcLink(zigbee::ZigbeeMac& sender, wifi::WifiMac& receiver);
  FreeBeeCtcLink(zigbee::ZigbeeMac& sender, wifi::WifiMac& receiver,
                 FreeBeeConfig config);
  ~FreeBeeCtcLink();

  FreeBeeCtcLink(const FreeBeeCtcLink&) = delete;
  FreeBeeCtcLink& operator=(const FreeBeeCtcLink&) = delete;

  // phy::MediumListener — counts Wi-Fi activity overlapping a beacon.
  void on_tx_start(const phy::ActiveTransmission& tx) override;
  void on_tx_end(const phy::ActiveTransmission& tx) override;

  /// Starts conveying one message; completes after `symbols_per_message`
  /// beacons arrive clean.
  void send();
  void set_message_callback(MessageCallback cb) { callback_ = std::move(cb); }

  [[nodiscard]] bool busy() const { return sending_; }
  [[nodiscard]] std::uint64_t beacons_sent() const { return beacons_; }
  [[nodiscard]] std::uint64_t beacons_clean() const { return clean_; }

 private:
  void beacon_tick();

  zigbee::ZigbeeMac& sender_;
  wifi::WifiMac& receiver_;
  sim::Simulator& sim_;
  FreeBeeConfig config_;
  Rng rng_;

  bool sending_ = false;
  bool beacon_in_flight_ = false;
  int wifi_overlaps_ = 0;
  int symbols_received_ = 0;
  TimePoint message_start_;
  sim::Timer beacon_{sim_};

  MessageCallback callback_;
  std::uint64_t beacons_ = 0;
  std::uint64_t clean_ = 0;
};

}  // namespace bicord::ctc

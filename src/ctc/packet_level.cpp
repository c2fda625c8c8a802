#include "ctc/packet_level.hpp"

namespace bicord::ctc {

namespace {
using namespace bicord::time_literals;

constexpr double kHighThreshold = 0.45;  // same jitter classification as BiCord
constexpr int kPacketsPerOneWindow = 3;  // fill a '1' window with energy
}  // namespace

ZigfiCtcLink::ZigfiCtcLink(zigbee::ZigbeeMac& sender, wifi::WifiMac& receiver,
                           csi::CsiModelParams csi_params, ZigfiConfig config)
    : sender_(sender),
      receiver_(receiver),
      sim_(sender.simulator()),
      config_(config),
      csi_(sender.simulator(), csi_params) {
  receiver_.set_rx_hook([this](const phy::RxResult& rx) { csi_.on_frame(rx); });
  csi_.set_sample_callback([this](const csi::CsiSample& s) {
    if (!sending_) return;
    const auto idx = (s.time - window_origin_) / config_.window;
    if (idx < 0 || idx >= static_cast<std::int64_t>(window_total_.size())) return;
    ++window_total_[static_cast<std::size_t>(idx)];
    if (s.amplitude > kHighThreshold) ++window_high_[static_cast<std::size_t>(idx)];
  });
}

std::vector<int> ZigfiCtcLink::frame_bits(std::uint8_t message) const {
  std::vector<int> bits(kBarker7, kBarker7 + 7);
  for (int b = 7; b >= 0; --b) bits.push_back((message >> b) & 1);
  return bits;
}

void ZigfiCtcLink::send(std::uint8_t message, int max_attempts) {
  if (sending_) throw std::logic_error("ZigfiCtcLink::send: message in flight");
  sending_ = true;
  message_ = message;
  attempts_left_ = max_attempts;
  message_start_ = sim_.now();
  start_attempt();
}

void ZigfiCtcLink::start_attempt() {
  --attempts_left_;
  ++attempts_used_;
  bits_ = frame_bits(message_);
  window_origin_ = sim_.now();
  window_high_.assign(bits_.size(), 0);
  window_total_.assign(bits_.size(), 0);
  send_window(0);
}

void ZigfiCtcLink::send_window(std::size_t index) {
  if (index >= bits_.size()) {
    // Give the receiver the final window plus a guard, then decode.
    sim_.after(2_ms, [this] { decode(); });
    return;
  }
  ++windows_tx_;
  if (bits_[index] == 0) {
    // Silence for one window.
    sim_.after(config_.window, [this, index] { send_window(index + 1); });
    return;
  }
  // A '1' window: fill it with back-to-back packets (presence modulation).
  fill_window(index, sim_.now() + config_.window, kPacketsPerOneWindow);
}

void ZigfiCtcLink::fill_window(std::size_t index, TimePoint window_end, int remaining) {
  const Duration airtime = sender_.config().timings.data_airtime(config_.packet_bytes);
  if (remaining == 0 || sim_.now() + airtime > window_end) {
    const Duration left = window_end - sim_.now();
    sim_.after(left > Duration::zero() ? left : Duration::zero(),
               [this, index] { send_window(index + 1); });
    return;
  }
  zigbee::ZigbeeMac::SendRequest req;
  req.dst = phy::kBroadcastNode;
  req.payload_bytes = config_.packet_bytes;
  req.kind = phy::FrameKind::Control;
  req.power_dbm_override = config_.tx_power_dbm;
  sender_.send_raw(req, [this, index, window_end, remaining] {
    sim_.after(300_us, [this, index, window_end, remaining] {
      fill_window(index, window_end, remaining - 1);
    });
  });
}

void ZigfiCtcLink::decode() {
  auto read_bit = [this](std::size_t i) {
    if (window_total_[i] == 0) return 0;
    return static_cast<double>(window_high_[i]) /
                       static_cast<double>(window_total_[i]) >=
                   config_.decision_ratio
               ? 1
               : 0;
  };

  // Synchronisation: the Barker-7 preamble must correlate (>= 6/7 chips).
  int sync_matches = 0;
  for (std::size_t i = 0; i < 7; ++i) {
    if (read_bit(i) == kBarker7[i]) ++sync_matches;
  }
  std::optional<std::uint8_t> received;
  if (sync_matches >= 6) {
    std::uint8_t value = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      value = static_cast<std::uint8_t>((value << 1) | read_bit(7 + i));
    }
    received = value;
  }

  if (received.has_value() && *received == message_) {
    sending_ = false;
    ++decoded_;
    if (callback_) callback_(*received, sim_.now() - message_start_);
    return;
  }
  if (attempts_left_ > 0) {
    start_attempt();
    return;
  }
  sending_ = false;  // undelivered: caller observes no callback
}

FreeBeeCtcLink::FreeBeeCtcLink(zigbee::ZigbeeMac& sender, wifi::WifiMac& receiver)
    : FreeBeeCtcLink(sender, receiver, FreeBeeConfig{}) {}

FreeBeeCtcLink::FreeBeeCtcLink(zigbee::ZigbeeMac& sender, wifi::WifiMac& receiver,
                               FreeBeeConfig config)
    : sender_(sender),
      receiver_(receiver),
      sim_(sender.simulator()),
      config_(config),
      rng_(sender.simulator().rng().split()) {
  sender_.medium().attach(this);
}

FreeBeeCtcLink::~FreeBeeCtcLink() { sender_.medium().detach(this); }

void FreeBeeCtcLink::on_tx_start(const phy::ActiveTransmission& tx) {
  if (beacon_in_flight_ && tx.frame.tech == phy::Technology::WiFi) ++wifi_overlaps_;
}

void FreeBeeCtcLink::on_tx_end(const phy::ActiveTransmission&) {}

void FreeBeeCtcLink::send() {
  if (sending_) throw std::logic_error("FreeBeeCtcLink::send: message in flight");
  sending_ = true;
  symbols_received_ = 0;
  message_start_ = sim_.now();
  beacon_tick();
}

void FreeBeeCtcLink::beacon_tick() {
  if (!sending_) return;
  // Timing-shift modulation: the beacon is delayed by a symbol-dependent
  // number of shift units (the exact symbol value does not matter for the
  // latency analysis; the shift keeps the schedule paper-faithful).
  const Duration shift = config_.shift_unit * rng_.uniform_int(0, 3);
  beacon_.after(config_.beacon_interval + shift, [this] {
    if (!sending_) return;
    ++beacons_;

    // The receiver reads the beacon's timing only on a clear channel: any
    // Wi-Fi activity overlapping the beacon hides it (paper Sec. III-B).
    bool active_at_start = false;
    receiver_.medium().for_each_active(
        [&active_at_start](const phy::ActiveTransmission& tx) {
          if (tx.frame.tech == phy::Technology::WiFi) active_at_start = true;
        });

    zigbee::ZigbeeMac::SendRequest beacon;
    beacon.dst = phy::kBroadcastNode;
    beacon.payload_bytes = config_.beacon_bytes;
    beacon.kind = phy::FrameKind::Data;
    beacon.power_dbm_override = config_.tx_power_dbm;
    if (sender_.radio().transmitting()) {
      // Previous beacon still on air (pathological config); skip this slot.
      beacon_tick();
      return;
    }
    beacon_in_flight_ = true;
    wifi_overlaps_ = 0;
    sender_.send_raw(beacon, [this, active_at_start] {
      beacon_in_flight_ = false;
      const bool dirty = active_at_start || wifi_overlaps_ > 0;
      if (!dirty) {
        ++clean_;
        if (++symbols_received_ >= config_.symbols_per_message) {
          sending_ = false;
          if (callback_) callback_(sim_.now() - message_start_);
          return;
        }
      }
      beacon_tick();
    });
  });
}

}  // namespace bicord::ctc

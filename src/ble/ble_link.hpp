#pragma once
// Bluetooth Low Energy connection substrate (paper Sec. VII-D extension).
//
// A BLE connection exchanges master->slave and slave->master packets in
// *connection events* spaced by the connection interval, hopping over the
// 37 data channels according to an adaptive channel map. Channels can be
// excluded at runtime (adaptive frequency hopping) — which is exactly the
// lever a BiCord-style coordinator uses to clear the ZigBee band: instead
// of a time-domain white space, the BLE device leaves the *frequency*.

#include <array>
#include <cstdint>

#include "phy/medium.hpp"
#include "phy/radio.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace bicord::ble {

inline constexpr int kDataChannels = 37;

/// BLE data channel n (0..36) -> 2 MHz band. Data channels skip the three
/// advertising channels at 2402/2426/2480 MHz.
[[nodiscard]] phy::Band data_channel_band(int n);

class BleConnection {
 public:
  struct Config {
    Duration connection_interval = Duration::from_ms(15);
    /// Payload per direction per event (audio-streaming-like load).
    std::uint32_t payload_bytes = 100;
    double tx_power_dbm = 0.0;
    /// Channel-map hop increment (must be coprime with 37).
    int hop_increment = 7;
  };

  struct Stats {
    std::uint64_t events = 0;
    std::uint64_t packets_ok = 0;
    std::uint64_t packets_corrupted = 0;
    std::uint64_t events_skipped = 0;  ///< no usable channel in the map

    [[nodiscard]] double packet_success() const {
      const auto total = packets_ok + packets_corrupted;
      return total ? static_cast<double>(packets_ok) / static_cast<double>(total) : 0.0;
    }
  };

  BleConnection(phy::Medium& medium, phy::NodeId master, phy::NodeId slave,
                Config config);

  /// First connection event now, then one per interval. Idempotent.
  void start() { events_.start_now(); }
  void stop() { events_.stop(); }

  /// Adaptive frequency hopping: include/exclude a data channel. At least
  /// two channels must stay enabled; excess exclusions are refused (false).
  bool set_channel_enabled(int channel, bool enabled);
  [[nodiscard]] bool channel_enabled(int channel) const { return map_[static_cast<std::size_t>(channel)]; }
  [[nodiscard]] int enabled_channels() const;

  /// Channels whose band overlaps `band` (for coordination agents).
  [[nodiscard]] static std::vector<int> channels_overlapping(phy::Band band);

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] int current_channel() const { return channel_; }
  [[nodiscard]] phy::NodeId master() const { return master_; }

 private:
  void connection_event();
  [[nodiscard]] int next_enabled_channel();
  /// One packet master->slave or slave->master; returns its airtime.
  Duration transmit_packet(phy::NodeId from, phy::NodeId to, int channel);
  void judge_packet(phy::NodeId to, int channel, double tx_power_dbm,
                    phy::NodeId from);

  phy::Medium& medium_;
  sim::Simulator& sim_;
  phy::NodeId master_;
  phy::NodeId slave_;
  Config config_;
  Rng rng_;

  std::array<bool, kDataChannels> map_;
  int channel_ = 0;
  sim::PeriodicTask events_;
  sim::Timer reply_{sim_};  ///< the slave's reply, T_IFS after the master packet
  sim::Timer judge_{sim_};  ///< mid-packet judgement of the packet on air
  Stats stats_;
};

}  // namespace bicord::ble

#pragma once
// Bluetooth BR/EDR interferers (frequency-hopping A2DP-style streams).
//
// Needed as a *negative class* for CTI detection: a ZigBee node must not
// mistake a Bluetooth headset for Wi-Fi and start cross-technology
// signaling. Classic Bluetooth hops pseudo-randomly over 79 1 MHz channels
// at 1600 hops/s (625 us slots); an audio stream occupies a slot with some
// duty cycle and short (~400 us) packets. The resulting RSSI signature —
// short bursts, highly variable energy (most hops land outside the ZigBee
// channel), large peak-to-average ratio — is what the ZiSense features key
// on.
//
// Devices are driven by a slot clock: a BluetoothField runs one event per
// slot, and that event runs every member's slot body (occupancy draw, hop
// draw, transmission) in the order the members joined. Devices started
// together tick in lockstep, so one event reproduces the order N
// self-rescheduling devices would have, at 1/N of the event-queue traffic;
// Bluetooth is most of the dense presets' events. A standalone
// BluetoothDevice is a one-member field.

#include <cstdint>
#include <vector>

#include "phy/frame.hpp"
#include "phy/medium.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace bicord::interferers {

/// Bluetooth devices that share one slot clock and one Config. Each member
/// draws from its own stream, split from the simulator's root RNG when it
/// joins. The field starts and stops as a whole.
class BluetoothField {
 public:
  struct Config {
    double tx_power_dbm = 4.0;       ///< class 2 device
    Duration slot = Duration::from_us(625);
    Duration packet_len = Duration::from_us(410);  ///< single-slot payload
    double slot_occupancy = 0.6;     ///< fraction of slots carrying a packet
  };

  BluetoothField(phy::Medium& medium, Config config);

  BluetoothField(const BluetoothField&) = delete;
  BluetoothField& operator=(const BluetoothField&) = delete;

  /// Adds a device at `node`. On a running field its first slot runs at
  /// once; its later slots follow the field's clock.
  void add(phy::NodeId node);
  /// Runs every member's first slot at once, then one tick per slot.
  /// Idempotent.
  void start();
  /// Cancels the clock: no member transmits again until start().
  void stop();
  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] std::size_t size() const { return members_.size(); }
  /// Packets sent by all members together.
  [[nodiscard]] std::uint64_t packets_sent() const { return packets_; }

 private:
  struct Member {
    phy::NodeId node;
    Rng rng;
    std::uint64_t seq = 0;
  };

  /// One slot of every member present when the tick begins, in join order.
  void tick();
  void slot(Member& m);

  phy::Medium& medium_;
  Config config_;
  sim::PeriodicTask clock_;
  std::vector<Member> members_;
  bool running_ = false;
  std::uint64_t packets_ = 0;
};

/// One Bluetooth device on its own slot clock.
class BluetoothDevice {
 public:
  using Config = BluetoothField::Config;

  BluetoothDevice(phy::Medium& medium, phy::NodeId node, Config config = {})
      : field_(medium, config) {
    field_.add(node);
  }

  void start() { field_.start(); }
  void stop() { field_.stop(); }
  [[nodiscard]] bool running() const { return field_.running(); }
  [[nodiscard]] std::uint64_t packets_sent() const { return field_.packets_sent(); }

 private:
  BluetoothField field_;
};

}  // namespace bicord::interferers

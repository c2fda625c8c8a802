#pragma once
// Microwave-oven interferer.
//
// Domestic ovens emit broadband noise gated by the mains half-cycle: on for
// roughly half of each 20 ms period (50 Hz grid), sweeping a wide chunk of
// the 2.4 GHz band. The signature — long continuous on-times with a strict
// 20 ms periodicity and no packet structure — is the second negative class
// for CTI detection.

#include <cstdint>

#include "phy/frame.hpp"
#include "phy/medium.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace bicord::interferers {

class MicrowaveOven {
 public:
  struct Config {
    double tx_power_dbm = 30.0;  ///< strong leakage near the oven
    Duration mains_period = Duration::from_ms(20);  ///< 50 Hz
    double duty_cycle = 0.5;
    phy::Band band{2450.0, 60.0};  ///< broad emission centred mid-band
    /// Small per-cycle jitter of the on-time (magnetron warmup).
    Duration jitter = Duration::from_us(300);
  };

  MicrowaveOven(phy::Medium& medium, phy::NodeId node)
      : MicrowaveOven(medium, node, Config{}) {}
  MicrowaveOven(phy::Medium& medium, phy::NodeId node, Config config);

  /// First mains cycle now, then one per period. Idempotent.
  void start() { cycle_.start_now(); }
  void stop() { cycle_.stop(); }
  [[nodiscard]] bool running() const { return cycle_.running(); }
  [[nodiscard]] std::uint64_t cycles() const { return cycles_; }

 private:
  void cycle_tick();

  phy::Medium& medium_;
  phy::NodeId node_;
  Config config_;
  Rng rng_;
  sim::PeriodicTask cycle_;
  std::uint64_t cycles_ = 0;
};

}  // namespace bicord::interferers

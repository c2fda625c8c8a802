#pragma once
// ZigBee application traffic: bursty sensor data.
//
// The paper's workloads (Sec. VIII) are bursts of N fixed-size packets whose
// inter-burst interval follows a Poisson process around a configured mean —
// "the conventional practice in real-world ZigBee implementations" (GreenOrbs
// measurement study). Bursts are handed to the coordination agent, which
// owns queueing and channel access.

#include <cstdint>
#include <functional>

#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace bicord::zigbee {

class BurstSource {
 public:
  struct Config {
    int packets_per_burst = 5;
    std::uint32_t payload_bytes = 50;
    Duration mean_interval = Duration::from_ms(200);
    /// Exponentially distributed intervals (Poisson arrivals) when true,
    /// fixed intervals otherwise.
    bool poisson = true;
  };

  /// Called once per burst with (packet count, payload size).
  using BurstCallback = std::function<void(int, std::uint32_t)>;

  BurstSource(sim::Simulator& sim, Config config);

  void set_burst_callback(BurstCallback cb) { callback_ = std::move(cb); }
  void start();
  void stop();
  [[nodiscard]] bool running() const { return next_burst_.armed(); }
  [[nodiscard]] std::uint64_t bursts_generated() const { return bursts_; }
  [[nodiscard]] const Config& config() const { return config_; }
  /// Takes effect from the next scheduled burst.
  void set_config(Config config) { config_ = config; }

 private:
  void arm();
  void fire();

  Config config_;
  Rng rng_;
  BurstCallback callback_;
  sim::Timer next_burst_;
  std::uint64_t bursts_ = 0;
};

}  // namespace bicord::zigbee

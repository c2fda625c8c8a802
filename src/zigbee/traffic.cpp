#include "zigbee/traffic.hpp"

namespace bicord::zigbee {

BurstSource::BurstSource(sim::Simulator& sim, Config config)
    : config_(config), rng_(sim.rng().split()), next_burst_(sim) {}

void BurstSource::start() { arm(); }

void BurstSource::stop() { next_burst_.cancel(); }

void BurstSource::arm() {
  const Duration wait = config_.poisson ? rng_.exp_duration(config_.mean_interval)
                                        : config_.mean_interval;
  next_burst_.after(wait, [this] { fire(); });
}

void BurstSource::fire() {
  ++bursts_;
  if (callback_) callback_(config_.packets_per_burst, config_.payload_bytes);
  arm();
}

}  // namespace bicord::zigbee

#include "interferers/microwave.hpp"

namespace bicord::interferers {

MicrowaveOven::MicrowaveOven(phy::Medium& medium, phy::NodeId node, Config config)
    : medium_(medium),
      node_(node),
      config_(config),
      rng_(medium.simulator().rng().split()),
      cycle_(medium.simulator(), config_.mains_period, [this] { cycle_tick(); }) {}

void MicrowaveOven::cycle_tick() {
  ++cycles_;
  const Duration nominal_on =
      Duration::from_sec_f(config_.mains_period.sec() * config_.duty_cycle);
  const Duration jitter = Duration::from_us(
      rng_.uniform_int(-config_.jitter.us(), config_.jitter.us()));
  Duration on = nominal_on + jitter;
  if (on <= Duration::zero()) on = Duration::from_us(100);

  phy::Frame frame;
  frame.tech = phy::Technology::Microwave;
  frame.kind = phy::FrameKind::Noise;
  frame.src = node_;
  frame.dst = phy::kBroadcastNode;
  frame.seq = cycles_;
  medium_.begin_tx(frame, config_.band, config_.tx_power_dbm, on);
}

}  // namespace bicord::interferers

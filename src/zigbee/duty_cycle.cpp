#include "zigbee/duty_cycle.hpp"

namespace bicord::zigbee {

DutyCycler::DutyCycler(ZigbeeMac& mac, Config config)
    : mac_(mac), config_(config), timer_(mac.simulator()) {
  arm();
}

bool DutyCycler::sleeping() const {
  return mac_.radio().state() == phy::RadioState::Sleep;
}

void DutyCycler::wake() {
  mac_.radio().wake();
  arm();
}

void DutyCycler::activity() { arm(); }

void DutyCycler::arm() { timer_.after(config_.idle_timeout, [this] { maybe_sleep(); }); }

void DutyCycler::maybe_sleep() {
  auto& radio = mac_.radio();
  // Only sleep when the MAC is genuinely quiet: nothing queued, nothing in
  // flight (including CSMA attempts and ACK waits), no reception locked.
  const bool externally_busy = busy_hook_ && busy_hook_();
  if (!externally_busy && !mac_.busy() && !radio.receiving() &&
      radio.state() == phy::RadioState::Idle) {
    radio.sleep();
    ++sleeps_;
    return;
  }
  arm();  // busy: check again later
}

}  // namespace bicord::zigbee

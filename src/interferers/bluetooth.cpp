#include "interferers/bluetooth.hpp"

#include "phy/spectrum.hpp"

namespace bicord::interferers {

BluetoothField::BluetoothField(phy::Medium& medium, Config config)
    : medium_(medium),
      config_(config),
      clock_(medium.simulator(), config.slot, [this] { tick(); }) {}

void BluetoothField::add(phy::NodeId node) {
  members_.push_back(Member{node, medium_.simulator().rng().split()});
  if (running_) slot(members_.back());
}

void BluetoothField::start() {
  if (running_) return;
  running_ = true;
  tick();
  // The clock re-arms after each tick returns, exactly where a device that
  // reschedules itself at the end of its slot would queue its next one.
  if (running_) clock_.start();
}

void BluetoothField::stop() {
  running_ = false;
  clock_.stop();
}

void BluetoothField::tick() {
  // Indexed, and bounded at the size on entry: listener code runs inside
  // each slot and may stop the field or add a member.
  const std::size_t n = members_.size();
  for (std::size_t i = 0; i < n && running_; ++i) slot(members_[i]);
}

void BluetoothField::slot(Member& m) {
  if (!m.rng.bernoulli(config_.slot_occupancy)) return;
  // Pseudo-random hop over the 79 BR/EDR channels.
  const int hop = static_cast<int>(m.rng.uniform_int(0, 78));
  phy::Frame frame;
  frame.tech = phy::Technology::Bluetooth;
  frame.kind = phy::FrameKind::Data;
  frame.src = m.node;
  frame.dst = phy::kBroadcastNode;
  frame.bytes = 54;
  frame.seq = m.seq++;
  // `m` is not touched past this call: an add() from listener code may
  // reallocate members_.
  medium_.begin_tx(frame, phy::bluetooth_channel(hop), config_.tx_power_dbm,
                   config_.packet_len);
  ++packets_;
}

}  // namespace bicord::interferers

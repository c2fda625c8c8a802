#include "core/zigbee_agent.hpp"

#include <utility>

namespace bicord::core {

ZigbeeAgentBase::ZigbeeAgentBase(std::unique_ptr<RequesterMac> mac,
                                 phy::NodeId receiver)
    : mac_(std::move(mac)), sim_(mac_->simulator()), receiver_(receiver) {
  mac_->set_data_outcome_callback([this](const DataOutcome& outcome) {
    pumping_ = false;
    on_head_outcome(outcome);
  });
}

void ZigbeeAgentBase::submit_burst(int count, std::uint32_t payload_bytes) {
  const TimePoint now = sim_.now();
  for (int i = 0; i < count; ++i) {
    if (queue_.size() < kMaxBacklog) queue_.push_back(Pending{payload_bytes, now, 0});
    ++stats_.generated;
  }
  kick();
}

void ZigbeeAgentBase::pump_head(double power_dbm_override) {
  if (pumping_ || queue_.empty()) return;
  mac_->wake_radio();  // no-op unless a duty cycler put the radio to sleep
  pumping_ = true;
  mac_->send_data(receiver_, queue_.front().payload_bytes, power_dbm_override);
}

void ZigbeeAgentBase::on_head_outcome(const DataOutcome& outcome) {
  if (queue_.empty()) return;  // defensive: stray outcome
  Pending& head = queue_.front();
  if (outcome.delivered) {
    stats_.delay_ms.add((outcome.completed - head.arrival).ms());
    ++stats_.delivered;
    stats_.payload_bytes_delivered += head.payload_bytes;
    queue_.pop_front();
    if (inter_packet_gap_ > Duration::zero()) {
      sim_.after(inter_packet_gap_, [this] { kick(); });
      return;
    }
  } else {
    if (++head.attempts >= max_attempts_) {
      ++stats_.dropped;
      queue_.pop_front();
    }
  }
  kick();
}

}  // namespace bicord::core

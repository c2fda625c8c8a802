#include "zigbee/tsch.hpp"

namespace bicord::zigbee {

TschHopSchedule::TschHopSchedule(sim::Simulator& sim, Config config)
    : config_(std::move(config)), clock_(sim, config_.hop_period, [this] { hop_tick(); }) {
  if (config_.channels.empty()) config_.channels = {21, 22, 23, 24};
}

void TschHopSchedule::add_radio(phy::Radio& radio) {
  radios_.push_back(&radio);
  radio.retune(phy::zigbee_channel(current_channel()));
}

int TschHopSchedule::current_channel() const {
  return config_.channels[hops_ % config_.channels.size()];
}

void TschHopSchedule::hop_tick() {
  ++hops_;
  const phy::Band band = phy::zigbee_channel(current_channel());
  // Lockstep retune: a frame already on the air keeps its original band on
  // the medium; a receiver retuned mid-reception loses the lock — exactly
  // the slot-boundary truncation a real TSCH link suffers, and the reason
  // the grantor's lease (not a resume notification) ends the grant.
  for (phy::Radio* r : radios_) r->retune(band);
}

TschRequester::TschRequester(std::unique_ptr<core::RequesterMac> mac,
                             phy::NodeId receiver, Config config)
    : ZigbeeAgentBase(std::move(mac), receiver),
      config_(config),
      engine_(*mac_, core::RequesterEngine::Config{config.signaling,
                                                   config.backoff_jitter,
                                                   /*give_up_after_ignored=*/0}) {
  max_attempts_ = 50;  // reliability first, like the BiCord requester
  engine_.set_backoff_resume([this] {
    if (state_ == State::Backoff) state_ = State::Idle;
    kick();
  });
}

void TschRequester::kick() {
  if (queue_empty()) {
    if (state_ == State::Draining) state_ = State::Idle;
    return;
  }
  if (state_ == State::Signaling || state_ == State::Backoff || pumping()) return;
  if (!mac_->channel_busy()) {
    // Optimistic probe: the current hop channel reads idle (white space, or
    // a hop that cleared the interferer). The ACK confirms the grant.
    state_ = State::Draining;
    pump_head(config_.data_power_dbm);
    return;
  }
  state_ = State::Signaling;
  engine_.begin_round();
  signal_step();
}

void TschRequester::signal_step() {
  if (queue_empty()) {
    state_ = State::Idle;
    return;
  }
  if (pumping()) return;  // a data probe is in flight; its outcome resumes us
  if (engine_.round_exhausted()) {
    const auto ignored = engine_.round_ignored();
    state_ = State::Backoff;
    engine_.schedule_backoff(ignored.backoff);
    return;
  }
  engine_.send_control(config_.signaling_power_dbm, [this] { gap_poll(0); });
}

void TschRequester::gap_poll(int idle_streak) {
  if (state_ != State::Signaling || pumping()) return;
  if (mac_->channel_busy()) {
    // Still occupied on this hop channel: next control packet after the gap.
    sim_.after(engine_.timer_jittered(config_.signaling.control_gap),
               [this] { signal_step(); });
    return;
  }
  if (idle_streak + 1 >= config_.idle_polls_to_probe) {
    pump_head(config_.data_power_dbm);
    return;
  }
  sim_.after(engine_.timer_jittered(config_.poll_gap),
             [this, idle_streak] { gap_poll(idle_streak + 1); });
}

void TschRequester::on_head_outcome(const core::DataOutcome& outcome) {
  const bool was_signaling = state_ == State::Signaling;
  if (outcome.delivered) {
    engine_.reset_streaks();
    state_ = State::Draining;
  } else if (!was_signaling) {
    state_ = State::Idle;
  }
  ZigbeeAgentBase::on_head_outcome(outcome);  // accounting + kick()
  if (was_signaling && !outcome.delivered && state_ == State::Signaling) {
    signal_step();
  }
}

}  // namespace bicord::zigbee

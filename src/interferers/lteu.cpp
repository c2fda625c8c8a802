#include "interferers/lteu.hpp"

namespace bicord::interferers {

LteUDevice::Config::Config() : band(phy::wifi_channel(11)) {}

LteUDevice::LteUDevice(phy::Medium& medium, phy::NodeId node, Config config)
    : medium_(medium),
      sim_(medium.simulator()),
      node_(node),
      config_(config),
      cycle_(sim_, config_.period, [this] { cycle_tick(); }) {}

void LteUDevice::suppress_for(Duration d) {
  const TimePoint until = sim_.now() + d;
  if (until > suppress_until_) suppress_until_ = until;
}

bool LteUDevice::suppressed() const { return sim_.now() < suppress_until_; }

Duration LteUDevice::on_duration() const {
  return Duration::from_sec_f(config_.period.sec() * config_.duty);
}

void LteUDevice::cycle_tick() {
  if (suppressed()) {
    ++suppressed_cycles_;
  } else {
    Duration on = on_duration();
    if (on > config_.period) on = config_.period;
    if (on > Duration::zero()) {
      phy::Frame frame;
      frame.tech = phy::Technology::LteU;
      frame.kind = phy::FrameKind::Noise;
      frame.src = node_;
      frame.dst = phy::kBroadcastNode;
      frame.seq = ++seq_;
      medium_.begin_tx(frame, config_.band, config_.tx_power_dbm, on);
      ++bursts_;
    }
  }
}

namespace {
phy::Radio::Config sniffer_config(int zigbee_channel) {
  phy::Radio::Config rc;
  // The sniffer locks onto 802.15.4 bursts to time their energy envelope;
  // Technology::ZigBee here means "can track the burst", not "can decode
  // it" — the matcher below never reads a payload-dependent field.
  rc.tech = phy::Technology::ZigBee;
  rc.band = phy::zigbee_channel(zigbee_channel);
  rc.sensitivity_dbm = -88.0;  // an envelope detector, not a demodulator
  rc.sinr_threshold_db = 5.0;
  rc.sinr_width_db = 1.5;
  rc.fading_sigma_db = 1.5;
  return rc;
}
}  // namespace

LteUGrantor::LteUGrantor(phy::Medium& medium, phy::NodeId node, LteUDevice& device,
                         Config config)
    : sim_(medium.simulator()),
      device_(device),
      config_(config),
      engine_(medium.simulator(), core::kLteUTraits, config.allocator,
              config.grant_history_capacity),
      sniffer_(medium, node, sniffer_config(config.zigbee_channel)) {
  // Lease expiry = duty cycle resumes on its own (suppress_for already
  // bounded the suppression by the same clock); nothing to un-protect, but
  // the hook keeps the release path explicit and observable in logs/tests.
  engine_.set_release_hook([] {});
  sniffer_.set_rx_callback([this](const phy::RxResult& rx) { on_sniff(rx); });
}

void LteUGrantor::on_sniff(const phy::RxResult& rx) {
  // Energy-envelope matching only: duration within tolerance of the control
  // packet's airtime, at a plausible power. rx.success and rx.frame.kind are
  // intentionally not consulted — the eNB cannot demodulate 802.15.4, so a
  // corrupted control packet is as good a request as a clean one.
  const Duration airtime = rx.end - rx.start;
  const Duration delta = airtime > config_.control_airtime
                             ? airtime - config_.control_airtime
                             : config_.control_airtime - airtime;
  if (delta > config_.airtime_tolerance) return;
  if (rx.rssi_dbm < config_.min_rssi_dbm) return;

  const auto grant = engine_.on_request(sim_.now());
  if (!grant.has_value()) return;  // absorbed into the running lease
  const Duration lease = *grant + config_.grant_margin;
  // Single-grantor carrier (one eNB owns the duty cycle; no election to
  // shadow), so issuing the lease here is the sanctioned path.
  // bicord-lint: allow(grant-issue-outside-engine)
  engine_.begin_lease(sim_.now(), lease);
  device_.suppress_for(lease);
  engine_.arm_lease_expiry();  // bicord-lint: allow(grant-issue-outside-engine)
}

}  // namespace bicord::interferers

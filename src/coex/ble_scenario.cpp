#include "coex/ble_scenario.hpp"

#include <utility>

namespace bicord::coex {

// Construction order matches the original bench_ext_ble topology exactly:
// BLE pairs first (nodes m/s per link, connection started immediately), then
// the ZigBee endpoints, then the coordination agents, then the workload.
// Reordering would change node ids and Rng::split streams and break the
// bitwise determinism goldens.
BleScenario::BleScenario(ScenarioConfig config) : config_(std::move(config)) {
  const BleClusterSpec& cluster = config_.ble;
  sim_ = std::make_unique<sim::Simulator>(config_.seed);
  medium_ = std::make_unique<phy::Medium>(*sim_, config_.path_loss, config_.medium);

  for (int i = 0; i < cluster.links; ++i) {
    const auto m = medium_->add_node("ble-m", {0.4 * i, 0.2});
    const auto s = medium_->add_node("ble-s", {0.4 * i, 1.4});
    ble::BleConnection::Config cfg;
    cfg.connection_interval = cluster.connection_interval;
    cfg.payload_bytes = cluster.payload_bytes;
    cfg.tx_power_dbm = cluster.tx_power_dbm;
    cfg.hop_increment = 7 + 2 * (i % 5);  // coprime with 37 for i % 5 in 0..4
    links_.push_back(std::make_unique<ble::BleConnection>(*medium_, m, s, cfg));
    links_.back()->start();
  }

  const auto zb_tx = medium_->add_node("zb-tx", {0.9, 0.7});  // inside the BLE cluster
  const auto zb_rx = medium_->add_node("zb-rx", {2.3, 2.3});
  zigbee::ZigbeeMac::Config zc;
  zc.channel = cluster.zigbee_channel;
  zc.retry_limit = 1;
  zigbee_sender_mac_ = std::make_unique<zigbee::ZigbeeMac>(*medium_, zb_tx, zc);
  zigbee_receiver_mac_ = std::make_unique<zigbee::ZigbeeMac>(*medium_, zb_rx, zc);

  if (cluster.coordinate) {
    for (auto& l : links_) {
      agents_.push_back(std::make_unique<ble::BleBiCordAgent>(
          *medium_, *l, ble::BleBiCordAgent::Config{}));
    }
  }

  zigbee_agent_ = std::make_unique<ble::BleAwareZigbeeAgent>(
      *zigbee_sender_mac_, zb_rx, ble::BleAwareZigbeeAgent::Config{});
  burst_source_ = std::make_unique<zigbee::BurstSource>(*sim_, config_.burst);
  burst_source_->set_burst_callback([this](int n, std::uint32_t payload) {
    zigbee_agent_->submit_burst(n, payload);
  });
  burst_source_->start();
}

void BleScenario::run_for(Duration d) { sim_->run_for(d); }

BleScenario::Report BleScenario::report() const {
  Report r;
  const auto& stats = zigbee_agent_->stats();
  r.zb_delivery = stats.delivery_ratio();
  r.zb_delay_ms = stats.delay_ms.empty() ? 0.0 : stats.delay_ms.mean();
  // On-air data transmissions per delivered packet (MAC retries included).
  const auto data_frames =
      zigbee_sender_mac_->radio().frames_sent() - zigbee_agent_->control_packets_sent();
  r.zb_attempt_overhead = stats.delivered
                              ? static_cast<double>(data_frames) /
                                    static_cast<double>(stats.delivered)
                              : 0.0;
  double ble_ok = 0.0;
  double ble_total = 0.0;
  for (const auto& l : links_) {
    ble_ok += static_cast<double>(l->stats().packets_ok);
    ble_total += static_cast<double>(l->stats().packets_ok + l->stats().packets_corrupted);
  }
  r.ble_success = ble_total > 0.0 ? ble_ok / ble_total : 0.0;
  for (const auto& a : agents_) r.leases += a->leases_granted();
  r.controls = zigbee_agent_->control_packets_sent();
  return r;
}

}  // namespace bicord::coex

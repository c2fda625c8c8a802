#pragma once
// The Sec. VII-D extension testbed in a box: a ZigBee link inside a cluster
// of aggressive BLE connections, optionally coordinated by BiCord-for-BLE.
//
// Mirrors coex::Scenario for the ZigBee/BLE technology pair: several BLE
// audio-like links hop across the 2.4 GHz band around one ZigBee link; with
// coordination enabled each BLE master runs a BleBiCordAgent (cross-decoding
// receiver + spectral leases) and the ZigBee sender a BleAwareZigbeeAgent.
// Built from a `topology = ble` spec's ScenarioConfig, it reads only `seed`,
// `burst`, `path_loss`, `medium` and `ble`. It has no Wi-Fi testbed, so it
// stays a class of its own. The bench, the golden determinism test and the
// spec fuzzer share this one topology (construction order — and therefore
// RNG/event scheduling — is part of the contract).

#include <cstdint>
#include <memory>
#include <vector>

#include "ble/ble_bicord.hpp"
#include "ble/ble_link.hpp"
#include "ble/ble_zigbee_agent.hpp"
#include "coex/scenario.hpp"
#include "phy/medium.hpp"
#include "sim/simulator.hpp"
#include "zigbee/traffic.hpp"
#include "zigbee/zigbee_mac.hpp"

namespace bicord::coex {

class BleScenario {
 public:
  explicit BleScenario(ScenarioConfig config);

  BleScenario(const BleScenario&) = delete;
  BleScenario& operator=(const BleScenario&) = delete;

  void run_for(Duration d);

  /// Headline metrics matching bench_ext_ble's report columns.
  struct Report {
    double zb_delivery = 0.0;
    double zb_delay_ms = 0.0;
    double zb_attempt_overhead = 0.0;  ///< MAC attempts per delivered packet
    double ble_success = 0.0;
    std::uint64_t leases = 0;
    std::uint64_t controls = 0;
  };
  [[nodiscard]] Report report() const;

  // --- components -----------------------------------------------------------
  [[nodiscard]] sim::Simulator& simulator() { return *sim_; }
  [[nodiscard]] phy::Medium& medium() { return *medium_; }
  [[nodiscard]] ble::BleAwareZigbeeAgent& zigbee_agent() { return *zigbee_agent_; }
  [[nodiscard]] const std::vector<std::unique_ptr<ble::BleConnection>>& ble_links() const {
    return links_;
  }
  [[nodiscard]] const std::vector<std::unique_ptr<ble::BleBiCordAgent>>& ble_agents() const {
    return agents_;
  }

 private:
  ScenarioConfig config_;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<phy::Medium> medium_;
  std::vector<std::unique_ptr<ble::BleConnection>> links_;
  std::unique_ptr<zigbee::ZigbeeMac> zigbee_sender_mac_;
  std::unique_ptr<zigbee::ZigbeeMac> zigbee_receiver_mac_;
  std::vector<std::unique_ptr<ble::BleBiCordAgent>> agents_;
  std::unique_ptr<ble::BleAwareZigbeeAgent> zigbee_agent_;
  std::unique_ptr<zigbee::BurstSource> burst_source_;
};

}  // namespace bicord::coex

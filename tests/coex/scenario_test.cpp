#include "coex/scenario.hpp"

#include <gtest/gtest.h>

namespace bicord::coex {
namespace {

using namespace bicord::time_literals;

ScenarioConfig config_for(Coordination scheme, std::uint64_t seed = 5) {
  ScenarioConfig cfg;
  cfg.seed = seed;
  cfg.coordination = scheme;
  cfg.burst.packets_per_burst = 5;
  cfg.burst.payload_bytes = 50;
  cfg.burst.mean_interval = 200_ms;
  return cfg;
}

TEST(ScenarioTest, TopologyMatchesFig6) {
  Scenario sc(config_for(Coordination::BiCord));
  auto& medium = sc.medium();
  // E and F are 3 m apart.
  EXPECT_NEAR(phy::distance(medium.position(sc.wifi_sender().node()),
                            medium.position(sc.wifi_receiver().node())),
              3.0, 1e-9);
  // The ZigBee link is 1-5 m.
  const double d = phy::distance(medium.position(sc.zigbee_sender().node()),
                                 medium.position(sc.zigbee_receiver().node()));
  EXPECT_GE(d, 1.0);
  EXPECT_LE(d, 5.0);
}

TEST(ScenarioTest, LocationDefaultsMatchPaperFootnote) {
  EXPECT_DOUBLE_EQ(default_signaling_power_dbm(ZigbeeLocation::A), 0.0);
  EXPECT_DOUBLE_EQ(default_signaling_power_dbm(ZigbeeLocation::B), 0.0);
  EXPECT_DOUBLE_EQ(default_signaling_power_dbm(ZigbeeLocation::C), -1.0);
  EXPECT_DOUBLE_EQ(default_signaling_power_dbm(ZigbeeLocation::D), -3.0);
}

TEST(ScenarioTest, LocationsAreDistinct) {
  const auto a = location_position(ZigbeeLocation::A);
  const auto b = location_position(ZigbeeLocation::B);
  const auto c = location_position(ZigbeeLocation::C);
  const auto d = location_position(ZigbeeLocation::D);
  EXPECT_GT(phy::distance(a, b), 0.5);
  EXPECT_GT(phy::distance(a, c), 0.5);
  EXPECT_GT(phy::distance(c, d), 0.3);
  // D is the closest to the Wi-Fi sender at the origin.
  EXPECT_LT(phy::distance(d, {0.0, 0.0}), phy::distance(a, {0.0, 0.0}));
  EXPECT_LT(phy::distance(d, {0.0, 0.0}), phy::distance(b, {0.0, 0.0}));
}

TEST(ScenarioTest, BiCordBeatsEccOnUtilization) {
  double bicord_util = 0.0;
  double ecc_util = 0.0;
  {
    Scenario sc(config_for(Coordination::BiCord));
    sc.run_for(1_sec);
    sc.start_measurement();
    sc.run_for(8_sec);
    bicord_util = sc.utilization().total;
  }
  {
    auto cfg = config_for(Coordination::Ecc);
    cfg.ecc.whitespace = 40_ms;
    Scenario sc(cfg);
    sc.run_for(1_sec);
    sc.start_measurement();
    sc.run_for(8_sec);
    ecc_util = sc.utilization().total;
  }
  EXPECT_GT(bicord_util, 0.7);
  EXPECT_GT(bicord_util, ecc_util);
}

TEST(ScenarioTest, BiCordBeatsEccOnDelay) {
  auto run_delay = [](Coordination c) {
    Scenario sc(config_for(c));
    sc.run_for(6_sec);
    return sc.zigbee_stats().delay_ms.mean();
  };
  const double bicord = run_delay(Coordination::BiCord);
  const double ecc = run_delay(Coordination::Ecc);
  EXPECT_LT(bicord, ecc / 2.0);
}

TEST(ScenarioTest, UtilizationReportConsistent) {
  Scenario sc(config_for(Coordination::BiCord));
  sc.run_for(1_sec);
  sc.start_measurement();
  sc.run_for(4_sec);
  const auto u = sc.utilization();
  EXPECT_NEAR(u.total, u.wifi + u.zigbee, 1e-12);
  EXPECT_GT(u.wifi, 0.0);
  EXPECT_GT(u.zigbee, 0.0);
  EXPECT_LT(u.total, 1.0);
}

TEST(ScenarioTest, GoodputMatchesDeliveredBytes) {
  Scenario sc(config_for(Coordination::BiCord));
  sc.start_measurement();
  sc.run_for(5_sec);
  const double expected =
      static_cast<double>(sc.zigbee_stats().payload_bytes_delivered) * 8.0 / 1000.0 /
      5.0;
  EXPECT_NEAR(sc.zigbee_goodput_kbps(), expected, 1e-9);
}

TEST(ScenarioTest, WifiDeliveryHealthy) {
  Scenario sc(config_for(Coordination::BiCord));
  sc.run_for(5_sec);
  EXPECT_GT(sc.wifi_delivery_ratio(), 0.95);
  EXPECT_GT(sc.wifi_delay_ms(0).count(), 100u);
}

TEST(ScenarioTest, WifiDeliveryRatioCountsQueueCapDiscards) {
  // A 1 us CBR interval offers far more than the channel drains: the
  // sender's queue fills to WifiMac::kMaxQueue and turns the rest away. Those
  // frames were offered and never delivered, so the ratio must count them.
  auto cfg = config_for(Coordination::BiCord);
  cfg.wifi_traffic = WifiTrafficKind::Cbr;
  cfg.wifi_cbr_interval = Duration::from_us(1);
  Scenario sc(cfg);
  sc.run_for(Duration::from_ms(100));
  EXPECT_GT(sc.wifi_sender().discarded(), 80'000u);
  EXPECT_GT(sc.wifi_delivery_ratio(), 0.0);
  EXPECT_LT(sc.wifi_delivery_ratio(), 0.01);
}

TEST(ScenarioTest, PersonMobilityStillWorks) {
  auto cfg = config_for(Coordination::BiCord);
  cfg.person_mobility = true;
  Scenario sc(cfg);
  sc.run_for(1_sec);
  sc.start_measurement();
  sc.run_for(6_sec);
  EXPECT_GT(sc.zigbee_stats().delivery_ratio(), 0.9);
  EXPECT_GT(sc.utilization().total, 0.55);
}

TEST(ScenarioTest, DeviceMobilityStillWorks) {
  auto cfg = config_for(Coordination::BiCord);
  cfg.device_mobility = true;
  Scenario sc(cfg);
  sc.run_for(1_sec);
  sc.start_measurement();
  sc.run_for(6_sec);
  EXPECT_GT(sc.zigbee_stats().delivery_ratio(), 0.85);
}

TEST(ScenarioTest, DeviceMobilityMovesTheSender) {
  auto cfg = config_for(Coordination::BiCord);
  cfg.device_mobility = true;
  cfg.device_move_period = 100_ms;
  Scenario sc(cfg);
  const auto before = sc.medium().position(sc.zigbee_sender().node());
  sc.run_for(1_sec);
  const auto after = sc.medium().position(sc.zigbee_sender().node());
  EXPECT_GT(phy::distance(before, after), 0.0);
  EXPECT_LT(phy::distance(location_position(cfg.location), after), 1.0);
}

TEST(ScenarioTest, OverloadedZigbeeBacklogIsCapped) {
  // 10,000 packets every microsecond: the queue stops at kMaxBacklog and the
  // rest are generated but discarded, instead of exhausting memory.
  auto cfg = config_for(Coordination::BiCord);
  cfg.burst.packets_per_burst = 10'000;
  cfg.burst.mean_interval = Duration::from_us(1);
  cfg.burst.poisson = false;
  Scenario sc(cfg);
  sc.run_for(Duration::from_us(50));
  EXPECT_EQ(sc.zigbee_agent().backlog(), core::ZigbeeAgentBase::kMaxBacklog);
  EXPECT_GT(sc.zigbee_stats().generated, 4 * core::ZigbeeAgentBase::kMaxBacklog);
}

TEST(ScenarioTest, PriorityTrafficPolicyIgnoresDuringVideo) {
  // TSCH runs the same grantor stack, so it must carry the same policy.
  for (const Coordination coordination : {Coordination::BiCord, Coordination::Tsch}) {
    SCOPED_TRACE(to_string(coordination));
    auto cfg = config_for(coordination);
    cfg.wifi_traffic = WifiTrafficKind::Priority;
    cfg.wifi_high_share = 0.5;
    Scenario sc(cfg);
    sc.run_for(8_sec);
    EXPECT_GT(sc.bicord_wifi()->requests_ignored(), 0u);
    EXPECT_GT(sc.bicord_wifi()->whitespaces_granted(), 0u);
    // High-priority Wi-Fi frames keep flowing.
    EXPECT_GT(sc.wifi_delay_ms(1).count(), 50u);
  }
}

TEST(ScenarioTest, DeterministicForSameSeed) {
  auto run = [](std::uint64_t seed) {
    Scenario sc(config_for(Coordination::BiCord, seed));
    sc.run_for(3_sec);
    return sc.zigbee_stats().delivered;
  };
  EXPECT_EQ(run(123), run(123));
}

TEST(ScenarioTest, SeedChangesOutcome) {
  auto run = [](std::uint64_t seed) {
    Scenario sc(config_for(Coordination::BiCord, seed));
    sc.run_for(3_sec);
    return sc.zigbee_stats().delay_ms.mean();
  };
  EXPECT_NE(run(123), run(321));
}

TEST(ScenarioTest, ToStringHelpers) {
  EXPECT_STREQ(to_string(Coordination::BiCord), "BiCord");
  EXPECT_STREQ(to_string(Coordination::Ecc), "ECC");
  EXPECT_STREQ(to_string(Coordination::Csma), "CSMA");
  EXPECT_STREQ(to_string(ZigbeeLocation::A), "A");
  EXPECT_STREQ(to_string(ZigbeeLocation::D), "D");
}

}  // namespace
}  // namespace bicord::coex

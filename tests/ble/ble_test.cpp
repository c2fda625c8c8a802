#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "ble/ble_bicord.hpp"
#include "ble/ble_link.hpp"
#include "ble/ble_zigbee_agent.hpp"
#include "phy/spectrum.hpp"
#include "sim/simulator.hpp"
#include "zigbee/traffic.hpp"
#include "zigbee/zigbee_mac.hpp"

namespace bicord::ble {
namespace {

using namespace bicord::time_literals;

TEST(BleChannelsTest, DataChannelBandsSkipAdvertising) {
  EXPECT_DOUBLE_EQ(data_channel_band(0).center_mhz, 2404.0);
  EXPECT_DOUBLE_EQ(data_channel_band(10).center_mhz, 2424.0);
  EXPECT_DOUBLE_EQ(data_channel_band(11).center_mhz, 2428.0);
  EXPECT_DOUBLE_EQ(data_channel_band(36).center_mhz, 2478.0);
  EXPECT_THROW((void)data_channel_band(-1), std::invalid_argument);
  EXPECT_THROW((void)data_channel_band(37), std::invalid_argument);
}

TEST(BleChannelsTest, OverlapWithZigbeeChannel24) {
  // ZigBee ch 24 = 2470 MHz / 2 MHz: BLE data channels at 2468/2470/2472.
  const auto hits = BleConnection::channels_overlapping(phy::zigbee_channel(24));
  EXPECT_GE(hits.size(), 1u);
  EXPECT_LE(hits.size(), 3u);
  for (int c : hits) {
    EXPECT_GT(phy::overlap_mhz(data_channel_band(c), phy::zigbee_channel(24)), 0.0);
  }
}

struct BleFixture : ::testing::Test {
  BleFixture() : sim(81), medium(sim, phy::PathLossModel{40.0, 3.0, 0.0, 0.1}) {
    master = medium.add_node("ble-master", {0.0, 0.0});
    slave = medium.add_node("ble-slave", {1.0, 0.0});
  }
  sim::Simulator sim;
  phy::Medium medium;
  phy::NodeId master{};
  phy::NodeId slave{};
};

TEST_F(BleFixture, ConnectionEventsAtInterval) {
  BleConnection::Config cfg;
  cfg.connection_interval = 15_ms;
  BleConnection link(medium, master, slave, cfg);
  link.start();
  sim.run_for(1_sec);
  EXPECT_NEAR(static_cast<double>(link.stats().events), 66.0, 2.0);
  // Clean air: essentially all packets succeed.
  EXPECT_GT(link.stats().packet_success(), 0.98);
  link.stop();
}

TEST_F(BleFixture, HopCoversAllChannels) {
  BleConnection link(medium, master, slave, BleConnection::Config{});
  link.start();
  std::array<int, kDataChannels> seen{};
  for (int i = 0; i < 200; ++i) {
    sim.run_for(15_ms);
    ++seen[static_cast<std::size_t>(link.current_channel())];
  }
  int covered = 0;
  for (int n : seen) covered += n > 0 ? 1 : 0;
  EXPECT_GE(covered, 30);  // hop increment 7 covers all 37 over time
  link.stop();
}

TEST_F(BleFixture, ChannelExclusionRespected) {
  BleConnection link(medium, master, slave, BleConnection::Config{});
  EXPECT_TRUE(link.set_channel_enabled(5, false));
  EXPECT_FALSE(link.channel_enabled(5));
  EXPECT_EQ(link.enabled_channels(), 36);
  link.start();
  for (int i = 0; i < 300; ++i) {
    sim.run_for(15_ms);
    EXPECT_NE(link.current_channel(), 5);
  }
  link.stop();
  EXPECT_TRUE(link.set_channel_enabled(5, true));
  EXPECT_THROW(link.set_channel_enabled(37, false), std::invalid_argument);
}

TEST_F(BleFixture, CannotDisableBelowTwoChannels) {
  BleConnection link(medium, master, slave, BleConnection::Config{});
  int disabled = 0;
  for (int c = 0; c < kDataChannels; ++c) {
    if (link.set_channel_enabled(c, false)) ++disabled;
  }
  EXPECT_EQ(disabled, kDataChannels - 2);
  EXPECT_EQ(link.enabled_channels(), 2);
}

TEST_F(BleFixture, RejectsBadHopIncrement) {
  BleConnection::Config cfg;
  cfg.hop_increment = 37;  // not coprime
  EXPECT_THROW(BleConnection(medium, master, slave, cfg), std::invalid_argument);
}

TEST_F(BleFixture, DestroyingARunningLinkCancelsItsEvents) {
  auto link = std::make_unique<BleConnection>(medium, master, slave,
                                              BleConnection::Config{});
  link->start();
  sim.run_for(5_ms);  // the first event's packets are done; the next is queued
  const auto pending = sim.pending_events();
  link.reset();
  EXPECT_EQ(sim.pending_events(), pending - 1);
}

/// Stops the link from inside its first packet's start edge, i.e. during the
/// link's own connection event.
struct StopOnFirstPacket final : phy::MediumListener {
  BleConnection* link = nullptr;
  void on_tx_start(const phy::ActiveTransmission&) override {
    if (link != nullptr) std::exchange(link, nullptr)->stop();
  }
  void on_tx_end(const phy::ActiveTransmission&) override {}
};

TEST_F(BleFixture, StopInsideTheFirstEventThenRestartRunsOneChain) {
  BleConnection::Config cfg;
  cfg.connection_interval = 15_ms;
  BleConnection link(medium, master, slave, cfg);
  StopOnFirstPacket stopper;
  stopper.link = &link;
  medium.attach(&stopper);
  link.start();
  sim.run_for(10_ms);
  link.start();
  sim.run_for(150_ms);
  // The first event at 0, then one per 15 ms interval from 10 to 160 ms.
  EXPECT_EQ(link.stats().events, 12u);
  medium.detach(&stopper);
}

struct BleCoexFixture : BleFixture {
  BleCoexFixture() {
    zb_tx = medium.add_node("zb-tx", {0.8, 0.8});
    zb_rx = medium.add_node("zb-rx", {1.6, 1.6});
    zigbee::ZigbeeMac::Config zc;
    zc.channel = 24;
    zc.retry_limit = 1;
    sender = std::make_unique<zigbee::ZigbeeMac>(medium, zb_tx, zc);
    receiver = std::make_unique<zigbee::ZigbeeMac>(medium, zb_rx, zc);
  }
  phy::NodeId zb_tx{};
  phy::NodeId zb_rx{};
  std::unique_ptr<zigbee::ZigbeeMac> sender;
  std::unique_ptr<zigbee::ZigbeeMac> receiver;
};

TEST_F(BleCoexFixture, AgentLeasesChannelsOnRequest) {
  BleConnection link(medium, master, slave, BleConnection::Config{});
  link.start();
  BleBiCordAgent::Config acfg;
  BleBiCordAgent agent(medium, link, acfg);
  ASSERT_FALSE(agent.protected_channels().empty());

  // A control packet from the ZigBee node triggers a lease.
  zigbee::ZigbeeMac::SendRequest control;
  control.dst = phy::kBroadcastNode;
  control.payload_bytes = 120;
  control.kind = phy::FrameKind::Control;
  sender->send_raw(control);
  sim.run_for(10_ms);

  EXPECT_GE(agent.requests_detected(), 1u);
  EXPECT_EQ(agent.leases_granted(), 1u);
  EXPECT_TRUE(agent.lease_active());
  for (int c : agent.protected_channels()) EXPECT_FALSE(link.channel_enabled(c));

  // After the lease expires the channels come back.
  sim.run_for(300_ms);
  EXPECT_FALSE(agent.lease_active());
  for (int c : agent.protected_channels()) EXPECT_TRUE(link.channel_enabled(c));
}

TEST_F(BleCoexFixture, DataFramesDoNotTriggerLeases) {
  BleConnection link(medium, master, slave, BleConnection::Config{});
  BleBiCordAgent agent(medium, link, BleBiCordAgent::Config{});
  zigbee::ZigbeeMac::SendRequest data;
  data.dst = phy::kBroadcastNode;
  data.payload_bytes = 50;
  data.kind = phy::FrameKind::Data;
  sender->send_raw(data);
  sim.run_for(10_ms);
  EXPECT_EQ(agent.leases_granted(), 0u);
}

TEST_F(BleCoexFixture, CoordinationImprovesZigbeeUnderDenseBle) {
  // Four aggressive BLE links around the ZigBee pair.
  std::vector<std::unique_ptr<BleConnection>> links;
  for (int i = 0; i < 4; ++i) {
    const auto m = medium.add_node("m", {0.3 * i, 0.2});
    const auto s = medium.add_node("s", {0.3 * i, 1.2});
    BleConnection::Config cfg;
    cfg.connection_interval = Duration::from_us(7500);
    cfg.payload_bytes = 200;
    cfg.hop_increment = 7 + 2 * i;
    links.push_back(std::make_unique<BleConnection>(medium, m, s, cfg));
    links.back()->start();
  }

  auto run = [&](bool coordinate) {
    std::vector<std::unique_ptr<BleBiCordAgent>> agents;
    if (coordinate) {
      for (auto& l : links) {
        agents.push_back(std::make_unique<BleBiCordAgent>(medium, *l,
                                                          BleBiCordAgent::Config{}));
      }
    }
    BleAwareZigbeeAgent::Config acfg;
    BleAwareZigbeeAgent agent(*sender, zb_rx, acfg);
    zigbee::BurstSource::Config bcfg;
    bcfg.packets_per_burst = 5;
    bcfg.payload_bytes = 50;
    bcfg.mean_interval = 150_ms;
    zigbee::BurstSource source(sim, bcfg);
    source.set_burst_callback(
        [&](int n, std::uint32_t payload) { agent.submit_burst(n, payload); });
    source.start();
    sim.run_for(10_sec);
    source.stop();
    sim.run_for(200_ms);
    return agent.stats().delivery_ratio();
  };

  const double uncoordinated = run(false);
  const double coordinated = run(true);
  EXPECT_GT(coordinated, 0.95);
  EXPECT_GE(coordinated + 1e-9, uncoordinated);
}

}  // namespace
}  // namespace bicord::ble

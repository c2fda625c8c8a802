#include "ctc/packet_level.hpp"

#include <gtest/gtest.h>

#include "coex/scenario.hpp"
#include "wifi/traffic.hpp"

namespace bicord::ctc {
namespace {

using namespace bicord::time_literals;

struct CtcFixture : ::testing::Test {
  CtcFixture() : sim(71), medium(sim, phy::PathLossModel{40.0, 3.0, 0.0, 0.1}) {
    const auto e = medium.add_node("wifi-E", {0.0, 0.0});
    const auto f = medium.add_node("wifi-F", {3.0, 0.0});
    const auto z =
        medium.add_node("zigbee", coex::location_position(coex::ZigbeeLocation::A));
    wifi::WifiMac::Config wc;
    wc.channel = 11;
    wc.ed_threshold_dbm = -51.0;
    wc.cca_noise_sigma_db = 2.0;
    sender = std::make_unique<wifi::WifiMac>(medium, e, wc);
    receiver = std::make_unique<wifi::WifiMac>(medium, f, wc);
    zigbee::ZigbeeMac::Config zc;
    zc.channel = 24;
    zigbee = std::make_unique<zigbee::ZigbeeMac>(medium, z, zc);
  }

  void start_wifi() {
    cbr = std::make_unique<wifi::CbrSource>(*sender, receiver->node(), 100, 1_ms);
    cbr->start();
    sim.run_for(20_ms);
  }

  sim::Simulator sim;
  phy::Medium medium;
  std::unique_ptr<wifi::WifiMac> sender;
  std::unique_ptr<wifi::WifiMac> receiver;
  std::unique_ptr<zigbee::ZigbeeMac> zigbee;
  std::unique_ptr<wifi::CbrSource> cbr;
};

TEST_F(CtcFixture, ZigfiDecodesOnBusyChannel) {
  start_wifi();
  ZigfiCtcLink link(*zigbee, *receiver, csi::CsiModelParams{});
  std::optional<std::uint8_t> got;
  Duration latency;
  link.set_message_callback([&](std::uint8_t m, Duration d) {
    got = m;
    latency = d;
  });
  link.send(0x5A, 10);
  sim.run_for(10_sec);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 0x5A);
  // 15 windows of 16 ms minimum; synchronisation alone costs 7 windows.
  EXPECT_GE(latency, link.sync_duration());
  EXPECT_GE(latency, 200_ms);
  EXPECT_EQ(link.messages_decoded(), 1u);
  EXPECT_GE(link.attempts_used(), 1u);
}

TEST_F(CtcFixture, ZigfiSyncCostMatchesAdaCommScale) {
  ZigfiCtcLink link(*zigbee, *receiver, csi::CsiModelParams{});
  // 7 Barker chips x 16 ms = 112 ms — the paper quotes ~110 ms for AdaComm.
  EXPECT_EQ(link.sync_duration(), Duration::from_ms(112));
}

TEST_F(CtcFixture, ZigfiRejectsConcurrentSend) {
  start_wifi();
  ZigfiCtcLink link(*zigbee, *receiver, csi::CsiModelParams{});
  link.send(1);
  EXPECT_TRUE(link.busy());
  EXPECT_THROW(link.send(2), std::logic_error);
}

TEST_F(CtcFixture, ZigfiGivesUpWithoutWifiTraffic) {
  // No Wi-Fi frames -> no CSI stream -> nothing to modulate onto.
  ZigfiCtcLink link(*zigbee, *receiver, csi::CsiModelParams{});
  bool delivered = false;
  link.set_message_callback([&](std::uint8_t, Duration) { delivered = true; });
  link.send(0x42, 2);
  sim.run_for(5_sec);
  EXPECT_FALSE(delivered);
  EXPECT_FALSE(link.busy());
}

TEST_F(CtcFixture, FreeBeeWorksOnClearChannel) {
  FreeBeeCtcLink link(*zigbee, *receiver);
  std::optional<Duration> latency;
  link.set_message_callback([&](Duration d) { latency = d; });
  link.send();
  sim.run_for(3_sec);
  ASSERT_TRUE(latency.has_value());
  // 5 beacons at ~100 ms intervals.
  EXPECT_GE(*latency, 400_ms);
  EXPECT_LE(*latency, 800_ms);
  EXPECT_EQ(link.beacons_clean(), 5u);
}

TEST_F(CtcFixture, FreeBeeStallsUnderWifi) {
  start_wifi();
  FreeBeeCtcLink link(*zigbee, *receiver);
  bool delivered = false;
  link.set_message_callback([&](Duration) { delivered = true; });
  link.send();
  sim.run_for(10_sec);
  // With 100-byte CBR every 1 ms, nearly every beacon overlaps Wi-Fi
  // activity: the message takes far longer than on clear air, if it
  // completes at all (paper: "inefficient and even useless").
  EXPECT_GT(link.beacons_sent(), 80u);
  EXPECT_LT(link.beacons_clean(), link.beacons_sent() / 4);
  (void)delivered;
}

TEST_F(CtcFixture, FreeBeeRejectsConcurrentSend) {
  FreeBeeCtcLink link(*zigbee, *receiver);
  link.send();
  EXPECT_THROW(link.send(), std::logic_error);
}

TEST_F(CtcFixture, FreeBeeDestroyedMidMessageCancelsItsBeacon) {
  auto link = std::make_unique<FreeBeeCtcLink>(*zigbee, *receiver);
  link->send();
  const auto pending = sim.pending_events();
  link.reset();
  EXPECT_EQ(sim.pending_events(), pending - 1);
  sim.run_for(1_sec);  // a beacon left queued would run on the freed link
}

}  // namespace
}  // namespace bicord::ctc

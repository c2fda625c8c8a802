// 802.15.4e TSCH under BiCord (ISSUE 10): the hop schedule's lockstep
// retunes, slot-boundary reception truncation, and the clock-bounded lease
// path (kTschTraits) running under frequency agility.

#include <gtest/gtest.h>

#include <memory>

#include "coex/scenario.hpp"
#include "coex/scenario_spec.hpp"
#include "core/coordination_engine.hpp"
#include "core/technology_traits.hpp"
#include "phy/medium.hpp"
#include "phy/radio.hpp"
#include "phy/spectrum.hpp"
#include "sim/simulator.hpp"
#include "zigbee/tsch.hpp"

namespace bicord::zigbee {
namespace {

using namespace bicord::time_literals;

phy::Radio::Config radio_config(int channel) {
  phy::Radio::Config rc;
  rc.tech = phy::Technology::ZigBee;
  rc.band = phy::zigbee_channel(channel);
  rc.sensitivity_dbm = -85.0;
  return rc;
}

struct TschFixture : ::testing::Test {
  TschFixture() : sim(81), medium(sim, phy::PathLossModel{40.0, 3.0, 0.0, 0.1}) {
    tx_node = medium.add_node("tx", {0.0, 0.0});
    rx_node = medium.add_node("rx", {2.0, 0.0});
  }

  sim::Simulator sim;
  phy::Medium medium;
  phy::NodeId tx_node{};
  phy::NodeId rx_node{};
};

TEST_F(TschFixture, HopScheduleRetunesEnrolledRadiosInLockstep) {
  phy::Radio a(medium, tx_node, radio_config(24));
  phy::Radio b(medium, rx_node, radio_config(24));

  TschHopSchedule::Config cfg;
  cfg.hop_period = 10_ms;
  TschHopSchedule schedule(sim, cfg);
  schedule.add_radio(a);
  schedule.add_radio(b);

  // Enrollment snaps both radios to the current hop channel immediately.
  EXPECT_EQ(schedule.current_channel(), 21);
  EXPECT_EQ(a.band().center_mhz, phy::zigbee_channel(21).center_mhz);
  EXPECT_EQ(b.band().center_mhz, phy::zigbee_channel(21).center_mhz);

  schedule.start();
  sim.run_for(10_ms + 100_us);
  EXPECT_EQ(schedule.current_channel(), 22);
  EXPECT_EQ(a.band().center_mhz, b.band().center_mhz);
  EXPECT_EQ(a.band().center_mhz, phy::zigbee_channel(22).center_mhz);

  sim.run_for(30_ms);  // three more boundaries: wrapped back to 21
  EXPECT_EQ(schedule.hops(), 4u);
  EXPECT_EQ(schedule.current_channel(), 21);
  EXPECT_EQ(a.band().center_mhz, phy::zigbee_channel(21).center_mhz);
}

TEST_F(TschFixture, DestroyingARunningScheduleCancelsItsClock) {
  phy::Radio a(medium, tx_node, radio_config(24));
  auto schedule = std::make_unique<TschHopSchedule>(sim);
  schedule->add_radio(a);
  schedule->start();
  sim.run_for(5_ms);
  const auto pending = sim.pending_events();
  schedule.reset();
  EXPECT_EQ(sim.pending_events(), pending - 1);
}

TEST_F(TschFixture, RetuneTruncatesInProgressReception) {
  phy::Radio a(medium, tx_node, radio_config(21));
  phy::Radio b(medium, rx_node, radio_config(21));
  bool delivered = false;
  b.set_rx_callback([&](const phy::RxResult&) { delivered = true; });

  phy::Frame frame;
  frame.tech = phy::Technology::ZigBee;
  frame.kind = phy::FrameKind::Data;
  frame.src = tx_node;
  frame.dst = rx_node;
  a.transmit(frame, 0.0, 4_ms);
  ASSERT_EQ(b.state(), phy::RadioState::Rx);  // locked onto the frame

  // The slot boundary lands mid-frame: the lock is gone, no decode draw,
  // no rx callback — the frame simply never finished for this receiver.
  b.retune(phy::zigbee_channel(22));
  EXPECT_EQ(b.state(), phy::RadioState::Idle);
  EXPECT_EQ(b.receptions_truncated(), 1u);

  sim.run_for(10_ms);
  EXPECT_FALSE(delivered);
  EXPECT_EQ(b.frames_received(), 0u);
  EXPECT_EQ(b.frames_corrupted(), 0u);
}

TEST_F(TschFixture, RetuneDuringOwnTransmissionKeepsCarrierOnAir) {
  phy::Radio a(medium, tx_node, radio_config(21));
  phy::Radio b(medium, rx_node, radio_config(21));
  bool delivered = false;
  b.set_rx_callback([&](const phy::RxResult& rx) { delivered = rx.success; });

  phy::Frame frame;
  frame.tech = phy::Technology::ZigBee;
  frame.kind = phy::FrameKind::Data;
  frame.src = tx_node;
  frame.dst = rx_node;
  bool done = false;
  a.transmit(frame, 0.0, 4_ms, [&] { done = true; });

  // The sender retunes mid-transmission: the carrier already on the air
  // keeps its original band on the medium, so the receiver (still on 21)
  // finishes the frame and the tx-done callback still fires.
  a.retune(phy::zigbee_channel(23));
  sim.run_for(10_ms);
  EXPECT_TRUE(done);
  EXPECT_TRUE(delivered);
  EXPECT_EQ(a.state(), phy::RadioState::Idle);
}

TEST_F(TschFixture, LeaseExpiresOnItsOwnClockAcrossHopBoundaries) {
  // A hopping radio under the schedule while the grantor-side engine runs a
  // clock-bounded lease: the hops must neither stall nor re-time the expiry.
  phy::Radio r(medium, rx_node, radio_config(21));
  TschHopSchedule::Config hc;
  hc.hop_period = 5_ms;
  TschHopSchedule schedule(sim, hc);
  schedule.add_radio(r);
  schedule.start();

  core::CoordinationEngine engine(sim, core::kTschTraits, core::AllocatorParams{},
                                  8);
  int released = 0;
  engine.set_release_hook([&] { ++released; });

  const auto grant = engine.on_request(sim.now());
  ASSERT_TRUE(grant.has_value());
  const Duration lease = *grant + core::kTschTraits.grant_margin;
  // bicord-lint: allow(grant-issue-outside-engine) — test drives the lease path directly.
  engine.begin_lease(sim.now(), lease);
  engine.arm_lease_expiry();  // bicord-lint: allow(grant-issue-outside-engine)

  sim.run_for(lease - 1_ms);
  EXPECT_TRUE(engine.grant_active());
  EXPECT_GE(schedule.hops(), 4u);  // several boundaries inside the lease

  sim.run_for(2_ms);
  EXPECT_FALSE(engine.grant_active());
  EXPECT_EQ(released, 1);
  EXPECT_EQ(engine.watchdog_recoveries(), 0u);  // lease path, no watchdog

  sim.run_for(20_ms);
  EXPECT_EQ(released, 1);  // expiry fires exactly once
}

TEST(TschScenarioTest, PresetDeliversThroughLeasedGrantsWhileHopping) {
  using namespace bicord::coex;
  auto spec = ScenarioSpec::preset("tsch");
  ASSERT_TRUE(spec.has_value());
  Scenario scenario(spec->must_config());
  warm_and_measure(scenario, 500_ms, 1500_ms);

  ASSERT_NE(scenario.tsch_requester(), nullptr);
  ASSERT_NE(scenario.tsch_schedule(), nullptr);
  ASSERT_NE(scenario.bicord_wifi(), nullptr);
  EXPECT_EQ(scenario.bicord_zigbee(), nullptr);

  const auto& stats = scenario.zigbee_stats();
  EXPECT_GT(stats.generated, 0u);
  // The last burst may still be draining when the window closes; what the
  // lease path must guarantee is that nothing is lost or abandoned.
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_GE(stats.delivered + scenario.zigbee_agent().backlog(),
            stats.generated);
  EXPECT_GT(stats.delivered, stats.generated / 2);
  EXPECT_EQ(scenario.tsch_requester()->give_ups(), 0u);
  EXPECT_GT(scenario.bicord_wifi()->whitespaces_granted(), 0u);
  // The grantor ran the clock-bounded lease path, not flag + watchdog.
  EXPECT_EQ(scenario.bicord_wifi()->watchdog_recoveries(), 0u);
  EXPECT_GT(scenario.tsch_schedule()->hops(), 100u);  // 2 s at 10 ms/hop
}

TEST(TschScenarioTest, LeasesSpanHopBoundaries) {
  using namespace bicord::coex;
  auto spec = ScenarioSpec::preset("tsch");
  ASSERT_TRUE(spec.has_value());
  auto cfg = spec->must_config();
  Scenario scenario(cfg);
  warm_and_measure(scenario, 500_ms, 1500_ms);

  ASSERT_GT(scenario.bicord_wifi()->whitespaces_granted(), 0u);
  // Converged white space well beyond one hop period: every grant lived
  // through at least one lockstep retune of both link radios.
  EXPECT_GT(scenario.bicord_wifi()->allocator().estimate(), cfg.tsch_hop_period);
}

}  // namespace
}  // namespace bicord::zigbee

// LTE-U duty cycling and the energy-envelope grantor (ISSUE 10).
//
// The device half is purely periodic (ON/OFF edges, suppression windows);
// the grantor half must lease white space from a burst's energy envelope
// alone — airtime + receive power, never payload bits.

#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "coex/scenario.hpp"
#include "coex/scenario_spec.hpp"
#include "interferers/lteu.hpp"
#include "phy/medium.hpp"
#include "phy/spectrum.hpp"
#include "sim/simulator.hpp"

namespace bicord::interferers {
namespace {

using namespace bicord::time_literals;

struct LteUFixture : ::testing::Test {
  LteUFixture() : sim(71), medium(sim, phy::PathLossModel{40.0, 3.0, 0.0, 0.1}) {
    enb = medium.add_node("enb", {0.0, 0.0});
    sender = medium.add_node("sender", {1.5, 0.0});
  }

  /// A raw ZigBee-band burst of `airtime` at `power_dbm` from the sender —
  /// what the eNB's envelope detector sees of a BiCord control packet.
  void send_burst(Duration airtime, double power_dbm, std::uint64_t seq = 1) {
    phy::Frame frame;
    frame.tech = phy::Technology::ZigBee;
    frame.kind = phy::FrameKind::Data;  // deliberately NOT Control: the
                                        // grantor must match without reading
                                        // any payload-dependent field
    frame.src = sender;
    frame.dst = phy::kBroadcastNode;
    frame.seq = seq;
    medium.begin_tx(frame, phy::zigbee_channel(24), power_dbm, airtime);
  }

  sim::Simulator sim;
  phy::Medium medium;
  phy::NodeId enb{};
  phy::NodeId sender{};
};

TEST_F(LteUFixture, DutyCyclesOnOffEdges) {
  LteUDevice::Config cfg;
  cfg.period = 20_ms;
  cfg.duty = 0.5;
  LteUDevice device(medium, enb, cfg);
  EXPECT_EQ(device.on_duration(), 10_ms);

  device.start();
  sim.run_for(200_ms);
  // Cycle ticks at 0, 20, ..., 200 ms (run_for drains events at exactly
  // t = end): one ON burst each.
  EXPECT_EQ(device.bursts_sent(), 11u);
  EXPECT_EQ(device.cycles_suppressed(), 0u);

  device.stop();
  const auto frozen = device.bursts_sent();
  sim.run_for(100_ms);
  EXPECT_EQ(device.bursts_sent(), frozen);
}

TEST_F(LteUFixture, SuppressionSkipsWholeCycles) {
  LteUDevice::Config cfg;
  cfg.period = 20_ms;
  cfg.duty = 0.5;
  LteUDevice device(medium, enb, cfg);
  device.start();
  sim.run_for(10_ms);  // one burst on the air already (t = 0)
  ASSERT_EQ(device.bursts_sent(), 1u);

  device.suppress_for(45_ms);  // until t = 55 ms: covers the 20 and 40 ms ticks
  EXPECT_TRUE(device.suppressed());
  sim.run_for(60_ms);  // now t = 70 ms, ticks at 20/40 skipped, 60 resumed
  EXPECT_EQ(device.bursts_sent(), 2u);
  EXPECT_EQ(device.cycles_suppressed(), 2u);
  EXPECT_FALSE(device.suppressed());
}

TEST_F(LteUFixture, SuppressionExtendsButNeverShortens) {
  LteUDevice device(medium, enb);
  device.start();
  device.suppress_for(40_ms);
  device.suppress_for(10_ms);  // shorter: must not pull the window in
  sim.run_for(30_ms);
  EXPECT_TRUE(device.suppressed());
  sim.run_for(15_ms);
  EXPECT_FALSE(device.suppressed());
}

TEST_F(LteUFixture, DestroyingARunningDeviceCancelsItsCycle) {
  auto device = std::make_unique<LteUDevice>(medium, enb);
  device->start();
  sim.run_for(15_ms);  // the first burst has ended; the next cycle is queued
  const auto pending = sim.pending_events();
  device.reset();
  EXPECT_EQ(sim.pending_events(), pending - 1);
}

/// Stops the device from inside the first transmission's start edge, i.e.
/// during the device's own tick.
struct StopOnFirstBurst final : phy::MediumListener {
  LteUDevice* device = nullptr;
  void on_tx_start(const phy::ActiveTransmission&) override {
    if (device != nullptr) std::exchange(device, nullptr)->stop();
  }
  void on_tx_end(const phy::ActiveTransmission&) override {}
};

TEST_F(LteUFixture, StopInsideTheFirstCycleThenRestartRunsOneChain) {
  LteUDevice device(medium, enb);
  StopOnFirstBurst stopper;
  stopper.device = &device;
  medium.attach(&stopper);
  device.start();
  EXPECT_FALSE(device.running());
  sim.run_for(10_ms);
  device.start();
  sim.run_for(200_ms);
  // The first burst at 0, then one per 20 ms period from 10 to 210 ms.
  EXPECT_EQ(device.bursts_sent(), 12u);
  medium.detach(&stopper);
}

TEST_F(LteUFixture, GrantorLeasesFromEnergyEnvelopeWithoutDecoding) {
  LteUDevice device(medium, enb);
  LteUGrantor::Config gc;
  LteUGrantor grantor(medium, enb, device, gc);

  // The burst is a Data frame (not Control) — only its airtime and receive
  // power match the control-packet envelope.
  send_burst(gc.control_airtime, 0.0);
  sim.run_for(10_ms);

  EXPECT_EQ(grantor.requests_detected(), 1u);
  EXPECT_EQ(grantor.suppressions_granted(), 1u);
  EXPECT_TRUE(grantor.lease_active());
  EXPECT_TRUE(device.suppressed());
}

TEST_F(LteUFixture, GrantorIgnoresWrongAirtime) {
  LteUDevice device(medium, enb);
  LteUGrantor grantor(medium, enb, device, {});

  send_burst(2_ms, 0.0);  // far outside the control-airtime tolerance
  sim.run_for(10_ms);

  EXPECT_EQ(grantor.requests_detected(), 0u);
  EXPECT_FALSE(grantor.lease_active());
  EXPECT_FALSE(device.suppressed());
}

TEST_F(LteUFixture, GrantorIgnoresWeakBurst) {
  LteUDevice device(medium, enb);
  LteUGrantor::Config gc;
  LteUGrantor grantor(medium, enb, device, gc);

  // Control-length burst, but ~-90 dBm at the eNB: below the envelope
  // detector's plausible-request power.
  send_burst(gc.control_airtime, -45.0);
  sim.run_for(10_ms);

  EXPECT_EQ(grantor.requests_detected(), 0u);
  EXPECT_FALSE(device.suppressed());
}

TEST_F(LteUFixture, LeaseWindowMatchesAllocatorGrantAndDutyResumes) {
  LteUDevice::Config dc;
  dc.period = 20_ms;
  dc.duty = 0.5;
  LteUDevice device(medium, enb, dc);
  device.start();

  LteUGrantor::Config gc;
  LteUGrantor grantor(medium, enb, device, gc);

  sim.run_for(1_ms);  // t = 1 ms: first ON burst is on the air
  send_burst(gc.control_airtime, 0.0);
  sim.run_for(9_ms);  // burst ends at ~5.4 ms -> detection + lease
  ASSERT_TRUE(grantor.lease_active());

  // The lease is the allocator's initial white space plus the traits margin;
  // the 30 ms default spans the 20 ms cycle, so the next ON edge is skipped.
  const Duration lease =
      gc.allocator.initial_whitespace + core::kLteUTraits.grant_margin;
  sim.run_for(lease - 5_ms);  // just inside the window
  EXPECT_TRUE(device.suppressed());
  EXPECT_EQ(device.bursts_sent(), 1u);
  EXPECT_GE(device.cycles_suppressed(), 1u);

  sim.run_for(30_ms);  // past expiry: lease released, duty cycle resumed
  EXPECT_FALSE(grantor.lease_active());
  EXPECT_FALSE(device.suppressed());
  EXPECT_GT(device.bursts_sent(), 1u);
}

TEST_F(LteUFixture, RepeatRequestDuringLeaseIsAbsorbed) {
  LteUDevice device(medium, enb);
  LteUGrantor::Config gc;
  LteUGrantor grantor(medium, enb, device, gc);

  send_burst(gc.control_airtime, 0.0, 1);
  sim.run_for(10_ms);
  ASSERT_EQ(grantor.suppressions_granted(), 1u);

  send_burst(gc.control_airtime, 0.0, 2);
  sim.run_for(10_ms);
  EXPECT_EQ(grantor.requests_detected(), 2u);
  EXPECT_EQ(grantor.suppressions_granted(), 1u);  // absorbed, not re-granted
}

TEST(LteUScenarioTest, PresetRunsTheFullLeaseLoop) {
  using namespace bicord::coex;
  auto spec = ScenarioSpec::preset("lteu");
  ASSERT_TRUE(spec.has_value());
  Scenario scenario(spec->must_config());
  warm_and_measure(scenario, 500_ms, 1500_ms);

  ASSERT_NE(scenario.lteu_device(), nullptr);
  ASSERT_NE(scenario.lteu_grantor(), nullptr);
  EXPECT_EQ(scenario.bicord_wifi(), nullptr);
  EXPECT_NE(scenario.bicord_zigbee(), nullptr);  // unmodified BiCord requester

  const auto& stats = scenario.zigbee_stats();
  EXPECT_GT(stats.generated, 0u);
  EXPECT_EQ(stats.delivered, stats.generated);
  EXPECT_GT(scenario.lteu_grantor()->suppressions_granted(), 0u);
  EXPECT_GT(scenario.lteu_device()->cycles_suppressed(), 0u);
  EXPECT_GT(scenario.lteu_device()->bursts_sent(), 0u);
}

}  // namespace
}  // namespace bicord::interferers

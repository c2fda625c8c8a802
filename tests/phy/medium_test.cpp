#include "phy/medium.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "phy/units.hpp"
#include "sim/simulator.hpp"

namespace bicord::phy {
namespace {

using namespace bicord::time_literals;

struct Fixture : ::testing::Test {
  Fixture() : sim(1), medium(sim, PathLossModel{40.0, 3.0, 0.0, 0.1}) {}

  Frame zigbee_frame(NodeId src) {
    Frame f;
    f.tech = Technology::ZigBee;
    f.src = src;
    return f;
  }

  sim::Simulator sim;
  Medium medium;
};

TEST_F(Fixture, NodeRegistryRoundTrip) {
  const NodeId a = medium.add_node("a", {1.0, 2.0});
  const NodeId b = medium.add_node("b", {3.0, 4.0});
  EXPECT_EQ(medium.node_count(), 2u);
  EXPECT_EQ(medium.node_name(a), "a");
  EXPECT_EQ(medium.position(b).x, 3.0);
  medium.set_position(a, {5.0, 6.0});
  EXPECT_EQ(medium.position(a).y, 6.0);
  EXPECT_THROW(medium.position(99), std::out_of_range);
  EXPECT_THROW(medium.set_position(99, {0, 0}), std::out_of_range);
}

TEST_F(Fixture, RxPowerFollowsPathLossAndOverlap) {
  const NodeId tx = medium.add_node("tx", {0.0, 0.0});
  const NodeId rx = medium.add_node("rx", {1.0, 0.0});
  const Band zb = zigbee_channel(24);
  const Band wf = wifi_channel(11);

  // Same band at 1 m: P - PL(1m) = 0 - 40.
  EXPECT_NEAR(medium.rx_power_dbm(tx, 0.0, zb, rx, zb), -40.0, 1e-9);
  // ZigBee victim of a Wi-Fi transmission: extra 10 dB overlap loss.
  EXPECT_NEAR(medium.rx_power_dbm(tx, 20.0, wf, rx, zb), 20.0 - 40.0 - 10.0, 1e-9);
  // Wi-Fi victim of a ZigBee transmission: no overlap loss.
  EXPECT_NEAR(medium.rx_power_dbm(tx, 0.0, zb, rx, wf), -40.0, 1e-9);
}

TEST_F(Fixture, RxPowerSymmetricLinks) {
  const NodeId a = medium.add_node("a", {0.0, 0.0});
  const NodeId b = medium.add_node("b", {2.0, 0.0});
  const Band zb = zigbee_channel(24);
  EXPECT_DOUBLE_EQ(medium.rx_power_dbm(a, 0.0, zb, b, zb),
                   medium.rx_power_dbm(b, 0.0, zb, a, zb));
}

TEST_F(Fixture, EnergyIsNoiseFloorWhenIdle) {
  const NodeId rx = medium.add_node("rx", {0.0, 0.0});
  const Band zb = zigbee_channel(24);
  EXPECT_NEAR(medium.energy_dbm(rx, zb), Medium::noise_floor_dbm(zb), 1e-9);
}

TEST_F(Fixture, NoiseFloorScalesWithBandwidth) {
  // 20 MHz floor should be 10 dB above the 2 MHz floor.
  EXPECT_NEAR(Medium::noise_floor_dbm(wifi_channel(11)) -
                  Medium::noise_floor_dbm(zigbee_channel(24)),
              10.0, 1e-9);
}

TEST_F(Fixture, ActiveTransmissionRaisesEnergy) {
  const NodeId tx = medium.add_node("tx", {0.0, 0.0});
  const NodeId rx = medium.add_node("rx", {1.0, 0.0});
  const Band zb = zigbee_channel(24);
  medium.begin_tx(zigbee_frame(tx), zb, 0.0, 2_ms);
  EXPECT_NEAR(medium.energy_dbm(rx, zb), -40.0, 0.1);
  sim.run_for(3_ms);
  EXPECT_NEAR(medium.energy_dbm(rx, zb), Medium::noise_floor_dbm(zb), 1e-9);
}

TEST_F(Fixture, EnergyExcludesSelfAndRequestedSource) {
  const NodeId a = medium.add_node("a", {0.0, 0.0});
  const NodeId b = medium.add_node("b", {1.0, 0.0});
  const Band zb = zigbee_channel(24);
  medium.begin_tx(zigbee_frame(a), zb, 0.0, 2_ms);
  // a's own emission is not part of a's received energy.
  EXPECT_NEAR(medium.energy_dbm(a, zb), Medium::noise_floor_dbm(zb), 1e-9);
  // Excluding the transmitter removes its contribution at b.
  EXPECT_NEAR(medium.energy_dbm(b, zb, a), Medium::noise_floor_dbm(zb), 1e-9);
}

TEST_F(Fixture, EnergyCombinesMultipleSources) {
  const NodeId a = medium.add_node("a", {0.0, 1.0});
  const NodeId b = medium.add_node("b", {0.0, -1.0});
  const NodeId rx = medium.add_node("rx", {0.0, 0.0});
  const Band zb = zigbee_channel(24);
  medium.begin_tx(zigbee_frame(a), zb, 0.0, 2_ms);
  medium.begin_tx(zigbee_frame(b), zb, 0.0, 2_ms);
  // Two equal -40 dBm signals combine to -37 dBm.
  EXPECT_NEAR(medium.energy_dbm(rx, zb), -37.0, 0.1);
}

TEST_F(Fixture, ListenersSeeStartAndEnd) {
  struct Listener : MediumListener {
    int starts = 0;
    int ends = 0;
    void on_tx_start(const ActiveTransmission&) override { ++starts; }
    void on_tx_end(const ActiveTransmission&) override { ++ends; }
  } listener;
  const NodeId tx = medium.add_node("tx", {0.0, 0.0});
  medium.attach(&listener);
  medium.begin_tx(zigbee_frame(tx), zigbee_channel(24), 0.0, 1_ms);
  EXPECT_EQ(listener.starts, 1);
  EXPECT_EQ(listener.ends, 0);
  sim.run_for(2_ms);
  EXPECT_EQ(listener.ends, 1);
  medium.detach(&listener);
  medium.begin_tx(zigbee_frame(tx), zigbee_channel(24), 0.0, 1_ms);
  sim.run_for(2_ms);
  EXPECT_EQ(listener.starts, 1);
}

TEST_F(Fixture, AirtimeAccounting) {
  const NodeId z = medium.add_node("z", {0.0, 0.0});
  const NodeId w = medium.add_node("w", {1.0, 0.0});
  medium.begin_tx(zigbee_frame(z), zigbee_channel(24), 0.0, 3_ms);
  Frame wf;
  wf.tech = Technology::WiFi;
  wf.src = w;
  medium.begin_tx(wf, wifi_channel(11), 20.0, 5_ms);
  sim.run_for(10_ms);
  EXPECT_EQ(medium.airtime(Technology::ZigBee), 3_ms);
  EXPECT_EQ(medium.airtime(Technology::WiFi), 5_ms);
  EXPECT_EQ(medium.airtime(Technology::Bluetooth), Duration::zero());
  EXPECT_EQ(medium.airtime_of(z), 3_ms);
  EXPECT_EQ(medium.airtime_of(w), 5_ms);
}

TEST_F(Fixture, ActiveListReflectsInFlight) {
  const NodeId tx = medium.add_node("tx", {0.0, 0.0});
  EXPECT_TRUE(medium.active().empty());
  medium.begin_tx(zigbee_frame(tx), zigbee_channel(24), 0.0, 1_ms);
  EXPECT_EQ(medium.active().size(), 1u);
  sim.run_for(2_ms);
  EXPECT_TRUE(medium.active().empty());
}

TEST_F(Fixture, BeginTxValidatesArguments) {
  Frame f = zigbee_frame(0);
  EXPECT_THROW(medium.begin_tx(f, zigbee_channel(24), 0.0, 1_ms),
               std::invalid_argument);  // node 0 not registered
  const NodeId tx = medium.add_node("tx", {0.0, 0.0});
  f.src = tx;
  EXPECT_THROW(medium.begin_tx(f, zigbee_channel(24), 0.0, Duration::zero()),
               std::invalid_argument);
  EXPECT_THROW(medium.begin_tx(f, zigbee_channel(24),
                               std::numeric_limits<double>::quiet_NaN(), 1_ms),
               std::invalid_argument);
}

TEST_F(Fixture, FloorsVeryWeakSignals) {
  const NodeId tx = medium.add_node("tx", {0.0, 0.0});
  const NodeId rx = medium.add_node("rx", {1000.0, 0.0});
  const double p = medium.rx_power_dbm(tx, 0.0, zigbee_channel(24), rx, zigbee_channel(24));
  EXPECT_DOUBLE_EQ(p, kFloorDbm);
}

// --- exact audiences on the indexed path -------------------------------------
//
// One explicit 10 km cell puts every node in a single grid window, so any
// listener the indexed path skips is skipped by the audibility predicate,
// not by the grid.

struct EdgeCounter final : MediumListener {
  int starts = 0;
  int ends = 0;
  void on_tx_start(const ActiveTransmission&) override { ++starts; }
  void on_tx_end(const ActiveTransmission&) override { ++ends; }
};

struct IndexedFixture : ::testing::Test {
  static MediumTuning tuning() {
    MediumTuning t;
    t.snap_floor_dbm = -97.0;
    t.spatial_index = true;
    t.cell_size_m = 10000.0;
    t.max_tx_power_dbm = 20.0;
    return t;
  }

  IndexedFixture()
      : sim(1), medium(sim, PathLossModel{40.0, 3.8, 0.0, 0.1}, tuning()),
        r(medium.interference_radius_m(kPower)) {}

  void transmit(NodeId src, Duration dur) {
    Frame f;
    f.tech = Technology::WiFi;
    f.src = src;
    medium.begin_tx(f, wifi_channel(6), kPower, dur);
  }

  static constexpr double kPower = 20.0;
  sim::Simulator sim;
  Medium medium;
  double r;  ///< interference radius at kPower
};

TEST_F(IndexedFixture, ListenerJustOutsideRadiusHearsNeitherEdge) {
  ASSERT_TRUE(medium.spatially_indexed());
  ASSERT_GT(r, 50.0);
  ASSERT_LT(r, 1000.0);
  const NodeId src = medium.add_node("src", {0.0, 0.0});
  const NodeId in = medium.add_node("in", {r - 1.0, 0.0});
  const NodeId out = medium.add_node("out", {r + 1.0, 0.0});
  EdgeCounter heard;
  EdgeCounter missed;
  medium.attach(&heard, in);
  medium.attach(&missed, out);
  transmit(src, 1_ms);
  sim.run_for(2_ms);
  EXPECT_EQ(heard.starts, 1);
  EXPECT_EQ(heard.ends, 1);
  EXPECT_EQ(missed.starts, 0);
  EXPECT_EQ(missed.ends, 0);
  medium.detach(&heard);
  medium.detach(&missed);
}

TEST_F(IndexedFixture, ListenerMovingIntoRangeMidFlightHearsEnd) {
  const NodeId src = medium.add_node("src", {0.0, 0.0});
  const NodeId mover = medium.add_node("mover", {r + 5.0, 0.0});
  EdgeCounter l;
  medium.attach(&l, mover);
  transmit(src, 10_ms);
  EXPECT_EQ(l.starts, 0);
  sim.run_for(2_ms);
  medium.set_position(mover, {r - 5.0, 0.0});  // same grid cell
  sim.run_for(10_ms);
  EXPECT_EQ(l.starts, 0);
  EXPECT_EQ(l.ends, 1);
  // The move also refreshed the source's cached audience.
  transmit(src, 1_ms);
  sim.run_for(2_ms);
  EXPECT_EQ(l.starts, 1);
  EXPECT_EQ(l.ends, 2);
  medium.detach(&l);
}

TEST_F(IndexedFixture, SourceMovingIntoRangeMidFlightDeliversEnd) {
  const NodeId src = medium.add_node("src", {0.0, 0.0});
  const NodeId rx = medium.add_node("rx", {r + 5.0, 0.0});
  EdgeCounter own;
  EdgeCounter l;
  medium.attach(&own, src);
  medium.attach(&l, rx);
  transmit(src, 10_ms);
  sim.run_for(2_ms);
  medium.set_position(src, {10.0, 0.0});  // rx is now r - 5 m away
  sim.run_for(10_ms);
  EXPECT_EQ(l.starts, 0);
  EXPECT_EQ(l.ends, 1);
  EXPECT_EQ(own.starts, 1);
  EXPECT_EQ(own.ends, 1);
  medium.detach(&own);
  medium.detach(&l);
}

TEST_F(IndexedFixture, MoveOnOneSideOfRadiusChangesNoDelivery) {
  const NodeId src = medium.add_node("src", {0.0, 0.0});
  const NodeId in = medium.add_node("in", {r - 20.0, 0.0});
  const NodeId out = medium.add_node("out", {r + 10.0, 0.0});
  EdgeCounter li;
  EdgeCounter lo;
  medium.attach(&li, in);
  medium.attach(&lo, out);
  for (int round = 0; round < 3; ++round) {
    transmit(src, 10_ms);
    sim.run_for(2_ms);
    const double step = 5.0 * (round + 1);
    medium.set_position(in, {r - 20.0 + step, 0.0});
    medium.set_position(out, {r + 10.0 + step, 0.0});
    sim.run_for(10_ms);
  }
  EXPECT_EQ(li.starts, 3);
  EXPECT_EQ(li.ends, 3);  // pinned and saved refs dedupe to one end edge
  EXPECT_EQ(lo.starts, 0);
  EXPECT_EQ(lo.ends, 0);
  medium.detach(&li);
  medium.detach(&lo);
}

TEST_F(IndexedFixture, AttachAfterCachingJoinsTheNextAudience) {
  const NodeId src = medium.add_node("src", {0.0, 0.0});
  const NodeId rx = medium.add_node("rx", {r / 2.0, 0.0});
  EdgeCounter first;
  medium.attach(&first, rx);
  transmit(src, 1_ms);  // caches (src, kPower)
  sim.run_for(2_ms);
  EdgeCounter late;
  EdgeCounter global;
  medium.attach(&late, rx);
  medium.attach(&global);
  transmit(src, 1_ms);
  sim.run_for(2_ms);
  EXPECT_EQ(late.starts, 1);
  EXPECT_EQ(late.ends, 1);
  EXPECT_EQ(global.starts, 1);
  EXPECT_EQ(global.ends, 1);
  // Detach invalidates too: the cached audience must not call `first` again.
  medium.detach(&first);
  transmit(src, 1_ms);
  sim.run_for(2_ms);
  EXPECT_EQ(first.starts, 2);
  EXPECT_EQ(late.starts, 2);
  medium.detach(&late);
  medium.detach(&global);
}

TEST_F(IndexedFixture, SourceAlwaysHearsItsOwnEndEdge) {
  const NodeId src = medium.add_node("src", {0.0, 0.0});
  const NodeId near = medium.add_node("near", {1.0, 0.0});
  EdgeCounter own;
  EdgeCounter neighbour;
  medium.attach(&own, src);
  medium.attach(&neighbour, near);
  // A power so low its radius is below a metre still reaches the sender.
  Frame f;
  f.tech = Technology::ZigBee;
  f.src = src;
  medium.begin_tx(f, zigbee_channel(24), -150.0, 1_ms);
  sim.run_for(2_ms);
  EXPECT_EQ(own.ends, 1);
  EXPECT_EQ(neighbour.starts, 0);
  // The sender moves far out of everyone's range mid-flight.
  transmit(src, 10_ms);
  sim.run_for(2_ms);
  medium.set_position(src, {5.0 * r, 5.0 * r});
  sim.run_for(10_ms);
  EXPECT_EQ(own.starts, 2);
  EXPECT_EQ(own.ends, 2);
  EXPECT_EQ(neighbour.ends, 1);  // heard the start, so hears the end
  medium.detach(&own);
  medium.detach(&neighbour);
}

TEST(MediumNaNSnapFloor, RadiusFallsBackToNeverCull) {
  sim::Simulator sim(1);
  MediumTuning t = IndexedFixture::tuning();
  t.snap_floor_dbm = std::numeric_limits<double>::quiet_NaN();
  Medium medium(sim, PathLossModel{40.0, 3.8, 0.0, 0.1}, t);
  EXPECT_TRUE(std::isinf(medium.interference_radius_m(0.0)));
  const NodeId src = medium.add_node("src", {0.0, 0.0});
  EdgeCounter own;
  medium.attach(&own, src);
  Frame f;
  f.src = src;
  medium.begin_tx(f, zigbee_channel(24), 0.0, 1_ms);
  sim.run_for(2_ms);
  EXPECT_EQ(own.ends, 1);
  medium.detach(&own);
}

}  // namespace
}  // namespace bicord::phy

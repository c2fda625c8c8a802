#include "phy/medium.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "phy/radio.hpp"
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
  // An unknown receiver is refused on an idle medium too, not only under load.
  EXPECT_THROW(static_cast<void>(medium.energy_dbm(rx + 1, zb)), std::out_of_range);
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
  EXPECT_EQ(medium.active_count(), 0u);
  const TxId id = medium.begin_tx(zigbee_frame(tx), zigbee_channel(24), 0.0, 1_ms);
  EXPECT_EQ(medium.active_count(), 1u);
  ASSERT_NE(medium.find_active(id), nullptr);
  EXPECT_EQ(medium.find_active(id)->id, id);
  sim.run_for(2_ms);
  EXPECT_EQ(medium.active_count(), 0u);
  EXPECT_EQ(medium.find_active(id), nullptr);
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

// --- the band gate in energy sums ---------------------------------------------

TEST(MediumBandGate, DisjointTransmissionsAddNothingOnEitherBranch) {
  // Bluetooth channels 0-59 span 2401.5-2461.5 MHz, below ZigBee ch 26
  // (2479-2481 MHz). Both medium modes sum energy in the same loop; each is
  // probed with 3 and with 40 live transmissions.
  for (const bool indexed : {false, true}) {
    sim::Simulator sim(1);
    MediumTuning t;
    t.spatial_index = indexed;
    Medium medium(sim, PathLossModel{40.0, 3.0, 0.0, 0.1}, t);
    for (int i = 0; i < 8; ++i) medium.add_node("n", {2.0 * i, 1.0 * (i % 3)});
    const NodeId rx = 7;
    const Band probe = zigbee_channel(26);
    const double quiet = medium.energy_dbm(rx, probe);
    const double quiet_bt = medium.energy_dbm(rx, bluetooth_channel(0));
    int began = 0;
    const auto begin = [&](int count) {
      for (int k = 0; k < count; ++k, ++began) {
        Frame f;
        f.tech = Technology::Bluetooth;
        f.src = static_cast<NodeId>(began % 7);
        medium.begin_tx(f, bluetooth_channel(began % 60), 4.0, 1_ms);
      }
    };
    begin(3);
    EXPECT_EQ(medium.energy_dbm(rx, probe), quiet) << "indexed=" << indexed;
    begin(37);
    ASSERT_EQ(medium.active_count(), 40u);
    EXPECT_EQ(medium.energy_dbm(rx, probe), quiet) << "indexed=" << indexed;
    // The same transmissions do land on a band they overlap.
    EXPECT_GT(medium.energy_dbm(rx, bluetooth_channel(0)), quiet_bt + 10.0);
  }
}

// --- exact audiences on the indexed path -------------------------------------
//
// A 60 dBm power bound derives cells of about 420 m, almost four times the
// 112 m radius at kPower, so every node these tests place shares a grid
// window with the source: any listener the indexed path skips is skipped by
// the audibility predicate, not by the grid.

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
    t.max_tx_power_dbm = 60.0;
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

// --- retirement of ended transmissions --------------------------------------
//
// An ended transmission stays in the medium's list, marked, until more than
// half the list has ended. Two waves of overlapping transmissions whose ends
// are a permutation of their TxIds leave ended entries between live ones and
// drive five compactions (at 19 of 36 ended, then 9 of 17, 5 of 8, 2 of 3
// and 1 of 1). After every end, a marked entry must be invisible to every
// reader.

/// The live set as the notifications alone describe it: starts arrive in
/// TxId order and an end removes its start, so `live` stays ascending.
struct LiveSet final : MediumListener {
  std::vector<ActiveTransmission> live;
  std::vector<TxId> ended;
  void on_tx_start(const ActiveTransmission& tx) override { live.push_back(tx); }
  void on_tx_end(const ActiveTransmission& tx) override {
    live.erase(std::find_if(live.begin(), live.end(),
                            [&tx](const ActiveTransmission& t) { return t.id == tx.id; }));
    ended.push_back(tx.id);
  }
};

struct RetirementWorld {
  static constexpr NodeId kQuietNode = 5;  ///< listens, never transmits

  explicit RetirementWorld(bool indexed)
      : sim(3), medium(sim, PathLossModel{40.0, 3.0, 0.0, 0.1}, tuning(indexed)) {
    for (int i = 0; i <= static_cast<int>(kQuietNode); ++i) {
      medium.add_node("n", {3.0 * i, 2.0 * (i % 2)});
    }
    medium.attach(&log);
  }

  static MediumTuning tuning(bool indexed) {
    MediumTuning t;
    t.spatial_index = indexed;
    return t;
  }

  /// Transmission i ends `len(i)` after now; sources cycle over the
  /// transmitting nodes, and bands over Wi-Fi and Bluetooth channels.
  template <typename Len>
  void begin_wave(int first, int count, Len len) {
    for (int i = first; i < first + count; ++i) {
      Frame f;
      f.tech = i % 3 == 0 ? Technology::WiFi : Technology::Bluetooth;
      f.src = static_cast<NodeId>(i % kQuietNode);
      const Band band = i % 3 == 0 ? wifi_channel(1 + 5 * ((i / 3) % 3))
                                   : bluetooth_channel((7 * i) % 79);
      medium.begin_tx(f, band, i % 3 == 0 ? 20.0 : 4.0, len(i - first));
    }
  }

  void expect_only_live_visible() const {
    std::vector<TxId> visible;
    medium.for_each_active([&](const ActiveTransmission& tx) { visible.push_back(tx.id); });
    std::vector<TxId> live;
    for (const ActiveTransmission& tx : log.live) live.push_back(tx.id);
    EXPECT_EQ(visible, live);
    EXPECT_EQ(medium.active_count(), live.size());
    for (const TxId id : live) {
      const ActiveTransmission* tx = medium.find_active(id);
      ASSERT_NE(tx, nullptr) << id;
      EXPECT_EQ(tx->id, id);
    }
    for (const TxId id : log.ended) EXPECT_EQ(medium.find_active(id), nullptr) << id;
  }

  /// energy_dbm's sum written out over the live set, in its order.
  [[nodiscard]] double live_energy_dbm(NodeId rx, Band band) const {
    double acc_mw = dbm_to_mw(Medium::noise_floor_dbm(band));
    for (const ActiveTransmission& tx : log.live) {
      if (tx.frame.src == rx || !medium.audible(tx, rx)) continue;
      if (!overlaps(tx.band, band)) continue;
      acc_mw += dbm_to_mw(medium.rx_power_dbm(tx, rx, band));
    }
    return mw_to_dbm(acc_mw);
  }

  sim::Simulator sim;
  Medium medium;
  LiveSet log;
};

TEST(MediumRetirement, EndedTransmissionsNeverLeak) {
  RetirementWorld brute(false);
  RetirementWorld indexed(true);
  ASSERT_TRUE(indexed.medium.spatially_indexed());
  Radio::Config rc;
  rc.tech = Technology::ZigBee;  // the script sends no ZigBee: never locks
  rc.band = zigbee_channel(11);
  rc.fading_sigma_db = 0.0;
  Radio radio(indexed.medium, RetirementWorld::kQuietNode, rc);

  // Wave 1 ends at 200 + 50 * ((5 i) mod 28) us; wave 2 starts at the
  // sixth end (450 us) and ends at 475 + 100 * ((3 j) mod 8) us, so 26 to
  // 30 are live from then to the tenth.
  const auto wave1 = [](int i) { return Duration::from_us(200 + 50 * ((5 * i) % 28)); };
  const auto wave2 = [](int j) { return Duration::from_us(25 + 100 * ((3 * j) % 8)); };
  brute.begin_wave(0, 28, wave1);
  indexed.begin_wave(0, 28, wave1);
  const Band probes[] = {zigbee_channel(11), wifi_channel(6), bluetooth_channel(40)};
  int ends = 0;
  while (brute.sim.step()) {
    ASSERT_TRUE(indexed.sim.step());
    ASSERT_EQ(brute.sim.now(), indexed.sim.now());
    if (++ends == 6) {
      brute.begin_wave(28, 8, wave2);
      indexed.begin_wave(28, 8, wave2);
    }
    brute.expect_only_live_visible();
    indexed.expect_only_live_visible();
    for (NodeId rx = 0; rx <= RetirementWorld::kQuietNode; ++rx) {
      for (const Band band : probes) {
        const double want = brute.live_energy_dbm(rx, band);
        EXPECT_EQ(brute.medium.energy_dbm(rx, band), want) << "end " << ends;
        EXPECT_EQ(indexed.medium.energy_dbm(rx, band), want) << "end " << ends;
      }
    }
    // The retune looks every tracked transmission up again while ended
    // entries are pending; its recomputed sum must match the medium's.
    const Band band = zigbee_channel(11 + ends % 16);
    radio.retune(band);
    EXPECT_NEAR(radio.energy_dbm(),
                indexed.medium.energy_dbm(RetirementWorld::kQuietNode, band), 1e-9)
        << "end " << ends;
  }
  EXPECT_FALSE(indexed.sim.step());
  EXPECT_EQ(ends, 36);
  EXPECT_EQ(indexed.medium.active_count(), 0u);
}

}  // namespace
}  // namespace bicord::phy

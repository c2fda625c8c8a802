#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "detect/features.hpp"
#include "detect/rssi_sampler.hpp"
#include "interferers/bluetooth.hpp"
#include "interferers/microwave.hpp"
#include "phy/medium.hpp"
#include "sim/simulator.hpp"

namespace bicord::interferers {
namespace {

using namespace bicord::time_literals;

struct InterfererFixture : ::testing::Test {
  InterfererFixture() : sim(61), medium(sim, phy::PathLossModel{40.0, 3.0, 0.0, 0.1}) {
    collector = medium.add_node("collector", {0.0, 0.0});
    source = medium.add_node("source", {1.5, 0.0});
  }

  detect::RssiSegment capture_segment() {
    detect::RssiSampler sampler(medium, collector, phy::zigbee_channel(24));
    detect::RssiSegment got;
    bool done = false;
    sampler.capture([&](detect::RssiSegment s) {
      got = std::move(s);
      done = true;
    });
    while (!done && sim.step()) {
    }
    return got;
  }

  sim::Simulator sim;
  phy::Medium medium;
  phy::NodeId collector{};
  phy::NodeId source{};
};

TEST_F(InterfererFixture, BluetoothHopsAcrossBand) {
  BluetoothDevice bt(medium, source);
  bt.start();
  sim.run_for(1_sec);
  // 1600 slots/s at 60 % occupancy for 1 s.
  EXPECT_NEAR(static_cast<double>(bt.packets_sent()), 960.0, 100.0);
  bt.stop();
  const auto count = bt.packets_sent();
  sim.run_for(100_ms);
  EXPECT_EQ(bt.packets_sent(), count);
}

TEST_F(InterfererFixture, BluetoothOnlySometimesLandsInZigbeeChannel) {
  BluetoothDevice bt(medium, source);
  bt.start();
  sim.run_for(20_ms);
  const auto seg = capture_segment();
  bt.stop();
  // Most hops miss the 2 MHz ZigBee channel: occupancy far below 50 %.
  const auto fp = detect::extract_fingerprint(seg, detect::FeatureParams{});
  EXPECT_LT(fp.occupancy, 0.4);
}

TEST_F(InterfererFixture, MicrowaveDutyCyclesAtMains) {
  MicrowaveOven oven(medium, source);
  oven.start();
  sim.run_for(1_sec);
  // 50 Hz; the cycle landing exactly on the 1 s boundary may also fire.
  EXPECT_GE(oven.cycles(), 50u);
  EXPECT_LE(oven.cycles(), 51u);
  oven.stop();
}

TEST_F(InterfererFixture, MicrowaveShowsLongOnTimes) {
  MicrowaveOven oven(medium, source);
  oven.start();
  sim.run_for(25_ms);  // land inside a cycle
  const auto seg = capture_segment();
  oven.stop();
  const auto f = detect::extract_tech_features(seg, detect::FeatureParams{});
  // Within a 5 ms window the oven is either fully on or off; when captured
  // mid-burst the on-air time dwarfs a Wi-Fi frame's.
  if (detect::has_activity(seg, detect::FeatureParams{})) {
    EXPECT_GT(f.avg_on_air_us, 500.0);
  }
}

TEST_F(InterfererFixture, MicrowaveEnergyIsStrong) {
  MicrowaveOven oven(medium, source);
  oven.start();
  sim.run_for(5_ms);  // first cycle's on-phase
  EXPECT_GT(medium.energy_dbm(collector, phy::zigbee_channel(24)), -60.0);
  oven.stop();
}

TEST_F(InterfererFixture, MicrowaveDestroyedWhileRunningCancelsItsCycle) {
  auto oven = std::make_unique<MicrowaveOven>(medium, source);
  oven->start();
  sim.run_for(15_ms);  // the first on-time has ended; the next cycle is queued
  const auto pending = sim.pending_events();
  oven.reset();
  EXPECT_EQ(sim.pending_events(), pending - 1);
}

/// Stops the oven from inside its first emission's start edge, i.e. during
/// the oven's own tick.
struct StopOnFirstEmission final : phy::MediumListener {
  MicrowaveOven* oven = nullptr;
  void on_tx_start(const phy::ActiveTransmission&) override {
    if (oven != nullptr) std::exchange(oven, nullptr)->stop();
  }
  void on_tx_end(const phy::ActiveTransmission&) override {}
};

TEST_F(InterfererFixture, MicrowaveStopInsideTheFirstCycleThenRestartRunsOneChain) {
  MicrowaveOven oven(medium, source);
  StopOnFirstEmission stopper;
  stopper.oven = &oven;
  medium.attach(&stopper);
  oven.start();
  EXPECT_FALSE(oven.running());
  sim.run_for(10_ms);
  oven.start();
  sim.run_for(200_ms);
  // The first cycle at 0, then one per 20 ms period from 10 to 210 ms.
  EXPECT_EQ(oven.cycles(), 12u);
  medium.detach(&stopper);
}

TEST_F(InterfererFixture, StartIsIdempotent) {
  BluetoothDevice bt(medium, source);
  bt.start();
  bt.start();
  sim.run_for(10_ms);
  // Double start must not double the slot rate: <= 16 slots in 10 ms.
  EXPECT_LE(bt.packets_sent(), 16u);
}

// --- slot clock ---------------------------------------------------------------

/// Every transmission start as (time, source, band centre, TxId), plus a
/// count of ends.
struct TxLog final : phy::MediumListener {
  std::vector<std::tuple<std::int64_t, phy::NodeId, double, phy::TxId>> starts;
  std::uint64_t ends = 0;
  void on_tx_start(const phy::ActiveTransmission& tx) override {
    starts.emplace_back(tx.start.us(), tx.frame.src, tx.band.center_mhz, tx.id);
  }
  void on_tx_end(const phy::ActiveTransmission&) override { ++ends; }
};

constexpr int kFieldSize = 8;

/// A field of kFieldSize devices, started empty so that each joins (splits
/// its stream and runs its first slot) before the next.
std::unique_ptr<BluetoothField> make_field(phy::Medium& medium) {
  auto field = std::make_unique<BluetoothField>(medium, BluetoothField::Config{});
  field->start();
  for (int i = 0; i < kFieldSize; ++i) {
    field->add(medium.add_node("bt", {2.0 * i, 1.0}));
  }
  return field;
}

TEST_F(InterfererFixture, FieldDispatchesOneClockEventPerSlot) {
  TxLog log;
  medium.attach(&log);
  const auto field = make_field(medium);
  const std::uint64_t before = sim.dispatched_events();
  sim.run_for(100_ms);
  // 160 slots in 100 ms. Every other event ends a transmission; eight
  // self-rescheduling devices would dispatch 8 x 160 slot events instead.
  EXPECT_EQ(sim.dispatched_events() - before - log.ends, 160u);
  EXPECT_GT(field->packets_sent(), 160u * kFieldSize / 2);
  medium.detach(&log);
}

std::vector<std::tuple<std::int64_t, phy::NodeId, double, phy::TxId>> hop_sequence(
    bool shared_clock) {
  sim::Simulator sim(61);
  phy::Medium medium(sim, phy::PathLossModel{40.0, 3.0, 0.0, 0.1});
  TxLog log;
  medium.attach(&log);
  std::unique_ptr<BluetoothField> field;
  std::vector<std::unique_ptr<BluetoothDevice>> devices;
  if (shared_clock) {
    field = make_field(medium);
  } else {
    for (int i = 0; i < kFieldSize; ++i) {
      devices.push_back(
          std::make_unique<BluetoothDevice>(medium, medium.add_node("bt", {2.0 * i, 1.0})));
      devices.back()->start();
    }
  }
  sim.run_for(100_ms);
  medium.detach(&log);
  return log.starts;
}

TEST(BluetoothFieldTest, SharedClockReproducesSeparateClocks) {
  const auto separate = hop_sequence(false);
  const auto shared = hop_sequence(true);
  EXPECT_GT(separate.size(), 160u * kFieldSize / 2);
  EXPECT_EQ(shared, separate);
}

TEST_F(InterfererFixture, FieldStopHaltsEveryDevice) {
  TxLog log;
  medium.attach(&log);
  const auto field = make_field(medium);
  field->start();  // idempotent: still one clock
  sim.run_for(10_ms);
  field->stop();
  EXPECT_FALSE(field->running());
  const auto sent = field->packets_sent();
  const auto starts = log.starts.size();
  EXPECT_EQ(starts, sent);
  sim.run_for(100_ms);
  EXPECT_EQ(field->packets_sent(), sent);
  EXPECT_EQ(log.starts.size(), starts);
  EXPECT_EQ(sim.pending_events(), 0u);
  medium.detach(&log);
}

}  // namespace
}  // namespace bicord::interferers

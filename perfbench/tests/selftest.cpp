// Tests of the benchmark's own machinery: the stepped loop of the traced
// run, and the fan-out replay that costs the medium on its own. That every
// printed metric matches BENCHMARK.json is checked by `run.py --selftest`,
// which runs each workload in both modes.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "phy/spectrum.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace bicord;

void expect_same_outputs(const RunResult& plain, const RunResult& traced) {
  EXPECT_EQ(plain.error, "");
  EXPECT_EQ(traced.error, "");
  EXPECT_TRUE(plain.start == traced.start);
  ASSERT_EQ(plain.slice_outputs.size(), traced.slice_outputs.size());
  for (std::size_t i = 0; i < plain.slice_outputs.size(); ++i) {
    EXPECT_TRUE(plain.slice_outputs[i] == traced.slice_outputs[i]) << "slice " << i;
    EXPECT_FALSE(plain.slice_failed[i]) << "slice " << i;
    EXPECT_FALSE(traced.slice_failed[i]) << "slice " << i;
  }
  EXPECT_GT(plain.end().events, plain.start.events);
}

TEST(SteppedRun, ReproducesRunForOnLongWorkloads) {
  for (const Workload w : {Workload::Dense1k, Workload::CityMobile}) {
    SCOPED_TRACE(workload_name(w));
    const auto config = long_spec(w, 5).must_config();
    const std::optional<std::uint64_t> mover =
        w == Workload::CityMobile ? std::optional<std::uint64_t>(5) : std::nullopt;
    const RunResult plain = run_scenario(config, mover, 8, kSlice, nullptr);
    Trace trace;
    const RunResult traced = run_scenario(config, mover, 8, kSlice, &trace);
    expect_same_outputs(plain, traced);
    EXPECT_GT(trace.listener.tx_starts, 0u);
    EXPECT_GT(trace.steps.edge_steps, 0u);
    EXPECT_GT(trace.steps.timer_steps, 0u);
    EXPECT_FALSE(trace.listener.txs.empty());
    EXPECT_EQ(trace.steps.event_times.size(),
              trace.steps.edge_steps + trace.steps.timer_steps);
    EXPECT_EQ(trace.listener.moves > 0, w == Workload::CityMobile);
  }
}

TEST(SteppedRun, ReproducesRunForOnEverySweepKind) {
  for (std::size_t trial = 0; trial < kTrialKinds; ++trial) {
    SCOPED_TRACE(trial);
    const auto config = trial_spec(9, trial).must_config();
    const RunResult plain = run_scenario(config, std::nullopt, 2, kTrialSlice, nullptr);
    Trace trace;
    const RunResult traced = run_scenario(config, std::nullopt, 2, kTrialSlice, &trace);
    expect_same_outputs(plain, traced);
    EXPECT_GT(trace.listener.tx_starts, 0u);
  }
}

TEST(TrialSpec, CyclesKindsAndDerivesSeeds) {
  const auto a = trial_spec(1, 0).must_config();
  const auto b = trial_spec(1, 1).must_config();
  EXPECT_EQ(a.coordination, coex::Coordination::BiCord);
  EXPECT_EQ(b.coordination, coex::Coordination::Ecc);
  EXPECT_EQ(trial_spec(1, 2).must_config().coordination, coex::Coordination::LteU);
  EXPECT_EQ(trial_spec(1, 3).must_config().coordination, coex::Coordination::Tsch);
  EXPECT_NE(a.seed, b.seed);
  EXPECT_EQ(a.seed, trial_spec(1, 0).must_config().seed);
  EXPECT_NE(a.seed, trial_spec(2, 0).must_config().seed);
}

TEST(LongSpec, SeedReplacesPresetSeedButNotTopology) {
  const auto a = long_spec(Workload::CityMobile, 1).must_config();
  const auto b = long_spec(Workload::CityMobile, 2).must_config();
  EXPECT_NE(a.seed, b.seed);
  EXPECT_EQ(a.dense.placement_seed, b.dense.placement_seed);
  EXPECT_TRUE(a.device_mobility);
}

/// A seeded field of nodes and transmissions, dense enough that the spatial
/// index culls some listeners and sparse enough that it culls not all.
struct Field {
  std::vector<NodeSnapshot> nodes;
  std::vector<TxRecord> txs;
};

Field make_field(std::uint64_t seed) {
  Rng rng(seed);
  Field f;
  for (int i = 0; i < 60; ++i) {
    const phy::Position pos{rng.uniform(0.0, 400.0), rng.uniform(0.0, 400.0)};
    f.nodes.push_back(NodeSnapshot{"n" + std::to_string(i), pos});
  }
  std::int64_t t = 0;
  for (int i = 0; i < 500; ++i) {
    TxRecord tx;
    tx.frame.tech = rng.bernoulli(0.5) ? phy::Technology::WiFi : phy::Technology::ZigBee;
    tx.frame.src = static_cast<phy::NodeId>(rng.uniform_int(0, 59));
    tx.band = tx.frame.tech == phy::Technology::WiFi ? phy::wifi_channel(11)
                                                     : phy::zigbee_channel(24);
    tx.power_dbm = tx.frame.tech == phy::Technology::WiFi ? 20.0 : 0.0;
    t += rng.uniform_int(0, 400);
    tx.start = TimePoint::from_us(t);
    tx.duration = Duration::from_us(rng.uniform_int(100, 2000));
    f.txs.push_back(tx);
  }
  return f;
}

phy::MediumTuning tuning(bool index) {
  phy::MediumTuning t;
  t.snap_floor_dbm = -97.0;
  t.spatial_index = index;
  t.max_tx_power_dbm = 20.0;
  return t;
}

TEST(FanoutReplay, BruteForceDeliversEveryEdgeToEveryListener) {
  const Field f = make_field(3);
  const phy::PathLossModel loss{40.0, 3.8, 0.0, 0.1};
  const FanoutReplay r = replay_fanout(f.nodes, loss, tuning(false), f.txs);
  EXPECT_EQ(r.tx, f.txs.size());
  EXPECT_EQ(r.deliveries(), 2 * f.txs.size() * f.nodes.size());
  EXPECT_GT(r.audible_starts, 0u);
  EXPECT_LT(r.audible_starts, r.start_deliveries);
}

TEST(FanoutReplay, IndexDeliversAtLeastEveryAudiblePair) {
  const Field f = make_field(4);
  const phy::PathLossModel loss{40.0, 3.8, 0.0, 0.1};
  const FanoutReplay brute = replay_fanout(f.nodes, loss, tuning(false), f.txs);
  const FanoutReplay indexed = replay_fanout(f.nodes, loss, tuning(true), f.txs);
  // Brute force delivers every pair, so its audible count is the number of
  // audible (tx, listener) pairs; the index must deliver all of them.
  EXPECT_EQ(indexed.audible_starts, brute.audible_starts);
  EXPECT_GE(indexed.start_deliveries, brute.audible_starts);
  EXPECT_GE(indexed.end_deliveries, brute.audible_starts);
  EXPECT_LT(indexed.deliveries(), brute.deliveries());
}

TEST(QueueReplay, ClampsDepthAndAcceptsNoEvents) {
  std::vector<TimePoint> times;
  for (int i = 0; i < 1000; ++i) times.push_back(TimePoint::from_us(i * 7));
  EXPECT_GT(replay_queue(times, 50), 0.0);
  EXPECT_GT(replay_queue(times, 5000), 0.0);  // depth clamps to the event count
  EXPECT_EQ(replay_queue({}, 10), 0.0);
}

}  // namespace
}  // namespace perfbench

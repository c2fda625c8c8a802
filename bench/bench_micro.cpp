// Microbenchmarks (google-benchmark) of the simulation kernel and the
// protocol hot paths: event queue throughput, RNG, CSI detection, feature
// extraction, classifier inference, medium energy queries, and end-to-end
// simulated-seconds-per-wallclock-second of the full scenario.

#include <benchmark/benchmark.h>

#include <cstdint>

#include "bench_json.hpp"
#include "coex/scenario.hpp"
#include "coex/scenario_spec.hpp"
#include "csi/csi_detector.hpp"
#include "detect/decision_tree.hpp"
#include "detect/features.hpp"
#include "detect/kmeans.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace {
using namespace bicord;
using namespace bicord::time_literals;

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  sim::EventQueue queue;
  Rng rng(1);
  std::int64_t t = 0;
  const std::uint64_t allocs_before = bench::allocation_count();
  const std::uint64_t cb_allocs_before = sim::EventCallback::heap_allocation_count();
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      queue.schedule(TimePoint::from_us(t + rng.uniform_int(0, 1000)), [] {});
    }
    for (int i = 0; i < 64; ++i) {
      auto fired = queue.pop();
      t = fired.time.us();
      benchmark::DoNotOptimize(fired.id);
    }
  }
  const auto events = static_cast<double>(state.iterations() * 64);
  state.SetItemsProcessed(state.iterations() * 64);
  // The steady state is allocation-free: the slab and heap reach capacity
  // during the first iterations and the remaining growth amortizes to ~0.
  state.counters["allocs_per_event"] =
      static_cast<double>(bench::allocation_count() - allocs_before) / events;
  state.counters["callback_heap_allocs_per_event"] =
      static_cast<double>(sim::EventCallback::heap_allocation_count() - cb_allocs_before) /
      events;
}
BENCHMARK(BM_EventQueueScheduleAndPop);

void BM_SimulatorEventDispatch(benchmark::State& state) {
  const std::uint64_t allocs_before = bench::allocation_count();
  for (auto _ : state) {
    sim::Simulator sim(1);
    int count = 0;
    std::function<void()> chain = [&] {
      if (++count < 1000) sim.after(10_us, chain);
    };
    sim.after(10_us, chain);
    sim.run_all();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
  // Not ~0 by design: the driver copies a std::function per event, which is
  // exactly the pattern the kernel itself avoids. Tracked so the copy cost
  // stays attributed to the driver, not the queue.
  state.counters["allocs_per_event"] =
      static_cast<double>(bench::allocation_count() - allocs_before) /
      static_cast<double>(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorEventDispatch);

void BM_RngNormal(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) benchmark::DoNotOptimize(rng.normal());
}
BENCHMARK(BM_RngNormal);

void BM_CsiDetectorAddSample(benchmark::State& state) {
  csi::CsiDetector detector;
  Rng rng(3);
  std::int64_t t = 0;
  for (auto _ : state) {
    csi::CsiSample s;
    t += 500;
    s.time = TimePoint::from_us(t);
    s.amplitude = rng.uniform() < 0.02 ? 1.0 : 0.1;
    detector.add_sample(s);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CsiDetectorAddSample);

void BM_TechFeatureExtraction(benchmark::State& state) {
  detect::RssiSegment seg;
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    seg.dbm.push_back(rng.uniform() < 0.3 ? -55.0 + rng.normal() : -97.0);
  }
  const detect::FeatureParams params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(detect::extract_tech_features(seg, params));
  }
}
BENCHMARK(BM_TechFeatureExtraction);

void BM_DecisionTreePredict(benchmark::State& state) {
  detect::DecisionTree tree;
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    x.push_back({rng.uniform(), rng.uniform(), rng.uniform(), rng.uniform()});
    y.push_back(x.back()[0] + x.back()[2] > 1.0 ? 1 : 0);
  }
  tree.fit(x, y);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.predict(x[i++ % x.size()]));
  }
}
BENCHMARK(BM_DecisionTreePredict);

void BM_KmeansCluster(benchmark::State& state) {
  std::vector<std::vector<double>> rows;
  Rng data_rng(11);
  for (int i = 0; i < 120; ++i) {
    const double base = (i % 3) * 10.0;
    rows.push_back({base + data_rng.normal(), base + data_rng.normal()});
  }
  for (auto _ : state) {
    Rng rng(13);
    detect::KmeansParams p;
    p.k = 3;
    benchmark::DoNotOptimize(detect::kmeans_manhattan(rows, p, rng));
  }
}
BENCHMARK(BM_KmeansCluster);

void BM_MediumEnergyQuery(benchmark::State& state) {
  sim::Simulator sim(1);
  phy::Medium medium(sim, phy::PathLossModel{40.0, 3.0, 0.0, 0.1});
  const auto rx = medium.add_node("rx", {0.0, 0.0});
  for (int i = 0; i < 8; ++i) {
    const auto tx = medium.add_node("tx", {1.0 + i, 0.5});
    phy::Frame f;
    f.tech = phy::Technology::WiFi;
    f.src = tx;
    medium.begin_tx(f, phy::wifi_channel(11), 20.0, 1_sec);
  }
  const auto band = phy::zigbee_channel(24);
  for (auto _ : state) {
    benchmark::DoNotOptimize(medium.energy_dbm(rx, band));
  }
}
BENCHMARK(BM_MediumEnergyQuery);

/// Runs `preset` as shipped; `brute_twin` switches an indexed preset's medium
/// to brute force.
void BM_FullScenarioSimulatedSecond(benchmark::State& state, const char* preset,
                                    int seed_override, bool brute_twin) {
  auto spec = *coex::ScenarioSpec::preset(preset);
  if (seed_override >= 0) spec.set("seed", seed_override);
  if (brute_twin) spec.set("medium.spatial_index", false);
  const auto cfg = spec.must_config();
  std::uint64_t events = 0;
  for (auto _ : state) {
    coex::Scenario scenario(cfg);
    scenario.run_for(1_sec);
    benchmark::DoNotOptimize(scenario.zigbee_stats().delivered);
    events += scenario.simulator().dispatched_events();
  }
  // Each iteration simulates exactly one second, so the rate counter reads
  // directly as simulated seconds per wallclock second. items_per_second is
  // events dispatched per wallclock second — the scheduler-throughput view.
  state.counters["sim_sec_per_wall_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK_CAPTURE(BM_FullScenarioSimulatedSecond, default, "default", 5, false)
    ->Unit(benchmark::kMillisecond);
// The dense pair demonstrates the spatial index at scale: same preset, same
// seed, same (bitwise-identical) simulation output — the only difference is
// whether the medium walks every node per event or a grid neighborhood.
BENCHMARK_CAPTURE(BM_FullScenarioSimulatedSecond, dense1k, "dense1k", -1, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_FullScenarioSimulatedSecond, dense1k_brute, "dense1k", -1, true)
    ->Unit(benchmark::kMillisecond);
// City scale: the largest shipped preset, on the same events-per-second
// counter.
BENCHMARK_CAPTURE(BM_FullScenarioSimulatedSecond, city, "city", -1, false)
    ->Unit(benchmark::kMillisecond);
// The third/fourth technologies, as shipped (brute-force medium): LTE-U's
// periodic wideband bursts dominate the event mix (duty cycling, no
// per-packet MAC), while TSCH adds a lockstep radio retune every hop period
// on top of the normal link traffic.
BENCHMARK_CAPTURE(BM_FullScenarioSimulatedSecond, lteu, "lteu", -1, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_FullScenarioSimulatedSecond, tsch, "tsch", -1, false)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) { return bicord::bench::run_benchmarks(argc, argv); }

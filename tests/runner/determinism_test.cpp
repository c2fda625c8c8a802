// The determinism contract of the parallel experiment engine: aggregated
// metrics are a pure function of (config, seed, repetitions) — the thread
// count, scheduling order, and reruns must never change a single bit.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <vector>

#include "coex/experiment.hpp"
#include "runner/parallel_runner.hpp"

namespace bicord {
namespace {

using namespace bicord::time_literals;

/// The exact bit pattern, so "identical" means identical (== would also
/// accept -0.0 vs 0.0 and can be weakened by x87-style extended precision).
std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  static_assert(sizeof(u) == sizeof(v));
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

void expect_bitwise_equal(const std::vector<runner::MetricSummary>& a,
                          const std::vector<runner::MetricSummary>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t m = 0; m < a.size(); ++m) {
    EXPECT_EQ(a[m].name, b[m].name);
    EXPECT_EQ(a[m].stats.count(), b[m].stats.count());
    EXPECT_EQ(bits(a[m].stats.mean()), bits(b[m].stats.mean())) << a[m].name;
    EXPECT_EQ(bits(a[m].stats.stddev()), bits(b[m].stats.stddev())) << a[m].name;
    EXPECT_EQ(bits(a[m].stats.min()), bits(b[m].stats.min())) << a[m].name;
    EXPECT_EQ(bits(a[m].stats.max()), bits(b[m].stats.max())) << a[m].name;
  }
}

// A cheap trial with "awkward" irrational values: any reordering of the
// Welford updates would change the low-order bits immediately.
std::vector<double> synthetic_trial(std::size_t i) {
  const double x = static_cast<double>(i + 1);
  return {std::sqrt(x), std::sin(x) / 3.0 + 1e-9 * x};
}

std::vector<runner::MetricSummary> run_synthetic(int jobs, int trials) {
  runner::ParallelExperimentRunner engine({"sqrt", "wobble"}, synthetic_trial);
  engine.set_jobs(jobs);
  return engine.run(trials);
}

TEST(DeterminismTest, SyntheticTrialsBitwiseIdenticalAcrossJobs) {
  const auto j1 = run_synthetic(1, 97);
  const auto j2 = run_synthetic(2, 97);
  const auto j8 = run_synthetic(8, 97);
  expect_bitwise_equal(j1, j2);
  expect_bitwise_equal(j1, j8);
  EXPECT_EQ(j1[0].stats.count(), 97u);
}

coex::ScenarioConfig quick_config() {
  coex::ScenarioConfig cfg;
  cfg.seed = 4242;
  cfg.coordination = coex::Coordination::BiCord;
  cfg.burst.packets_per_burst = 5;
  cfg.burst.payload_bytes = 50;
  cfg.burst.mean_interval = 200_ms;
  return cfg;
}

std::vector<runner::MetricSummary> run_scenarios(int jobs) {
  coex::ExperimentRunner runner(quick_config(), 100_ms, 1_sec);
  runner.set_jobs(jobs);
  runner.add_metric("util", coex::metric_total_utilization());
  runner.add_metric("delay", coex::metric_zigbee_mean_delay_ms());
  runner.add_metric("delivery", coex::metric_zigbee_delivery());
  return runner.run(6);
}

TEST(DeterminismTest, ScenarioSweepBitwiseIdenticalAcrossJobs) {
  const auto j1 = run_scenarios(1);
  const auto j2 = run_scenarios(2);
  const auto j8 = run_scenarios(8);
  expect_bitwise_equal(j1, j2);
  expect_bitwise_equal(j1, j8);
  EXPECT_EQ(j1[0].stats.count(), 6u);
  EXPECT_GT(j1[0].stats.mean(), 0.0);
}

TEST(DeterminismTest, SameSeedRerunReproduces) {
  expect_bitwise_equal(run_scenarios(2), run_scenarios(2));
}

TEST(DeterminismTest, DifferentBaseSeedChangesResults) {
  coex::ScenarioConfig other = quick_config();
  other.seed = 4243;
  coex::ExperimentRunner runner(other, 100_ms, 1_sec);
  runner.set_jobs(2);
  runner.add_metric("delay", coex::metric_zigbee_mean_delay_ms());
  const auto a = runner.run(6);
  const auto b = run_scenarios(2);
  EXPECT_NE(bits(a[0].stats.mean()), bits(b[1].stats.mean()));
}

TEST(DeterminismTest, TrialSeedsAreDistinctAndStable) {
  coex::ExperimentRunner runner(quick_config(), 100_ms, 1_sec);
  std::set<std::uint64_t> seeds;
  for (std::size_t rep = 0; rep < 256; ++rep) seeds.insert(runner.trial_seed(rep));
  EXPECT_EQ(seeds.size(), 256u);  // no per-trial stream collides

  coex::ExperimentRunner again(quick_config(), 100_ms, 1_sec);
  for (std::size_t rep = 0; rep < 256; ++rep) {
    EXPECT_EQ(runner.trial_seed(rep), again.trial_seed(rep));
  }
}

TEST(DeterminismTest, ReportCountsTrialsAndJobs) {
  coex::ExperimentRunner runner(quick_config(), 100_ms, 500_ms);
  runner.set_jobs(2);
  runner.add_metric("util", coex::metric_total_utilization());
  std::size_t progress_calls = 0;
  runner.set_progress([&](std::size_t, std::size_t total) {
    ++progress_calls;
    EXPECT_EQ(total, 4u);
  });
  (void)runner.run(4);
  const auto& report = runner.last_report();
  EXPECT_EQ(report.trials, 4u);
  EXPECT_EQ(report.jobs, 2);
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_EQ(progress_calls, 4u);
  EXPECT_NE(report.to_string().find("trials"), std::string::npos);
}

}  // namespace
}  // namespace bicord

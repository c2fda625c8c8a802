#include "runner/parallel_runner.hpp"

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <stdexcept>

namespace bicord::runner {

std::string MetricSummary::to_string(int precision) const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.*f +/- %.*f", precision, stats.mean(),
                precision, ci95());
  return buf;
}

std::string RunReport::to_string() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "%zu trials in %.2f s (%.1f trials/s, jobs=%d)", trials,
                wall_seconds, trials_per_second(), jobs);
  return buf;
}

ParallelExperimentRunner::ParallelExperimentRunner(
    std::vector<std::string> metric_names, TrialFn trial)
    : names_(std::move(metric_names)), trial_(std::move(trial)) {
  if (names_.empty()) {
    throw std::logic_error("ParallelExperimentRunner: no metrics registered");
  }
  if (!trial_) {
    throw std::invalid_argument("ParallelExperimentRunner: null trial function");
  }
}

std::vector<MetricSummary> ParallelExperimentRunner::run(int trials) {
  if (trials < 1) {
    throw std::invalid_argument("ParallelExperimentRunner: trials < 1");
  }
  const auto n = static_cast<std::size_t>(trials);
  // Never spawn more workers than there are trials.
  const int jobs = std::min(resolve_jobs(jobs_), trials);

  std::vector<std::vector<double>> results(n);
  std::mutex progress_mutex;  // guards done/progress_
  std::size_t done = 0;

  // Wall-clock reads below feed only the human-facing RunReport
  // (throughput); no simulation state depends on them, so the determinism
  // rule is waived here.
  const auto wall_start = std::chrono::steady_clock::now();  // bicord-lint: allow(wall-clock)
  TrialPool pool(jobs);
  pool.run(n, [&](std::size_t i) {
    std::vector<double> values = trial_(i);
    if (values.size() != names_.size()) {
      throw std::logic_error(
          "ParallelExperimentRunner: trial returned " +
          std::to_string(values.size()) + " values for " +
          std::to_string(names_.size()) + " metrics");
    }
    results[i] = std::move(values);
    const std::lock_guard lock(progress_mutex);
    ++done;
    if (progress_) progress_(done, n);
  });
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - wall_start;  // bicord-lint: allow(wall-clock)

  report_ = RunReport{n, jobs, wall.count()};

  // Seed-ordered merge: identical add() sequence per metric as a serial
  // loop over trials, hence bitwise-identical Welford state.
  std::vector<MetricSummary> summaries;
  summaries.reserve(names_.size());
  for (std::size_t m = 0; m < names_.size(); ++m) {
    MetricSummary summary{names_[m], {}};
    for (std::size_t i = 0; i < n; ++i) summary.stats.add(results[i][m]);
    summaries.push_back(std::move(summary));
  }
  return summaries;
}

}  // namespace bicord::runner

#pragma once
// Parallel multi-seed experiment engine with bitwise-deterministic
// aggregation.
//
// parallel_for() is the one place in src/ that starts threads: the caller
// and up to `jobs - 1` helper threads take trial indices from one shared
// counter until every index has run. Trials are coarse (milliseconds to
// seconds each), so one counter balances load across threads, and the
// threads live only as long as one batch.
//
// A trial is an opaque function of its index that returns one value per
// registered metric (the caller derives the trial's seed/config from the
// index). ParallelExperimentRunner keeps the per-trial metric vectors by
// index and merges them in index (== seed) order afterwards, so the
// aggregated MetricSummary values are bitwise identical for any thread
// count — `--jobs 8` reproduces `--jobs 1` exactly, and a rerun with the
// same seed reproduces both.
//
// The engine is scenario-agnostic on purpose: coex::ExperimentRunner wraps
// it for Scenario sweeps, and the benches drive it (or parallel_for) with
// their own trial shapes.

#include <chrono>
#include <cmath>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace bicord::runner {

/// Worker-count resolution shared by every parallel entry point:
/// `requested` if >= 1, else the BICORD_JOBS environment variable if it
/// parses as a positive integer, else std::thread::hardware_concurrency()
/// (minimum 1).
[[nodiscard]] int resolve_jobs(int requested = 0);

/// Executes fn(0) .. fn(n-1), each exactly once, and returns when every call
/// has finished. The calling thread runs trials too, alongside up to
/// min(jobs, n) - 1 helper threads; `jobs <= 0` resolves via resolve_jobs(),
/// and jobs == 1 runs everything inline on the caller's thread. If a helper
/// cannot be started (the OS is out of threads or address space), the
/// caller runs the whole batch alone. If calls throw, every remaining index
/// still runs; afterwards the exception of the LOWEST failing index is
/// rethrown (deterministic regardless of scheduling). Returns the number of
/// threads that ran trials.
int parallel_for(std::size_t n, int jobs, const std::function<void(std::size_t)>& fn);

/// parallel_for() collecting one result per index, in index order.
template <typename R>
[[nodiscard]] std::vector<R> parallel_map(std::size_t n, int jobs,
                                          const std::function<R(std::size_t)>& fn) {
  std::vector<R> out(n);
  parallel_for(n, jobs, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

/// Aggregate of one metric across all trials of an experiment.
struct MetricSummary {
  std::string name;
  RunningStats stats;

  /// Half-width of the ~95 % confidence interval (normal approximation).
  [[nodiscard]] double ci95() const {
    if (stats.count() < 2) return 0.0;
    return 1.96 * stats.stddev() / std::sqrt(static_cast<double>(stats.count()));
  }
  [[nodiscard]] std::string to_string(int precision = 2) const;
};

/// Wall-clock accounting for one batch of trials: enough for benches to
/// report throughput on long sweeps. `jobs` is the number of threads that
/// ran, as parallel_for() returns it. Timing is observational only — it never
/// feeds into the metric aggregation and differs run to run, so it is kept
/// off the deterministic output (bicordsim prints it on stderr).
struct RunReport {
  std::size_t trials = 0;
  int jobs = 1;
  double wall_seconds = 0.0;

  [[nodiscard]] double trials_per_second() const {
    return wall_seconds > 0.0 ? static_cast<double>(trials) / wall_seconds : 0.0;
  }
  /// e.g. "20 trials in 3.41 s (5.9 trials/s, jobs=4)"
  [[nodiscard]] std::string to_string() const;
};

/// One trial: index -> one value per registered metric.
using TrialFn = std::function<std::vector<double>(std::size_t trial)>;
/// Progress callback, invoked after each finished trial (from the caller's
/// lock; completion order, not index order).
using ProgressFn = std::function<void(std::size_t done, std::size_t total)>;

class ParallelExperimentRunner {
 public:
  /// `metric_names` fixes the width and labels of every trial's result
  /// vector; `trial` produces exactly that many values per index.
  ParallelExperimentRunner(std::vector<std::string> metric_names, TrialFn trial);

  /// Threads for run(); <= 0 selects BICORD_JOBS / all hardware.
  void set_jobs(int jobs) { jobs_ = jobs; }
  void set_progress(ProgressFn progress) { progress_ = std::move(progress); }

  /// Runs `trials` independent trials and aggregates each metric in trial
  /// order. Thread count never affects the returned values.
  [[nodiscard]] std::vector<MetricSummary> run(int trials);

  /// Timing of the most recent run().
  [[nodiscard]] const RunReport& last_report() const { return report_; }

 private:
  std::vector<std::string> names_;
  TrialFn trial_;
  ProgressFn progress_;
  int jobs_ = 0;
  RunReport report_;
};

}  // namespace bicord::runner

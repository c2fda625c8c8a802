#include "runner/parallel_runner.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "util/flags.hpp"

namespace bicord::runner {

int resolve_jobs(int requested) {
  if (requested >= 1) return requested;
  // NOLINTNEXTLINE(concurrency-mt-unsafe) — read before parallel_for starts any thread.
  if (const char* env = std::getenv("BICORD_JOBS")) {
    if (const auto v = parse_positive_int(env)) return *v;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

int parallel_for(std::size_t n, int jobs, const std::function<void(std::size_t)>& fn) {
  if (!fn) throw std::invalid_argument("parallel_for: null trial function");
  std::vector<std::exception_ptr> errors(n);  // slot i written only by trial i
  std::atomic<std::size_t> next{0};
  const auto drain = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  const std::size_t wanted =
      std::min(static_cast<std::size_t>(resolve_jobs(jobs)), std::max<std::size_t>(n, 1));

  // Helpers take no index until every helper has started. If one cannot be
  // started, threads or address space for their stacks have run out: the
  // started helpers leave without touching the heap, and the caller runs the
  // batch alone. Thread count never changes results.
  enum class Gate { kClosed, kOpen, kAbandoned };
  std::atomic<Gate> gate{Gate::kClosed};
  std::vector<std::jthread> helpers;
  helpers.reserve(wanted - 1);
  bool all_started = true;
  try {
    while (helpers.size() + 1 < wanted) {
      helpers.emplace_back([&] {
        gate.wait(Gate::kClosed);
        if (gate.load() == Gate::kOpen) drain();
      });
    }
  } catch (...) {  // std::system_error from the OS, or std::bad_alloc
    all_started = false;
  }
  gate.store(all_started ? Gate::kOpen : Gate::kAbandoned);
  gate.notify_all();
  if (!all_started) helpers.clear();  // joins them
  const int threads = static_cast<int>(helpers.size()) + 1;
  drain();
  helpers.clear();  // join before `errors` is read
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return threads;
}

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

  std::vector<std::vector<double>> results(n);
  std::mutex progress_mutex;  // guards done/progress_
  std::size_t done = 0;

  // Wall-clock reads below feed only the human-facing RunReport
  // (throughput); no simulation state depends on them, so the determinism
  // rule is waived here.
  const auto wall_start = std::chrono::steady_clock::now();  // bicord-lint: allow(wall-clock)
  const int threads = parallel_for(n, jobs_, [&](std::size_t i) {
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

  report_ = RunReport{n, threads, wall.count()};

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

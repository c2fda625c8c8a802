#include "coex/experiment.hpp"

#include <stdexcept>
#include <utility>

#include "util/rng.hpp"

namespace bicord::coex {

ExperimentRunner::ExperimentRunner(ScenarioConfig base, Duration warmup,
                                   Duration measure)
    : base_(std::move(base)), warmup_(warmup), measure_(measure) {
  if (measure_ <= Duration::zero()) {
    throw std::invalid_argument("ExperimentRunner: measure window must be positive");
  }
}

void ExperimentRunner::add_metric(std::string name, Metric metric) {
  if (!metric) throw std::invalid_argument("ExperimentRunner: null metric");
  metrics_.emplace_back(std::move(name), std::move(metric));
}

std::uint64_t ExperimentRunner::trial_seed(std::size_t rep) const {
  // Independent per-trial stream: SplitMix64-derived from (base seed, rep)
  // without consuming any draws from the base stream.
  return Rng(base_.seed).split(rep)();
}

std::vector<MetricSummary> ExperimentRunner::run(int repetitions) {
  if (repetitions < 1) throw std::invalid_argument("ExperimentRunner: repetitions < 1");
  if (metrics_.empty()) throw std::logic_error("ExperimentRunner: no metrics registered");

  std::vector<std::string> names;
  names.reserve(metrics_.size());
  for (const auto& [name, metric] : metrics_) names.push_back(name);

  runner::ParallelExperimentRunner engine(
      std::move(names), [this](std::size_t rep) {
        ScenarioConfig cfg = base_;
        cfg.seed = trial_seed(rep);
        Scenario scenario(cfg);
        warm_and_measure(scenario, warmup_, measure_);
        std::vector<double> values;
        values.reserve(metrics_.size());
        for (const auto& [name, metric] : metrics_) {
          values.push_back(metric(scenario));
        }
        return values;
      });
  engine.set_jobs(jobs_);
  if (progress_) engine.set_progress(progress_);
  auto summaries = engine.run(repetitions);
  report_ = engine.last_report();
  return summaries;
}

Metric metric_total_utilization() {
  return [](Scenario& s) { return s.utilization().total; };
}

Metric metric_zigbee_utilization() {
  return [](Scenario& s) { return s.utilization().zigbee; };
}

Metric metric_zigbee_mean_delay_ms() {
  return [](Scenario& s) {
    const auto& d = s.zigbee_stats().delay_ms;
    return d.empty() ? 0.0 : d.mean();
  };
}

Metric metric_zigbee_delivery() {
  return [](Scenario& s) { return s.zigbee_stats().delivery_ratio(); };
}

Metric metric_zigbee_goodput_kbps() {
  return [](Scenario& s) { return s.zigbee_goodput_kbps(); };
}

}  // namespace bicord::coex

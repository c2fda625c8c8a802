// perfbench: the repository's end-to-end benchmark program.
//
//   perfbench --workload <dense1k|city_mobile|paper_sweep> --seed <n>
//             --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the workload
// untraced and then traced, checks that both produce the same simulated
// outputs, and reports the per-layer metrics. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "runner/parallel_runner.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace bicord;
using Clock = std::chrono::steady_clock;

// Simulated work per requested wall second, sized on a 4-core x86 box so a
// run measures roughly --seconds of host time. Fixed constants, not a wall
// clock loop: a seed always simulates the same thing.
constexpr double kDenseSimSecondsPerSecond = 2.0;
constexpr double kCitySimSecondsPerSecond = 2.5;
constexpr double kSweepTrialsPerSecond = 250.0;
/// Each timing is taken per block of a run and the best block is reported:
/// contention from other tenants of a shared host only ever adds time, and on
/// a 4-vCPU VM it can double a trial's time for seconds at a stretch. A
/// block is 100 slices or, in the sweep, one runner call of 100 trials:
/// enough that at least 10 lie beyond its p90.
constexpr int kSlicesPerBlock = 100;
constexpr std::size_t kTrialsPerBlock = 100;  // a multiple of kTrialKinds
/// A sweep set-up sample builds each trial kind this many times, so one
/// sample spans more than a few microseconds.
constexpr std::size_t kSetupCyclesPerSample = 8;
/// Trials re-run at 1 and 2 workers to check that aggregates do not depend
/// on the worker count.
constexpr std::size_t kWorkerCheckTrials = 64;

struct Args {
  Workload workload = Workload::Dense1k;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< output checks that did not hold
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<dense1k|city_mobile|paper_sweep> --seed <n> --seconds <1..60> "
               "--trace <0|1>\n",
               why.c_str());
  std::exit(2);
}

template <typename T>
T parse_number(std::string_view flag, std::string_view text) {
  T value{};
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size()) {
    usage("bad value '" + std::string(text) + "' for " + std::string(flag));
  }
  return value;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + std::string(flag));
    const std::string_view value = argv[i + 1];
    if (flag == "--workload") {
      const auto w = parse_workload(value);
      if (!w) usage("unknown workload '" + std::string(value) + "'");
      a.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = parse_number<std::uint64_t>(flag, value);
    } else if (flag == "--seconds") {
      a.seconds = parse_number<int>(flag, value);
      if (a.seconds < 1 || a.seconds > 60) usage("--seconds must be 1..60");
    } else if (flag == "--trace") {
      const int t = parse_number<int>(flag, value);
      if (t != 0 && t != 1) usage("--trace must be 0 or 1");
      a.trace = t == 1;
    } else {
      usage("unknown flag '" + std::string(flag) + "'");
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

/// Linear-interpolation quantile (the same rule as util/stats Samples).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }
double count(std::uint64_t n) { return static_cast<double>(n); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Host timings of one block of measured work.
struct Block {
  double sim_s = 0.0;   ///< simulated seconds measured in the block
  double wall_s = 0.0;  ///< host seconds the block took
  std::vector<double> slice_ms;
  std::vector<double> trial_ms;
};

/// Best block: the lowest time, or with `rate`, the highest rate.
template <typename F>
double best_over(const std::vector<Block>& blocks, F f, bool rate = false) {
  std::vector<double> v;
  for (const auto& b : blocks) v.push_back(f(b));
  return rate ? *std::max_element(v.begin(), v.end())
              : *std::min_element(v.begin(), v.end());
}

auto slice_q(double q) {
  return [q](const Block& b) { return quantile(b.slice_ms, q); };
}
auto trial_q(double q) {
  return [q](const Block& b) { return quantile(b.trial_ms, q); };
}

/// The end-to-end metrics, in BENCHMARK.json order. Slice metrics come from
/// `slices`, trial metrics from `trials`: the same blocks for paper_sweep,
/// and for a long run its slice blocks and the one whole run.
void report_end_to_end(const std::vector<Block>& slices, const std::vector<Block>& trials,
                       const SetupTiming& setup, const Outputs& w, Report& r) {
  r.add("sim_s_per_wall_s",
        best_over(slices, [](const Block& b) { return ratio(b.sim_s, b.wall_s); }, true),
        "sim_s/s");
  r.add("slice_ms_p50", best_over(slices, slice_q(0.5)), "ms");
  r.add("trials_per_s", best_over(trials, [](const Block& b) {
          return ratio(static_cast<double>(b.trial_ms.size()), b.wall_s);
        }, true), "1/s");
  r.add("trial_ms_p50", best_over(trials, trial_q(0.5)), "ms");
  r.add("setup_s", setup.total_s, "s");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  r.add("zigbee_delay_mean_ms", ratio(w.zigbee_delay_sum_ms, count(w.zigbee_delays)),
        "ms");
  r.add("zigbee_delivery_ratio",
        ratio(count(w.zigbee_delivered), count(w.zigbee_generated)), "ratio");
}

/// The p90s of the untraced run, reported with the per-layer metrics: on a
/// shared 4-vCPU host their 10-run spread reached 0.31-0.36 on paper_sweep,
/// beyond any bound an end-to-end metric may have, so they carry none.
void report_tails(const std::vector<Block>& slices, const std::vector<Block>& trials,
                  Report& r) {
  r.add("slice_ms_p90", best_over(slices, slice_q(0.9)), "ms");
  r.add("trial_ms_p90", best_over(trials, trial_q(0.9)), "ms");
}

/// Simulated-output checks shared by every workload.
void check_window(const Outputs& w, Report& r) {
  r.check(w.events > 0, "no events dispatched in the measured window");
  r.check(w.zigbee_generated > 0, "testbed ZigBee link generated no packets");
  r.check(w.zigbee_delivered > 0, "testbed ZigBee link delivered nothing");
  r.check(w.zigbee_delays == w.zigbee_delivered, "one delay sample per delivery");
  r.check(w.invariant_checks > 0, "invariant checker never ran");
}

/// Per-layer counters of a traced run.
struct Layers {
  double measured_sim_s = 0.0;
  double traced_wall_s = 0.0;
  double untraced_wall_s = 0.0;
  double trial_busy_s = 0.0;  ///< summed trial wall time of the untraced run
  double run_wall_s = 0.0;    ///< wall time of the untraced run
  int workers = 1;
  SetupTiming setup;
  Outputs window;
  std::uint64_t tx = 0;
  std::uint64_t moves = 0;
  std::uint64_t edge_steps = 0, timer_steps = 0;
  double edge_s = 0.0, timer_s = 0.0;
  std::size_t peak_pending = 0;
  std::uint64_t queue_events = 0;
  double queue_s = 0.0;
  FanoutReplay fanout;
  EnergyProbe energy;

  void add_trace(const Trace& t) {
    tx += t.listener.tx_starts;
    moves += t.listener.moves;
    edge_steps += t.steps.edge_steps;
    timer_steps += t.steps.timer_steps;
    edge_s += t.steps.edge_s;
    timer_s += t.steps.timer_s;
    peak_pending = std::max(peak_pending, t.steps.peak_pending);
    energy.queries += t.energy.queries;
    energy.seconds += t.energy.seconds;
    energy.checksum += t.energy.checksum;
  }
  /// Runs both replays over what the trace recorded.
  void replay(const Trace& t) {
    if (t.listener.txs.empty()) return;
    const FanoutReplay f = replay_fanout(t.nodes, t.path_loss, t.tuning, t.listener.txs);
    fanout.tx += f.tx;
    fanout.seconds += f.seconds;
    fanout.start_deliveries += f.start_deliveries;
    fanout.end_deliveries += f.end_deliveries;
    fanout.audible_starts += f.audible_starts;
    queue_events += t.steps.event_times.size();
    queue_s += replay_queue(t.steps.event_times, t.steps.peak_pending);
  }
};

void report_layers(const Layers& l, Report& r) {
  const Outputs& w = l.window;
  auto rate = [&](std::uint64_t n) { return ratio(count(n), l.measured_sim_s); };
  auto ns_per = [](double s, std::uint64_t n) { return ratio(s * 1e9, count(n)); };
  const char* per_sim_s = "count/sim_s";
  r.add("coex.spec_lower_us", l.setup.lower_s * 1e6, "us");
  r.add("coex.scenario_ctor_ms", l.setup.construct_s * 1e3, "ms");
  r.add("sim.events_per_sim_s", rate(w.events), per_sim_s);
  r.add("sim.peak_pending", count(l.peak_pending), "count");
  r.add("sim.queue_ns_per_event", ns_per(l.queue_s, l.queue_events), "ns");
  r.add("sim.edge_step_ns", ns_per(l.edge_s, l.edge_steps), "ns");
  r.add("sim.timer_step_ns", ns_per(l.timer_s, l.timer_steps), "ns");
  r.add("sim.trace_overhead_ratio", ratio(l.traced_wall_s, l.untraced_wall_s), "ratio");
  r.add("phy.tx_per_sim_s", rate(l.tx), per_sim_s);
  r.add("phy.fanout_ns_per_tx", ns_per(l.fanout.seconds, l.fanout.tx), "ns");
  r.add("phy.deliveries_per_tx", ratio(count(l.fanout.deliveries()), count(l.fanout.tx)),
        "count");
  r.add("phy.audible_delivery_share",
        ratio(count(l.fanout.audible_starts), count(l.fanout.start_deliveries)), "ratio");
  r.add("phy.energy_query_ns", ns_per(l.energy.seconds, l.energy.queries), "ns");
  r.add("phy.moves_per_sim_s", rate(l.moves), per_sim_s);
  r.add("wifi.delivered_per_sim_s", rate(w.wifi_delivered + w.dense_wifi_delivered),
        per_sim_s);
  r.add("zigbee.delivered_per_sim_s", rate(w.zigbee_delivered + w.dense_zigbee_delivered),
        per_sim_s);
  r.add("core.grants_per_sim_s", rate(w.grants), per_sim_s);
  r.add("core.control_packets_per_sim_s", rate(w.control_packets), per_sim_s);
  r.add("csi.samples_per_sim_s", rate(w.csi_samples), per_sim_s);
  r.add("csi.detections_per_sim_s", rate(w.csi_detections), per_sim_s);
  r.add("detect.cti_samples_per_sim_s", rate(w.cti_samples), per_sim_s);
  r.add("fault.invariant_checks", count(w.invariant_checks), "count");
  r.add("runner.worker_busy_share", ratio(l.trial_busy_s, l.run_wall_s * l.workers),
        "ratio");
  r.check(l.tx > 0 && l.fanout.tx > 0, "traced run saw no transmissions");
  r.check(l.energy.queries > 0 && std::isfinite(l.energy.checksum),
          "energy probes returned no finite reading");
}

/// Sums the measured-window counters of several runs (sweep trials).
void accumulate(Outputs& total, const Outputs& w) {
  total.events += w.events;
  total.now_us += w.now_us;
  total.zigbee_generated += w.zigbee_generated;
  total.zigbee_delivered += w.zigbee_delivered;
  total.zigbee_dropped += w.zigbee_dropped;
  total.zigbee_delays += w.zigbee_delays;
  total.zigbee_delay_sum_ms += w.zigbee_delay_sum_ms;
  total.wifi_delivered += w.wifi_delivered;
  total.dense_wifi_delivered += w.dense_wifi_delivered;
  total.dense_zigbee_delivered += w.dense_zigbee_delivered;
  total.grants += w.grants;
  total.control_packets += w.control_packets;
  total.csi_samples += w.csi_samples;
  total.csi_detections += w.csi_detections;
  total.cti_samples += w.cti_samples;
  total.invariant_checks += w.invariant_checks;
  total.violations += w.violations;
}

void note_error(const std::string& where, const std::string& error) {
  if (!error.empty()) {
    std::fprintf(stderr, "perfbench: %s:\n%s", where.c_str(), error.c_str());
  }
}

// --- dense1k / city_mobile -------------------------------------------------

void run_long(const Args& a, Report& r) {
  const Workload w = a.workload;
  const double sim_per_s =
      w == Workload::Dense1k ? kDenseSimSecondsPerSecond : kCitySimSecondsPerSecond;
  const double block_sim_s = kSlicesPerBlock * kSlice.sec();
  const int blocks =
      std::max(1, static_cast<int>(std::lround(a.seconds * sim_per_s / block_sim_s)));
  const int slices = blocks * kSlicesPerBlock;
  const std::optional<std::uint64_t> mover_seed =
      w == Workload::CityMobile ? std::optional<std::uint64_t>(a.seed) : std::nullopt;

  // Set-up is sampled before the run and after every block of it.
  SetupTimer setup_timer;
  auto sample_setup = [&] {
    setup_timer.sample([&](std::size_t) { return long_spec(w, a.seed); }, 1);
  };
  sample_setup();
  const coex::ScenarioConfig config = long_spec(w, a.seed).must_config();
  const RunResult u = run_scenario(config, mover_seed, slices, kSlice, nullptr,
                                   [&](int done) {
                                     if (done % kSlicesPerBlock == 0) sample_setup();
                                   });
  note_error("untraced run", u.error);
  const Outputs uw = window(u.start, u.end());
  const double sim_s = static_cast<double>(slices) * kSlice.sec();
  const SetupTiming setup = setup_timer.medians();

  r.attempted = static_cast<std::uint64_t>(slices);
  std::vector<bool> failed = u.slice_failed;

  std::vector<Block> slice_blocks(static_cast<std::size_t>(blocks));
  for (std::size_t i = 0; i < u.slice_ms.size(); ++i) {
    Block& b = slice_blocks[i / kSlicesPerBlock];
    b.sim_s += kSlice.sec();
    b.wall_s += u.slice_ms[i] / 1e3;
    b.slice_ms.push_back(u.slice_ms[i]);
  }
  // A long run is one trial: its construction and warm-up as measured, and
  // its measured window at the pace of its best block (see kSlicesPerBlock).
  const double best_block_s =
      best_over(slice_blocks, [](const Block& b) { return b.wall_s; });
  const double trial_s = u.trial_s - u.measured_s + blocks * best_block_s;
  const std::vector<Block> trial{Block{sim_s, trial_s, {}, {trial_s * 1e3}}};

  if (!a.trace) {
    report_end_to_end(slice_blocks, trial, setup, uw, r);
  } else {
    Trace t;
    const RunResult tr = run_scenario(config, mover_seed, slices, kSlice, &t);
    note_error("traced run", tr.error);
    r.check(tr.start == u.start, "traced run diverged during warm-up");
    for (std::size_t i = 0; i < failed.size(); ++i) {
      if (tr.slice_failed[i] || tr.slice_outputs[i] != u.slice_outputs[i]) {
        failed[i] = true;
      }
    }
    Layers l;
    l.measured_sim_s = sim_s;
    l.traced_wall_s = tr.measured_s;
    l.untraced_wall_s = u.measured_s;
    l.trial_busy_s = u.trial_s;
    l.run_wall_s = u.trial_s;
    l.setup = setup;
    l.window = window(tr.start, tr.end());
    l.add_trace(t);
    l.replay(t);
    report_layers(l, r);
    report_tails(slice_blocks, trial, r);
  }
  r.failed = static_cast<std::uint64_t>(std::count(failed.begin(), failed.end(), true));
  check_window(uw, r);
}

// --- paper_sweep -----------------------------------------------------------

/// One sweep through ParallelExperimentRunner. Per-trial results are kept by
/// index; the runner's aggregates come back in `summaries`.
struct Sweep {
  std::vector<RunResult> runs;
  std::vector<double> trial_s;  ///< host seconds incl. spec lowering
  std::vector<runner::MetricSummary> summaries;
  double wall_s = 0.0;
};

const std::vector<std::string>& trial_metric_names() {
  static const std::vector<std::string> names = {
      "events", "zigbee_generated", "zigbee_delivered", "zigbee_dropped", "zigbee_delays",
      "zigbee_delay_sum_ms", "wifi_delivered", "grants", "control_packets", "csi_samples",
      "csi_detections", "cti_samples", "invariant_checks", "violations", "failed"};
  return names;
}

bool failed_run(const RunResult& run) {
  return std::find(run.slice_failed.begin(), run.slice_failed.end(), true) !=
         run.slice_failed.end();
}

std::vector<double> trial_values(const RunResult& run) {
  const Outputs w = window(run.start, run.end());
  return {count(w.events),           count(w.zigbee_generated), count(w.zigbee_delivered),
          count(w.zigbee_dropped),   count(w.zigbee_delays),    w.zigbee_delay_sum_ms,
          count(w.wifi_delivered),   count(w.grants),           count(w.control_packets),
          count(w.csi_samples),      count(w.csi_detections),   count(w.cti_samples),
          count(w.invariant_checks), count(w.violations),
          failed_run(run) ? 1.0 : 0.0};
}

/// Runs trials [first, first + count) in one ParallelExperimentRunner call.
Sweep run_sweep(std::uint64_t seed, std::size_t first, std::size_t count, int workers,
                std::vector<Trace>* traces) {
  Sweep s;
  s.runs.resize(count);
  s.trial_s.assign(count, 0.0);
  runner::ParallelExperimentRunner sweep(trial_metric_names(), [&](std::size_t i) {
    const auto t0 = Clock::now();
    Trace* trace = traces != nullptr ? &(*traces)[i] : nullptr;
    s.runs[i] = run_scenario(trial_spec(seed, first + i).must_config(), std::nullopt,
                             kTrialSlices, kTrialSlice, trace);
    s.trial_s[i] = std::chrono::duration<double>(Clock::now() - t0).count();
    return trial_values(s.runs[i]);
  });
  sweep.set_jobs(workers);
  const auto t0 = Clock::now();
  s.summaries = sweep.run(static_cast<int>(count));
  s.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  return s;
}

bool same_summaries(const std::vector<runner::MetricSummary>& a,
                    const std::vector<runner::MetricSummary>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t m = 0; m < a.size(); ++m) {
    const RunningStats& x = a[m].stats;
    const RunningStats& y = b[m].stats;
    if (a[m].name != b[m].name || x.count() != y.count() || x.mean() != y.mean() ||
        x.variance() != y.variance() || x.min() != y.min() || x.max() != y.max()) {
      return false;
    }
  }
  return true;
}

void run_paper_sweep(const Args& a, Report& r) {
  const auto block_count = static_cast<std::size_t>(std::max(
      1L, std::lround(a.seconds * kSweepTrialsPerSecond / count(kTrialsPerBlock))));
  const std::size_t per_block = kTrialsPerBlock;
  const double block_sim_s = count(per_block) * kTrialSlices * kTrialSlice.sec();
  const std::size_t trials = per_block * block_count;

  // Set-up is sampled before the sweep and after every block of it.
  SetupTimer setup_timer;
  auto sample_setup = [&] {
    setup_timer.sample([&](std::size_t i) { return trial_spec(a.seed, i); },
                       kTrialKinds * kSetupCyclesPerSample);
  };
  sample_setup();

  // The timed sweep: one closed-loop runner call per block.
  Sweep u;
  std::vector<Block> blocks;
  for (std::size_t first = 0; first < trials; first += per_block) {
    Sweep part = run_sweep(a.seed, first, per_block, kSweepWorkers, nullptr);
    Block b{block_sim_s, part.wall_s, {}, {}};
    for (std::size_t i = 0; i < per_block; ++i) {
      b.slice_ms.insert(b.slice_ms.end(), part.runs[i].slice_ms.begin(),
                        part.runs[i].slice_ms.end());
      b.trial_ms.push_back(part.trial_s[i] * 1e3);
      u.runs.push_back(std::move(part.runs[i]));
      u.trial_s.push_back(part.trial_s[i]);
    }
    u.wall_s += part.wall_s;
    blocks.push_back(std::move(b));
    sample_setup();
  }
  const SetupTiming setup = setup_timer.medians();

  std::vector<bool> failed(trials, false);
  Outputs pooled;
  for (std::size_t i = 0; i < trials; ++i) {
    note_error("trial " + std::to_string(i), u.runs[i].error);
    failed[i] = failed_run(u.runs[i]);
    accumulate(pooled, window(u.runs[i].start, u.runs[i].end()));
  }

  // Aggregates must not depend on the worker count: re-run a prefix at 1 and
  // at 2 workers, compare the runner's aggregates, and compare every trial
  // with the timed sweep.
  const std::size_t k = std::min(trials, kWorkerCheckTrials);
  const Sweep one = run_sweep(a.seed, 0, k, 1, nullptr);
  const Sweep two = run_sweep(a.seed, 0, k, kSweepWorkers, nullptr);
  const bool same = same_summaries(one.summaries, two.summaries);
  for (std::size_t i = 0; i < k; ++i) {
    const auto v = trial_values(u.runs[i]);
    if (!same || trial_values(one.runs[i]) != v || trial_values(two.runs[i]) != v) {
      failed[i] = true;
    }
  }
  r.check(same, "sweep aggregates differ between 1 and 2 workers");

  const double sim_s = static_cast<double>(trials) * kTrialSlices * kTrialSlice.sec();
  if (!a.trace) {
    report_end_to_end(blocks, blocks, setup, pooled, r);
  } else {
    std::vector<Trace> traces(trials);
    for (std::size_t i = 0; i < trials; ++i) {
      traces[i].record_for =
          i < kTrialKinds ? kTrialSlice * kTrialSlices : Duration::zero();
    }
    const Sweep t = run_sweep(a.seed, 0, trials, kSweepWorkers, &traces);
    Layers l;
    for (std::size_t i = 0; i < trials; ++i) {
      note_error("traced trial " + std::to_string(i), t.runs[i].error);
      if (failed_run(t.runs[i]) || trial_values(t.runs[i]) != trial_values(u.runs[i]) ||
          t.runs[i].start != u.runs[i].start) {
        failed[i] = true;
      }
      accumulate(l.window, window(t.runs[i].start, t.runs[i].end()));
      l.add_trace(traces[i]);
      l.replay(traces[i]);
      l.trial_busy_s += u.trial_s[i];
    }
    l.measured_sim_s = sim_s;
    l.traced_wall_s = t.wall_s;
    l.untraced_wall_s = u.wall_s;
    l.run_wall_s = u.wall_s;
    l.workers = kSweepWorkers;
    l.setup = setup;
    report_layers(l, r);
    report_tails(blocks, blocks, r);
  }
  r.attempted = trials;
  r.failed = static_cast<std::uint64_t>(std::count(failed.begin(), failed.end(), true));
  check_window(pooled, r);
}

void print_json(const Report& r) {
  const bool correct = r.failed == 0 && r.problems.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
}

int run(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  std::printf("# perfbench workload=%s seed=%llu seconds=%d trace=%d\n",
              workload_name(a.workload), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0);
  std::printf("# build compiler=\"%s\" build_type=%s nproc=%u\n", PERFBENCH_COMPILER,
              PERFBENCH_BUILD_TYPE, std::thread::hardware_concurrency());
  Report r;
  if (a.workload == Workload::PaperSweep) {
    run_paper_sweep(a, r);
  } else {
    run_long(a, r);
  }
  for (const auto& m : r.metrics) {
    r.check(std::isfinite(m.value), "metric " + m.name + " is not finite");
    std::printf("%-34s %22.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& p : r.problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());
  }
  std::printf("# operations attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  print_json(r);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

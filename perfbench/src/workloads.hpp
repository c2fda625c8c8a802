#pragma once
// The benchmark's workloads and the runs that measure them.
//
// Every workload is a shipped preset plus ScenarioSpec::set overrides; the
// workload seed replaces the preset's `seed` and seeds every input the
// benchmark generates, while `dense.seed` stays fixed so every seed gets the
// same topology. An operation is one fixed simulated slice of a long run
// (dense1k, city_mobile) or one trial of the sweep (paper_sweep).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "coex/scenario.hpp"
#include "coex/scenario_spec.hpp"
#include "fault/invariant_checker.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace perfbench {

enum class Workload { Dense1k, CityMobile, PaperSweep };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* workload_name(Workload w);

inline constexpr bicord::Duration kWarmup = bicord::Duration::from_sec(1);
/// Long runs: wall ms is reported per slice of this much simulated time.
inline constexpr bicord::Duration kSlice = bicord::Duration::from_ms(10);
/// Sweep trials: 1 s warm-up, then 10 slices of 1 s measured.
inline constexpr bicord::Duration kTrialSlice = bicord::Duration::from_sec(1);
inline constexpr int kTrialSlices = 10;
inline constexpr int kSweepWorkers = 2;
/// Sweep trials cycle over these many scenario kinds.
inline constexpr std::size_t kTrialKinds = 4;

/// Spec of a long workload (dense1k or city_mobile) for `seed`.
[[nodiscard]] bicord::coex::ScenarioSpec long_spec(Workload w, std::uint64_t seed);
/// Spec of sweep trial `trial`: kind trial % 4 (fig10 BiCord, fig10 ECC,
/// lteu, tsch) on a stream derived from (`seed`, `trial`).
[[nodiscard]] bicord::coex::ScenarioSpec trial_spec(std::uint64_t seed,
                                                    std::size_t trial);

/// city_mobile's extra motion: every 10 simulated ms, 20 dense-field nodes
/// drawn from a seeded stream move to a random point within 2 m of their
/// starting position through Medium::set_position.
class NodeMover {
 public:
  NodeMover(bicord::coex::Scenario& scenario, std::uint64_t seed);
  ~NodeMover();
  NodeMover(const NodeMover&) = delete;
  NodeMover& operator=(const NodeMover&) = delete;

 private:
  void tick();

  bicord::phy::Medium& medium_;
  bicord::Rng rng_;
  std::vector<std::pair<bicord::phy::NodeId, bicord::phy::Position>> homes_;
  bicord::sim::EventId event_ = bicord::sim::kInvalidEventId;
};

/// A scenario with the benchmark's invariant checker (and, for city_mobile,
/// the node mover) attached. Both runs of a workload build it identically.
class Instance {
 public:
  Instance(const bicord::coex::ScenarioConfig& config,
           std::optional<std::uint64_t> mover_seed);

  bicord::coex::Scenario scenario;
  bicord::fault::InvariantChecker checker;

 private:
  std::unique_ptr<NodeMover> mover_;
};

/// Simulated outputs at one instant. Traced and untraced runs of the same
/// workload and seed must agree on every field at every slice boundary.
struct Outputs {
  std::uint64_t events = 0;
  std::int64_t now_us = 0;
  std::uint64_t zigbee_generated = 0;
  std::uint64_t zigbee_delivered = 0;
  std::uint64_t zigbee_dropped = 0;
  std::uint64_t zigbee_delays = 0;
  double zigbee_delay_sum_ms = 0.0;
  std::uint64_t wifi_delivered = 0;         ///< testbed WifiMac
  std::uint64_t dense_wifi_delivered = 0;
  std::uint64_t dense_zigbee_delivered = 0;
  std::uint64_t grants = 0;                 ///< white spaces / suppressions
  std::uint64_t control_packets = 0;
  std::uint64_t csi_samples = 0;
  std::uint64_t csi_detections = 0;
  std::uint64_t cti_samples = 0;
  std::uint64_t invariant_checks = 0;
  std::uint64_t violations = 0;

  friend bool operator==(const Outputs&, const Outputs&) = default;
};
[[nodiscard]] Outputs observe(Instance& instance);

/// Measured-window deltas (end - start) of the counters in Outputs.
[[nodiscard]] Outputs window(const Outputs& start, const Outputs& end);

/// What the traced run collects besides its outputs.
struct Trace {
  TraceListener listener;
  StepProfile steps;
  EnergyProbe energy;
  std::vector<NodeSnapshot> nodes;  ///< positions when recording began
  bicord::phy::PathLossModel path_loss;
  bicord::phy::MediumTuning tuning;
  /// Transmissions and event times are kept for this much simulated time
  /// from the start of the measured window.
  bicord::Duration record_for = bicord::Duration::from_sec(2);
};

/// One scenario run from construction to the end of its measured window.
struct RunResult {
  double trial_s = 0.0;     ///< host seconds, construction to end
  double measured_s = 0.0;  ///< host seconds in measured slices
  std::vector<double> slice_ms;
  std::vector<Outputs> slice_outputs;  ///< at the end of each slice
  std::vector<bool> slice_failed;
  Outputs start;  ///< at the start of the measured window
  std::string error;

  [[nodiscard]] const Outputs& end() const { return slice_outputs.back(); }
};

/// Builds the scenario, warms up for kWarmup, then runs `slices` slices of
/// `slice`, timing each. With `trace`, drives the simulator through
/// step_until instead of Scenario::run_for and fills the trace. A slice
/// fails on an exception or on a new invariant violation. `after_slice`, if
/// set, runs after each slice, untimed, with the number of slices done.
[[nodiscard]] RunResult run_scenario(const bicord::coex::ScenarioConfig& config,
                                     std::optional<std::uint64_t> mover_seed, int slices,
                                     bicord::Duration slice, Trace* trace,
                                     const std::function<void(int)>& after_slice = {});

/// Host time of set-up per scenario.
struct SetupTiming {
  double lower_s = 0.0;      ///< ScenarioSpec::preset + set + must_config
  double construct_s = 0.0;  ///< Scenario constructor
  double total_s = 0.0;
};

/// Collects set-up samples spread over a run, so their median reflects the
/// whole run rather than one moment of a shared host.
class SetupTimer {
 public:
  using SpecFactory = std::function<bicord::coex::ScenarioSpec(std::size_t)>;

  /// One sample: builds `count` specs with `make_spec(i)`, lowers them and
  /// constructs their scenarios; times are per scenario.
  void sample(const SpecFactory& make_spec, std::size_t count);
  /// Medians over the samples taken so far.
  [[nodiscard]] SetupTiming medians() const;

 private:
  std::vector<double> lower_;
  std::vector<double> construct_;
  std::vector<double> total_;
};

}  // namespace perfbench

#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <numbers>

namespace perfbench {

using namespace bicord;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

constexpr Duration kMovePeriod = Duration::from_ms(10);
constexpr int kMovesPerTick = 20;
constexpr double kMoveRadiusM = 2.0;

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "dense1k") return Workload::Dense1k;
  if (name == "city_mobile") return Workload::CityMobile;
  if (name == "paper_sweep") return Workload::PaperSweep;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::Dense1k: return "dense1k";
    case Workload::CityMobile: return "city_mobile";
    case Workload::PaperSweep: return "paper_sweep";
  }
  return "?";
}

coex::ScenarioSpec long_spec(Workload w, std::uint64_t seed) {
  auto spec = *coex::ScenarioSpec::preset(w == Workload::Dense1k ? "dense1k" : "city");
  spec.set("seed", seed);
  if (w == Workload::CityMobile) {
    spec.set("mobility.device", true);
    spec.set("mobility.device_period", Duration::from_ms(20));
  }
  return spec;
}

coex::ScenarioSpec trial_spec(std::uint64_t seed, std::size_t trial) {
  static constexpr const char* kPresets[kTrialKinds] = {"fig10", "fig10", "lteu", "tsch"};
  const std::size_t kind = trial % kTrialKinds;
  auto spec = *coex::ScenarioSpec::preset(kPresets[kind]);
  spec.set("seed", Rng(seed).split(trial).next());
  if (kind == 1) spec.set("coordination", "ecc");
  return spec;
}

NodeMover::NodeMover(coex::Scenario& scenario, std::uint64_t seed)
    : medium_(scenario.medium()), rng_(Rng(seed).split(0x6d6f7665ULL)) {
  for (std::size_t i = 0; i < medium_.node_count(); ++i) {
    const auto id = static_cast<phy::NodeId>(i);
    if (medium_.node_name(id).starts_with("dense-")) {
      homes_.emplace_back(id, medium_.position(id));
    }
  }
  if (!homes_.empty()) {
    event_ = scenario.simulator().every(kMovePeriod, kMovePeriod, [this] { tick(); });
  }
}

NodeMover::~NodeMover() {
  if (event_ != sim::kInvalidEventId) medium_.simulator().cancel(event_);
}

void NodeMover::tick() {
  const auto last = static_cast<std::int64_t>(homes_.size()) - 1;
  for (int i = 0; i < kMovesPerTick; ++i) {
    const auto& [id, home] = homes_[static_cast<std::size_t>(rng_.uniform_int(0, last))];
    const double r = rng_.uniform(0.0, kMoveRadiusM);
    const double a = rng_.uniform(0.0, 2.0 * std::numbers::pi);
    const phy::Position to{home.x + r * std::cos(a), home.y + r * std::sin(a)};
    medium_.set_position(id, to);
  }
}

Instance::Instance(const coex::ScenarioConfig& config,
                   std::optional<std::uint64_t> mover_seed)
    : scenario(config), checker(scenario.simulator()) {
  if (auto* wifi = scenario.bicord_wifi()) checker.watch_wifi(*wifi);
  if (auto* zigbee = scenario.bicord_zigbee()) checker.watch_zigbee(*zigbee);
  if (auto* election = scenario.election()) checker.watch_election(*election);
  checker.start();
  if (mover_seed) mover_ = std::make_unique<NodeMover>(scenario, *mover_seed);
}

Outputs observe(Instance& instance) {
  coex::Scenario& sc = instance.scenario;
  Outputs o;
  o.events = sc.simulator().dispatched_events();
  o.now_us = sc.simulator().now().us();
  const auto& zs = sc.zigbee_stats();
  o.zigbee_generated = zs.generated;
  o.zigbee_delivered = zs.delivered;
  o.zigbee_dropped = zs.dropped;
  o.zigbee_delays = zs.delay_ms.count();
  o.zigbee_delay_sum_ms =
      zs.delay_ms.empty() ? 0.0
                          : zs.delay_ms.mean() * static_cast<double>(zs.delay_ms.count());
  o.wifi_delivered = sc.wifi_sender().delivered();
  o.dense_wifi_delivered = sc.dense_wifi_delivered();
  o.dense_zigbee_delivered = sc.dense_zigbee_delivered();
  if (auto* wifi = sc.bicord_wifi()) {
    o.grants += wifi->whitespaces_granted();
    o.csi_samples = wifi->detector().samples_seen();
    o.csi_detections = wifi->detector().detections();
  }
  if (auto* grantor = sc.lteu_grantor()) o.grants += grantor->suppressions_granted();
  if (auto* zigbee = sc.bicord_zigbee()) {
    o.control_packets = zigbee->control_packets_sent();
    o.cti_samples = zigbee->cti_samples_taken();
  }
  if (auto* tsch = sc.tsch_requester()) o.control_packets = tsch->control_packets_sent();
  o.invariant_checks = instance.checker.checks_run();
  o.violations = instance.checker.violations().size();
  return o;
}

Outputs window(const Outputs& s, const Outputs& e) {
  Outputs d;
  d.events = e.events - s.events;
  d.now_us = e.now_us - s.now_us;
  d.zigbee_generated = e.zigbee_generated - s.zigbee_generated;
  d.zigbee_delivered = e.zigbee_delivered - s.zigbee_delivered;
  d.zigbee_dropped = e.zigbee_dropped - s.zigbee_dropped;
  d.zigbee_delays = e.zigbee_delays - s.zigbee_delays;
  d.zigbee_delay_sum_ms = e.zigbee_delay_sum_ms - s.zigbee_delay_sum_ms;
  d.wifi_delivered = e.wifi_delivered - s.wifi_delivered;
  d.dense_wifi_delivered = e.dense_wifi_delivered - s.dense_wifi_delivered;
  d.dense_zigbee_delivered = e.dense_zigbee_delivered - s.dense_zigbee_delivered;
  d.grants = e.grants - s.grants;
  d.control_packets = e.control_packets - s.control_packets;
  d.csi_samples = e.csi_samples - s.csi_samples;
  d.csi_detections = e.csi_detections - s.csi_detections;
  d.cti_samples = e.cti_samples - s.cti_samples;
  d.invariant_checks = e.invariant_checks - s.invariant_checks;
  d.violations = e.violations - s.violations;
  return d;
}

RunResult run_scenario(const coex::ScenarioConfig& config,
                       std::optional<std::uint64_t> mover_seed, int slices,
                       Duration slice, Trace* trace,
                       const std::function<void(int)>& after_slice) {
  RunResult r;
  r.slice_ms.assign(static_cast<std::size_t>(slices), 0.0);
  r.slice_outputs.assign(static_cast<std::size_t>(slices), Outputs{});
  r.slice_failed.assign(static_cast<std::size_t>(slices), true);
  int done = 0;
  const auto t0 = Clock::now();
  try {
    Instance inst(config, mover_seed);
    coex::Scenario& sc = inst.scenario;
    sim::Simulator& sim = sc.simulator();
    auto advance = [&](TimePoint deadline) {
      if (trace != nullptr) {
        step_until(sc, deadline, trace->listener, trace->steps);
      } else {
        sc.run_for(deadline - sim.now());
      }
    };
    if (trace != nullptr) {
      sc.medium().attach(&trace->listener);
      trace->path_loss = config.path_loss;
      trace->tuning = config.medium;
    }
    advance(sim.now() + kWarmup);
    sc.start_measurement();
    r.start = observe(inst);
    const TimePoint measure_start = sim.now();
    const TimePoint record_end =
        measure_start + (trace != nullptr ? trace->record_for : Duration::zero());
    if (trace != nullptr) {
      trace->steps = StepProfile{};
      trace->listener.tx_starts = trace->listener.tx_ends = trace->listener.moves = 0;
      trace->nodes = snapshot_nodes(sc.medium());
      trace->listener.recording = record_end > measure_start;
    }
    std::uint64_t violations = r.start.violations;
    for (; done < slices; ++done) {
      const auto s0 = Clock::now();
      advance(measure_start + slice * (done + 1));
      const double s = seconds_since(s0);
      r.measured_s += s;
      const auto i = static_cast<std::size_t>(done);
      r.slice_ms[i] = s * 1e3;
      if (trace != nullptr) {
        if (sim.now() >= record_end) trace->listener.recording = false;
        probe_energy(sc.medium(), trace->energy);
      }
      if (done + 1 == slices) inst.checker.finish(sc.fault_injector());
      r.slice_outputs[i] = observe(inst);
      r.slice_failed[i] = r.slice_outputs[i].violations != violations;
      violations = r.slice_outputs[i].violations;
      if (after_slice) after_slice(done + 1);
    }
    for (const auto& v : inst.checker.violations()) r.error += v + "\n";
  } catch (const std::exception& e) {
    r.error += std::string("exception: ") + e.what() + "\n";
  }
  if (trace != nullptr) trace->listener.recording = false;
  r.trial_s = seconds_since(t0);
  return r;
}

void SetupTimer::sample(const SpecFactory& make_spec, std::size_t count) {
  double lower = 0.0, construct = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    const auto t0 = Clock::now();
    const coex::ScenarioConfig config = make_spec(i).must_config();
    const auto t1 = Clock::now();
    auto scenario = std::make_unique<coex::Scenario>(config);
    construct += seconds_since(t1);
    lower += std::chrono::duration<double>(t1 - t0).count();
    scenario.reset();
  }
  const auto n = static_cast<double>(count);
  lower_.push_back(lower / n);
  construct_.push_back(construct / n);
  total_.push_back((lower + construct) / n);
}

SetupTiming SetupTimer::medians() const {
  return SetupTiming{median(lower_), median(construct_), median(total_)};
}

}  // namespace perfbench

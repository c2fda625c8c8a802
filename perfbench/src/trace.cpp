#include "trace.hpp"

#include <algorithm>
#include <chrono>

#include "phy/spectrum.hpp"
#include "sim/event_queue.hpp"

namespace perfbench {

using namespace bicord;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Bound to one node of the replay medium; counts what the medium delivers.
class CountingListener final : public phy::MediumListener {
 public:
  CountingListener(const phy::Medium& medium, phy::NodeId node, bool check_audible,
                   FanoutReplay& out)
      : medium_(medium), node_(node), check_audible_(check_audible), out_(out) {}

  void on_tx_start(const phy::ActiveTransmission& tx) override {
    ++out_.start_deliveries;
    if (check_audible_ && medium_.audible(tx, node_)) ++out_.audible_starts;
  }
  void on_tx_end(const phy::ActiveTransmission&) override { ++out_.end_deliveries; }

 private:
  const phy::Medium& medium_;
  phy::NodeId node_;
  bool check_audible_;
  FanoutReplay& out_;
};

/// One pass of the fan-out replay; returns host seconds spent in it.
double replay_pass(const std::vector<NodeSnapshot>& nodes,
                   const phy::PathLossModel& path_loss, const phy::MediumTuning& tuning,
                   const std::vector<TxRecord>& txs, bool check_audible,
                   FanoutReplay& out) {
  sim::Simulator sim(1);
  phy::Medium medium(sim, path_loss, tuning);
  for (const auto& n : nodes) medium.add_node(n.name, n.pos);
  std::vector<CountingListener> listeners;
  listeners.reserve(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    listeners.emplace_back(medium, static_cast<phy::NodeId>(i), check_audible, out);
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    medium.attach(&listeners[i], static_cast<phy::NodeId>(i));
  }
  const auto t0 = Clock::now();
  for (const auto& tx : txs) {
    sim.run_until(tx.start);
    medium.begin_tx(tx.frame, tx.band, tx.power_dbm, tx.duration);
  }
  sim.run_all();
  const double s = seconds_since(t0);
  for (auto& l : listeners) medium.detach(&l);
  return s;
}

}  // namespace

void TraceListener::on_tx_start(const phy::ActiveTransmission& tx) {
  ++tx_starts;
  if (recording) txs.push_back(TxRecord{tx.frame, tx.band, tx.tx_power_dbm, tx.start,
                                        tx.end - tx.start});
}

void TraceListener::on_tx_end(const phy::ActiveTransmission&) { ++tx_ends; }

void TraceListener::on_position_change(phy::NodeId) { ++moves; }

void step_until(coex::Scenario& scenario, TimePoint deadline,
                const TraceListener& listener, StepProfile& profile) {
  sim::Simulator& sim = scenario.simulator();
  while (sim.next_event_time() <= deadline) {
    const std::uint64_t edges_before = listener.edges();
    const auto t0 = Clock::now();
    sim.step();
    const double s = seconds_since(t0);
    if (listener.edges() != edges_before) {
      ++profile.edge_steps;
      profile.edge_s += s;
    } else {
      ++profile.timer_steps;
      profile.timer_s += s;
    }
    profile.peak_pending = std::max(profile.peak_pending, sim.pending_events());
    if (listener.recording) profile.event_times.push_back(sim.now());
  }
  scenario.run_for(deadline - sim.now());
}

std::vector<NodeSnapshot> snapshot_nodes(const phy::Medium& medium) {
  std::vector<NodeSnapshot> nodes;
  nodes.reserve(medium.node_count());
  for (std::size_t i = 0; i < medium.node_count(); ++i) {
    const auto id = static_cast<phy::NodeId>(i);
    nodes.push_back(NodeSnapshot{medium.node_name(id), medium.position(id)});
  }
  return nodes;
}

FanoutReplay replay_fanout(const std::vector<NodeSnapshot>& nodes,
                           const phy::PathLossModel& path_loss,
                           const phy::MediumTuning& tuning,
                           const std::vector<TxRecord>& txs) {
  FanoutReplay timed;
  timed.tx = txs.size();
  timed.seconds = replay_pass(nodes, path_loss, tuning, txs, false, timed);

  FanoutReplay checked;
  (void)replay_pass(nodes, path_loss, tuning, txs, true, checked);
  timed.audible_starts = checked.audible_starts;
  return timed;
}

double replay_queue(const std::vector<TimePoint>& times, std::size_t depth) {
  const std::size_t n = times.size();
  if (n == 0) return 0.0;
  depth = std::clamp<std::size_t>(depth, 1, n);
  sim::EventQueue queue;
  for (std::size_t i = 0; i < depth; ++i) queue.schedule(times[i], [] {});
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    auto fired = queue.pop();
    fired.callback();
    if (i + depth < n) queue.schedule(times[i + depth], [] {});
  }
  return seconds_since(t0);
}

void probe_energy(const phy::Medium& medium, EnergyProbe& probe) {
  const phy::Band bands[] = {phy::wifi_channel(11), phy::zigbee_channel(24)};
  const auto t0 = Clock::now();
  double sum = 0.0;
  for (std::size_t i = 0; i < medium.node_count(); ++i) {
    for (const auto& band : bands) {
      sum += medium.energy_dbm(static_cast<phy::NodeId>(i), band);
    }
  }
  probe.seconds += seconds_since(t0);
  probe.queries += medium.node_count() * std::size(bands);
  probe.checksum += sum;
}

}  // namespace perfbench

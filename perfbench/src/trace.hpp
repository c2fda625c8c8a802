#pragma once
// Per-layer measurement from outside the simulator.
//
// The traced run attaches one global TraceListener to the live medium and
// drives Simulator::step() itself, so every step can be timed and classified
// by whether it carried a transmission edge. It records transmissions and
// event times for a bounded window, which two replays then push through a
// bare phy::Medium and a bare sim::EventQueue to cost each layer on its own.
// Nothing here reaches into src/: every number comes from public calls.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "coex/scenario.hpp"
#include "phy/medium.hpp"
#include "util/time.hpp"

namespace perfbench {

/// One transmission as begin_tx received it.
struct TxRecord {
  bicord::phy::Frame frame;
  bicord::phy::Band band;
  double power_dbm = 0.0;
  bicord::TimePoint start;
  bicord::Duration duration;
};

/// Global listener of the traced run: counts tx edges and moves, and keeps
/// every transmission that starts while `recording` is set.
class TraceListener final : public bicord::phy::MediumListener {
 public:
  void on_tx_start(const bicord::phy::ActiveTransmission& tx) override;
  void on_tx_end(const bicord::phy::ActiveTransmission& tx) override;
  void on_position_change(bicord::phy::NodeId node) override;

  [[nodiscard]] std::uint64_t edges() const { return tx_starts + tx_ends; }

  std::uint64_t tx_starts = 0;
  std::uint64_t tx_ends = 0;
  std::uint64_t moves = 0;
  bool recording = false;
  std::vector<TxRecord> txs;
};

/// Host time of Simulator::step(), split by whether the step carried a tx
/// edge, plus the queue depth and (while the listener records) the
/// dispatched event times.
struct StepProfile {
  std::uint64_t edge_steps = 0;
  std::uint64_t timer_steps = 0;
  double edge_s = 0.0;
  double timer_s = 0.0;
  std::size_t peak_pending = 0;
  std::vector<bicord::TimePoint> event_times;
};

/// Steps the scenario's simulator one event at a time through every event
/// due by `deadline`, then calls Scenario::run_for for the remainder so the
/// clock ends where an untraced run_for(deadline - now) would leave it.
void step_until(bicord::coex::Scenario& scenario, bicord::TimePoint deadline,
                const TraceListener& listener, StepProfile& profile);

struct NodeSnapshot {
  std::string name;
  bicord::phy::Position pos;
};
[[nodiscard]] std::vector<NodeSnapshot> snapshot_nodes(const bicord::phy::Medium& medium);

/// Fan-out replay result. `seconds` is host time of the timed pass; the
/// audible count comes from a second, untimed pass.
struct FanoutReplay {
  std::uint64_t tx = 0;
  double seconds = 0.0;
  std::uint64_t start_deliveries = 0;
  std::uint64_t end_deliveries = 0;
  std::uint64_t audible_starts = 0;  ///< start deliveries with audible(tx, node)

  [[nodiscard]] std::uint64_t deliveries() const {
    return start_deliveries + end_deliveries;
  }
};

/// Replays `txs` through begin_tx on a bare medium holding `nodes` (same ids,
/// same positions) with the given physics and tuning, one counting listener
/// bound per node.
[[nodiscard]] FanoutReplay replay_fanout(const std::vector<NodeSnapshot>& nodes,
                                         const bicord::phy::PathLossModel& path_loss,
                                         const bicord::phy::MediumTuning& tuning,
                                         const std::vector<TxRecord>& txs);

/// Replays dispatched event times through a bare EventQueue held at `depth`
/// pending events (hold model: each pop is followed by one push of the
/// event `depth` places later). Returns host seconds for all pops and pushes.
[[nodiscard]] double replay_queue(const std::vector<bicord::TimePoint>& times,
                                  std::size_t depth);

/// energy_dbm on the testbed Wi-Fi and ZigBee channels for every node of the
/// live medium. Const queries: they change no simulated output.
struct EnergyProbe {
  std::uint64_t queries = 0;
  double seconds = 0.0;
  double checksum = 0.0;  ///< keeps the queries observable
};
void probe_energy(const bicord::phy::Medium& medium, EnergyProbe& probe);

}  // namespace perfbench

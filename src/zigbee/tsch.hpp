#pragma once
// 802.15.4e TSCH under BiCord: frequency agility on the requester side (the
// seam's fourth technology).
//
// A TSCH network walks a shared slotframe hopping sequence — every node
// retunes at each slot boundary, so interference on one channel only costs
// the slots that land there. Against a wideband Wi-Fi interferer that covers
// several hop channels at once (Wi-Fi ch 11 spans 802.15.4 ch 20-24),
// hopping alone does not help and the link falls back on BiCord signaling.
//
// What changes on the grantor side is only the grant-ending path: a hopping
// requester cannot be assumed to still be on (or even overhear) the granted
// channel when the protection ends, so the grantor runs the clock-bounded
// lease path (core::kTschTraits.lease_based) instead of flag + watchdog —
// selected purely through BiCordWifiAgent::Config::traits, zero engine or
// agent surgery.
//
// TschHopSchedule owns the shared slotframe clock and retunes every enrolled
// radio in lockstep; TschRequester is the requester agent: CCA-triggered
// signaling through the shared core::RequesterEngine, optimistic data probe
// on sustained silence, re-signal on delivery failure.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/coordination_engine.hpp"
#include "core/protocol_params.hpp"
#include "core/zigbee_agent.hpp"
#include "phy/radio.hpp"
#include "phy/spectrum.hpp"
#include "sim/simulator.hpp"
#include "util/time.hpp"

namespace bicord::zigbee {

/// The shared slotframe: every enrolled radio hops to the same channel at
/// the same instant. Purely periodic — no RNG stream is consumed.
class TschHopSchedule {
 public:
  struct Config {
    /// Slot length; every slot boundary retunes to the next hop channel.
    Duration hop_period = Duration::from_ms(10);
    /// Hop sequence (802.15.4 channel numbers). The default keeps every hop
    /// inside Wi-Fi channel 11's 20 MHz, the paper's coexistence setting.
    std::vector<int> channels = {21, 22, 23, 24};
  };

  explicit TschHopSchedule(sim::Simulator& sim) : TschHopSchedule(sim, Config{}) {}
  TschHopSchedule(sim::Simulator& sim, Config config);

  /// Enrolls a radio; it is retuned immediately to the current hop channel
  /// and on every subsequent boundary. Radios must outlive the schedule.
  void add_radio(phy::Radio& radio);

  /// First hop one period from now. Idempotent.
  void start() {
    if (!clock_.running()) clock_.start();
  }
  void stop() { clock_.stop(); }

  [[nodiscard]] bool running() const { return clock_.running(); }
  [[nodiscard]] int current_channel() const;
  [[nodiscard]] std::uint64_t hops() const { return hops_; }
  [[nodiscard]] const Config& config() const { return config_; }

 private:
  /// One slot boundary: advance the hop pattern and retune every radio.
  void hop_tick();

  Config config_;
  sim::PeriodicTask clock_;
  std::vector<phy::Radio*> radios_;
  std::uint64_t hops_ = 0;
};

/// Requester agent for a TSCH sender. Same shape as the BiCord ZigBee agent
/// minus the CTI-classification stage (the hop schedule already implies the
/// interferer is wideband — narrowband interferers would have been hopped
/// around): busy channel -> control-packet train -> optimistic data probe on
/// silence -> drain; delivery failure re-signals.
class TschRequester final : public core::ZigbeeAgentBase {
 public:
  struct Config {
    core::SignalingParams signaling;
    double data_power_dbm = 0.0;
    double signaling_power_dbm = 0.0;
    /// Channel poll spacing while waiting out the inter-control gap.
    Duration poll_gap = Duration::from_us(500);
    /// Consecutive idle polls before the agent probes a data packet.
    int idle_polls_to_probe = 3;
    /// Multiplicative jitter on the ignored-round backoff.
    double backoff_jitter = 0.25;
  };

  enum class State : std::uint8_t { Idle, Signaling, Draining, Backoff };

  /// Takes ownership of the requester port (see zigbee::requester_port).
  TschRequester(std::unique_ptr<core::RequesterMac> mac, phy::NodeId receiver,
                Config config);

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] std::uint64_t control_packets_sent() const {
    return engine_.control_packets();
  }
  [[nodiscard]] std::uint64_t signaling_rounds() const {
    return engine_.signaling_rounds();
  }
  [[nodiscard]] std::uint64_t ignored_requests() const {
    return engine_.ignored_requests();
  }
  [[nodiscard]] std::uint64_t give_ups() const { return engine_.give_ups(); }

 protected:
  void kick() override;
  void on_head_outcome(const core::DataOutcome& outcome) override;

 private:
  void signal_step();
  void gap_poll(int idle_streak);

  Config config_;
  State state_ = State::Idle;
  core::RequesterEngine engine_;
};

}  // namespace bicord::zigbee

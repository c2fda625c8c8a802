#pragma once
// LTE-U coexistence: a duty-cycled unlicensed LTE carrier plus its
// BiCord-style grantor (the seam's third technology).
//
// LTE-U (pre-LAA) shares the 5/2.4 GHz unlicensed bands by duty-cycling the
// whole carrier: the eNB transmits wideband for a fixed ON period, then
// stays silent for the OFF remainder of each CSAT cycle. Two properties
// make it the interesting third instantiation of the TechnologyTraits seam:
//
//   * The eNB cannot decode 802.15.4 frames at all. It detects a BiCord
//     channel request from the *energy envelope* alone — a burst whose
//     on-air duration matches the 120-byte control packet's airtime at a
//     plausible receive power. No payload bits are ever read.
//   * The eNB has no decodable downlink to a ZigBee node either, so it
//     cannot announce when a grant ends. A grant is therefore a clock-
//     bounded lease (kLteUTraits.lease_based): the eNB suppresses its ON
//     bursts for the leased window and simply resumes afterwards.
//
// Both halves ride the unchanged core::CoordinationEngine — the whole LTE-U
// instantiation is traits + this adapter, zero engine edits.

#include <cstdint>
#include <memory>

#include "core/coordination_engine.hpp"
#include "core/technology_traits.hpp"
#include "phy/frame.hpp"
#include "phy/medium.hpp"
#include "phy/radio.hpp"
#include "phy/spectrum.hpp"
#include "sim/simulator.hpp"
#include "util/time.hpp"

namespace bicord::interferers {

/// The duty-cycled carrier: one wideband burst per CSAT period, suppressible
/// for a leased window. Purely periodic — no RNG stream is consumed, so
/// adding an eNB to a scenario cannot perturb other agents' draws.
class LteUDevice {
 public:
  struct Config {
    /// Carrier band; defaults to Wi-Fi channel 11 (overlaps ZigBee ch 24).
    phy::Band band;
    double tx_power_dbm = 16.0;
    /// CSAT cycle: one ON burst of `period * duty` every `period`.
    Duration period = Duration::from_ms(20);
    double duty = 0.5;

    Config();
  };

  LteUDevice(phy::Medium& medium, phy::NodeId node)
      : LteUDevice(medium, node, Config{}) {}
  LteUDevice(phy::Medium& medium, phy::NodeId node, Config config);

  /// First cycle now, then one per period. Idempotent.
  void start() { cycle_.start_now(); }
  void stop() { cycle_.stop(); }
  /// Skip ON bursts until `sim.now() + d` (extends, never shortens). The
  /// burst already on the air — if any — completes; the grantor's traits
  /// margin covers that tail.
  void suppress_for(Duration d);

  [[nodiscard]] bool running() const { return cycle_.running(); }
  [[nodiscard]] bool suppressed() const;
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] Duration on_duration() const;
  [[nodiscard]] std::uint64_t bursts_sent() const { return bursts_; }
  [[nodiscard]] std::uint64_t cycles_suppressed() const { return suppressed_cycles_; }

 private:
  void cycle_tick();

  phy::Medium& medium_;
  sim::Simulator& sim_;
  phy::NodeId node_;
  Config config_;
  sim::PeriodicTask cycle_;
  TimePoint suppress_until_;
  std::uint64_t bursts_ = 0;
  std::uint64_t suppressed_cycles_ = 0;
  std::uint64_t seq_ = 0;
};

/// The eNB-side grantor. Listens on the overlapped ZigBee channel with a
/// sniffer radio, matches receptions on airtime + receive power only (LTE-U
/// cannot demodulate 802.15.4 — rx.success and rx.frame.kind are
/// deliberately never consulted), and answers a match by leasing a white
/// space from the shared CoordinationEngine and suppressing the carrier's
/// duty cycle for that long.
class LteUGrantor {
 public:
  struct Config {
    core::AllocatorParams allocator;
    /// 802.15.4 channel the sniffer parks on.
    int zigbee_channel = 24;
    /// Energy-envelope matcher: a burst counts as a channel request when its
    /// on-air duration is within `airtime_tolerance` of `control_airtime`
    /// and arrived at or above `min_rssi_dbm`. 4384 us is the 120-byte
    /// control packet at 250 kb/s incl. PHY overhead ((120+17) * 32 us).
    Duration control_airtime = Duration::from_us(4384);
    Duration airtime_tolerance = Duration::from_us(320);
    double min_rssi_dbm = -82.0;
    /// Extra lease on top of the allocator grant (kLteUTraits.grant_margin:
    /// covers the tail of an ON burst already on the air).
    Duration grant_margin = core::kLteUTraits.grant_margin;
    std::size_t grant_history_capacity = 1024;
  };

  LteUGrantor(phy::Medium& medium, phy::NodeId node, LteUDevice& device,
              Config config);

  [[nodiscard]] std::uint64_t requests_detected() const { return engine_.requests(); }
  [[nodiscard]] std::uint64_t suppressions_granted() const { return engine_.grants(); }
  [[nodiscard]] std::uint64_t requests_ignored() const { return engine_.ignored(); }
  [[nodiscard]] bool lease_active() const { return engine_.grant_active(); }
  [[nodiscard]] const core::WhitespaceAllocator& allocator() const {
    return engine_.allocator();
  }

 private:
  void on_sniff(const phy::RxResult& rx);

  sim::Simulator& sim_;
  LteUDevice& device_;
  Config config_;
  core::CoordinationEngine engine_;
  phy::Radio sniffer_;
};

}  // namespace bicord::interferers

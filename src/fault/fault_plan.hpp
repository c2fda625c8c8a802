#pragma once
// Declarative fault plans for the deterministic fault-injection subsystem.
//
// A FaultPlan is a list of FaultEvents — scheduled ("at 1.5 s, corrupt the
// next 2 CTS frames") or probabilistic ("between 1 s and 2.5 s, corrupt 25%
// of ZigBee frames") faults that the FaultInjector applies through hooks in
// the PHY medium, the CSI detector, the RSSI sampler, the agents' timers,
// and the traffic sources. Plans are plain data: they can be built in code,
// taken from a named preset, or parsed from a small text DSL (one event per
// line) so `bicordsim --fault-plan @file` can replay a soak exactly.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "phy/frame.hpp"
#include "util/time.hpp"

namespace bicord::fault {

enum class FaultKind : std::uint8_t {
  /// Corrupt the next `count` CTS-to-self frames: they occupy the air (the
  /// sender still self-pauses) but no receiver decodes the NAV.
  CtsLoss,
  /// Drop the next `count` ZigBee control packets: every receiver is deaf to
  /// them (no energy, no CSI disturbance) — the request simply vanishes.
  ControlDeaf,
  /// For `window` after `at`, corrupt frames of `tech` with `probability`.
  FrameCorrupt,
  /// Swallow the next `count` Wi-Fi pause-end notifications (lost resume
  /// interrupt) — the stale-grant watchdog must rescue the agent.
  PauseEndLoss,
  /// Stall the Wi-Fi CSI extraction pipeline for `window` (no samples).
  CsiDropout,
  /// Force one spurious detection at `at` (false positive).
  DetectorFalsePositive,
  /// Swallow every would-be detection for `window` (false negatives).
  DetectorFalseNegative,
  /// Add `magnitude` dB to every RSSI sample read for `window`.
  RssiGlitch,
  /// For `window`, scale agent timer delays by U(1-m, 1+m) (clock jitter).
  ClockJitter,
  /// Give every attached agent a persistent crystal-drift rate: each agent
  /// draws its own skew in ±`magnitude` ppm (one draw per agent, attach
  /// order, off the dedicated fault stream) and from then on *all* its timer
  /// delays — watchdogs and lease expiries included — are scaled by
  /// (1 + ppm·1e-6). Unlike ClockJitter this never re-rolls per timer, so it
  /// models drift, not scheduling noise.
  ClockSkew,
  /// Reconfigure the primary ZigBee burst source: `burst_packets` packets
  /// per burst, `burst_interval` mean spacing (pattern change mid-run).
  BurstShift,
  /// Stop the extra ZigBee node `link` (0 = primary source).
  NodeLeave,
  /// (Re)start the extra ZigBee node `link` (0 = primary source).
  NodeJoin,
};

[[nodiscard]] const char* to_string(FaultKind kind);

/// Largest ClockSkew magnitude: 1000 ppm (0.1%) is far beyond any real
/// crystal, and it keeps skewed timer delays in range.
inline constexpr double kMaxClockSkewPpm = 1000.0;

struct FaultEvent {
  FaultKind kind = FaultKind::CtsLoss;
  /// Activation time (absolute simulation time).
  TimePoint at;
  /// Active window for windowed kinds (FrameCorrupt, CsiDropout, ...).
  Duration window{};
  /// Budget for counted kinds (CtsLoss, ControlDeaf, PauseEndLoss).
  int count = 1;
  /// Per-frame probability for FrameCorrupt.
  double probability = 1.0;
  /// Kind-specific magnitude: dB offset (RssiGlitch), jitter fraction
  /// (ClockJitter), or max |ppm| of crystal drift (ClockSkew).
  double magnitude = 0.0;
  /// Technology filter for FrameCorrupt.
  phy::Technology tech = phy::Technology::ZigBee;
  /// BurstShift parameters.
  int burst_packets = 0;
  Duration burst_interval{};
  /// Node index for NodeLeave / NodeJoin (0 = primary burst source, 1+ =
  /// extra ZigBee senders in scenario order).
  int link = 0;
};

class FaultPlan {
 public:
  FaultPlan() = default;

  FaultPlan& add(FaultEvent event) {
    events_.push_back(event);
    return *this;
  }

  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] const std::vector<FaultEvent>& events() const { return events_; }

  /// One human-readable line per event.
  [[nodiscard]] std::string describe() const;

  /// Named plans used by the chaos soak and `bicordsim --fault-plan`:
  /// "cts-loss", "detector", "rssi", "burst-shift", "frame-loss",
  /// "clock-jitter", "mixed". Returns nullopt for unknown names.
  [[nodiscard]] static std::optional<FaultPlan> preset(const std::string& name);

  /// Parses the text DSL: one event per line,
  ///   <kind> at=<time> [window=] [count=] [prob=] [mag=] [tech=]
  ///          [packets=] [interval=] [link=]
  /// with duration suffixes us/ms/s; '#' starts a comment. Values are read
  /// whole by the util/parse.hpp readers (no trailing junk, nan or inf, and
  /// an int token must fit an int; packets= is at most kMaxAllocCount).
  /// at=, window= and count= must not be negative, and prob= is in [0, 1].
  /// link= is in [-INT_MAX, INT_MAX] (node handlers negate it); mag= is in
  /// [0, kMaxClockSkewPpm] for clock-skew and [0, 1] for clock-jitter,
  /// whose timer delays are scaled by up to 1 + mag.
  /// Returns nullopt (and fills *error) on malformed input.
  [[nodiscard]] static std::optional<FaultPlan> parse(const std::string& text,
                                                     std::string* error = nullptr);

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace bicord::fault

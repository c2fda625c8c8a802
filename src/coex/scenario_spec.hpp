#pragma once
// Declarative scenario descriptions (the data layer above ScenarioConfig).
//
// A ScenarioSpec is an ordered list of `key = value` assignments — parsed
// from a small text DSL in the style of fault::FaultPlan, taken from a named
// preset (one per paper figure), or built programmatically with set(). It
// lowers on demand to one ScenarioConfig, which builds a coex::Scenario, or
// a coex::BleScenario when `topology = ble` (is_ble()). Every key is one row
// of a table sorted by name (spec::keys(), defined in scenario_spec.cpp):
// parse() asks it whether a key exists, and config() lowers each entry
// through its row into the one ScenarioConfig field the row names. Each row
// type has exactly one reader, so a range is written once, and the spec
// fuzzer derives its boundary cases from the rows. Benches, examples, and
// bicordsim build their scenarios from presets plus explicit overrides, so
// an experiment's setup is diffable data rather than a hand-rolled config
// block; the bicord_lint rule `scenario-config-literal` keeps it that way.
//
// DSL: one assignment per line, `#` starts a comment, later assignments win
// (overrides compose in declaration order). Durations take a us/ms/s suffix.
// Repeatable keys (`extra.link`, `fault.event`) append instead of replace.
//
// Value limits (config() fails naming the key, the value and the accepted
// range; nothing is clamped). The table rows hold them:
//   - numbers are read whole by util/parse.hpp: no trailing junk, nan or inf;
//   - an integer must fit its field's type (int, uint32, uint64);
//   - counts that size allocations (burst.packets and extra.link packets=,
//     dense.wifi_pairs / zigbee_links / ble_nodes / clusters, ble.links) are
//     at most 10,000 (kMaxAllocCount);
//   - ZigBee payloads (burst.payload, signaling.control_payload, extra.link
//     payload=) are 1..127 bytes, the largest 802.15.4 frame;
//   - a duration's magnitude is at most 10^6 s (kMaxParsedDuration);
//     periods, intervals and allocator.initial_whitespace / max_whitespace
//     must be positive; gaps, margins and backoffs
//     (allocator.end_of_burst_gap / control_duration / reestimate_period,
//     signaling.control_gap / ignored_backoff) non-negative;
//   - transmit powers (zigbee.data_power / signaling_power, medium.max_tx_power,
//     ecc.emulation_power, dense.wifi_power / zigbee_power / ble_power,
//     ble.tx_power, lteu.power, extra.link power= / signaling=) are in
//     [-120, 60] dBm: the -120 dBm floor up to 1 kW;
//   - wifi.high_share is in [0, 1]; ble.connection_interval is in
//     [7.5 ms, 4 s], the Bluetooth LE range;
//   - fault.event tokens: link= is in [-INT_MAX, INT_MAX], a clock-skew mag=
//     in [0, 1000] ppm (fault.clock_skew_ppm in (0, 1000]), and a
//     clock-jitter mag= in [0, 1] (fault::FaultPlan::parse);
//   - 0 <= ecc.whitespace < ecc.period, checked after every entry applies.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "coex/scenario.hpp"
#include "util/parse.hpp"
#include "util/time.hpp"

namespace bicord::coex {

class ScenarioSpec {
 public:
  /// One `key = value` assignment; `line` is the 1-based source line when the
  /// entry came from parse() (0 for set() / preset-internal entries), echoed
  /// in lowering errors so `--scenario @file` diagnostics stay actionable.
  struct Entry {
    std::string key;
    std::string value;
    int line = 0;
  };

  ScenarioSpec() = default;

  /// Parses the text DSL. Returns nullopt and fills *error ("line N: ...")
  /// on syntax errors or unknown keys.
  [[nodiscard]] static std::optional<ScenarioSpec> parse(const std::string& text,
                                                         std::string* error = nullptr);

  /// Named specs for the paper's experiments ("default", "motivation",
  /// "table1", "fig7".."fig13", "multinode", "ble") plus the dense scaling
  /// family ("dense", "dense1k", "city") and the multi-grantor failover rig
  /// ("multigrantor", "failover"). Nullopt for unknown names.
  [[nodiscard]] static std::optional<ScenarioSpec> preset(const std::string& name);
  /// Registered preset names, in presentation order.
  [[nodiscard]] static std::vector<std::string> preset_names();
  /// One-line summary for --list-presets; empty for unknown names.
  [[nodiscard]] static std::string preset_summary(const std::string& name);

  // --- overrides (append; lowering applies entries in declaration order) ----
  void set(const std::string& key, const std::string& value);
  void set(const std::string& key, const char* value) { set(key, std::string(value)); }
  void set(const std::string& key, std::int64_t value);
  void set(const std::string& key, std::uint64_t value);
  void set(const std::string& key, int value) { set(key, static_cast<std::int64_t>(value)); }
  void set(const std::string& key, double value);
  void set(const std::string& key, bool value);
  void set(const std::string& key, Duration value);

  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  /// Canonical text form; parse(serialize()) round-trips bitwise.
  [[nodiscard]] std::string serialize() const;

  // --- lowering -------------------------------------------------------------
  /// True when the spec selects the ZigBee/BLE topology (`topology = ble`).
  [[nodiscard]] bool is_ble() const;

  /// Lowers to the config of either topology. Returns nullopt and fills
  /// *error (mentioning key and source line) on malformed values.
  [[nodiscard]] std::optional<ScenarioConfig> config(std::string* error = nullptr) const;

  /// config() that aborts with the lowering error on stderr — for benches and
  /// examples whose specs are compile-time-known presets + literal overrides.
  [[nodiscard]] ScenarioConfig must_config() const;

 private:
  std::vector<Entry> entries_;
};

/// The key table.
namespace spec {
/// Transmit powers run from the -120 dBm floor, below which a signal counts
/// as nothing (phy/units.hpp), up to 1 kW, far above the 36 dBm ISM EIRP cap.
inline constexpr double kMaxTxPowerDbm = 60.0;

template <typename T>
using Field = T& (*)(ScenarioConfig&);

/// A duration in [lo, hi] (us/ms/s suffix).
struct DurationKey {
  Field<Duration> field;
  Duration lo;
  Duration hi = kMaxParsedDuration;
};
/// A transmit power in [phy::kFloorDbm, kMaxTxPowerDbm] dBm.
struct PowerKey {
  Field<double> field;
};
/// A finite number in [lo, hi], or (lo, hi] when `lo_open`.
struct NumberKey {
  Field<double> field;
  double lo;
  double hi;
  bool lo_open = false;
};
template <typename T>
struct IntegerKey {
  Field<T> field;
  T lo;
  T hi;
};
/// true/1/on/yes or false/0/off/no, in any case.
struct BoolKey {
  Field<bool> field;
};
/// One of `names` in any case; names[i] selects the enumerator E(i).
template <typename E>
struct ChoiceKey {
  Field<E> field;
  std::span<const std::string_view> names;
};
/// A key that does more than set one field; fills *why on a bad value.
struct SpecialKey {
  bool (*apply)(const std::string& value, ScenarioConfig& cfg, std::string* why);
};

using Reader =
    std::variant<DurationKey, PowerKey, NumberKey, IntegerKey<int>,
                 IntegerKey<std::uint32_t>, IntegerKey<std::uint64_t>, BoolKey,
                 ChoiceKey<Topology>, ChoiceKey<Coordination>, ChoiceKey<ZigbeeLocation>,
                 ChoiceKey<WifiTrafficKind>, SpecialKey>;

struct Key {
  std::string_view name;
  Reader reader;
};

[[nodiscard]] std::span<const Key> keys();
/// The row for `name`, or nullptr for an unknown key.
[[nodiscard]] const Key* find(std::string_view name);

}  // namespace spec
}  // namespace bicord::coex

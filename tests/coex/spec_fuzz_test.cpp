// Deterministic fuzzer for the scenario-spec layer, driven by its key table.
//
// Every preset is crossed with every key-table row's boundary values: each
// end of the row's range and just outside it, plus values no row should
// take (0, -1, a huge number, nan, inf, an empty token, garbage) and the key
// repeated. Random multi-key mutations and token mutations of `fault.event`
// and `extra.link` follow, all drawn from one fixed-seed Rng. The rows are
// the list of keys, so a new key is fuzzed as soon as its row exists.
//
// Each case must end one of two ways: config() fails with a message naming
// a key the case set, or the scenario (a BleScenario for `topology = ble`)
// is built and stepped through 100 sim-ms with Simulator::step() inside an
// event budget. A crash, an abort, an exception or a blown budget fails.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "coex/ble_scenario.hpp"
#include "coex/scenario.hpp"
#include "coex/scenario_spec.hpp"
#include "phy/units.hpp"
#include "util/rng.hpp"

using namespace bicord;
using namespace bicord::coex;

namespace {

constexpr Duration kRunFor = Duration::from_ms(100);
/// Far above any accepted case (a dense1k field dispatches ~60k events per
/// 100 sim-ms); only a scheduling loop reaches it.
constexpr std::uint64_t kEventBudget = 5'000'000;
/// Accepted cases with larger fields are lowered but not stepped: a
/// 10,000-device field (the count limit) on the brute-force medium costs
/// minutes per 100 sim-ms.
constexpr std::int64_t kMaxSteppedNodes = 2'000;
/// The city-scale presets take every kSliceStride-th case of their grid.
constexpr std::size_t kSliceStride = 4;

template <typename T>
constexpr bool kIsInteger = false;
template <typename T>
constexpr bool kIsInteger<spec::IntegerKey<T>> = true;
template <typename T>
constexpr bool kIsChoice = false;
template <typename E>
constexpr bool kIsChoice<spec::ChoiceKey<E>> = true;

/// A uniform index below n.
std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

template <typename T>
const T& pick(Rng& rng, const std::vector<T>& v) {
  return v[pick(rng, v.size())];
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string us(std::int64_t v) { return std::to_string(v) + "us"; }

/// One `fault.event` line: a kind, usually `at=`, and up to three tokens,
/// each drawn from values at and around that token's range.
std::string random_fault_event(Rng& rng) {
  static const std::vector<std::string> kKinds = {
      "cts-loss",    "control-deaf", "frame-corrupt", "pause-end-loss", "csi-dropout",
      "detector-fp", "detector-fn",  "rssi-glitch",   "clock-jitter",   "clock-skew",
      "burst-shift", "node-leave",   "node-join",     "gremlins"};
  static const std::map<std::string, std::vector<std::string>> kTokens = {
      {"at", {"0us", "150ms", "1000000s", "1000001s", "-1us"}},
      {"window", {"0us", "50ms", "-1us", "1000001s"}},
      {"count", {"0", "3", "-1", "2147483647", "2147483648"}},
      {"prob", {"0", "1", "0.5", "1.0001", "-0.1", "nan"}},
      {"mag", {"0", "0.2", "1", "1.5", "1000", "1000.5", "-1", "-30", "1e300"}},
      {"tech", {"wifi", "zigbee", "bluetooth", "microwave", "lte"}},
      {"packets", {"1", "10000", "10001", "0", "-5"}},
      {"interval", {"1us", "100ms", "0us", "-1ms"}},
      {"link",
       {"0", "1", "-1", "-2", "1000", "2147483647", "-2147483647", "-2147483648"}},
      {"bogus", {"1"}}};
  std::string line = pick(rng, kKinds);
  if (rng.bernoulli(0.9)) line += " at=" + us(rng.uniform_int(0, 150'000));
  for (std::int64_t n = rng.uniform_int(0, 3); n > 0; --n) {
    auto token = kTokens.begin();
    std::advance(token, static_cast<std::ptrdiff_t>(pick(rng, kTokens.size())));
    line += " " + token->first + "=" + pick(rng, token->second);
  }
  return line;
}

/// One `extra.link` value: up to four tokens.
std::string random_extra_link(Rng& rng) {
  static const std::vector<std::string> kTokens = {
      "loc=A",           "loc=d",           "loc=Z",          "offset=0.5,-0.5",
      "offset=1e300,1e300", "offset=nan,0", "offset=3",       "packets=1",
      "packets=10000",   "packets=10001",   "packets=0",      "payload=127",
      "payload=128",     "payload=0",       "interval=1us",   "interval=0us",
      "interval=1000000s", "poisson=false", "poisson=maybe",  "power=60",
      "power=60.5",      "signaling=-120",  "signaling=-121", "junk",
      "what=1"};
  std::string value;
  for (std::int64_t n = rng.uniform_int(0, 4); n > 0; --n) {
    if (!value.empty()) value += ' ';
    value += pick(rng, kTokens);
  }
  return value;
}

/// A row's boundary values: `inside` its range and just `outside` it.
struct Boundary {
  std::vector<std::string> inside;
  std::vector<std::string> outside;
};

Boundary boundary_values(const spec::Key& key) {
  // The keys that do more than set one field take their own values.
  static const std::map<std::string_view, Boundary> kSpecial = {
      {"extra.clear", {{"true", "on"}, {"false"}}},
      {"extra.link", {{"loc=C packets=3 payload=30 interval=150ms", ""}, {"loc=Z"}}},
      {"fault.clock_skew_ppm", {{"1000", "1e-300"}, {"1000.0000000000001"}}},
      {"fault.event",
       {{"node-leave at=1ms link=-2147483647", "clock-skew at=0us mag=1000",
         "clock-jitter at=0us window=1s mag=1"},
        {"node-join at=0us link=-2147483648", "clock-skew at=0us mag=1000.5",
         "clock-jitter at=0us mag=1.5"}}},
      {"fault.preset", {{"mixed", "clock-jitter"}, {"nope"}}},
      {"grantors", {{"2.5", "2.5, 4", "1e300"}, {"3,3", "2.5,", ",4"}}},
      {"zigbee.link_distance", {{"default", "5e-324", "5"}, {"DEFAULTS"}}},
      {"zigbee.signaling_power", {{"default", "-120", "60"}, {"60.5"}}},
  };
  Boundary b;
  std::visit(
      [&](const auto& row) {
        using R = std::decay_t<decltype(row)>;
        if constexpr (std::is_same_v<R, spec::DurationKey>) {
          b = {{us(row.lo.us()), us(row.hi.us())},
               {us(row.lo.us() - 1), us(row.hi.us() + 1)}};
        } else if constexpr (std::is_same_v<R, spec::PowerKey>) {
          b = {{num(phy::kFloorDbm), num(spec::kMaxTxPowerDbm)},
               {num(std::nextafter(phy::kFloorDbm, -1e9)),
                num(std::nextafter(spec::kMaxTxPowerDbm, 1e9))}};
        } else if constexpr (std::is_same_v<R, spec::NumberKey>) {
          if (std::isfinite(row.lo)) {
            (row.lo_open ? b.outside : b.inside).push_back(num(row.lo));
            b.outside.push_back(num(std::nextafter(row.lo, -1e308)));
          }
          if (std::isfinite(row.hi)) {
            b.inside.push_back(num(row.hi));
            b.outside.push_back(num(std::nextafter(row.hi, 1e308)));
          } else {
            b.inside.emplace_back("1e300");
          }
        } else if constexpr (kIsInteger<R>) {
          b = {{std::to_string(row.lo), std::to_string(row.hi)},
               {std::to_string(static_cast<std::int64_t>(row.lo) - 1)}};
          if constexpr (std::is_same_v<decltype(row.lo), std::uint64_t>) {
            b.outside.emplace_back("18446744073709551616");
          } else {
            b.outside.push_back(std::to_string(std::int64_t{row.hi} + 1));
          }
        } else if constexpr (std::is_same_v<R, spec::BoolKey>) {
          b = {{"true", "false", "ON", "no"}, {"maybe"}};
        } else if constexpr (kIsChoice<R>) {
          for (const auto name : row.names) b.inside.emplace_back(name);
          b.outside.emplace_back("nope");
        } else if (const auto it = kSpecial.find(key.name); it != kSpecial.end()) {
          b = it->second;
        }
      },
      key.reader);
  for (const char* junk : {"0", "-1", "1e300", "nan", "inf", "", "garbage"}) {
    b.outside.emplace_back(junk);
  }
  return b;
}

/// One fuzz case: a preset plus appended assignments.
struct Case {
  std::string preset;
  std::vector<std::pair<std::string, std::string>> sets;
};

template <typename S>
void step_through(S& scenario, const std::string& what) {
  auto& sim = scenario.simulator();
  const TimePoint end = sim.now() + kRunFor;
  std::uint64_t events = 0;
  while (sim.next_event_time() <= end && sim.step()) {
    if (++events > kEventBudget) {
      ADD_FAILURE() << what << ": more than " << kEventBudget << " events in "
                    << kRunFor.to_string();
      return;
    }
  }
}

/// Radio nodes a config adds beyond the testbed's handful.
std::int64_t nodes_built(const ScenarioConfig& cfg, bool ble) {
  if (ble) return 2 * std::int64_t{cfg.ble.links};
  const auto& d = cfg.dense;
  return 2 * std::int64_t{d.wifi_pairs} + 2 * std::int64_t{d.zigbee_links} + d.ble_nodes;
}

/// Runs one case; true when config() accepted it.
bool run_case(const Case& c) {
  auto spec = *ScenarioSpec::preset(c.preset);
  std::string what = c.preset;
  for (const auto& [key, value] : c.sets) {
    spec.set(key, value);
    what += " | " + key + " = " + value;
  }
  std::string error;
  const auto cfg = spec.config(&error);
  if (!cfg) {
    bool named = false;
    for (const auto& set : c.sets) {
      named = named || error.find(set.first) != std::string::npos;
    }
    EXPECT_TRUE(named) << what << ": " << error;
    return false;
  }
  if (nodes_built(*cfg, spec.is_ble()) > kMaxSteppedNodes) return true;
  if (spec.is_ble()) {
    BleScenario scenario(*cfg);
    step_through(scenario, what);
  } else {
    Scenario scenario(*cfg);
    step_through(scenario, what);
  }
  return true;
}

/// Every preset x every row x every boundary value, then the row repeated.
/// A city-scale case costs 10-100x a testbed case, so the dense presets run
/// a slice of their grid.
std::vector<Case> grid_cases() {
  std::vector<Case> cases;
  for (const auto& preset : ScenarioSpec::preset_names()) {
    const bool sliced = preset == "dense" || preset == "dense1k" || preset == "city";
    std::size_t n = 0;
    const auto add = [&](Case c) {
      if (!sliced || n++ % kSliceStride == 0) cases.push_back(std::move(c));
    };
    for (const auto& key : spec::keys()) {
      const std::string name(key.name);
      const auto b = boundary_values(key);
      for (const auto* values : {&b.inside, &b.outside}) {
        for (const auto& value : *values) add({preset, {{name, value}}});
      }
      const auto& last = b.inside.empty() ? b.outside.front() : b.inside.back();
      add({preset, {{name, b.outside.front()}, {name, last}}});
    }
  }
  return cases;
}

/// Random multi-key and token mutations of the testbed-sized presets. Three
/// in four values lie inside their row's range, so most cases get past the
/// first rejected key.
std::vector<Case> random_cases(std::size_t count) {
  std::vector<std::string> presets;
  for (const auto& p : ScenarioSpec::preset_names()) {
    if (p != "dense" && p != "dense1k" && p != "city") presets.push_back(p);
  }
  std::vector<std::pair<std::string, Boundary>> rows;
  for (const auto& key : spec::keys()) {
    rows.emplace_back(std::string(key.name), boundary_values(key));
  }
  Rng rng(0x5bec);
  std::vector<Case> cases;
  while (cases.size() < count) {
    Case c{pick(rng, presets), {}};
    for (std::int64_t n = rng.uniform_int(2, 4); n > 0; --n) {
      const double roll = rng.uniform();
      if (roll < 0.2) {
        c.sets.emplace_back("fault.event", random_fault_event(rng));
      } else if (roll < 0.35) {
        c.sets.emplace_back("extra.link", random_extra_link(rng));
      } else {
        const auto& [name, b] = pick(rng, rows);
        const bool inside = !b.inside.empty() && rng.bernoulli(0.75);
        c.sets.emplace_back(name, pick(rng, inside ? b.inside : b.outside));
      }
    }
    cases.push_back(std::move(c));
  }
  return cases;
}

TEST(SpecFuzzTest, EveryCaseFailsNamingAKeyOrRunsWithinBudget) {
  auto cases = grid_cases();
  const auto random = random_cases(4000);
  cases.insert(cases.end(), random.begin(), random.end());
  ASSERT_GE(cases.size(), 10'000u);

  std::size_t accepted = 0;
  for (const auto& c : cases) {
    if (run_case(c)) ++accepted;
    if (testing::Test::HasFailure()) break;  // one case's report is enough
  }
  // Vacuousness guard: both outcomes must be well represented.
  EXPECT_GT(accepted, cases.size() / 5);
  EXPECT_GT(cases.size() - accepted, cases.size() / 5);
}

}  // namespace

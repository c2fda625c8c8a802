#include "coex/scenario_spec.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <sstream>
#include <type_traits>

#include "phy/units.hpp"
#include "util/parse.hpp"

namespace bicord::coex {
namespace {

using namespace spec;

/// aMaxPHYPacketSize, the largest 802.15.4 frame. The 11-byte MAC overhead
/// is not subtracted, so the paper's 120-byte control packet stays legal.
constexpr std::uint32_t kMaxZigbeePayload = 127;
constexpr std::uint32_t kU32Max = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
constexpr int kMaxCount = static_cast<int>(kMaxAllocCount);
constexpr int kIntMax = std::numeric_limits<int>::max();
constexpr double kInf = std::numeric_limits<double>::infinity();

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

bool iequals(std::string_view a, std::string_view b) {
  return std::ranges::equal(a, b, [](char x, char y) {
    return std::tolower(static_cast<unsigned char>(x)) ==
           std::tolower(static_cast<unsigned char>(y));
  });
}

/// Shortest decimal form that round-trips the exact double.
std::string format_double(double v) {
  char buf[64];
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    double back = 0.0;
    if (parse_f64(buf, &back) && back == v) break;
  }
  return buf;
}

/// Fills *why with "expected <what>, got '<value>'" and returns false.
bool expected(std::string* why, const std::string& what, std::string_view value) {
  *why = "expected " + what + ", got '" + std::string(value) + "'";
  return false;
}

bool parse_power(std::string_view s, double* out) {
  double p = 0.0;
  if (!parse_f64(s, &p) || p < phy::kFloorDbm || p > kMaxTxPowerDbm) return false;
  *out = p;
  return true;
}

std::string power_range() {
  return "a power in dBm in [" + format_double(phy::kFloorDbm) + ", " +
         format_double(kMaxTxPowerDbm) + "]";
}

bool parse_bool(std::string_view s, bool* out) {
  constexpr std::string_view kWords[] = {"false", "0", "off", "no",
                                         "true",  "1", "on",  "yes"};
  for (std::size_t i = 0; i < std::size(kWords); ++i) {
    if (iequals(s, kWords[i])) {
      *out = i >= 4;
      return true;
    }
  }
  return false;
}

template <typename E>
bool choose(std::span<const std::string_view> names, std::string_view s, E* out) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (iequals(s, names[i])) {
      *out = static_cast<E>(i);
      return true;
    }
  }
  return false;
}

// Enumerator order: names[i] is E(i).
constexpr std::string_view kTopologies[] = {"coex", "ble"};
constexpr std::string_view kCoordinations[] = {"bicord", "ecc", "csma", "lteu", "tsch"};
constexpr std::string_view kLocations[] = {"A", "B", "C", "D"};
constexpr std::string_view kWifiTraffic[] = {"cbr", "saturated", "priority"};

// --- one reader per row kind ---------------------------------------------------

bool apply(const DurationKey& k, const std::string& v, ScenarioConfig& c,
           std::string* why) {
  Duration d;
  if (parse_duration(v, &d) && d >= k.lo && d <= k.hi) {
    k.field(c) = d;
    return true;
  }
  return expected(why,
                  "a duration in [" + k.lo.to_string() + ", " + k.hi.to_string() +
                      "] (us/ms/s suffix)",
                  v);
}

bool apply(const PowerKey& k, const std::string& v, ScenarioConfig& c, std::string* why) {
  return parse_power(v, &k.field(c)) || expected(why, power_range(), v);
}

bool apply(const NumberKey& k, const std::string& v, ScenarioConfig& c,
           std::string* why) {
  double f = 0.0;
  if (parse_f64(v, &f) && (k.lo_open ? f > k.lo : f >= k.lo) && f <= k.hi) {
    k.field(c) = f;
    return true;
  }
  const std::string range = (k.lo_open || k.lo == -kInf ? "(" : "[") +
                            format_double(k.lo) + ", " + format_double(k.hi) +
                            (k.hi == kInf ? ")" : "]");
  return expected(why, "a number in " + range, v);
}

template <typename T>
bool apply(const IntegerKey<T>& k, const std::string& v, ScenarioConfig& c,
           std::string* why) {
  bool ok = false;
  if constexpr (std::is_same_v<T, std::uint64_t>) {
    std::uint64_t u = 0;
    ok = parse_u64(v, &u) && u >= k.lo && u <= k.hi;
    if (ok) k.field(c) = u;
  } else {
    ok = parse_int(v, &k.field(c), k.lo, k.hi);
  }
  const auto range = "[" + std::to_string(k.lo) + ", " + std::to_string(k.hi) + "]";
  return ok || expected(why, "an integer in " + range, v);
}

bool apply(const BoolKey& k, const std::string& v, ScenarioConfig& c, std::string* why) {
  return parse_bool(v, &k.field(c)) || expected(why, "a boolean", v);
}

template <typename E>
bool apply(const ChoiceKey<E>& k, const std::string& v, ScenarioConfig& c,
           std::string* why) {
  if (choose(k.names, v, &k.field(c))) return true;
  std::string what = "one of ";
  for (std::size_t i = 0; i < k.names.size(); ++i) {
    what += (i > 0 ? ", " : "") + std::string(k.names[i]);
  }
  return expected(why, what, v);
}

bool apply(const SpecialKey& k, const std::string& v, ScenarioConfig& c,
           std::string* why) {
  return k.apply(v, c, why);
}

// --- keys that do more than set one field --------------------------------------

/// "dx,dy" -> Position.
bool parse_position(const std::string& s, phy::Position* out) {
  const auto comma = s.find(',');
  if (comma == std::string::npos) return false;
  double x = 0.0;
  double y = 0.0;
  if (!parse_f64(trim(s.substr(0, comma)), &x)) return false;
  if (!parse_f64(trim(s.substr(comma + 1)), &y)) return false;
  *out = phy::Position{x, y};
  return true;
}

/// `extra.link` value: space-separated key=value tokens
///   loc=A..D offset=dx,dy packets=N payload=B interval=<dur> poisson=<bool>
///   power=<dBm> signaling=<dBm>
bool parse_extra_link(const std::string& text, ExtraZigbeeSpec* out,
                      std::string* why) {
  ExtraZigbeeSpec spec;
  std::istringstream in(text);
  std::string token;
  while (in >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos) {
      *why = "token '" + token + "' is not key=value";
      return false;
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    bool ok = true;
    if (key == "loc") {
      ok = choose(kLocations, value, &spec.location);
    } else if (key == "offset") {
      ok = parse_position(value, &spec.offset);
    } else if (key == "packets") {
      ok = parse_int(value, &spec.burst.packets_per_burst, 1, kMaxAllocCount);
    } else if (key == "payload") {
      ok = parse_int(value, &spec.burst.payload_bytes, 1, kMaxZigbeePayload);
    } else if (key == "interval") {
      ok = parse_duration(value, &spec.burst.mean_interval) &&
           spec.burst.mean_interval > Duration::zero();
    } else if (key == "poisson") {
      ok = parse_bool(value, &spec.burst.poisson);
    } else if (key == "power") {
      ok = parse_power(value, &spec.data_power_dbm);
    } else if (key == "signaling") {
      double p = 0.0;
      ok = parse_power(value, &p);
      spec.signaling_power_dbm = p;
    } else {
      *why = "unknown token key '" + key + "'";
      return false;
    }
    if (!ok) {
      *why = "bad value '" + value + "' for token '" + key + "'";
      return false;
    }
  }
  *out = spec;
  return true;
}

bool add_extra_link(const std::string& v, ScenarioConfig& c, std::string* why) {
  ExtraZigbeeSpec spec;
  if (!parse_extra_link(v, &spec, why)) return false;
  c.extra_zigbee.push_back(spec);
  return true;
}

bool clear_extra_links(const std::string& v, ScenarioConfig& c, std::string* why) {
  bool b = false;
  if (!parse_bool(v, &b) || !b) return expected(why, "'true'", v);
  c.extra_zigbee.clear();
  return true;
}

/// Comma-separated distances (metres) of extra grantor APs from the ZigBee
/// sender. Distances double as election-metric inputs, so zero and
/// duplicates are rejected: both would make the RSSI ranking degenerate
/// instead of merely redundant.
bool set_grantors(const std::string& v, ScenarioConfig& c, std::string* why) {
  std::vector<double> dists;
  std::size_t pos = 0;
  while (true) {
    const auto comma = v.find(',', pos);
    const std::string tok = trim(comma == std::string::npos ? v.substr(pos)
                                                            : v.substr(pos, comma - pos));
    double f = 0.0;
    if (!parse_f64(tok, &f) || f <= 0.0) {
      return expected(why, "a positive distance in metres", tok);
    }
    if (std::ranges::find(dists, f) != dists.end()) {
      *why = "duplicate grantor distance '" + tok + "'";
      return false;
    }
    dists.push_back(f);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  c.extra_grantors_m = std::move(dists);
  return true;
}

bool set_signaling_power(const std::string& v, ScenarioConfig& c, std::string* why) {
  double p = 0.0;
  if (iequals(v, "default")) c.signaling_power_dbm.reset();
  else if (parse_power(v, &p)) c.signaling_power_dbm = p;
  else return expected(why, power_range() + " or 'default'", v);
  return true;
}

bool set_link_distance(const std::string& v, ScenarioConfig& c, std::string* why) {
  double d = 0.0;
  if (iequals(v, "default")) c.zigbee_link_distance_m.reset();
  else if (parse_f64(v, &d) && d > 0.0) c.zigbee_link_distance_m = d;
  else return expected(why, "a positive distance in metres or 'default'", v);
  return true;
}

bool set_fault_preset(const std::string& v, ScenarioConfig& c, std::string* why) {
  auto plan = fault::FaultPlan::preset(v);
  if (!plan) return expected(why, "a fault-plan preset name (see fault::FaultPlan)", v);
  c.fault_plan = *plan;
  return true;
}

bool add_fault_event(const std::string& v, ScenarioConfig& c, std::string* why) {
  std::string error;
  auto plan = fault::FaultPlan::parse(v, &error);
  if (!plan) {
    *why = "bad fault event: " + error;
    return false;
  }
  for (const auto& event : plan->events()) c.fault_plan.add(event);
  return true;
}

/// Lowered to a ClockSkew event at t=0: every agent draws a persistent
/// crystal drift in ±ppm before the first timer arms.
bool add_clock_skew(const std::string& v, ScenarioConfig& c, std::string* why) {
  double ppm = 0.0;
  if (!parse_f64(v, &ppm) || ppm <= 0.0 || ppm > fault::kMaxClockSkewPpm) {
    const std::string max = format_double(fault::kMaxClockSkewPpm);
    return expected(why, "a drift magnitude in ppm, in (0, " + max + "]", v);
  }
  fault::FaultEvent skew;
  skew.kind = fault::FaultKind::ClockSkew;
  skew.magnitude = ppm;
  c.fault_plan.add(skew);
  return true;
}

// --- the table -------------------------------------------------------------------

using Cfg = ScenarioConfig;
using Alloc = core::AllocatorParams;
using Burst = zigbee::BurstSource::Config;
using Dense = DenseFieldSpec;
using Ecc = core::EccWifiAgent::Config;
using Lteu = interferers::LteUDevice::Config;
using Med = phy::MediumTuning;
using Loss = phy::PathLossModel;
using Sig = core::SignalingParams;
using Ble = BleClusterSpec;
using Int = IntegerKey<int>;
using U32 = IntegerKey<std::uint32_t>;
using U64 = IntegerKey<std::uint64_t>;

/// The field at `path` inside a config: at<&Cfg::burst, &Burst::payload_bytes>.
template <auto... path>
auto& at(Cfg& c) {
  return (c .* ... .* path);
}

// Periods and intervals feed timers and rates, so they are positive; gaps,
// margins and backoffs may be zero, but a negative delay aborts the simulator.
constexpr DurationKey any(Field<Duration> f) {
  return {f, Duration::from_us(-kMaxParsedDuration.us())};
}
constexpr DurationKey non_negative(Field<Duration> f) { return {f, Duration::zero()}; }
constexpr DurationKey positive(Field<Duration> f) { return {f, Duration::from_us(1)}; }

constexpr Key kKeys[] = {
    {"allocator.control_duration",
     non_negative(at<&Cfg::allocator, &Alloc::control_duration>)},
    {"allocator.end_of_burst_gap",
     non_negative(at<&Cfg::allocator, &Alloc::end_of_burst_gap>)},
    {"allocator.initial_whitespace",
     positive(at<&Cfg::allocator, &Alloc::initial_whitespace>)},
    {"allocator.max_whitespace", positive(at<&Cfg::allocator, &Alloc::max_whitespace>)},
    {"allocator.reestimate_period",
     non_negative(at<&Cfg::allocator, &Alloc::reestimate_period>)},
    // The Bluetooth LE range. A shorter interval opens a new connection
    // event before the last one's packets end, and the run stalls.
    {"ble.connection_interval",
     DurationKey{at<&Cfg::ble, &Ble::connection_interval>,
                 Duration::from_us(7500), Duration::from_sec(4)}},
    {"ble.coordinate", BoolKey{at<&Cfg::ble, &Ble::coordinate>}},
    {"ble.links", Int{at<&Cfg::ble, &Ble::links>, 1, kMaxCount}},
    {"ble.payload", U32{at<&Cfg::ble, &Ble::payload_bytes>, 1, kU32Max}},
    {"ble.tx_power", PowerKey{at<&Cfg::ble, &Ble::tx_power_dbm>}},
    {"ble.zigbee_channel", Int{at<&Cfg::ble, &Ble::zigbee_channel>, 11, 26}},
    {"burst.interval", positive(at<&Cfg::burst, &Burst::mean_interval>)},
    {"burst.packets", Int{at<&Cfg::burst, &Burst::packets_per_burst>, 1, kMaxCount}},
    {"burst.payload", U32{at<&Cfg::burst, &Burst::payload_bytes>, 1, kMaxZigbeePayload}},
    {"burst.poisson", BoolKey{at<&Cfg::burst, &Burst::poisson>}},
    {"coordination", ChoiceKey<Coordination>{at<&Cfg::coordination>, kCoordinations}},
    {"dense.area", NumberKey{at<&Cfg::dense, &Dense::area_m>, 0.0, kInf, true}},
    {"dense.ble_nodes", Int{at<&Cfg::dense, &Dense::ble_nodes>, 0, kMaxCount}},
    {"dense.ble_power", PowerKey{at<&Cfg::dense, &Dense::ble_tx_power_dbm>}},
    {"dense.cluster_sigma",
     NumberKey{at<&Cfg::dense, &Dense::cluster_sigma_m>, 0.0, kInf, true}},
    {"dense.clusters", Int{at<&Cfg::dense, &Dense::clusters>, 0, kMaxCount}},
    {"dense.seed", U64{at<&Cfg::dense, &Dense::placement_seed>, 0, kU64Max}},
    {"dense.wifi_interval", positive(at<&Cfg::dense, &Dense::wifi_interval>)},
    {"dense.wifi_pairs", Int{at<&Cfg::dense, &Dense::wifi_pairs>, 0, kMaxCount}},
    {"dense.wifi_payload", U32{at<&Cfg::dense, &Dense::wifi_payload_bytes>, 1, kU32Max}},
    {"dense.wifi_power", PowerKey{at<&Cfg::dense, &Dense::wifi_tx_power_dbm>}},
    {"dense.zigbee_links", Int{at<&Cfg::dense, &Dense::zigbee_links>, 0, kMaxCount}},
    {"dense.zigbee_power", PowerKey{at<&Cfg::dense, &Dense::zigbee_tx_power_dbm>}},
    {"ecc.emulation_airtime", positive(at<&Cfg::ecc, &Ecc::emulation_airtime>)},
    {"ecc.emulation_power", PowerKey{at<&Cfg::ecc, &Ecc::emulation_power_dbm>}},
    {"ecc.period", positive(at<&Cfg::ecc, &Ecc::period>)},
    // Checked against ecc.period once every entry has applied (config()).
    {"ecc.whitespace", any(at<&Cfg::ecc, &Ecc::whitespace>)},
    {"election.grace", positive(at<&Cfg::election_grace>)},
    {"extra.clear", SpecialKey{clear_extra_links}},
    {"extra.link", SpecialKey{add_extra_link}},
    // 1000 ppm (0.1%) is far beyond any real crystal; more is a spec typo.
    {"fault.clock_skew_ppm", SpecialKey{add_clock_skew}},
    {"fault.event", SpecialKey{add_fault_event}},
    {"fault.preset", SpecialKey{set_fault_preset}},
    {"grantors", SpecialKey{set_grantors}},
    {"location", ChoiceKey<ZigbeeLocation>{at<&Cfg::location>, kLocations}},
    {"lteu.duty", NumberKey{at<&Cfg::lteu, &Lteu::duty>, 0.0, 1.0, true}},
    {"lteu.period", positive(at<&Cfg::lteu, &Lteu::period>)},
    {"lteu.power", PowerKey{at<&Cfg::lteu, &Lteu::tx_power_dbm>}},
    {"medium.max_tx_power", PowerKey{at<&Cfg::medium, &Med::max_tx_power_dbm>}},
    {"medium.snap_floor", NumberKey{at<&Cfg::medium, &Med::snap_floor_dbm>, -kInf, kInf}},
    {"medium.spatial_index", BoolKey{at<&Cfg::medium, &Med::spatial_index>}},
    {"mobility.device", BoolKey{at<&Cfg::device_mobility>}},
    {"mobility.device_period", positive(at<&Cfg::device_move_period>)},
    {"mobility.person", BoolKey{at<&Cfg::person_mobility>}},
    {"mobility.person_rate", NumberKey{at<&Cfg::person_event_rate_hz>, 0.0, kInf, true}},
    {"pathloss.exponent",
     NumberKey{at<&Cfg::path_loss, &Loss::exponent>, 0.0, kInf, true}},
    {"pathloss.ref_db", NumberKey{at<&Cfg::path_loss, &Loss::pl_d0_db>, -kInf, kInf}},
    {"pathloss.sigma",
     NumberKey{at<&Cfg::path_loss, &Loss::shadowing_sigma_db>, 0.0, kInf}},
    {"seed", U64{at<&Cfg::seed>, 0, kU64Max}},
    {"signaling.control_gap", non_negative(at<&Cfg::signaling, &Sig::control_gap>)},
    {"signaling.control_payload",
     U32{at<&Cfg::signaling, &Sig::control_payload_bytes>, 1, kMaxZigbeePayload}},
    {"signaling.ignored_backoff",
     non_negative(at<&Cfg::signaling, &Sig::ignored_backoff>)},
    {"signaling.max_control_packets",
     Int{at<&Cfg::signaling, &Sig::max_control_packets>, 1, kIntMax}},
    {"topology", ChoiceKey<Topology>{at<&Cfg::topology>, kTopologies}},
    {"tsch.hop_period", positive(at<&Cfg::tsch_hop_period>)},
    {"wifi.cbr_interval", positive(at<&Cfg::wifi_cbr_interval>)},
    {"wifi.cbr_payload", U32{at<&Cfg::wifi_cbr_payload_bytes>, 1, kU32Max}},
    {"wifi.grants_requests", BoolKey{at<&Cfg::wifi_grants_requests>}},
    {"wifi.high_share", NumberKey{at<&Cfg::wifi_high_share>, 0.0, 1.0}},
    {"wifi.payload", U32{at<&Cfg::wifi_payload_bytes>, 1, kU32Max}},
    {"wifi.priority_cycle", positive(at<&Cfg::wifi_priority_cycle>)},
    {"wifi.traffic", ChoiceKey<WifiTrafficKind>{at<&Cfg::wifi_traffic>, kWifiTraffic}},
    {"zigbee.data_power", PowerKey{at<&Cfg::zigbee_data_power_dbm>}},
    {"zigbee.duty_cycle", BoolKey{at<&Cfg::zigbee_duty_cycle>}},
    {"zigbee.link_distance", SpecialKey{set_link_distance}},
    {"zigbee.signaling_power", SpecialKey{set_signaling_power}},
};
// Strictly ascending, so find() can binary-search and no key is listed twice.
static_assert(std::ranges::is_sorted(kKeys, std::ranges::less_equal{}, &Key::name));

std::string describe_entry(const ScenarioSpec::Entry& e) {
  std::string where = "key '" + e.key + "'";
  if (e.line > 0) where = "line " + std::to_string(e.line) + ": " + where;
  return where;
}

struct PresetDef {
  const char* name;
  const char* summary;
  const char* text;
};

// One preset per paper experiment. These carry the *base* configuration the
// matching bench starts from; per-cell sweep values (packet counts, shares,
// intervals, ...) are applied by the bench as set() overrides.
constexpr PresetDef kPresets[] = {
    {"default", "library defaults: BiCord at location A, 5 x 50 B bursts @ 200 ms",
     "seed = 1\n"},
    {"motivation",
     "Sec. VIII-A motivation: uncoordinated ZigBee under saturated Wi-Fi",
     "seed = 1\n"
     "coordination = csma\n"
     "location = A\n"},
    {"table1", "Tables 1-2 setting: BiCord signaling at location A",
     "seed = 1\n"
     "coordination = bicord\n"
     "location = A\n"},
    {"fig7", "Fig. 7: white-space learning, 10 x 50 B bursts @ 200 ms, 30 ms step",
     "seed = 77\n"
     "coordination = bicord\n"
     "location = A\n"
     "burst.packets = 10\n"
     "burst.payload = 50\n"
     "burst.interval = 200ms\n"
     "burst.poisson = false\n"
     "allocator.initial_whitespace = 30ms\n"},
    {"fig8", "Fig. 8: iterations to adjust (sweep packets/step/location)",
     "seed = 88\n"
     "coordination = bicord\n"
     "location = A\n"
     "burst.packets = 5\n"
     "burst.payload = 50\n"
     "burst.interval = 200ms\n"
     "burst.poisson = false\n"
     "allocator.initial_whitespace = 30ms\n"},
    {"fig9", "Fig. 9: converged white space + over-provision (sweep packets/step)",
     "seed = 99\n"
     "coordination = bicord\n"
     "location = A\n"
     "burst.packets = 5\n"
     "burst.payload = 50\n"
     "burst.interval = 250ms\n"
     "burst.poisson = false\n"
     "allocator.initial_whitespace = 30ms\n"},
    {"fig10", "Fig. 10: BiCord vs ECC utilization/delay/throughput sweep",
     "seed = 1010\n"
     "coordination = bicord\n"
     "location = A\n"
     "burst.packets = 5\n"
     "burst.payload = 50\n"
     "ecc.period = 100ms\n"},
    {"fig11", "Fig. 11: parameter impact (payload, burst size, location)",
     "seed = 1111\n"
     "coordination = bicord\n"
     "location = A\n"
     "burst.packets = 5\n"
     "burst.payload = 50\n"
     "burst.interval = 200ms\n"},
    {"fig12", "Fig. 12: mobile scenarios (person / device mobility)",
     "seed = 1212\n"
     "coordination = bicord\n"
     "location = A\n"
     "burst.packets = 5\n"
     "burst.payload = 50\n"
     "burst.interval = 200ms\n"},
    {"fig13", "Fig. 13: prioritized Wi-Fi traffic (high-priority share sweep)",
     "seed = 1313\n"
     "coordination = bicord\n"
     "location = A\n"
     "wifi.traffic = priority\n"
     "burst.packets = 5\n"
     "burst.payload = 50\n"
     "burst.interval = 200ms\n"},
    {"multinode",
     "Sec. VI extension: three ZigBee links with mixed traffic patterns",
     "seed = 2020\n"
     "coordination = bicord\n"
     "location = A\n"
     "burst.packets = 5\n"
     "burst.payload = 50\n"
     "burst.interval = 250ms\n"
     "extra.link = loc=C packets=3 payload=30 interval=150ms\n"
     "extra.link = loc=B offset=-0.5,0.6 packets=8 payload=60 interval=600ms\n"},
    // The dense family scales the office testbed into a city block: the same
    // primary links, surrounded by a clustered field of background devices
    // (coex/placement.hpp). Physics: exponent 3.8 (urban), snap floor
    // -97 dBm — contributions weaker than that are provably irrelevant to
    // every receiver here — giving a ~111 m interference radius at 20 dBm
    // (~33 m at ZigBee's 0 dBm), which is what makes the spatial index
    // (enabled here) effective: windows hold one cluster, not the field.
    {"dense",
     "dense field: testbed + 60 Wi-Fi pairs, 60 ZigBee links, 15 BT over 1.2 km",
     "seed = 3030\n"
     "coordination = bicord\n"
     "location = A\n"
     "burst.packets = 5\n"
     "burst.payload = 50\n"
     "burst.interval = 200ms\n"
     "pathloss.exponent = 3.8\n"
     "medium.snap_floor = -97\n"
     "medium.spatial_index = true\n"
     "medium.max_tx_power = 20\n"
     "dense.wifi_pairs = 60\n"
     "dense.zigbee_links = 60\n"
     "dense.ble_nodes = 15\n"
     "dense.area = 1200\n"
     "dense.clusters = 12\n"
     "dense.cluster_sigma = 120\n"
     "fault.event = node-leave at=1200ms link=2\n"   // churn: a dense link
     "fault.event = node-join at=2200ms link=2\n"    // drops out and returns
     "fault.event = node-leave at=1800ms link=9\n"
     "fault.event = node-join at=2800ms link=9\n"},
    {"dense1k",
     "bench scale: testbed + 330 Wi-Fi pairs, 360 ZigBee links, 160 BT (1544 nodes)",
     "seed = 3131\n"
     "coordination = bicord\n"
     "location = A\n"
     "burst.packets = 5\n"
     "burst.payload = 50\n"
     "burst.interval = 200ms\n"
     "pathloss.exponent = 3.8\n"
     "medium.snap_floor = -97\n"
     "medium.spatial_index = true\n"
     "medium.max_tx_power = 20\n"
     "dense.wifi_pairs = 330\n"
     "dense.zigbee_links = 360\n"
     "dense.ble_nodes = 160\n"
     "dense.area = 3200\n"
     "dense.clusters = 32\n"
     "dense.cluster_sigma = 120\n"},
    {"city",
     "city scale: testbed + 440 Wi-Fi pairs, 460 ZigBee links, 40 BT over 4 km",
     "seed = 3232\n"
     "coordination = bicord\n"
     "location = A\n"
     "burst.packets = 5\n"
     "burst.payload = 50\n"
     "burst.interval = 200ms\n"
     "pathloss.exponent = 3.8\n"
     "medium.snap_floor = -97\n"
     "medium.spatial_index = true\n"
     "medium.max_tx_power = 20\n"
     "dense.wifi_pairs = 440\n"
     "dense.zigbee_links = 460\n"
     "dense.ble_nodes = 40\n"
     "dense.area = 4000\n"
     "dense.clusters = 24\n"
     "dense.cluster_sigma = 120\n"
     "fault.event = node-leave at=1s link=4\n"
     "fault.event = node-join at=2s link=4\n"
     "fault.event = node-leave at=1500ms link=40\n"
     "fault.event = node-join at=2500ms link=40\n"
     "fault.event = node-leave at=2s link=120\n"
     "fault.event = node-join at=3s link=120\n"},
    // The failover rig: the testbed grantor F (~1.3 m from the requester at
    // location A) plus two extra grantor APs at 2.5 m and 4 m. F wins the
    // RSSI election; the extras shadow its grants and take over when it goes
    // quiet. A modest dense field keeps the air contended enough that
    // shadow-CTS decoding is exercised, without dense-preset runtimes.
    {"multigrantor",
     "failover rig: testbed F + 2 shadow grantor APs, small dense field",
     "seed = 4040\n"
     "coordination = bicord\n"
     "location = A\n"
     "burst.packets = 5\n"
     "burst.payload = 50\n"
     "burst.interval = 200ms\n"
     "pathloss.exponent = 3.8\n"
     "medium.snap_floor = -97\n"
     "medium.spatial_index = true\n"
     "medium.max_tx_power = 20\n"
     "dense.wifi_pairs = 12\n"
     "dense.zigbee_links = 12\n"
     "dense.ble_nodes = 4\n"
     "dense.area = 600\n"
     "dense.clusters = 6\n"
     "dense.cluster_sigma = 80\n"
     "grantors = 2.5,4\n"
     "election.grace = 60ms\n"},
    {"failover",
     "multigrantor + ±200 ppm crystal drift + mid-run primary-grantor kill",
     "seed = 4040\n"
     "coordination = bicord\n"
     "location = A\n"
     "burst.packets = 5\n"
     "burst.payload = 50\n"
     "burst.interval = 200ms\n"
     "pathloss.exponent = 3.8\n"
     "medium.snap_floor = -97\n"
     "medium.spatial_index = true\n"
     "medium.max_tx_power = 20\n"
     "dense.wifi_pairs = 12\n"
     "dense.zigbee_links = 12\n"
     "dense.ble_nodes = 4\n"
     "dense.area = 600\n"
     "dense.clusters = 6\n"
     "dense.cluster_sigma = 80\n"
     "grantors = 2.5,4\n"
     "election.grace = 60ms\n"
     "fault.clock_skew_ppm = 200\n"
     // link -1 = grantor 0 = testbed F: the elected primary dies mid-run
     // and rejoins 3 s later, forcing a takeover and a handback.
     "fault.event = node-leave at=1500ms link=-1\n"
     "fault.event = node-join at=4500ms link=-1\n"},
    {"ble", "Sec. VII-D extension: ZigBee inside a BLE cluster, BiCord-for-BLE",
     "topology = ble\n"
     "seed = 2626\n"
     "ble.links = 4\n"
     "ble.coordinate = true\n"
     "burst.packets = 5\n"
     "burst.payload = 50\n"
     "burst.interval = 150ms\n"},
    // Third technology: a duty-cycled LTE-U eNB replaces Wi-Fi as the
    // interferer/grantor. Wi-Fi stays light CBR so the eNB's ON bursts are
    // the dominant interference the lease has to carve white space out of.
    {"lteu", "LTE-U eNB as grantor: duty-cycled carrier, energy-envelope requests",
     "seed = 5050\n"
     "coordination = lteu\n"
     "location = A\n"
     "wifi.traffic = cbr\n"
     "wifi.cbr_interval = 40ms\n"
     "wifi.cbr_payload = 200\n"
     "burst.packets = 5\n"
     "burst.payload = 50\n"
     "burst.interval = 200ms\n"
     "lteu.duty = 0.5\n"
     "lteu.period = 20ms\n"},
    // Fourth technology: the requester hops a TSCH slotframe while the
    // grantor (unchanged BiCord Wi-Fi agent) runs the clock-bounded lease
    // path selected by kTschTraits.
    {"tsch", "802.15.4e TSCH requester: channel hopping under a leased grant",
     "seed = 5151\n"
     "coordination = tsch\n"
     "location = A\n"
     "burst.packets = 5\n"
     "burst.payload = 50\n"
     "burst.interval = 200ms\n"
     "tsch.hop_period = 10ms\n"},
};

}  // namespace

std::span<const spec::Key> spec::keys() { return kKeys; }

const spec::Key* spec::find(std::string_view name) {
  const auto* it = std::ranges::lower_bound(kKeys, name, {}, &Key::name);
  return it != std::end(kKeys) && it->name == name ? it : nullptr;
}

std::optional<ScenarioSpec> ScenarioSpec::parse(const std::string& text,
                                                std::string* error) {
  ScenarioSpec spec;
  std::istringstream in(text);
  std::string raw;
  int lineno = 0;
  auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = "line " + std::to_string(lineno) + ": " + why;
    return std::nullopt;
  };
  while (std::getline(in, raw)) {
    ++lineno;
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    const std::string line = trim(raw);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) return fail("expected 'key = value', got '" + line + "'");
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key.empty()) return fail("missing key before '='");
    if (value.empty()) return fail("missing value for key '" + key + "'");
    if (spec::find(key) == nullptr) return fail("unknown key '" + key + "'");
    spec.entries_.push_back(Entry{key, value, lineno});
  }
  return spec;
}

std::optional<ScenarioSpec> ScenarioSpec::preset(const std::string& name) {
  for (const auto& p : kPresets) {
    if (name == p.name) {
      std::string error;
      auto spec = parse(p.text, &error);
      if (!spec) {
        // A preset that does not parse is a programming error caught by the
        // scenario_spec tests; fail loudly rather than return half a spec.
        std::fprintf(stderr, "bicord: internal error in preset '%s': %s\n",
                     p.name, error.c_str());
        std::abort();
      }
      return spec;
    }
  }
  return std::nullopt;
}

std::vector<std::string> ScenarioSpec::preset_names() {
  std::vector<std::string> names;
  for (const auto& p : kPresets) names.emplace_back(p.name);
  return names;
}

std::string ScenarioSpec::preset_summary(const std::string& name) {
  for (const auto& p : kPresets) {
    if (name == p.name) return p.summary;
  }
  return "";
}

void ScenarioSpec::set(const std::string& key, const std::string& value) {
  entries_.push_back(Entry{key, value, 0});
}

void ScenarioSpec::set(const std::string& key, std::int64_t value) {
  set(key, std::to_string(value));
}

void ScenarioSpec::set(const std::string& key, std::uint64_t value) {
  set(key, std::to_string(value));
}

void ScenarioSpec::set(const std::string& key, double value) {
  set(key, format_double(value));
}

void ScenarioSpec::set(const std::string& key, bool value) {
  set(key, value ? std::string("true") : std::string("false"));
}

void ScenarioSpec::set(const std::string& key, Duration value) {
  set(key, std::to_string(value.us()) + "us");
}

std::string ScenarioSpec::serialize() const {
  std::string out;
  for (const auto& e : entries_) {
    out += e.key;
    out += " = ";
    out += e.value;
    out += '\n';
  }
  return out;
}

bool ScenarioSpec::is_ble() const {
  // Later assignments win, so the last `topology` entry decides.
  bool ble = false;
  for (const auto& e : entries_) {
    if (e.key == "topology") ble = iequals(e.value, "ble");
  }
  return ble;
}

std::optional<ScenarioConfig> ScenarioSpec::config(std::string* error) const {
  ScenarioConfig cfg;
  for (const auto& e : entries_) {
    const spec::Key* key = spec::find(e.key);
    std::string why = "unknown key";  // parse() rejects these; set() does not
    const auto lower = [&](const auto& row) { return apply(row, e.value, cfg, &why); };
    if (key == nullptr || !std::visit(lower, key->reader)) {
      if (error != nullptr) *error = describe_entry(e) + ": " + why;
      return std::nullopt;
    }
  }
  // Cross-key constraint, checked once so that key order does not matter.
  const auto& ecc = cfg.ecc;
  if (ecc.whitespace < Duration::zero() || ecc.whitespace >= ecc.period) {
    if (error != nullptr) {
      *error = "key 'ecc.whitespace': expected a duration in [0, ecc.period = " +
               ecc.period.to_string() + "), got " + ecc.whitespace.to_string();
    }
    return std::nullopt;
  }
  return cfg;
}

ScenarioConfig ScenarioSpec::must_config() const {
  std::string error;
  auto cfg = config(&error);
  if (!cfg) {
    std::fprintf(stderr, "bicord: bad scenario spec: %s\n", error.c_str());
    std::exit(1);
  }
  return std::move(*cfg);
}

}  // namespace bicord::coex

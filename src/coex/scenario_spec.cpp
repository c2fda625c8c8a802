#include "coex/scenario_spec.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "phy/units.hpp"
#include "util/parse.hpp"

namespace bicord::coex {
namespace {

/// aMaxPHYPacketSize, the largest 802.15.4 frame. The 11-byte MAC overhead
/// is not subtracted, so the paper's 120-byte control packet stays legal.
constexpr std::int64_t kMaxZigbeePayload = 127;
constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
constexpr std::int64_t kU32Max = std::numeric_limits<std::uint32_t>::max();
/// Transmit powers run from the -120 dBm floor, below which a signal counts
/// as nothing (phy/units.hpp), up to 1 kW, far above the 36 dBm ISM EIRP cap.
constexpr double kMaxTxPowerDbm = 60.0;

bool parse_power(const std::string& s, double* out) {
  double p = 0.0;
  if (!parse_f64(s, &p) || p < phy::kFloorDbm || p > kMaxTxPowerDbm) return false;
  *out = p;
  return true;
}

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

bool parse_bool(const std::string& s, bool* out) {
  const std::string v = lower(s);
  if (v == "true" || v == "1" || v == "on" || v == "yes") {
    *out = true;
    return true;
  }
  if (v == "false" || v == "0" || v == "off" || v == "no") {
    *out = false;
    return true;
  }
  return false;
}

bool parse_coordination(const std::string& s, Coordination* out) {
  const std::string v = lower(s);
  if (v == "bicord") *out = Coordination::BiCord;
  else if (v == "ecc") *out = Coordination::Ecc;
  else if (v == "csma") *out = Coordination::Csma;
  else if (v == "lteu") *out = Coordination::LteU;
  else if (v == "tsch") *out = Coordination::Tsch;
  else return false;
  return true;
}

bool parse_location(const std::string& s, ZigbeeLocation* out) {
  const std::string v = lower(s);
  if (v == "a") *out = ZigbeeLocation::A;
  else if (v == "b") *out = ZigbeeLocation::B;
  else if (v == "c") *out = ZigbeeLocation::C;
  else if (v == "d") *out = ZigbeeLocation::D;
  else return false;
  return true;
}

bool parse_wifi_traffic(const std::string& s, WifiTrafficKind* out) {
  const std::string v = lower(s);
  if (v == "cbr") *out = WifiTrafficKind::Cbr;
  else if (v == "saturated") *out = WifiTrafficKind::Saturated;
  else if (v == "priority") *out = WifiTrafficKind::Priority;
  else return false;
  return true;
}

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
      ok = parse_location(value, &spec.location);
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

constexpr const char* kKnownKeys[] = {
    "seed",          "topology",
    "coordination",  "location",
    "wifi.traffic",  "wifi.payload",
    "wifi.cbr_interval", "wifi.cbr_payload",
    "wifi.high_share", "wifi.priority_cycle",
    "wifi.grants_requests",
    "grantors",      "election.grace",
    "burst.packets", "burst.payload",
    "burst.interval", "burst.poisson",
    "zigbee.data_power", "zigbee.signaling_power",
    "zigbee.link_distance", "zigbee.duty_cycle",
    "allocator.initial_whitespace", "allocator.control_duration",
    "allocator.end_of_burst_gap", "allocator.reestimate_period",
    "allocator.max_whitespace",
    "signaling.control_payload", "signaling.max_control_packets",
    "signaling.control_gap", "signaling.ignored_backoff",
    "ecc.period",    "ecc.whitespace",
    "ecc.emulation_power", "ecc.emulation_airtime",
    "mobility.person", "mobility.person_rate",
    "mobility.device", "mobility.device_period",
    "pathloss.ref_db", "pathloss.exponent",
    "pathloss.sigma",
    "medium.snap_floor", "medium.spatial_index",
    "medium.cell",   "medium.max_tx_power",
    "dense.wifi_pairs", "dense.zigbee_links",
    "dense.ble_nodes", "dense.area",
    "dense.clusters", "dense.cluster_sigma",
    "dense.seed",    "dense.wifi_interval",
    "dense.wifi_payload", "dense.wifi_power",
    "dense.zigbee_power", "dense.ble_power",
    "fault.preset",  "fault.event",
    "fault.clock_skew_ppm",
    "extra.link",    "extra.clear",
    "ble.links",     "ble.coordinate",
    "ble.connection_interval", "ble.payload",
    "ble.tx_power",  "ble.zigbee_channel",
    "lteu.duty",     "lteu.period",
    "lteu.power",    "tsch.hop_period",
};

bool known_key(const std::string& key) {
  for (const char* k : kKnownKeys) {
    if (key == k) return true;
  }
  return false;
}

/// Both lowering targets; keys shared between topologies (seed, burst.*)
/// update both so a preset stays meaningful under a later `topology` switch.
struct Lowering {
  ScenarioConfig cfg;
  BleScenarioConfig ble;
  bool is_ble = false;
};

std::string describe_entry(const ScenarioSpec::Entry& e) {
  std::string where = "key '" + e.key + "'";
  if (e.line > 0) where = "line " + std::to_string(e.line) + ": " + where;
  return where;
}

bool apply_entry(const ScenarioSpec::Entry& e, Lowering* out, std::string* error) {
  const std::string& key = e.key;
  const std::string& value = e.value;
  auto fail = [&](const std::string& why) {
    *error = describe_entry(e) + ": " + why;
    return false;
  };
  auto bad_value = [&](const std::string& expected) {
    return fail("expected " + expected + ", got '" + value + "'");
  };
  // Periods and intervals feed timers and rates: zero or a negative value
  // would divide by zero or abort mid-run, so it is rejected here.
  auto positive_duration = [&](Duration* field) {
    Duration d;
    if (!parse_duration(value, &d) || d <= Duration::zero())
      return bad_value("a positive duration (us/ms/s suffix)");
    *field = d;
    return true;
  };
  // Gaps, margins and backoffs may be zero but never negative: the
  // simulator aborts on a negative delay.
  auto nonnegative_duration = [&](Duration* field) {
    Duration d;
    if (!parse_duration(value, &d) || d < Duration::zero())
      return bad_value("a non-negative duration (us/ms/s suffix)");
    *field = d;
    return true;
  };
  auto integer = [&](auto* field, std::int64_t lo, std::int64_t hi) {
    if (parse_int(value, field, lo, hi)) return true;
    return bad_value("an integer in [" + std::to_string(lo) + ", " +
                     std::to_string(hi) + "]");
  };
  auto power = [&](double* field) {
    if (parse_power(value, field)) return true;
    return bad_value("a power in dBm in [-120, 60]");
  };

  std::uint64_t u = 0;
  double f = 0.0;
  bool b = false;

  if (key == "seed") {
    if (!parse_u64(value, &u)) return bad_value("an unsigned integer");
    out->cfg.seed = u;
    out->ble.seed = u;
  } else if (key == "topology") {
    const std::string v = lower(value);
    if (v == "coex") out->is_ble = false;
    else if (v == "ble") out->is_ble = true;
    else return bad_value("'coex' or 'ble'");
  } else if (key == "coordination") {
    if (!parse_coordination(value, &out->cfg.coordination))
      return bad_value("bicord, ecc, csma, lteu, or tsch");
  } else if (key == "location") {
    if (!parse_location(value, &out->cfg.location)) return bad_value("A, B, C, or D");
  } else if (key == "wifi.traffic") {
    if (!parse_wifi_traffic(value, &out->cfg.wifi_traffic))
      return bad_value("cbr, saturated, or priority");
  } else if (key == "wifi.payload") {
    if (!integer(&out->cfg.wifi_payload_bytes, 1, kU32Max)) return false;
  } else if (key == "wifi.cbr_interval") {
    if (!positive_duration(&out->cfg.wifi_cbr_interval)) return false;
  } else if (key == "wifi.cbr_payload") {
    if (!integer(&out->cfg.wifi_cbr_payload_bytes, 1, kU32Max)) return false;
  } else if (key == "wifi.high_share") {
    if (!parse_f64(value, &f) || f < 0.0 || f > 1.0)
      return bad_value("a share in [0, 1]");
    out->cfg.wifi_high_share = f;
  } else if (key == "wifi.priority_cycle") {
    if (!positive_duration(&out->cfg.wifi_priority_cycle)) return false;
  } else if (key == "wifi.grants_requests") {
    if (!parse_bool(value, &b)) return bad_value("a boolean");
    out->cfg.wifi_grants_requests = b;
  } else if (key == "grantors") {
    // Comma-separated distances (metres) of extra grantor APs from the
    // ZigBee sender. Distances double as election-metric inputs, so zero
    // and duplicates are rejected: both would make the RSSI ranking
    // degenerate instead of merely redundant.
    std::vector<double> dists;
    std::size_t pos = 0;
    while (true) {
      const auto comma = value.find(',', pos);
      const std::string tok =
          trim(comma == std::string::npos ? value.substr(pos)
                                          : value.substr(pos, comma - pos));
      if (!parse_f64(tok, &f) || f <= 0.0)
        return fail("expected a positive distance in metres, got '" + tok + "'");
      for (const double seen : dists) {
        if (seen == f) return fail("duplicate grantor distance '" + tok + "'");
      }
      dists.push_back(f);
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
    out->cfg.extra_grantors_m = std::move(dists);
  } else if (key == "election.grace") {
    if (!positive_duration(&out->cfg.election_grace)) return false;
  } else if (key == "burst.packets") {
    if (!integer(&out->cfg.burst.packets_per_burst, 1, kMaxAllocCount)) return false;
    out->ble.burst.packets_per_burst = out->cfg.burst.packets_per_burst;
  } else if (key == "burst.payload") {
    if (!integer(&out->cfg.burst.payload_bytes, 1, kMaxZigbeePayload)) return false;
    out->ble.burst.payload_bytes = out->cfg.burst.payload_bytes;
  } else if (key == "burst.interval") {
    if (!positive_duration(&out->cfg.burst.mean_interval)) return false;
    out->ble.burst.mean_interval = out->cfg.burst.mean_interval;
  } else if (key == "burst.poisson") {
    if (!parse_bool(value, &b)) return bad_value("a boolean");
    out->cfg.burst.poisson = b;
    out->ble.burst.poisson = b;
  } else if (key == "zigbee.data_power") {
    if (!power(&out->cfg.zigbee_data_power_dbm)) return false;
  } else if (key == "zigbee.signaling_power") {
    if (lower(value) == "default") {
      out->cfg.signaling_power_dbm.reset();
    } else {
      if (!parse_power(value, &f))
        return bad_value("a power in dBm in [-120, 60] or 'default'");
      out->cfg.signaling_power_dbm = f;
    }
  } else if (key == "zigbee.link_distance") {
    if (lower(value) == "default") {
      out->cfg.zigbee_link_distance_m.reset();
    } else {
      if (!parse_f64(value, &f) || f <= 0.0)
        return bad_value("a positive distance in metres or 'default'");
      out->cfg.zigbee_link_distance_m = f;
    }
  } else if (key == "zigbee.duty_cycle") {
    if (!parse_bool(value, &b)) return bad_value("a boolean");
    out->cfg.zigbee_duty_cycle = b;
  } else if (key == "allocator.initial_whitespace") {
    if (!positive_duration(&out->cfg.allocator.initial_whitespace)) return false;
  } else if (key == "allocator.control_duration") {
    if (!nonnegative_duration(&out->cfg.allocator.control_duration)) return false;
  } else if (key == "allocator.end_of_burst_gap") {
    if (!nonnegative_duration(&out->cfg.allocator.end_of_burst_gap)) return false;
  } else if (key == "allocator.reestimate_period") {
    if (!nonnegative_duration(&out->cfg.allocator.reestimate_period)) return false;
  } else if (key == "allocator.max_whitespace") {
    if (!positive_duration(&out->cfg.allocator.max_whitespace)) return false;
  } else if (key == "signaling.control_payload") {
    if (!integer(&out->cfg.signaling.control_payload_bytes, 1, kMaxZigbeePayload))
      return false;
  } else if (key == "signaling.max_control_packets") {
    if (!integer(&out->cfg.signaling.max_control_packets, 1, kIntMax)) return false;
  } else if (key == "signaling.control_gap") {
    if (!nonnegative_duration(&out->cfg.signaling.control_gap)) return false;
  } else if (key == "signaling.ignored_backoff") {
    if (!nonnegative_duration(&out->cfg.signaling.ignored_backoff)) return false;
  } else if (key == "ecc.period") {
    if (!positive_duration(&out->cfg.ecc.period)) return false;
  } else if (key == "ecc.whitespace") {
    // Checked against ecc.period once every entry has applied (config()).
    if (!parse_duration(value, &out->cfg.ecc.whitespace))
      return bad_value("a duration (us/ms/s suffix)");
  } else if (key == "ecc.emulation_power") {
    if (!power(&out->cfg.ecc.emulation_power_dbm)) return false;
  } else if (key == "ecc.emulation_airtime") {
    if (!positive_duration(&out->cfg.ecc.emulation_airtime)) return false;
  } else if (key == "mobility.person") {
    if (!parse_bool(value, &b)) return bad_value("a boolean");
    out->cfg.person_mobility = b;
  } else if (key == "mobility.person_rate") {
    if (!parse_f64(value, &f) || f <= 0.0) return bad_value("a positive rate in Hz");
    out->cfg.person_event_rate_hz = f;
  } else if (key == "mobility.device") {
    if (!parse_bool(value, &b)) return bad_value("a boolean");
    out->cfg.device_mobility = b;
  } else if (key == "mobility.device_period") {
    if (!positive_duration(&out->cfg.device_move_period)) return false;
  } else if (key == "pathloss.ref_db") {
    if (!parse_f64(value, &f)) return bad_value("a loss in dB");
    out->cfg.path_loss.pl_d0_db = f;
  } else if (key == "pathloss.exponent") {
    if (!parse_f64(value, &f) || f <= 0.0) return bad_value("a positive exponent");
    out->cfg.path_loss.exponent = f;
  } else if (key == "pathloss.sigma") {
    if (!parse_f64(value, &f) || f < 0.0) return bad_value("a non-negative sigma in dB");
    out->cfg.path_loss.shadowing_sigma_db = f;
  } else if (key == "medium.snap_floor") {
    if (!parse_f64(value, &f)) return bad_value("a power in dBm");
    out->cfg.medium.snap_floor_dbm = f;
  } else if (key == "medium.spatial_index") {
    if (!parse_bool(value, &b)) return bad_value("a boolean");
    out->cfg.medium.spatial_index = b;
  } else if (key == "medium.cell") {
    // Sub-metre cells make every grid window millions of cells wide.
    if (!parse_f64(value, &f) || (f != 0.0 && f < 1.0))
      return bad_value("a cell size of at least 1 metre (0 = derive)");
    out->cfg.medium.cell_size_m = f;
  } else if (key == "medium.max_tx_power") {
    if (!power(&out->cfg.medium.max_tx_power_dbm)) return false;
  } else if (key == "dense.wifi_pairs") {
    if (!integer(&out->cfg.dense.wifi_pairs, 0, kMaxAllocCount)) return false;
  } else if (key == "dense.zigbee_links") {
    if (!integer(&out->cfg.dense.zigbee_links, 0, kMaxAllocCount)) return false;
  } else if (key == "dense.ble_nodes") {
    if (!integer(&out->cfg.dense.ble_nodes, 0, kMaxAllocCount)) return false;
  } else if (key == "dense.area") {
    if (!parse_f64(value, &f) || f <= 0.0) return bad_value("a positive edge in metres");
    out->cfg.dense.area_m = f;
  } else if (key == "dense.clusters") {
    if (!integer(&out->cfg.dense.clusters, 0, kMaxAllocCount)) return false;
  } else if (key == "dense.cluster_sigma") {
    if (!parse_f64(value, &f) || f <= 0.0) return bad_value("a positive sigma in metres");
    out->cfg.dense.cluster_sigma_m = f;
  } else if (key == "dense.seed") {
    if (!parse_u64(value, &u)) return bad_value("an unsigned integer");
    out->cfg.dense.placement_seed = u;
  } else if (key == "dense.wifi_interval") {
    if (!positive_duration(&out->cfg.dense.wifi_interval)) return false;
  } else if (key == "dense.wifi_payload") {
    if (!integer(&out->cfg.dense.wifi_payload_bytes, 1, kU32Max)) return false;
  } else if (key == "dense.wifi_power") {
    if (!power(&out->cfg.dense.wifi_tx_power_dbm)) return false;
  } else if (key == "dense.zigbee_power") {
    if (!power(&out->cfg.dense.zigbee_tx_power_dbm)) return false;
  } else if (key == "dense.ble_power") {
    if (!power(&out->cfg.dense.ble_tx_power_dbm)) return false;
  } else if (key == "fault.preset") {
    auto plan = fault::FaultPlan::preset(value);
    if (!plan) return bad_value("a fault-plan preset name (see fault::FaultPlan)");
    out->cfg.fault_plan = *plan;
  } else if (key == "fault.event") {
    std::string why;
    auto plan = fault::FaultPlan::parse(value, &why);
    if (!plan) return fail("bad fault event: " + why);
    for (const auto& event : plan->events()) out->cfg.fault_plan.add(event);
  } else if (key == "fault.clock_skew_ppm") {
    // Lowered to a ClockSkew event at t=0: every agent draws a persistent
    // crystal drift in ±ppm before the first timer arms. 1000 ppm (0.1%) is
    // far beyond any real crystal; treat more as a spec typo.
    if (!parse_f64(value, &f) || f <= 0.0 || f > 1000.0)
      return bad_value("a drift magnitude in ppm, in (0, 1000]");
    fault::FaultEvent skew;
    skew.kind = fault::FaultKind::ClockSkew;
    skew.magnitude = f;
    out->cfg.fault_plan.add(skew);
  } else if (key == "extra.link") {
    ExtraZigbeeSpec spec;
    std::string why;
    if (!parse_extra_link(value, &spec, &why)) return fail(why);
    out->cfg.extra_zigbee.push_back(spec);
  } else if (key == "extra.clear") {
    if (!parse_bool(value, &b) || !b) return bad_value("'true'");
    out->cfg.extra_zigbee.clear();
  } else if (key == "ble.links") {
    if (!integer(&out->ble.ble_links, 1, kMaxAllocCount)) return false;
  } else if (key == "ble.coordinate") {
    if (!parse_bool(value, &b)) return bad_value("a boolean");
    out->ble.coordinate = b;
  } else if (key == "ble.connection_interval") {
    if (!positive_duration(&out->ble.ble_connection_interval)) return false;
  } else if (key == "ble.payload") {
    if (!integer(&out->ble.ble_payload_bytes, 1, kU32Max)) return false;
  } else if (key == "ble.tx_power") {
    if (!power(&out->ble.ble_tx_power_dbm)) return false;
  } else if (key == "ble.zigbee_channel") {
    if (!parse_int(value, &out->ble.zigbee_channel, 11, 26))
      return bad_value("an 802.15.4 channel (11-26)");
  } else if (key == "lteu.duty") {
    if (!parse_f64(value, &f) || f <= 0.0 || f > 1.0)
      return bad_value("a duty fraction in (0, 1]");
    out->cfg.lteu.duty = f;
  } else if (key == "lteu.period") {
    if (!positive_duration(&out->cfg.lteu.period)) return false;
  } else if (key == "lteu.power") {
    if (!power(&out->cfg.lteu.tx_power_dbm)) return false;
  } else if (key == "tsch.hop_period") {
    if (!positive_duration(&out->cfg.tsch_hop_period)) return false;
  } else {
    return fail("unknown key");  // parse() rejects these; set() can still reach here
  }
  return true;
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
    if (!known_key(key)) return fail("unknown key '" + key + "'");
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
    if (e.key == "topology") ble = lower(e.value) == "ble";
  }
  return ble;
}

std::optional<ScenarioConfig> ScenarioSpec::config(std::string* error) const {
  Lowering low;
  std::string why;
  for (const auto& e : entries_) {
    if (!apply_entry(e, &low, &why)) {
      if (error != nullptr) *error = why;
      return std::nullopt;
    }
  }
  // Cross-key constraint, checked once so that key order does not matter.
  const auto& ecc = low.cfg.ecc;
  if (ecc.whitespace < Duration::zero() || ecc.whitespace >= ecc.period) {
    if (error != nullptr) {
      *error = "key 'ecc.whitespace': expected a duration in [0, ecc.period = " +
               ecc.period.to_string() + "), got " + ecc.whitespace.to_string();
    }
    return std::nullopt;
  }
  return low.cfg;
}

std::optional<BleScenarioConfig> ScenarioSpec::ble_config(std::string* error) const {
  Lowering low;
  std::string why;
  for (const auto& e : entries_) {
    if (!apply_entry(e, &low, &why)) {
      if (error != nullptr) *error = why;
      return std::nullopt;
    }
  }
  return low.ble;
}

ScenarioConfig ScenarioSpec::must_config() const {
  std::string error;
  auto cfg = config(&error);
  if (!cfg) {
    std::fprintf(stderr, "bicord: bad scenario spec: %s\n", error.c_str());
    std::exit(1);
  }
  return *cfg;
}

BleScenarioConfig ScenarioSpec::must_ble_config() const {
  std::string error;
  auto cfg = ble_config(&error);
  if (!cfg) {
    std::fprintf(stderr, "bicord: bad scenario spec: %s\n", error.c_str());
    std::exit(1);
  }
  return *cfg;
}

}  // namespace bicord::coex

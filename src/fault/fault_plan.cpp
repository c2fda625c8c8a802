#include "fault/fault_plan.hpp"

#include <limits>
#include <sstream>

#include "util/parse.hpp"

namespace bicord::fault {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::CtsLoss: return "cts-loss";
    case FaultKind::ControlDeaf: return "control-deaf";
    case FaultKind::FrameCorrupt: return "frame-corrupt";
    case FaultKind::PauseEndLoss: return "pause-end-loss";
    case FaultKind::CsiDropout: return "csi-dropout";
    case FaultKind::DetectorFalsePositive: return "detector-fp";
    case FaultKind::DetectorFalseNegative: return "detector-fn";
    case FaultKind::RssiGlitch: return "rssi-glitch";
    case FaultKind::ClockJitter: return "clock-jitter";
    case FaultKind::ClockSkew: return "clock-skew";
    case FaultKind::BurstShift: return "burst-shift";
    case FaultKind::NodeLeave: return "node-leave";
    case FaultKind::NodeJoin: return "node-join";
  }
  return "?";
}

namespace {

std::optional<FaultKind> parse_kind(const std::string& word) {
  for (const FaultKind k :
       {FaultKind::CtsLoss, FaultKind::ControlDeaf, FaultKind::FrameCorrupt,
        FaultKind::PauseEndLoss, FaultKind::CsiDropout, FaultKind::DetectorFalsePositive,
        FaultKind::DetectorFalseNegative, FaultKind::RssiGlitch, FaultKind::ClockJitter,
        FaultKind::ClockSkew, FaultKind::BurstShift, FaultKind::NodeLeave,
        FaultKind::NodeJoin}) {
    if (word == to_string(k)) return k;
  }
  return std::nullopt;
}

std::optional<phy::Technology> parse_tech(const std::string& word) {
  if (word == "wifi") return phy::Technology::WiFi;
  if (word == "zigbee") return phy::Technology::ZigBee;
  if (word == "bluetooth") return phy::Technology::Bluetooth;
  if (word == "microwave") return phy::Technology::Microwave;
  return std::nullopt;
}

bool fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

bool parse_event_line(const std::string& line, int line_no, FaultEvent* out,
                      bool* blank, std::string* error) {
  std::istringstream in(line);
  std::string word;
  *blank = true;
  if (!(in >> word) || word[0] == '#') return true;  // blank / comment line
  *blank = false;

  const auto kind = parse_kind(word);
  if (!kind) {
    return fail(error, "line " + std::to_string(line_no) + ": unknown fault kind '" +
                           word + "'");
  }
  FaultEvent ev;
  ev.kind = *kind;
  bool have_at = false;
  while (in >> word) {
    if (word[0] == '#') break;
    const auto eq = word.find('=');
    if (eq == std::string::npos) {
      return fail(error, "line " + std::to_string(line_no) + ": expected key=value, got '" +
                             word + "'");
    }
    const std::string key = word.substr(0, eq);
    const std::string value = word.substr(eq + 1);
    bool ok = true;
    if (key == "at") {
      Duration d;
      ok = parse_duration(value, &d) && d >= Duration::zero();
      ev.at = TimePoint::origin() + d;
      have_at = true;
    } else if (key == "window") {
      ok = parse_duration(value, &ev.window) && ev.window >= Duration::zero();
    } else if (key == "interval") {
      ok = parse_duration(value, &ev.burst_interval);
    } else if (key == "count") {
      ok = parse_int(value, &ev.count, 0);
    } else if (key == "packets") {
      // The burst source allocates per packet, like burst.packets.
      ok = parse_int(value, &ev.burst_packets, std::numeric_limits<int>::min(),
                     kMaxAllocCount);
    } else if (key == "link") {
      ok = parse_int(value, &ev.link, -std::numeric_limits<int>::max());
    } else if (key == "prob") {
      ok = parse_f64(value, &ev.probability) && ev.probability >= 0.0 &&
           ev.probability <= 1.0;
    } else if (key == "mag") {
      ok = parse_f64(value, &ev.magnitude);
      if (ev.kind == FaultKind::ClockSkew || ev.kind == FaultKind::ClockJitter) {
        // Both scale timer delays, which overflow for unbounded magnitudes;
        // skew shares the ppm limit of the fault.clock_skew_ppm spec key.
        const double max = ev.kind == FaultKind::ClockSkew ? kMaxClockSkewPpm : 1.0;
        ok = ok && ev.magnitude >= 0.0 && ev.magnitude <= max;
      }
    } else if (key == "tech") {
      const auto t = parse_tech(value);
      ok = t.has_value();
      if (ok) ev.tech = *t;
    } else {
      return fail(error, "line " + std::to_string(line_no) + ": unknown key '" + key + "'");
    }
    if (!ok) {
      return fail(error, "line " + std::to_string(line_no) + ": bad value for '" + key +
                             "': '" + value + "'");
    }
  }
  if (!have_at) {
    return fail(error, "line " + std::to_string(line_no) + ": missing at=<time>");
  }
  *out = ev;
  return true;
}

}  // namespace

std::string FaultPlan::describe() const {
  std::ostringstream os;
  for (const auto& ev : events_) {
    os << to_string(ev.kind) << " at=" << ev.at.to_string();
    switch (ev.kind) {
      case FaultKind::CtsLoss:
      case FaultKind::ControlDeaf:
      case FaultKind::PauseEndLoss:
        os << " count=" << ev.count;
        break;
      case FaultKind::FrameCorrupt:
        os << " window=" << ev.window << " prob=" << ev.probability << " tech="
           << (ev.tech == phy::Technology::WiFi ? "wifi" : "zigbee");
        break;
      case FaultKind::CsiDropout:
      case FaultKind::DetectorFalseNegative:
        os << " window=" << ev.window;
        break;
      case FaultKind::DetectorFalsePositive:
        break;
      case FaultKind::RssiGlitch:
        os << " window=" << ev.window << " mag=" << ev.magnitude << "dB";
        break;
      case FaultKind::ClockJitter:
        os << " window=" << ev.window << " mag=" << ev.magnitude;
        break;
      case FaultKind::ClockSkew:
        os << " mag=" << ev.magnitude << "ppm";
        break;
      case FaultKind::BurstShift:
        os << " packets=" << ev.burst_packets << " interval=" << ev.burst_interval;
        break;
      case FaultKind::NodeLeave:
      case FaultKind::NodeJoin:
        os << " link=" << ev.link;
        break;
    }
    os << "\n";
  }
  return os.str();
}

std::optional<FaultPlan> FaultPlan::parse(const std::string& text, std::string* error) {
  FaultPlan plan;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    FaultEvent ev;
    bool blank = false;
    if (!parse_event_line(line, line_no, &ev, &blank, error)) return std::nullopt;
    if (!blank) plan.add(ev);
  }
  return plan;
}

std::optional<FaultPlan> FaultPlan::preset(const std::string& name) {
  using namespace time_literals;
  const auto at = [](Duration d) { return TimePoint::origin() + d; };

  FaultPlan plan;
  if (name == "cts-loss") {
    plan.add({.kind = FaultKind::CtsLoss, .at = at(1_sec), .count = 2})
        .add({.kind = FaultKind::PauseEndLoss, .at = at(2200_ms), .count = 1})
        .add({.kind = FaultKind::CtsLoss, .at = at(3500_ms), .count = 3});
    return plan;
  }
  if (name == "detector") {
    plan.add({.kind = FaultKind::CsiDropout, .at = at(1_sec), .window = 250_ms})
        .add({.kind = FaultKind::DetectorFalseNegative, .at = at(2_sec), .window = 400_ms})
        .add({.kind = FaultKind::DetectorFalsePositive, .at = at(3_sec)})
        .add({.kind = FaultKind::DetectorFalsePositive, .at = at(3200_ms)})
        .add({.kind = FaultKind::CsiDropout, .at = at(4_sec), .window = 150_ms});
    return plan;
  }
  if (name == "rssi") {
    plan.add({.kind = FaultKind::RssiGlitch, .at = at(1_sec), .window = 400_ms,
              .magnitude = 25.0})
        .add({.kind = FaultKind::RssiGlitch, .at = at(2500_ms), .window = 400_ms,
              .magnitude = -30.0});
    return plan;
  }
  if (name == "burst-shift") {
    plan.add({.kind = FaultKind::BurstShift, .at = at(1500_ms), .burst_packets = 12,
              .burst_interval = 120_ms})
        .add({.kind = FaultKind::NodeLeave, .at = at(3_sec), .link = 0})
        .add({.kind = FaultKind::NodeJoin, .at = at(3800_ms), .link = 0})
        .add({.kind = FaultKind::BurstShift, .at = at(4500_ms), .burst_packets = 3,
              .burst_interval = 300_ms});
    return plan;
  }
  if (name == "frame-loss") {
    plan.add({.kind = FaultKind::FrameCorrupt, .at = at(800_ms), .window = 1500_ms,
              .probability = 0.25, .tech = phy::Technology::ZigBee})
        .add({.kind = FaultKind::FrameCorrupt, .at = at(3_sec), .window = 1_sec,
              .probability = 0.15, .tech = phy::Technology::WiFi});
    return plan;
  }
  if (name == "clock-jitter") {
    plan.add({.kind = FaultKind::ClockJitter, .at = at(500_ms), .window = 5_sec,
              .magnitude = 0.2});
    return plan;
  }
  if (name == "mixed") {
    for (const char* part : {"cts-loss", "detector", "rssi", "burst-shift", "frame-loss",
                             "clock-jitter"}) {
      const auto sub = preset(part);
      for (const auto& ev : sub->events()) plan.add(ev);
    }
    return plan;
  }
  return std::nullopt;
}

}  // namespace bicord::fault

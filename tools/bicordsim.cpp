// bicordsim — run a configurable coexistence simulation from the shell.
//
//   bicordsim --scenario fig10 --scheme ecc --seconds 10
//   bicordsim --scheme bicord --location A --burst-packets 5
//             --burst-interval-ms 200 --seconds 10 --seed 7
//
// Prints the paper's metrics (channel utilization, ZigBee delay
// percentiles, delivery, goodput, Wi-Fi health) for one run. The scenario
// comes from a declarative coex::ScenarioSpec — a named preset or a
// key=value @file — and every knob the evaluation varies is also exposed as
// a flag; explicit flags override the spec.

#include <chrono>
#include <cstdio>
#include <string>

#include <fstream>
#include <iterator>
#include <memory>
#include <vector>

#include "coex/experiment.hpp"
#include "coex/scenario.hpp"
#include "coex/scenario_spec.hpp"
#include "fault/fault_plan.hpp"
#include "fault/invariant_checker.hpp"
#include "phy/tracer.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

using namespace bicord;

namespace {
/// `--scenario` value: a preset name or @file of ScenarioSpec text.
bool load_scenario_spec(const std::string& arg, coex::ScenarioSpec& out) {
  if (arg[0] == '@') {
    const std::string path = arg.substr(1);
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "error: cannot open scenario file '%s'\n", path.c_str());
      return false;
    }
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::string error;
    const auto spec = coex::ScenarioSpec::parse(text, &error);
    if (!spec) {
      std::fprintf(stderr, "error: bad scenario '%s': %s\n", path.c_str(),
                   error.c_str());
      return false;
    }
    out = *spec;
    return true;
  }
  const auto spec = coex::ScenarioSpec::preset(arg);
  if (!spec) {
    std::fprintf(stderr,
                 "error: unknown scenario preset '%s' (--list-presets shows "
                 "the catalogue, or pass @file)\n",
                 arg.c_str());
    return false;
  }
  out = *spec;
  return true;
}

bool load_fault_plan(const std::string& spec, fault::FaultPlan& out) {
  if (spec.empty()) return true;
  if (spec[0] == '@') {
    const std::string path = spec.substr(1);
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "error: cannot open fault plan file '%s'\n", path.c_str());
      return false;
    }
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::string error;
    const auto plan = fault::FaultPlan::parse(text, &error);
    if (!plan) {
      std::fprintf(stderr, "error: bad fault plan '%s': %s\n", path.c_str(),
                   error.c_str());
      return false;
    }
    out = *plan;
    return true;
  }
  const auto plan = fault::FaultPlan::preset(spec);
  if (!plan) {
    std::fprintf(stderr,
                 "error: unknown fault preset '%s' (try cts-loss, detector, rssi, "
                 "burst-shift, frame-loss, clock-jitter, mixed, or @file)\n",
                 spec.c_str());
    return false;
  }
  out = *plan;
  return true;
}
}  // namespace

int main(int argc, char** argv) {
  Flags flags(
      "bicordsim — BiCord/ECC/CSMA coexistence simulation (ICDCS'21 reproduction)");
  flags.add_string("scenario", "",
                   "start from a ScenarioSpec: a preset name (--list-presets) or "
                   "@file with key=value lines; explicit flags override it");
  flags.add_bool("list-presets", false, "list the scenario presets and exit");
  flags.add_string("scheme", "bicord",
                   "coordination scheme: bicord | ecc | csma | lteu | tsch");
  flags.add_string("location", "A", "ZigBee sender location: A | B | C | D (Fig. 6)");
  flags.add_int("burst-packets", 5, "ZigBee packets per burst");
  flags.add_int("burst-payload", 50, "ZigBee payload bytes per packet");
  flags.add_double("burst-interval-ms", 200.0, "mean interval between bursts");
  flags.add_bool("poisson", true, "Poisson burst arrivals (vs fixed interval)");
  flags.add_string("wifi-traffic", "saturated", "Wi-Fi workload: saturated | cbr | priority");
  flags.add_double("wifi-high-share", 0.3, "high-priority share (priority traffic only)");
  flags.add_double("ecc-whitespace-ms", 20.0, "ECC blind white-space length");
  flags.add_double("ecc-period-ms", 100.0, "ECC white-space period");
  flags.add_double("step-ms", 30.0, "BiCord initial white space (learning step)");
  flags.add_bool("person-mobility", false, "someone walks near the Wi-Fi receiver");
  flags.add_bool("device-mobility", false, "the ZigBee sender moves within ~1 m");
  flags.add_int("seconds", 10, "measured simulation time");
  flags.add_int("warmup-seconds", 1, "warm-up before measurement");
  flags.add_int("seed", 1, "RNG seed (runs are bit-reproducible)");
  flags.add_int("repeat", 1,
                "independent repetitions (> 1 reports mean +/- 95% CI over "
                "per-trial seed streams instead of one run's numbers)");
  add_jobs_flag(flags);
  flags.add_bool("progress", false, "print per-trial progress to stderr");
  flags.add_string("trace-file", "", "write a JSONL transmission trace to this path");
  flags.add_bool("timeline", false, "print an ASCII timeline of the final 300 ms");
  flags.add_string("fault-plan", "",
                   "inject faults: a preset (cts-loss | detector | rssi | burst-shift | "
                   "frame-loss | clock-jitter | mixed) or @file with one event per line");
  flags.add_string("set", "",
                   "append one spec assignment key=value after every other override "
                   "(e.g. --set medium.spatial_index=false for a brute-force twin "
                   "of an indexed preset)");

  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n\n%s", flags.error().c_str(),
                 flags.usage("bicordsim").c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.usage("bicordsim").c_str());
    return 0;
  }
  if (flags.get_bool("list-presets")) {
    AsciiTable presets;
    presets.set_header({"preset", "scenario"});
    for (const auto& name : coex::ScenarioSpec::preset_names()) {
      presets.add_row({name, coex::ScenarioSpec::preset_summary(name)});
    }
    std::printf("%s", presets.render().c_str());
    return 0;
  }

  coex::ScenarioSpec spec;
  const bool have_scenario = !flags.get_string("scenario").empty();
  if (have_scenario && !load_scenario_spec(flags.get_string("scenario"), spec)) {
    return 2;
  }
  if (spec.is_ble()) {
    std::fprintf(stderr,
                 "error: topology=ble specs drive the BLE extension "
                 "(bench_ext_ble); bicordsim runs the Wi-Fi topology\n");
    return 2;
  }
  // Every scenario flag lowers to a spec key. Without --scenario the flag
  // defaults describe the whole scenario (exactly the spec defaults); with a
  // spec, only flags the user explicitly passed override it.
  const auto overriding = [&](const char* flag) {
    return !have_scenario || flags.provided(flag);
  };
  if (overriding("scheme")) spec.set("coordination", flags.get_string("scheme"));
  if (overriding("location")) spec.set("location", flags.get_string("location"));
  if (overriding("wifi-traffic")) spec.set("wifi.traffic", flags.get_string("wifi-traffic"));
  if (overriding("seed")) spec.set("seed", static_cast<std::uint64_t>(flags.get_int("seed")));
  if (overriding("burst-packets")) {
    spec.set("burst.packets", static_cast<int>(flags.get_int("burst-packets")));
  }
  if (overriding("burst-payload")) {
    spec.set("burst.payload", static_cast<int>(flags.get_int("burst-payload")));
  }
  if (overriding("burst-interval-ms")) {
    spec.set("burst.interval", Duration::from_ms_f(flags.get_double("burst-interval-ms")));
  }
  if (overriding("poisson")) spec.set("burst.poisson", flags.get_bool("poisson"));
  if (overriding("wifi-high-share")) {
    spec.set("wifi.high_share", flags.get_double("wifi-high-share"));
  }
  if (overriding("ecc-whitespace-ms")) {
    spec.set("ecc.whitespace", Duration::from_ms_f(flags.get_double("ecc-whitespace-ms")));
  }
  if (overriding("ecc-period-ms")) {
    spec.set("ecc.period", Duration::from_ms_f(flags.get_double("ecc-period-ms")));
  }
  if (overriding("step-ms")) {
    spec.set("allocator.initial_whitespace",
             Duration::from_ms_f(flags.get_double("step-ms")));
  }
  if (overriding("person-mobility")) {
    spec.set("mobility.person", flags.get_bool("person-mobility"));
  }
  if (overriding("device-mobility")) {
    spec.set("mobility.device", flags.get_bool("device-mobility"));
  }
  if (flags.provided("set")) {
    const std::string& kv = flags.get_string("set");
    const auto eq = kv.find('=');
    if (eq == std::string::npos || eq == 0) {
      std::fprintf(stderr, "error: --set expects key=value (got '%s')\n", kv.c_str());
      return 2;
    }
    const auto trim = [](std::string s) {
      const auto b = s.find_first_not_of(" \t");
      const auto e = s.find_last_not_of(" \t");
      return b == std::string::npos ? std::string() : s.substr(b, e - b + 1);
    };
    // Appended last: later assignments win, so --set beats spec and flags.
    spec.set(trim(kv.substr(0, eq)), trim(kv.substr(eq + 1)));
  }

  std::string spec_error;
  auto lowered = spec.config(&spec_error);
  if (!lowered) {
    std::fprintf(stderr, "error: %s\n", spec_error.c_str());
    return 2;
  }
  auto cfg = *lowered;
  // --fault-plan handles FaultPlan @files of its own (a different DSL than
  // ScenarioSpec), so it overrides the lowered plan wholesale.
  if (flags.provided("fault-plan") || !have_scenario) {
    if (!load_fault_plan(flags.get_string("fault-plan"), cfg.fault_plan)) return 2;
  }

  const int repeat = static_cast<int>(flags.get_int("repeat"));
  if (repeat < 1) {
    std::fprintf(stderr, "error: --repeat must be >= 1 (got %d)\n", repeat);
    return 2;
  }
  if (repeat > 1) {
    if (!flags.get_string("trace-file").empty() || flags.get_bool("timeline")) {
      std::fprintf(stderr,
                   "error: --trace-file/--timeline record a single run; "
                   "drop --repeat to use them\n");
      return 2;
    }
    coex::ExperimentRunner runner(cfg,
                                  Duration::from_sec(flags.get_int("warmup-seconds")),
                                  Duration::from_sec(flags.get_int("seconds")));
    runner.set_jobs(static_cast<int>(flags.get_int("jobs")));
    if (flags.get_bool("progress")) {
      runner.set_progress([](std::size_t done, std::size_t total) {
        std::fprintf(stderr, "\r[bicordsim] %zu/%zu trials", done, total);
        if (done == total) std::fprintf(stderr, "\n");
      });
    }
    runner.add_metric("channel utilization (total)", coex::metric_total_utilization());
    runner.add_metric("zigbee utilization", coex::metric_zigbee_utilization());
    runner.add_metric("zigbee delivery ratio", coex::metric_zigbee_delivery());
    runner.add_metric("zigbee mean delay (ms)", coex::metric_zigbee_mean_delay_ms());
    runner.add_metric("zigbee goodput (kbit/s)", coex::metric_zigbee_goodput_kbps());
    const auto summaries = runner.run(repeat);

    std::printf("bicordsim: scheme=%s location=%s base-seed=%llu, %d x %llds measured\n\n",
                coex::to_string(cfg.coordination), coex::to_string(cfg.location),
                static_cast<unsigned long long>(cfg.seed), repeat,
                static_cast<long long>(flags.get_int("seconds")));
    AsciiTable table;
    table.set_header({"metric", "mean", "+/- 95% CI"});
    for (const auto& s : summaries) {
      table.add_row({s.name, AsciiTable::cell(s.stats.mean(), 4),
                     AsciiTable::cell(s.ci95(), 4)});
    }
    std::printf("%s", table.render().c_str());
    // Wall-clock throughput differs run to run; stderr keeps stdout diffable.
    std::fprintf(stderr, "%s\n", runner.last_report().to_string().c_str());
    return 0;
  }

  coex::Scenario scenario(cfg);
  std::unique_ptr<phy::MediumTracer> tracer;
  if (!flags.get_string("trace-file").empty() || flags.get_bool("timeline")) {
    tracer = std::make_unique<phy::MediumTracer>(scenario.medium(), 1 << 16);
  }
  std::unique_ptr<fault::InvariantChecker> checker;
  if (scenario.fault_injector() != nullptr) {
    std::printf("fault plan (%zu events):\n%s\n", cfg.fault_plan.size(),
                cfg.fault_plan.describe().c_str());
  }
  // The checker rides along whenever there is something to check: injected
  // faults, or a multi-grantor election whose double-grant / handoff-gap
  // invariants are always on.
  if (scenario.fault_injector() != nullptr || scenario.election() != nullptr) {
    checker = std::make_unique<fault::InvariantChecker>(scenario.simulator());
    if (auto* wifi_agent = scenario.bicord_wifi()) checker->watch_wifi(*wifi_agent);
    if (auto* zb_agent = scenario.bicord_zigbee()) checker->watch_zigbee(*zb_agent);
    if (auto* election = scenario.election()) checker->watch_election(*election);
    checker->start();
  }
  scenario.run_for(Duration::from_sec(flags.get_int("warmup-seconds")));
  scenario.start_measurement();
  scenario.run_for(Duration::from_sec(flags.get_int("seconds")));
  if (checker != nullptr) checker->finish(scenario.fault_injector());

  const auto util = scenario.utilization();
  const auto& zb = scenario.zigbee_stats();

  std::printf("bicordsim: scheme=%s location=%s seed=%llu, %llds measured\n\n",
              coex::to_string(cfg.coordination), coex::to_string(cfg.location),
              static_cast<unsigned long long>(cfg.seed),
              static_cast<long long>(flags.get_int("seconds")));

  AsciiTable table;
  table.set_header({"metric", "value"});
  table.add_row({"channel utilization (total)", AsciiTable::percent(util.total)});
  table.add_row({"  wifi / zigbee share", AsciiTable::percent(util.wifi) + " / " +
                                              AsciiTable::percent(util.zigbee)});
  table.add_row({"zigbee packets generated",
                 AsciiTable::cell(static_cast<std::int64_t>(zb.generated))});
  table.add_row({"zigbee delivery ratio", AsciiTable::percent(zb.delivery_ratio())});
  if (!zb.delay_ms.empty()) {
    table.add_row({"zigbee delay mean / p50", AsciiTable::cell(zb.delay_ms.mean(), 1) +
                                                  " / " +
                                                  AsciiTable::cell(zb.delay_ms.median(), 1) +
                                                  " ms"});
    table.add_row({"zigbee delay p95 / max",
                   AsciiTable::cell(zb.delay_ms.quantile(0.95), 1) + " / " +
                       AsciiTable::cell(zb.delay_ms.max(), 1) + " ms"});
  }
  table.add_row({"zigbee goodput", AsciiTable::cell(scenario.zigbee_goodput_kbps(), 2) +
                                       " kbit/s"});
  table.add_row({"wifi delivery ratio", AsciiTable::percent(scenario.wifi_delivery_ratio())});
  if (auto* agent = scenario.bicord_zigbee()) {
    table.add_row({"control packets sent",
                   AsciiTable::cell(static_cast<std::int64_t>(agent->control_packets_sent()))});
  } else if (auto* req = scenario.tsch_requester()) {
    table.add_row({"control packets sent",
                   AsciiTable::cell(static_cast<std::int64_t>(req->control_packets_sent()))});
  }
  if (auto* wifi_agent = scenario.bicord_wifi()) {
    table.add_row({"white spaces granted",
                   AsciiTable::cell(static_cast<std::int64_t>(
                       wifi_agent->whitespaces_granted()))});
    table.add_row({"converged white space",
                   AsciiTable::cell(wifi_agent->allocator().estimate().ms(), 1) + " ms"});
  } else if (auto* grantor = scenario.lteu_grantor()) {
    table.add_row({"white spaces granted (eNB leases)",
                   AsciiTable::cell(static_cast<std::int64_t>(
                       grantor->suppressions_granted()))});
    table.add_row({"converged white space",
                   AsciiTable::cell(grantor->allocator().estimate().ms(), 1) + " ms"});
    table.add_row({"eNB bursts / cycles suppressed",
                   AsciiTable::cell(static_cast<std::int64_t>(
                       scenario.lteu_device()->bursts_sent())) +
                       " / " +
                       AsciiTable::cell(static_cast<std::int64_t>(
                           scenario.lteu_device()->cycles_suppressed()))});
  }
  if (auto* schedule = scenario.tsch_schedule()) {
    table.add_row({"tsch hops",
                   AsciiTable::cell(static_cast<std::int64_t>(schedule->hops()))});
  }
  if (const auto* injector = scenario.fault_injector()) {
    const auto& c = injector->counters();
    table.add_row({"faults injected (total)",
                   AsciiTable::cell(static_cast<std::int64_t>(c.total()))});
    table.add_row({"  frames corrupted / dropped",
                   AsciiTable::cell(static_cast<std::int64_t>(c.cts_corrupted +
                                                              c.frames_corrupted)) +
                       " / " +
                       AsciiTable::cell(static_cast<std::int64_t>(c.controls_dropped))});
    if (auto* wifi_agent = scenario.bicord_wifi()) {
      table.add_row(
          {"  watchdog recoveries",
           AsciiTable::cell(static_cast<std::int64_t>(wifi_agent->watchdog_recoveries()))});
    }
    if (auto* zb_agent = scenario.bicord_zigbee()) {
      table.add_row({"  zigbee give-ups (CSMA fallback)",
                     AsciiTable::cell(static_cast<std::int64_t>(zb_agent->give_ups()))});
    }
  }
  if (const auto* election = scenario.election()) {
    table.add_row({"grantors (primary node)",
                   AsciiTable::cell(static_cast<std::int64_t>(election->member_count())) +
                       " (node " +
                       AsciiTable::cell(static_cast<std::int64_t>(
                           election->member_node(election->primary()))) +
                       ")"});
    table.add_row({"  takeovers / shadowed CTS",
                   AsciiTable::cell(static_cast<std::int64_t>(election->takeovers())) +
                       " / " +
                       AsciiTable::cell(static_cast<std::int64_t>(election->shadowed_cts()))});
    const auto gap = election->max_handoff_gap();
    table.add_row({"  max handoff gap",
                   gap.has_value()
                       ? AsciiTable::cell(gap->ms(), 1) + " ms (bound " +
                             AsciiTable::cell(election->handoff_bound().ms(), 1) + " ms)"
                       : std::string("none")});
  }
  if (checker != nullptr) {
    table.add_row({"invariant checks / violations",
                   AsciiTable::cell(static_cast<std::int64_t>(checker->checks_run())) +
                       " / " +
                       AsciiTable::cell(static_cast<std::int64_t>(
                           checker->violations().size()))});
  }
  std::printf("%s", table.render().c_str());
  if (checker != nullptr && !checker->ok()) {
    std::fprintf(stderr, "\ninvariant violations:\n%s\n", checker->report().c_str());
  }

  if (tracer != nullptr) {
    if (flags.get_bool("timeline")) {
      const TimePoint end = scenario.simulator().now();
      std::printf("\n%s",
                  tracer->render_timeline(end - Duration::from_ms(300), end).c_str());
    }
    const std::string path = flags.get_string("trace-file");
    if (!path.empty()) {
      // The tracer buffers every record in memory during the run, so the
      // file write happens exactly once, here at exit, through a 1 MiB
      // stream buffer (the default 8 KiB filebuf makes a syscall every few
      // dozen JSONL lines). Write time goes to stderr: it is wallclock, not
      // simulation output, and stdout must stay byte-identical across runs.
      const auto write_start = std::chrono::steady_clock::now();
      std::vector<char> stream_buf(1 << 20);
      std::ofstream out;
      out.rdbuf()->pubsetbuf(stream_buf.data(),
                             static_cast<std::streamsize>(stream_buf.size()));
      out.open(path, std::ios::binary);
      if (!out) {
        std::fprintf(stderr, "error: cannot open trace file '%s'\n", path.c_str());
        return 1;
      }
      tracer->write_jsonl(out);
      out.flush();
      if (!out) {
        std::fprintf(stderr, "error: short write to trace file '%s'\n", path.c_str());
        return 1;
      }
      const double write_ms =
          std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                    write_start)
              .count();
      std::fprintf(stderr, "trace: write took %.2f ms\n", write_ms);
      std::printf("\ntrace: %zu transmissions written to %s\n",
                  tracer->records().size(), path.c_str());
    }
  }
  return (checker != nullptr && !checker->ok()) ? 1 : 0;
}

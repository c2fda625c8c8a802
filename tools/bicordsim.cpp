// bicordsim — run a configurable coexistence simulation from the shell.
//
//   bicordsim --scenario fig10 --set coordination=ecc --seconds 10
//   bicordsim --set location=A --set burst.packets=5
//             --set burst.interval=200ms --set seed=7 --seconds 10
//
// Prints the paper's metrics (channel utilization, ZigBee delay
// percentiles, delivery, goodput, Wi-Fi health) for one run. The scenario
// comes from a declarative coex::ScenarioSpec — a named preset, a key=value
// @file, or the library defaults — and `--set key=value` changes any one of
// its keys.

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "coex/experiment.hpp"
#include "coex/scenario.hpp"
#include "coex/scenario_spec.hpp"
#include "fault/fault_plan.hpp"
#include "fault/invariant_checker.hpp"
#include "phy/tracer.hpp"
#include "util/flags.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"

using namespace bicord;

namespace {
/// Largest @file accepted: a real spec or fault plan is a few KiB, and the
/// cap keeps `@/dev/zero` from reading without bound.
constexpr std::size_t kMaxInputFileBytes = std::size_t{1} << 20;

/// Reads the @file `path` whole into `text`. On failure prints
/// "error: cannot read <what> '<path>': <reason>" and returns false.
bool read_input_file(const char* what, const std::string& path, std::string& text) {
  struct Closer {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };
  const auto fail = [&](const char* reason) {
    std::fprintf(stderr, "error: cannot read %s '%s': %s\n", what, path.c_str(), reason);
    return false;
  };
  const std::unique_ptr<std::FILE, Closer> file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) return fail(std::strerror(errno));
  text.clear();
  char buf[1 << 14];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, file.get())) > 0) {
    if (n > kMaxInputFileBytes - text.size()) return fail("larger than 1 MiB");
    text.append(buf, n);
  }
  if (std::ferror(file.get()) != 0) return fail(std::strerror(errno));
  return true;
}

/// `--scenario` value: a preset name or @file of ScenarioSpec text.
bool load_scenario_spec(const std::string& arg, coex::ScenarioSpec& out) {
  if (arg[0] == '@') {
    const std::string path = arg.substr(1);
    std::string text;
    if (!read_input_file("scenario file", path, text)) return false;
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

/// `--fault-plan` value: a preset name or @file of FaultPlan text.
bool load_fault_plan(const std::string& spec, fault::FaultPlan& out) {
  if (spec[0] == '@') {
    const std::string path = spec.substr(1);
    std::string text;
    if (!read_input_file("fault plan file", path, text)) return false;
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

int run(int argc, char** argv) {
  Flags flags(
      "bicordsim — BiCord/ECC/CSMA coexistence simulation (ICDCS'21 reproduction)");
  flags.add_string("scenario", "",
                   "start from a ScenarioSpec: a preset name (--list-presets) or "
                   "@file with key=value lines (default: the library defaults)");
  flags.add_bool("list-presets", false, "list the scenario presets and exit");
  flags.add_int("seconds", 10, "measured simulation time");
  flags.add_int("warmup-seconds", 1, "warm-up before measurement");
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
  flags.add_list("set",
                 "append one spec assignment key=value to the scenario (e.g. "
                 "--set coordination=ecc, --set burst.interval=150ms, or "
                 "--set medium.spatial_index=false for a brute-force twin of an "
                 "indexed preset); repeat it to append several, in order");

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
  // Run lengths become microsecond Durations: bounded like spec durations,
  // so the conversion cannot overflow.
  const std::int64_t max_seconds = kMaxParsedDuration.us() / 1'000'000;
  const std::int64_t seconds = flags.get_int("seconds");
  const std::int64_t warmup_seconds = flags.get_int("warmup-seconds");
  if (seconds < 1 || seconds > max_seconds) {
    std::fprintf(stderr, "error: --seconds must be in [1, %lld] (got %lld)\n",
                 static_cast<long long>(max_seconds), static_cast<long long>(seconds));
    return 2;
  }
  if (warmup_seconds < 0 || warmup_seconds > max_seconds) {
    std::fprintf(stderr, "error: --warmup-seconds must be in [0, %lld] (got %lld)\n",
                 static_cast<long long>(max_seconds),
                 static_cast<long long>(warmup_seconds));
    return 2;
  }
  // Each repetition holds its own result vector, so --repeat is a count
  // that sizes an allocation.
  const std::int64_t repeat_flag = flags.get_int("repeat");
  if (repeat_flag < 1 || repeat_flag > kMaxAllocCount) {
    std::fprintf(stderr, "error: --repeat must be in [1, %lld] (got %lld)\n",
                 static_cast<long long>(kMaxAllocCount),
                 static_cast<long long>(repeat_flag));
    return 2;
  }
  const int repeat = static_cast<int>(repeat_flag);
  std::string jobs_error;
  const auto jobs = get_jobs_flag(flags, &jobs_error);
  if (!jobs) {
    std::fprintf(stderr, "error: %s\n", jobs_error.c_str());
    return 2;
  }
  const Duration warmup = Duration::from_sec(warmup_seconds);
  const Duration measure = Duration::from_sec(seconds);

  coex::ScenarioSpec spec;
  const std::string scenario_arg = flags.get_string("scenario");
  if (!scenario_arg.empty() && !load_scenario_spec(scenario_arg, spec)) return 2;
  const auto trim = [](std::string s) {
    const auto b = s.find_first_not_of(" \t");
    const auto e = s.find_last_not_of(" \t");
    return b == std::string::npos ? std::string() : s.substr(b, e - b + 1);
  };
  // Appended after the spec's own lines, in command-line order: later
  // assignments win, so --set beats the spec, and a later --set beats an
  // earlier one.
  for (const std::string& kv : flags.get_list("set")) {
    const auto eq = kv.find('=');
    if (eq == std::string::npos || eq == 0) {
      std::fprintf(stderr, "error: --set expects key=value (got '%s')\n", kv.c_str());
      return 2;
    }
    spec.set(trim(kv.substr(0, eq)), trim(kv.substr(eq + 1)));
  }
  // Checked after --set, so `--set topology=ble` is refused too.
  if (spec.is_ble()) {
    std::fprintf(stderr,
                 "error: topology=ble specs drive the BLE extension "
                 "(bench_ext_ble); bicordsim runs the Wi-Fi topology\n");
    return 2;
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
  const std::string fault_arg = flags.get_string("fault-plan");
  if (!fault_arg.empty() && !load_fault_plan(fault_arg, cfg.fault_plan)) return 2;

  if (repeat > 1) {
    if (!flags.get_string("trace-file").empty() || flags.get_bool("timeline")) {
      std::fprintf(stderr,
                   "error: --trace-file/--timeline record a single run; "
                   "drop --repeat to use them\n");
      return 2;
    }
    coex::ExperimentRunner runner(cfg, warmup, measure);
    runner.set_jobs(*jobs);
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
                static_cast<long long>(seconds));
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

  // The tracer buffers every record in memory during the run, so the file
  // write happens exactly once, at exit, through a 1 MiB stream buffer (the
  // default 8 KiB filebuf makes a syscall every few dozen JSONL lines). The
  // file is opened here, before the run, so a bad path costs no simulation.
  const std::string trace_path = flags.get_string("trace-file");
  std::vector<char> trace_buf;
  std::ofstream trace_out;
  if (!trace_path.empty()) {
    trace_buf.resize(std::size_t{1} << 20);
    trace_out.rdbuf()->pubsetbuf(trace_buf.data(),
                                 static_cast<std::streamsize>(trace_buf.size()));
    trace_out.open(trace_path, std::ios::binary);
    if (!trace_out) {
      std::fprintf(stderr, "error: cannot open trace file '%s'\n", trace_path.c_str());
      return 2;
    }
  }

  coex::Scenario scenario(cfg);
  std::unique_ptr<phy::MediumTracer> tracer;
  if (!trace_path.empty() || flags.get_bool("timeline")) {
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
  scenario.run_for(warmup);
  scenario.start_measurement();
  scenario.run_for(measure);
  if (checker != nullptr) checker->finish(scenario.fault_injector());

  const auto util = scenario.utilization();
  const auto& zb = scenario.zigbee_stats();

  std::printf("bicordsim: scheme=%s location=%s seed=%llu, %llds measured\n\n",
              coex::to_string(cfg.coordination), coex::to_string(cfg.location),
              static_cast<unsigned long long>(cfg.seed), static_cast<long long>(seconds));

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
    if (!trace_path.empty()) {
      // Write time goes to stderr: it is wallclock, not simulation output,
      // and stdout must stay byte-identical across runs.
      const auto write_start = std::chrono::steady_clock::now();
      tracer->write_jsonl(trace_out);
      trace_out.flush();
      if (!trace_out) {
        std::fprintf(stderr, "error: short write to trace file '%s'\n",
                     trace_path.c_str());
        return 1;
      }
      const double write_ms =
          std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                    write_start)
              .count();
      std::fprintf(stderr, "trace: write took %.2f ms\n", write_ms);
      std::printf("\ntrace: %zu transmissions written to %s\n",
                  tracer->records().size(), trace_path.c_str());
    }
  }
  return (checker != nullptr && !checker->ok()) ? 1 : 0;
}
}  // namespace

int main(int argc, char** argv) {
  // Bad input is refused with exit 2 where it is read; anything that still
  // escapes (an allocation failure, say) is reported the same way instead
  // of aborting.
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}

// Behavior-preservation goldens for the coordination-engine refactor.
//
// Pins the per-trial metrics of representative spec-built scenarios —
// default, fig10 in all three coordination modes, multinode, ble, and a
// fault-plan config — as hexfloat/integer lines against a committed golden
// file. Any change to agent state machines, event scheduling order, or RNG
// stream consumption shows up as a bitwise diff here. Regenerate (after an
// *intentional* behavior change only) with:
//
//   BICORD_UPDATE_GOLDEN=1 ./build/tests/coex_tests \
//       --gtest_filter='GoldenDeterminismTest.*'

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "coex/ble_scenario.hpp"
#include "coex/experiment.hpp"
#include "coex/scenario.hpp"
#include "coex/scenario_spec.hpp"

using namespace bicord;
using namespace bicord::coex;

namespace {

std::string hex(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

ScenarioSpec spec_for(const std::string& preset) {
  auto spec = ScenarioSpec::preset(preset);
  EXPECT_TRUE(spec.has_value()) << "unknown preset " << preset;
  return *spec;
}

/// One line of headline metrics + agent counters for a finished scenario.
std::string coex_line(const std::string& name, Scenario& s) {
  std::ostringstream out;
  const auto util = s.utilization();
  const auto& stats = s.zigbee_stats();
  out << name << " util=" << hex(util.total) << "," << hex(util.wifi) << ","
      << hex(util.zigbee) << " zb=" << stats.generated << "/" << stats.delivered
      << "/" << stats.dropped
      << " delay=" << hex(stats.delay_ms.empty() ? -1.0 : stats.delay_ms.mean())
      << " goodput=" << hex(s.zigbee_goodput_kbps())
      << " wifi_delivery=" << hex(s.wifi_delivery_ratio());
  if (auto* wifi = s.bicord_wifi()) {
    out << " wifi_agent=" << wifi->requests_detected() << "/"
        << wifi->whitespaces_granted() << "/" << wifi->requests_ignored() << "/"
        << wifi->watchdog_recoveries()
        << " ws=" << wifi->allocator().estimate().us() << "us";
  }
  if (auto* zb = s.bicord_zigbee()) {
    out << " zb_agent=" << zb->control_packets_sent() << "/" << zb->signaling_rounds()
        << "/" << zb->ignored_requests() << "/" << zb->give_ups();
  }
  if (s.zigbee_link_count() > 1) {
    const auto agg = s.aggregate_zigbee_stats();
    out << " agg=" << agg.generated << "/" << agg.delivered << "/" << agg.dropped
        << " agg_delay=" << hex(agg.delay_ms.empty() ? -1.0 : agg.delay_ms.mean());
  }
  if (s.dense_wifi_pair_count() > 0 || s.dense_zigbee_link_count() > 0 ||
      s.dense_ble_count() > 0) {
    out << " dense=" << s.dense_wifi_pair_count() << "/" << s.dense_zigbee_link_count()
        << "/" << s.dense_ble_count() << " dense_wifi_del=" << s.dense_wifi_delivered()
        << " dense_zb_del=" << s.dense_zigbee_delivered();
  }
  // Technology blocks only for the matching coordination mode, so every
  // historical line stays byte-identical.
  if (auto* g = s.lteu_grantor()) {
    out << " lteu=" << g->requests_detected() << "/" << g->suppressions_granted()
        << "/" << g->requests_ignored()
        << " enb=" << s.lteu_device()->bursts_sent() << "/"
        << s.lteu_device()->cycles_suppressed()
        << " lease_ws=" << g->allocator().estimate().us() << "us";
  }
  if (auto* r = s.tsch_requester()) {
    out << " tsch_agent=" << r->control_packets_sent() << "/"
        << r->signaling_rounds() << "/" << r->ignored_requests() << "/"
        << r->give_ups() << " hops=" << s.tsch_schedule()->hops();
  }
  // Election block only for multi-grantor scenarios, so every historical
  // single-grantor line above stays byte-identical.
  if (const auto* e = s.election()) {
    out << " election=" << e->member_count() << "/" << e->primary() << "/"
        << e->takeovers() << "/" << e->shadowed_cts() << "/"
        << e->requests_observed()
        << " handoff_gap=" << (e->max_handoff_gap().has_value()
                                   ? e->max_handoff_gap()->us()
                                   : -1)
        << "us";
  }
  return out.str();
}

std::string run_coex(const std::string& name, const ScenarioSpec& spec,
                     Duration warmup, Duration measure) {
  Scenario scenario(spec.must_config());
  scenario.run_for(warmup);
  scenario.start_measurement();
  scenario.run_for(measure);
  return coex_line(name, scenario);
}

std::string run_ble(const std::string& name, const ScenarioSpec& spec, Duration d) {
  BleScenario scenario(spec.must_ble_config());
  scenario.run_for(d);
  const auto r = scenario.report();
  std::ostringstream out;
  out << name << " zb_delivery=" << hex(r.zb_delivery)
      << " zb_delay=" << hex(r.zb_delay_ms)
      << " overhead=" << hex(r.zb_attempt_overhead)
      << " ble_success=" << hex(r.ble_success) << " leases=" << r.leases
      << " controls=" << r.controls;
  for (const auto& a : scenario.ble_agents()) {
    out << " agent=" << a->requests_detected() << "/" << a->leases_granted() << "/"
        << a->allocator().estimate().us() << "us";
  }
  return out.str();
}

std::string golden_blob() {
  std::ostringstream out;
  using namespace bicord::time_literals;

  out << run_coex("default", spec_for("default"), 500_ms, 2_sec) << "\n";

  // Fig. 10 cell (203.12 ms interval) in each coordination mode; ECC uses
  // the bench's 20 ms blind white space.
  for (const char* mode : {"bicord", "ecc", "csma"}) {
    auto spec = spec_for("fig10");
    spec.set("coordination", mode);
    spec.set("burst.interval", Duration::from_us(203120));
    spec.set("ecc.whitespace", 20_ms);
    out << run_coex(std::string("fig10-") + mode, spec, 1_sec, 3_sec) << "\n";
  }

  out << run_coex("multinode", spec_for("multinode"), 1_sec, 3_sec) << "\n";

  {
    // Densify the BLE cluster so delivery failures actually trigger the
    // signal -> lease -> expire loop inside the golden window.
    auto spec = spec_for("ble");
    spec.set("ble.links", 16);
    out << run_ble("ble", spec, 5_sec) << "\n";
  }

  {
    auto spec = spec_for("default");
    spec.set("fault.preset", "mixed");
    out << run_coex("fault-mixed", spec, 500_ms, 3_sec) << "\n";
  }

  // Dense family: the spatially-indexed medium at scale. The `dense` preset
  // carries its own churn plan (field links leaving and rejoining), so its
  // golden pins the spatial index, the clustered placement, and the fault
  // hooks together; the dense1k pair pins that an empty fault plan and a
  // populated one differ only through the faults themselves.
  out << run_coex("dense", spec_for("dense"), 500_ms, 2500_ms) << "\n";
  {
    auto spec = spec_for("dense1k");
    out << run_coex("dense1k-nofault", spec, 250_ms, 750_ms) << "\n";
    spec.set("fault.preset", "mixed");
    out << run_coex("dense1k-mixed", spec, 250_ms, 750_ms) << "\n";
  }

  // Multi-grantor family, appended after every historical line: the election
  // counters (takeovers, shadowed CTS, handoff gap) are pinned alongside the
  // headline metrics, and the failover preset additionally pins the ±200 ppm
  // clock-skew draws and the mid-run primary kill/rejoin.
  out << run_coex("multigrantor", spec_for("multigrantor"), 500_ms, 2500_ms) << "\n";
  out << run_coex("failover", spec_for("failover"), 500_ms, 4500_ms) << "\n";

  // Traits-counter pinning across the remaining paper presets: after the
  // port-seam inversion every legacy preset's wifi/zigbee agent counters are
  // pinned bitwise, proving kWifiTraits behaviour came through untouched.
  for (const char* preset : {"motivation", "table1", "fig7", "fig8", "fig9",
                             "fig11", "fig12", "fig13"}) {
    out << run_coex(preset, spec_for(preset), 500_ms, 1500_ms) << "\n";
  }

  // Third and fourth technologies, appended last: the LTE-U lease loop
  // (energy-envelope requests, duty-cycle suppression) and the TSCH hopping
  // requester under the clock-bounded kTschTraits grant path.
  out << run_coex("lteu", spec_for("lteu"), 500_ms, 2500_ms) << "\n";
  out << run_coex("tsch", spec_for("tsch"), 500_ms, 2500_ms) << "\n";
  return out.str();
}

}  // namespace

TEST(GoldenDeterminismTest, MatchesCommittedGolden) {
  const std::string path = BICORD_GOLDEN_FILE;
  const std::string blob = golden_blob();
  if (std::getenv("BICORD_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << blob;
    GTEST_SKIP() << "golden file updated: " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — run with BICORD_UPDATE_GOLDEN=1 to create it";
  std::stringstream want;
  want << in.rdbuf();
  EXPECT_EQ(want.str(), blob)
      << "scenario output diverged from the committed golden — if this change "
         "in behavior is intentional, regenerate with BICORD_UPDATE_GOLDEN=1";
}

TEST(GoldenDeterminismTest, RepeatedRunIsBitwiseStable) {
  using namespace bicord::time_literals;
  auto spec = spec_for("default");
  const std::string a = run_coex("x", spec, 500_ms, 1_sec);
  const std::string b = run_coex("x", spec, 500_ms, 1_sec);
  EXPECT_EQ(a, b);
}

TEST(GoldenDeterminismTest, DenseJobsOneVsEightBitwiseIdentical) {
  using namespace bicord::time_literals;
  // Same shape as the default-preset jobs test, but on the spatially-indexed
  // dense preset: per-trial seeds must survive parallel dispatch even when
  // the medium runs the grid path and the scenario carries a churn plan.
  auto make = [] {
    ExperimentRunner runner(ScenarioSpec::preset("dense")->must_config(),
                            250_ms, 750_ms);
    runner.add_metric("util", metric_total_utilization());
    runner.add_metric("delay", metric_zigbee_mean_delay_ms());
    runner.add_metric("delivery", metric_zigbee_delivery());
    return runner;
  };
  auto seq = make();
  seq.set_jobs(1);
  const auto a = seq.run(4);
  auto par = make();
  par.set_jobs(8);
  const auto b = par.run(4);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].stats.mean(), b[i].stats.mean()) << a[i].name;
    EXPECT_EQ(a[i].stats.stddev(), b[i].stats.stddev()) << a[i].name;
    EXPECT_EQ(a[i].stats.count(), b[i].stats.count()) << a[i].name;
  }
}

TEST(GoldenDeterminismTest, MultigrantorJobsOneVsEightBitwiseIdentical) {
  using namespace bicord::time_literals;
  // The election layer must not perturb per-trial seeding under parallel
  // dispatch: extra grantor APs, the shared election, and the takeover timer
  // all live inside one trial's simulator.
  auto make = [] {
    ExperimentRunner runner(ScenarioSpec::preset("multigrantor")->must_config(),
                            250_ms, 750_ms);
    runner.add_metric("util", metric_total_utilization());
    runner.add_metric("delay", metric_zigbee_mean_delay_ms());
    runner.add_metric("delivery", metric_zigbee_delivery());
    return runner;
  };
  auto seq = make();
  seq.set_jobs(1);
  const auto a = seq.run(4);
  auto par = make();
  par.set_jobs(8);
  const auto b = par.run(4);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].stats.mean(), b[i].stats.mean()) << a[i].name;
    EXPECT_EQ(a[i].stats.stddev(), b[i].stats.stddev()) << a[i].name;
    EXPECT_EQ(a[i].stats.count(), b[i].stats.count()) << a[i].name;
  }
}

TEST(GoldenDeterminismTest, TschJobsOneVsEightBitwiseIdentical) {
  using namespace bicord::time_literals;
  auto make = [] {
    ExperimentRunner runner(ScenarioSpec::preset("tsch")->must_config(),
                            500_ms, 1_sec);
    runner.add_metric("util", metric_total_utilization());
    runner.add_metric("delay", metric_zigbee_mean_delay_ms());
    runner.add_metric("delivery", metric_zigbee_delivery());
    return runner;
  };
  auto seq = make();
  seq.set_jobs(1);
  const auto a = seq.run(4);
  auto par = make();
  par.set_jobs(8);
  const auto b = par.run(4);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].stats.mean(), b[i].stats.mean()) << a[i].name;
    EXPECT_EQ(a[i].stats.stddev(), b[i].stats.stddev()) << a[i].name;
    EXPECT_EQ(a[i].stats.count(), b[i].stats.count()) << a[i].name;
  }
}

TEST(GoldenDeterminismTest, JobsOneVsEightBitwiseIdentical) {
  using namespace bicord::time_literals;
  auto make = [] {
    ExperimentRunner runner(ScenarioSpec::preset("default")->must_config(),
                            500_ms, 1_sec);
    runner.add_metric("util", metric_total_utilization());
    runner.add_metric("delay", metric_zigbee_mean_delay_ms());
    runner.add_metric("delivery", metric_zigbee_delivery());
    runner.add_metric("goodput", metric_zigbee_goodput_kbps());
    return runner;
  };
  auto seq = make();
  seq.set_jobs(1);
  const auto a = seq.run(6);
  auto par = make();
  par.set_jobs(8);
  const auto b = par.run(6);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].stats.mean(), b[i].stats.mean()) << a[i].name;
    EXPECT_EQ(a[i].stats.stddev(), b[i].stats.stddev()) << a[i].name;
    EXPECT_EQ(a[i].stats.count(), b[i].stats.count()) << a[i].name;
  }
}

#include "coex/scenario_spec.hpp"

#include <gtest/gtest.h>

#include "coex/ble_scenario.hpp"

using namespace bicord;
using namespace bicord::coex;
using namespace bicord::time_literals;

namespace {

/// `text` parses, and config() fails with an error naming `key` (by default
/// the first key `text` assigns).
void expect_rejected(const std::string& text, std::string key = "") {
  if (key.empty()) key = text.substr(0, text.find(' '));
  std::string error;
  const auto spec = ScenarioSpec::parse(text, &error);
  ASSERT_TRUE(spec.has_value()) << text << error;
  EXPECT_FALSE(spec->config(&error).has_value()) << text;
  EXPECT_NE(error.find(key), std::string::npos) << error;
}

/// `text` parses and lowers.
void expect_accepted(const std::string& text) {
  std::string error;
  const auto spec = ScenarioSpec::parse(text, &error);
  ASSERT_TRUE(spec.has_value()) << text << error;
  EXPECT_TRUE(spec->config(&error).has_value()) << text << error;
}

TEST(ScenarioSpecTest, ParseSerializeRoundTripIsBitwiseStable) {
  const std::string text =
      "# comment\n"
      "seed = 42\n"
      "coordination = ecc\n"
      "burst.interval = 203120us\n"
      "wifi.high_share = 0.35\n"
      "\n"
      "extra.link = loc=C packets=3 payload=30 interval=150ms\n";
  std::string error;
  auto spec = ScenarioSpec::parse(text, &error);
  ASSERT_TRUE(spec.has_value()) << error;
  const std::string once = spec->serialize();
  auto again = ScenarioSpec::parse(once, &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(once, again->serialize());
}

TEST(ScenarioSpecTest, EveryPresetParsesAndLowers) {
  const auto names = ScenarioSpec::preset_names();
  ASSERT_FALSE(names.empty());
  for (const auto& name : names) {
    auto spec = ScenarioSpec::preset(name);
    ASSERT_TRUE(spec.has_value()) << name;
    EXPECT_FALSE(ScenarioSpec::preset_summary(name).empty()) << name;
    std::string error;
    EXPECT_TRUE(spec->config(&error).has_value()) << name << ": " << error;
    // Round-trip: a preset survives serialize -> parse unchanged.
    auto again = ScenarioSpec::parse(spec->serialize(), &error);
    ASSERT_TRUE(again.has_value()) << name << ": " << error;
    EXPECT_EQ(spec->serialize(), again->serialize()) << name;
  }
  EXPECT_FALSE(ScenarioSpec::preset("no-such-preset").has_value());
}

TEST(ScenarioSpecTest, PresetValuesMatchThePaperBenches) {
  auto fig7 = ScenarioSpec::preset("fig7")->must_config();
  EXPECT_EQ(fig7.seed, 77u);
  EXPECT_EQ(fig7.burst.packets_per_burst, 10);
  EXPECT_FALSE(fig7.burst.poisson);
  EXPECT_EQ(fig7.allocator.initial_whitespace, 30_ms);

  auto fig13 = ScenarioSpec::preset("fig13")->must_config();
  EXPECT_EQ(fig13.seed, 1313u);
  EXPECT_EQ(fig13.wifi_traffic, WifiTrafficKind::Priority);

  auto multi = ScenarioSpec::preset("multinode")->must_config();
  ASSERT_EQ(multi.extra_zigbee.size(), 2u);
  EXPECT_EQ(multi.extra_zigbee[0].location, ZigbeeLocation::C);
  EXPECT_EQ(multi.extra_zigbee[0].burst.packets_per_burst, 3);
  EXPECT_EQ(multi.extra_zigbee[0].burst.mean_interval, 150_ms);
  EXPECT_EQ(multi.extra_zigbee[1].location, ZigbeeLocation::B);
  EXPECT_DOUBLE_EQ(multi.extra_zigbee[1].offset.x, -0.5);
  EXPECT_DOUBLE_EQ(multi.extra_zigbee[1].offset.y, 0.6);

  auto ble = ScenarioSpec::preset("ble");
  ASSERT_TRUE(ble->is_ble());
  auto bcfg = ble->must_config();
  EXPECT_EQ(bcfg.topology, Topology::Ble);
  EXPECT_EQ(bcfg.seed, 2626u);
  EXPECT_EQ(bcfg.ble.links, 4);
  EXPECT_TRUE(bcfg.ble.coordinate);
  EXPECT_EQ(bcfg.burst.mean_interval, 150_ms);
}

TEST(ScenarioSpecTest, UnknownKeyFailsWithLineNumber) {
  std::string error;
  auto spec = ScenarioSpec::parse("seed = 1\nnot.a.key = 3\n", &error);
  EXPECT_FALSE(spec.has_value());
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("not.a.key"), std::string::npos) << error;
}

TEST(ScenarioSpecTest, MissingEqualsFailsWithLineNumber) {
  std::string error;
  auto spec = ScenarioSpec::parse("seed = 1\njust words\n", &error);
  EXPECT_FALSE(spec.has_value());
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
}

TEST(ScenarioSpecTest, MalformedValueFailsAtLoweringWithKeyAndLine) {
  std::string error;
  auto spec = ScenarioSpec::parse("seed = 1\nburst.packets = lots\n", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_FALSE(spec->config(&error).has_value());
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("burst.packets"), std::string::npos) << error;

  // Durations need a unit suffix.
  spec = ScenarioSpec::parse("burst.interval = 200\n", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_FALSE(spec->config(&error).has_value());
  EXPECT_NE(error.find("burst.interval"), std::string::npos) << error;
}

TEST(ScenarioSpecTest, OverridesComposeInDeclarationOrder) {
  std::string error;
  auto spec = ScenarioSpec::parse(
      "seed = 1\ncoordination = csma\nseed = 9\ncoordination = ecc\n", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  auto cfg = spec->config(&error);
  ASSERT_TRUE(cfg.has_value()) << error;
  EXPECT_EQ(cfg->seed, 9u);
  EXPECT_EQ(cfg->coordination, Coordination::Ecc);

  // set() appends, so it wins over everything already in the spec.
  spec->set("seed", std::uint64_t{123});
  spec->set("coordination", "bicord");
  cfg = spec->config(&error);
  ASSERT_TRUE(cfg.has_value()) << error;
  EXPECT_EQ(cfg->seed, 123u);
  EXPECT_EQ(cfg->coordination, Coordination::BiCord);
}

TEST(ScenarioSpecTest, SettersRoundTripExactValues) {
  ScenarioSpec spec;
  spec.set("burst.interval", Duration::from_us(203120));
  spec.set("wifi.high_share", 0.1 + 0.2);  // a double with no short decimal form
  spec.set("burst.poisson", false);
  spec.set("burst.packets", 12);
  std::string error;
  auto cfg = spec.config(&error);
  ASSERT_TRUE(cfg.has_value()) << error;
  EXPECT_EQ(cfg->burst.mean_interval.us(), 203120);
  EXPECT_EQ(cfg->wifi_high_share, 0.1 + 0.2);
  EXPECT_FALSE(cfg->burst.poisson);
  EXPECT_EQ(cfg->burst.packets_per_burst, 12);
}

TEST(ScenarioSpecTest, ExtraLinksAppendAndClear) {
  auto spec = *ScenarioSpec::preset("multinode");
  spec.set("extra.link", "loc=D packets=2 payload=20 interval=1s power=-3");
  auto cfg = spec.must_config();
  ASSERT_EQ(cfg.extra_zigbee.size(), 3u);
  EXPECT_EQ(cfg.extra_zigbee[2].location, ZigbeeLocation::D);
  EXPECT_EQ(cfg.extra_zigbee[2].burst.mean_interval, 1_sec);
  EXPECT_DOUBLE_EQ(cfg.extra_zigbee[2].data_power_dbm, -3.0);

  spec.set("extra.clear", true);
  cfg = spec.must_config();
  EXPECT_TRUE(cfg.extra_zigbee.empty());

  std::string error;
  ScenarioSpec bad;
  bad.set("extra.link", "loc=Z");
  EXPECT_FALSE(bad.config(&error).has_value());
  EXPECT_NE(error.find("extra.link"), std::string::npos) << error;
}

TEST(ScenarioSpecTest, FaultPlanKeysLower) {
  std::string error;
  auto spec = ScenarioSpec::parse("fault.preset = mixed\n", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  auto cfg = spec->config(&error);
  ASSERT_TRUE(cfg.has_value()) << error;
  EXPECT_FALSE(cfg->fault_plan.empty());
  const auto preset_events = cfg->fault_plan.size();

  spec->set("fault.event", "cts-loss at=2s count=3");
  cfg = spec->config(&error);
  ASSERT_TRUE(cfg.has_value()) << error;
  EXPECT_EQ(cfg->fault_plan.size(), preset_events + 1);

  ScenarioSpec bad_event;
  bad_event.set("fault.event", "gremlins at=2s");
  EXPECT_FALSE(bad_event.config(&error).has_value());
  EXPECT_NE(error.find("fault.event"), std::string::npos) << error;

  ScenarioSpec bad;
  bad.set("fault.preset", "no-such-plan");
  EXPECT_FALSE(bad.config(&error).has_value());
  EXPECT_NE(error.find("fault.preset"), std::string::npos) << error;
}

TEST(ScenarioSpecTest, GrantorsKeyLowersToDistances) {
  std::string error;
  auto spec = ScenarioSpec::parse(
      "grantors = 2.5, 4\nelection.grace = 80ms\n", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  auto cfg = spec->config(&error);
  ASSERT_TRUE(cfg.has_value()) << error;
  ASSERT_EQ(cfg->extra_grantors_m.size(), 2u);
  EXPECT_EQ(cfg->extra_grantors_m[0], 2.5);
  EXPECT_EQ(cfg->extra_grantors_m[1], 4.0);
  EXPECT_EQ(cfg->election_grace, 80_ms);
}

TEST(ScenarioSpecTest, GrantorsRejectsZeroAndDuplicates) {
  std::string error;
  // Zero distance: degenerate election metric.
  auto spec = ScenarioSpec::parse("seed = 1\ngrantors = 2.5,0\n", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_FALSE(spec->config(&error).has_value());
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("grantors"), std::string::npos) << error;

  // Duplicate distance: two members would tie on the metric *and* geometry.
  spec = ScenarioSpec::parse("seed = 1\ngrantors = 3,4,3\n", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_FALSE(spec->config(&error).has_value());
  EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;

  // Negative, empty element, and trailing comma are malformed too.
  for (const char* bad : {"grantors = -2\n", "grantors = 2.5,,4\n",
                          "grantors = 2.5,\n"}) {
    expect_rejected(bad);
  }
}

TEST(ScenarioSpecTest, DurationKeysMustBePositive) {
  // Each key feeds a timer or a rate: zero or a negative value must fail
  // config() naming the key, not abort or divide by zero mid-run.
  for (const char* key :
       {"election.grace", "burst.interval", "ecc.period", "ecc.emulation_airtime",
        "mobility.device_period", "wifi.cbr_interval", "dense.wifi_interval",
        "wifi.priority_cycle", "lteu.period", "tsch.hop_period",
        "allocator.initial_whitespace", "allocator.max_whitespace",
        "ble.connection_interval"}) {
    for (const char* value : {"0us", "-5ms", "soon"}) {
      expect_rejected(std::string(key) + " = " + value + "\n");
    }
  }
  expect_rejected("extra.link = loc=C interval=0us\n", "interval");
}

TEST(ScenarioSpecTest, GapKeysMustBeNonNegative) {
  // Zero means "no gap" and stays legal (bench_ablation_estimator sweeps
  // allocator.control_duration from 0); a negative delay aborted the
  // simulator mid-run.
  for (const char* key :
       {"allocator.end_of_burst_gap", "allocator.control_duration",
        "allocator.reestimate_period", "signaling.control_gap",
        "signaling.ignored_backoff"}) {
    for (const char* value : {"-1ms", "-1us", "soon"}) {
      expect_rejected(std::string(key) + " = " + value + "\n");
    }
    expect_accepted(std::string(key) + " = 0us\n");
  }
}

TEST(ScenarioSpecTest, DurationsAboveAMillionSecondsAreRejected) {
  // 9e12 s overflowed `now + d` (an abort), and 1e300 s overflowed the
  // microsecond conversion itself.
  for (const char* bad :
       {"burst.interval = 9e12s\n", "allocator.max_whitespace = 1e300s\n",
        "allocator.reestimate_period = 1000001s\n",
        "ecc.whitespace = -1e13ms\n"}) {
    expect_rejected(bad);
  }
  expect_accepted("allocator.reestimate_period = 1000000s\n");
}

TEST(ScenarioSpecTest, IntegerKeysRejectValuesTheirFieldCannotHold) {
  // Each of these used to narrow through a static_cast: 9999999999 packets
  // became 1,410,065,407 per burst, and the dense counts exhausted memory.
  for (const char* bad :
       {"burst.packets = 9999999999\n", "burst.packets = 2147483647\n",
        "burst.packets = 10001\n", "dense.wifi_pairs = 9999999999\n",
        "dense.zigbee_links = 10001\n", "dense.ble_nodes = 10001\n",
        "dense.clusters = 2147483647\n", "ble.links = 10001\n",
        "wifi.payload = 4294967296\n", "dense.wifi_payload = -1\n",
        "signaling.max_control_packets = 2147483648\n",
        "seed = 18446744073709551616\n", "dense.seed = -1\n",
        "burst.payload = 100000\n", "burst.payload = 128\n",
        "signaling.control_payload = 100000\n",
        "extra.link = loc=C packets=10001\n", "extra.link = loc=C payload=128\n",
        "fault.event = burst-shift at=500ms packets=2000000000 interval=100ms\n"}) {
    expect_rejected(bad);
  }
  // The limits themselves are legal: 127 B is the largest 802.15.4 frame,
  // and the paper's 120 B control packet must fit.
  for (const char* good :
       {"burst.packets = 10000\n", "dense.wifi_pairs = 10000\n",
        "burst.payload = 127\n", "signaling.control_payload = 120\n",
        "extra.link = loc=C packets=10000 payload=127\n",
        "seed = 18446744073709551615\n"}) {
    expect_accepted(good);
  }
}

TEST(ScenarioSpecTest, EccWhitespaceMustFitItsPeriodInAnyKeyOrder) {
  // 200 ms against the default 100 ms period, a full period, and negative.
  for (const char* bad :
       {"ecc.whitespace = 200ms\n", "ecc.whitespace = 100ms\n",
        "ecc.whitespace = -1ms\n",
        "ecc.period = 300ms\necc.whitespace = 200ms\necc.period = 150ms\n"}) {
    expect_rejected(bad, "ecc.whitespace");
  }
  // The check runs once after every entry, so key order does not matter,
  // and zero (the BiCord/CSMA rows of bench_fig10) stays legal.
  for (const char* good :
       {"ecc.period = 300ms\necc.whitespace = 200ms\n",
        "ecc.whitespace = 200ms\necc.period = 300ms\n", "ecc.whitespace = 0us\n"}) {
    expect_accepted(good);
  }
}

TEST(ScenarioSpecTest, UnknownCoordinationListsEveryScheme) {
  std::string error;
  auto spec = ScenarioSpec::parse("coordination = foo\n", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_FALSE(spec->config(&error).has_value());
  for (const char* scheme : {"bicord", "ecc", "csma", "lteu", "tsch"}) {
    EXPECT_NE(error.find(scheme), std::string::npos) << error;
  }
}

TEST(ScenarioSpecTest, NonFiniteNumbersAndSubMetreCellsAreRejected) {
  // strtod accepts nan/inf spellings; no float key means them. A NaN snap
  // floor would silently disable every audibility test.
  for (const char* bad :
       {"medium.snap_floor = nan\n", "medium.snap_floor = -inf\n",
        "medium.max_tx_power = inf\n", "pathloss.sigma = nan\n",
        "wifi.high_share = INF\n", "burst.interval = infms\n"}) {
    expect_rejected(bad);
  }
  // The medium always derives its grid cell, so no cell size parses: an
  // infinite or sub-metre one used to abort the grid or make every window
  // enormous.
  for (const char* cell :
       {"medium.cell = inf\n", "medium.cell = nan\n", "medium.cell = 0.001\n",
        "medium.cell = 1e-300\n", "medium.cell = 0.999\n"}) {
    std::string error;
    EXPECT_FALSE(ScenarioSpec::parse(cell, &error).has_value()) << cell;
    EXPECT_NE(error.find("unknown key 'medium.cell'"), std::string::npos) << error;
  }
}

TEST(ScenarioSpecTest, PowersAndSharesOutsideTheirRangesAreRejected) {
  // Each of these ran to exit 0: a 1e300 dBm signal, or a high-priority
  // share of 2, starved ZigBee instead of failing.
  for (const char* key :
       {"zigbee.data_power", "zigbee.signaling_power", "medium.max_tx_power",
        "ecc.emulation_power", "dense.wifi_power", "dense.zigbee_power",
        "dense.ble_power", "ble.tx_power", "lteu.power"}) {
    for (const char* value : {"1e300", "60.5", "-121", "loud"}) {
      expect_rejected(std::string(key) + " = " + value + "\n");
    }
    // The bounds themselves are legal: the -120 dBm floor and 1 kW.
    expect_accepted(std::string(key) + " = -120\n");
    expect_accepted(std::string(key) + " = 60\n");
  }
  for (const char* bad :
       {"wifi.high_share = 2\n", "wifi.high_share = -1\n", "wifi.high_share = 1.0001\n",
        "extra.link = loc=C power=1e300\n", "extra.link = loc=C signaling=-500\n"}) {
    expect_rejected(bad);
  }
  for (const char* good :
       {"wifi.high_share = 0\n", "wifi.high_share = 1\n",
        "zigbee.signaling_power = default\n",
        "extra.link = loc=C power=60 signaling=-120\n"}) {
    expect_accepted(good);
  }
}

TEST(ScenarioSpecTest, ClockSkewPpmLowersToFaultEventAndValidatesRange) {
  std::string error;
  auto spec = ScenarioSpec::parse("fault.clock_skew_ppm = 200\n", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  auto cfg = spec->config(&error);
  ASSERT_TRUE(cfg.has_value()) << error;
  ASSERT_EQ(cfg->fault_plan.size(), 1u);
  EXPECT_EQ(cfg->fault_plan.events()[0].kind, fault::FaultKind::ClockSkew);
  EXPECT_EQ(cfg->fault_plan.events()[0].magnitude, 200.0);
  EXPECT_EQ(cfg->fault_plan.events()[0].at, TimePoint::origin());

  for (const char* bad :
       {"fault.clock_skew_ppm = 0\n", "fault.clock_skew_ppm = -10\n",
        "fault.clock_skew_ppm = 1001\n", "fault.clock_skew_ppm = drifty\n"}) {
    spec = ScenarioSpec::parse(bad, &error);
    ASSERT_TRUE(spec.has_value()) << bad;
    EXPECT_FALSE(spec->config(&error).has_value()) << bad;
    EXPECT_NE(error.find("clock_skew_ppm"), std::string::npos) << error;
    EXPECT_NE(error.find("line 1"), std::string::npos) << error;
  }
}

TEST(ScenarioSpecTest, BleConnectionIntervalKeepsTheBluetoothRange) {
  // Bluetooth LE connection intervals run from 7.5 ms to 4 s; at 1 us every
  // link's packets overlapped its next connection event and a 100 ms run
  // took minutes.
  for (const char* bad : {"ble.connection_interval = 1us\n",
                          "ble.connection_interval = 7499us\n",
                          "ble.connection_interval = 4000001us\n"}) {
    expect_rejected(bad);
  }
  for (const char* good :
       {"ble.connection_interval = 7500us\n", "ble.connection_interval = 4s\n"}) {
    expect_accepted(good);
  }
}

TEST(ScenarioSpecTest, TopologySwitchSelectsBleLowering) {
  std::string error;
  auto spec = ScenarioSpec::parse(
      "topology = ble\nseed = 7\nble.links = 8\nble.coordinate = false\n", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_TRUE(spec->is_ble());
  auto cfg = spec->config(&error);
  ASSERT_TRUE(cfg.has_value()) << error;
  EXPECT_EQ(cfg->seed, 7u);
  EXPECT_EQ(cfg->ble.links, 8);
  EXPECT_FALSE(cfg->ble.coordinate);

  ScenarioSpec plain;
  plain.set("seed", std::uint64_t{3});
  EXPECT_FALSE(plain.is_ble());
}

TEST(ScenarioSpecTest, BleTopologyTakesTheSharedKeys) {
  // One config type: pathloss.* and medium.* reach the BLE medium, and seed
  // and burst.* fall back to the ScenarioConfig defaults like every other key.
  std::string error;
  auto spec = ScenarioSpec::parse(
      "topology = ble\npathloss.exponent = 3.5\nmedium.snap_floor = -97\n"
      "medium.spatial_index = true\n",
      &error);
  ASSERT_TRUE(spec.has_value()) << error;
  BleScenario scenario(spec->must_config());
  EXPECT_EQ(scenario.medium().path_loss().exponent, 3.5);
  EXPECT_EQ(scenario.medium().tuning().snap_floor_dbm, -97.0);
  EXPECT_TRUE(scenario.medium().spatially_indexed());
  EXPECT_EQ(scenario.simulator().seed(), ScenarioConfig{}.seed);
}

}  // namespace

#include "coex/scenario_spec.hpp"

#include <gtest/gtest.h>

using namespace bicord;
using namespace bicord::coex;
using namespace bicord::time_literals;

namespace {

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
    if (spec->is_ble()) {
      EXPECT_TRUE(spec->ble_config(&error).has_value()) << name << ": " << error;
    } else {
      EXPECT_TRUE(spec->config(&error).has_value()) << name << ": " << error;
    }
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
  auto bcfg = ble->must_ble_config();
  EXPECT_EQ(bcfg.seed, 2626u);
  EXPECT_EQ(bcfg.ble_links, 4);
  EXPECT_TRUE(bcfg.coordinate);
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
    spec = ScenarioSpec::parse(bad, &error);
    ASSERT_TRUE(spec.has_value()) << bad;
    EXPECT_FALSE(spec->config(&error).has_value()) << bad;
    EXPECT_NE(error.find("grantors"), std::string::npos) << error;
  }
}

TEST(ScenarioSpecTest, DurationKeysMustBePositive) {
  // Each key feeds a timer or a rate: zero or a negative value must fail
  // config() naming the key, not abort or divide by zero mid-run.
  std::string error;
  for (const char* key :
       {"election.grace", "burst.interval", "ecc.period", "ecc.emulation_airtime",
        "mobility.device_period", "wifi.cbr_interval", "dense.wifi_interval",
        "wifi.priority_cycle", "lteu.period", "tsch.hop_period"}) {
    for (const char* value : {"0us", "-5ms", "soon"}) {
      const std::string text = std::string(key) + " = " + value + "\n";
      auto spec = ScenarioSpec::parse(text, &error);
      ASSERT_TRUE(spec.has_value()) << text;
      EXPECT_FALSE(spec->config(&error).has_value()) << text;
      EXPECT_NE(error.find(key), std::string::npos) << error;
    }
  }
  auto spec = ScenarioSpec::parse("extra.link = loc=C interval=0us\n", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_FALSE(spec->config(&error).has_value());
  EXPECT_NE(error.find("interval"), std::string::npos) << error;
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

TEST(ScenarioSpecTest, TopologySwitchSelectsBleLowering) {
  std::string error;
  auto spec = ScenarioSpec::parse(
      "topology = ble\nseed = 7\nble.links = 8\nble.coordinate = false\n", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_TRUE(spec->is_ble());
  auto cfg = spec->ble_config(&error);
  ASSERT_TRUE(cfg.has_value()) << error;
  EXPECT_EQ(cfg->seed, 7u);
  EXPECT_EQ(cfg->ble_links, 8);
  EXPECT_FALSE(cfg->coordinate);

  ScenarioSpec plain;
  plain.set("seed", std::uint64_t{3});
  EXPECT_FALSE(plain.is_ble());
}

}  // namespace

// FaultPlan: presets, the text DSL, and describe().

#include "fault/fault_plan.hpp"

#include <gtest/gtest.h>

namespace bicord::fault {
namespace {

using namespace bicord::time_literals;

TEST(FaultPlanTest, PresetsExistAndAreNonEmpty) {
  for (const char* name : {"cts-loss", "detector", "rssi", "burst-shift", "frame-loss",
                           "clock-jitter", "mixed"}) {
    const auto plan = FaultPlan::preset(name);
    ASSERT_TRUE(plan.has_value()) << name;
    EXPECT_FALSE(plan->empty()) << name;
  }
  EXPECT_FALSE(FaultPlan::preset("no-such-plan").has_value());
}

TEST(FaultPlanTest, MixedPresetConcatenatesAllParts) {
  const auto mixed = FaultPlan::preset("mixed");
  std::size_t parts_total = 0;
  for (const char* name : {"cts-loss", "detector", "rssi", "burst-shift", "frame-loss",
                           "clock-jitter"}) {
    parts_total += FaultPlan::preset(name)->size();
  }
  EXPECT_EQ(mixed->size(), parts_total);
}

TEST(FaultPlanTest, ParsesTheDsl) {
  const std::string text =
      "# chaos plan\n"
      "cts-loss at=1s count=2\n"
      "\n"
      "frame-corrupt at=800ms window=1.5s prob=0.25 tech=zigbee\n"
      "rssi-glitch at=2500ms window=400ms mag=-30\n"
      "burst-shift at=1500ms packets=12 interval=120ms\n"
      "node-leave at=3s link=1\n";
  std::string error;
  const auto plan = FaultPlan::parse(text, &error);
  ASSERT_TRUE(plan.has_value()) << error;
  ASSERT_EQ(plan->size(), 5u);

  const auto& ev = plan->events();
  EXPECT_EQ(ev[0].kind, FaultKind::CtsLoss);
  EXPECT_EQ(ev[0].at, TimePoint::origin() + 1_sec);
  EXPECT_EQ(ev[0].count, 2);
  EXPECT_EQ(ev[1].kind, FaultKind::FrameCorrupt);
  EXPECT_EQ(ev[1].window, 1500_ms);
  EXPECT_DOUBLE_EQ(ev[1].probability, 0.25);
  EXPECT_EQ(ev[1].tech, phy::Technology::ZigBee);
  EXPECT_EQ(ev[2].kind, FaultKind::RssiGlitch);
  EXPECT_DOUBLE_EQ(ev[2].magnitude, -30.0);
  EXPECT_EQ(ev[3].kind, FaultKind::BurstShift);
  EXPECT_EQ(ev[3].burst_packets, 12);
  EXPECT_EQ(ev[3].burst_interval, 120_ms);
  EXPECT_EQ(ev[4].kind, FaultKind::NodeLeave);
  EXPECT_EQ(ev[4].link, 1);
}

TEST(FaultPlanTest, ParseRejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(FaultPlan::parse("frob at=1s", &error).has_value());
  EXPECT_NE(error.find("unknown fault kind"), std::string::npos);

  EXPECT_FALSE(FaultPlan::parse("cts-loss count=2", &error).has_value());
  EXPECT_NE(error.find("missing at="), std::string::npos);

  EXPECT_FALSE(FaultPlan::parse("cts-loss at=fast", &error).has_value());
  EXPECT_FALSE(FaultPlan::parse("cts-loss at=1s count=two", &error).has_value());
  EXPECT_FALSE(FaultPlan::parse("cts-loss at=1s bogus=1", &error).has_value());
  EXPECT_FALSE(FaultPlan::parse("frame-corrupt at=1s tech=lte", &error).has_value());

  // Values are read whole: a valid prefix, nan/inf, or a value its field
  // cannot hold is an error, not a silently truncated run.
  for (const char* bad :
       {"cts-loss at=1s count=3abc", "frame-corrupt at=1s prob=0.5xyz",
        "frame-corrupt at=1s prob=nan", "rssi-glitch at=1s mag=inf",
        "cts-loss at=1sx", "cts-loss at=1s count=9999999999",
        "node-leave at=1s link=2147483648",
        "burst-shift at=500ms packets=2000000000 interval=100ms",
        "burst-shift at=500ms packets=10001", "cts-loss at=9e12s"}) {
    EXPECT_FALSE(FaultPlan::parse(bad, &error).has_value()) << bad;
    EXPECT_NE(error.find("bad value"), std::string::npos) << error;
  }

  // Out-of-range values used to parse: a probability of 2, an event before
  // t=0 that fired at 0 us, and negative counts and windows that did nothing.
  // A link of INT_MIN overflowed when the node handler negated it, and huge
  // skew and jitter magnitudes overflowed the scaled timer delays.
  for (const char* bad :
       {"frame-corrupt at=100ms window=500ms prob=2",
        "frame-corrupt at=100ms window=500ms prob=-0.1", "cts-loss at=-5ms",
        "cts-loss at=1s count=-5", "csi-dropout at=1s window=-500ms",
        "node-leave at=0us link=-2147483648", "node-join at=0us link=-2147483648",
        "clock-skew at=0us mag=1e300", "clock-skew at=0us mag=1000.5",
        "clock-skew at=0us mag=-1", "clock-jitter at=0us window=1s mag=1e300",
        "clock-jitter at=0us window=1s mag=1.5"}) {
    EXPECT_FALSE(FaultPlan::parse(bad, &error).has_value()) << bad;
    EXPECT_NE(error.find("bad value"), std::string::npos) << error;
  }
  // The bounds themselves are legal.
  for (const char* good :
       {"frame-corrupt at=0us window=0us prob=0", "frame-corrupt at=1s prob=1",
        "cts-loss at=1s count=0", "node-leave at=0us link=-2147483647",
        "node-join at=0us link=2147483647", "clock-skew at=0us mag=1000",
        "clock-jitter at=0us window=1s mag=1", "rssi-glitch at=1s mag=-30"}) {
    EXPECT_TRUE(FaultPlan::parse(good, &error).has_value()) << good << error;
  }
}

TEST(FaultPlanTest, TimesRoundLikeSpecDurations) {
  // The fault DSL shares the spec's duration reader: a fractional
  // microsecond rounds to the nearest one instead of truncating.
  const auto plan = FaultPlan::parse(
      "cts-loss at=1.5us\nburst-shift at=500ms packets=10000 interval=0.5ms\n");
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->events()[0].at, TimePoint::from_us(2));
  EXPECT_EQ(plan->events()[1].burst_packets, 10000);
  EXPECT_EQ(plan->events()[1].burst_interval, 500_us);
}

TEST(FaultPlanTest, ParseAcceptsCommentsAndBlankLines) {
  const auto plan = FaultPlan::parse("\n# nothing but comments\n\n");
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->empty());
}

TEST(FaultPlanTest, DescribeMentionsEveryEvent) {
  const auto plan = FaultPlan::preset("mixed");
  const std::string text = plan->describe();
  for (const char* token : {"cts-loss", "pause-end-loss", "csi-dropout", "detector-fp",
                            "detector-fn", "rssi-glitch", "burst-shift", "node-leave",
                            "node-join", "frame-corrupt", "clock-jitter"}) {
    EXPECT_NE(text.find(token), std::string::npos) << token;
  }
}

TEST(FaultPlanTest, DescribeRoundTripsThroughParse) {
  // describe() output is not the DSL (times print as timestamps), but every
  // preset must survive a manual DSL round trip of its own fields.
  const std::string text =
      "pause-end-loss at=2200ms count=1\n"
      "detector-fp at=3s\n"
      "clock-jitter at=500ms window=5s mag=0.2\n";
  const auto plan = FaultPlan::parse(text);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->size(), 3u);
  EXPECT_EQ(plan->events()[2].kind, FaultKind::ClockJitter);
  EXPECT_DOUBLE_EQ(plan->events()[2].magnitude, 0.2);
}

}  // namespace
}  // namespace bicord::fault

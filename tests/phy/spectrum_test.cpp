#include "phy/spectrum.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace bicord::phy {
namespace {

TEST(SpectrumTest, WifiChannelCenters) {
  EXPECT_DOUBLE_EQ(wifi_channel(1).center_mhz, 2412.0);
  EXPECT_DOUBLE_EQ(wifi_channel(6).center_mhz, 2437.0);
  EXPECT_DOUBLE_EQ(wifi_channel(11).center_mhz, 2462.0);
  EXPECT_DOUBLE_EQ(wifi_channel(13).center_mhz, 2472.0);
  EXPECT_DOUBLE_EQ(wifi_channel(1).width_mhz, 20.0);
}

TEST(SpectrumTest, ZigbeeChannelCenters) {
  EXPECT_DOUBLE_EQ(zigbee_channel(11).center_mhz, 2405.0);
  EXPECT_DOUBLE_EQ(zigbee_channel(24).center_mhz, 2470.0);
  EXPECT_DOUBLE_EQ(zigbee_channel(26).center_mhz, 2480.0);
  EXPECT_DOUBLE_EQ(zigbee_channel(11).width_mhz, 2.0);
}

TEST(SpectrumTest, BluetoothChannels) {
  EXPECT_DOUBLE_EQ(bluetooth_channel(0).center_mhz, 2402.0);
  EXPECT_DOUBLE_EQ(bluetooth_channel(78).center_mhz, 2480.0);
  EXPECT_DOUBLE_EQ(bluetooth_channel(10).width_mhz, 1.0);
}

TEST(SpectrumTest, RejectsOutOfRangeChannels) {
  EXPECT_THROW(wifi_channel(0), std::invalid_argument);
  EXPECT_THROW(wifi_channel(14), std::invalid_argument);
  EXPECT_THROW(zigbee_channel(10), std::invalid_argument);
  EXPECT_THROW(zigbee_channel(27), std::invalid_argument);
  EXPECT_THROW(bluetooth_channel(-1), std::invalid_argument);
  EXPECT_THROW(bluetooth_channel(79), std::invalid_argument);
}

TEST(SpectrumTest, PaperChannelPairingOverlaps) {
  // The paper pairs Wi-Fi ch 11/13 with ZigBee ch 24/26 "such that they
  // overlap in the frequency domain".
  EXPECT_GT(overlap_mhz(wifi_channel(11), zigbee_channel(24)), 0.0);
  EXPECT_GT(overlap_mhz(wifi_channel(13), zigbee_channel(26)), 0.0);
  // ZigBee ch 24 sits fully inside Wi-Fi ch 11.
  EXPECT_DOUBLE_EQ(overlap_mhz(wifi_channel(11), zigbee_channel(24)), 2.0);
}

TEST(SpectrumTest, DisjointBands) {
  EXPECT_DOUBLE_EQ(overlap_mhz(wifi_channel(1), zigbee_channel(26)), 0.0);
  EXPECT_DOUBLE_EQ(in_band_fraction(zigbee_channel(26), wifi_channel(1)), 0.0);
}

TEST(SpectrumTest, InBandFractionAsymmetry) {
  // ZigBee transmitter -> Wi-Fi receiver: the whole 2 MHz lands in band.
  EXPECT_DOUBLE_EQ(in_band_fraction(zigbee_channel(24), wifi_channel(11)), 1.0);
  // Wi-Fi transmitter -> ZigBee receiver: only 2/20 of the power lands.
  EXPECT_DOUBLE_EQ(in_band_fraction(wifi_channel(11), zigbee_channel(24)), 0.1);
}

TEST(SpectrumTest, OverlapLossDbMatchesFraction) {
  EXPECT_NEAR(overlap_loss_db(wifi_channel(11), zigbee_channel(24)), 10.0, 1e-9);
  EXPECT_NEAR(overlap_loss_db(zigbee_channel(24), wifi_channel(11)), 0.0, 1e-9);
  EXPECT_GE(overlap_loss_db(wifi_channel(1), zigbee_channel(26)), 200.0);
}

TEST(SpectrumTest, OverlapsIsExactlyPositiveOverlapWidth) {
  // Every channel pair of the three maps, plus edge-touching and zero-width
  // bands, where a plain interval test would disagree with overlap_mhz.
  std::vector<Band> bands{Band{2470.0, 0.0}, Band{2468.0, 2.0}, Band{2472.0, 2.0}};
  for (int n = 1; n <= 13; ++n) bands.push_back(wifi_channel(n));
  for (int n = 11; n <= 26; ++n) bands.push_back(zigbee_channel(n));
  for (int n = 0; n <= 78; ++n) bands.push_back(bluetooth_channel(n));
  for (const Band& a : bands) {
    for (const Band& b : bands) {
      EXPECT_EQ(overlaps(a, b), overlap_mhz(a, b) > 0.0)
          << a.center_mhz << "/" << a.width_mhz << " vs " << b.center_mhz << "/"
          << b.width_mhz;
    }
  }
  EXPECT_FALSE(overlaps(Band{2470.0, 0.0}, zigbee_channel(24)));
  EXPECT_FALSE(overlaps(Band{2468.0, 2.0}, zigbee_channel(24)));  // touch at 2469 MHz
  EXPECT_TRUE(overlaps(bluetooth_channel(67), zigbee_channel(24)));
}

TEST(SpectrumTest, OverlapIsCommutative) {
  EXPECT_DOUBLE_EQ(overlap_mhz(wifi_channel(11), zigbee_channel(24)),
                   overlap_mhz(zigbee_channel(24), wifi_channel(11)));
}

class AllZigbeeChannels : public ::testing::TestWithParam<int> {};

TEST_P(AllZigbeeChannels, FiveMhzSpacingAndPositiveWidth) {
  const int n = GetParam();
  const Band b = zigbee_channel(n);
  EXPECT_DOUBLE_EQ(b.center_mhz, 2405.0 + 5.0 * (n - 11));
  EXPECT_GT(b.width_mhz, 0.0);
  EXPECT_LT(b.lo(), b.hi());
}

INSTANTIATE_TEST_SUITE_P(Spectrum, AllZigbeeChannels, ::testing::Range(11, 27));

class AllWifiChannels : public ::testing::TestWithParam<int> {};

TEST_P(AllWifiChannels, EveryWifiChannelCoversSomeZigbeeChannel) {
  const Band w = wifi_channel(GetParam());
  int covered = 0;
  for (int z = 11; z <= 26; ++z) {
    if (in_band_fraction(zigbee_channel(z), w) == 1.0) ++covered;
  }
  // A 20 MHz Wi-Fi channel fully contains at least three ZigBee channels.
  EXPECT_GE(covered, 3);
}

INSTANTIATE_TEST_SUITE_P(Spectrum, AllWifiChannels, ::testing::Range(1, 14));

}  // namespace
}  // namespace bicord::phy

#pragma once
// 2.4 GHz ISM band channel maps and band-overlap arithmetic.
//
// Wi-Fi channels are 20 MHz wide and 5 MHz apart (ch 1 = 2412 MHz);
// IEEE 802.15.4 (ZigBee) channels are 2 MHz wide and 5 MHz apart
// (ch 11 = 2405 MHz); Bluetooth classic hops over 79 channels of 1 MHz
// (ch 0 = 2402 MHz). The paper pairs Wi-Fi ch 11/13 with ZigBee ch 24/26 so
// the bands overlap.

#include <algorithm>
#include <cstdint>

namespace bicord::phy {

/// A contiguous slice of spectrum described by its centre and width in MHz.
struct Band {
  double center_mhz = 0.0;
  double width_mhz = 0.0;

  [[nodiscard]] double lo() const { return center_mhz - width_mhz / 2.0; }
  [[nodiscard]] double hi() const { return center_mhz + width_mhz / 2.0; }

  friend bool operator==(const Band&, const Band&) = default;
};

/// Overlapping width of two bands in MHz (0 when disjoint).
[[nodiscard]] double overlap_mhz(Band a, Band b);

/// True exactly when overlap_mhz(a, b) > 0. A receiver sees a transmission
/// only through this gate: a transmission whose band misses the receiver's
/// band adds no energy, no interference and no fading draw there. Inline
/// because the medium's energy sums and every radio's start edge test it
/// once per transmission.
[[nodiscard]] inline bool overlaps(Band a, Band b) {
  return std::min(a.hi(), b.hi()) - std::max(a.lo(), b.lo()) > 0.0;
}

/// Fraction of transmitter band `tx` whose energy lands inside receiver
/// band `rx`, assuming the transmit power is spread evenly over `tx`.
/// E.g. a 20 MHz Wi-Fi frame deposits only 2/20 = 10 % of its power into an
/// overlapped 2 MHz ZigBee channel, while a ZigBee frame inside a Wi-Fi
/// channel deposits 100 %. This asymmetry is central to the coexistence
/// problem the paper addresses.
[[nodiscard]] double in_band_fraction(Band tx, Band rx);

/// Same, expressed as a dB attenuation to apply to the received power. A
/// disjoint pair returns a 200 dB sentinel, which Medium::rx_power_dbm
/// clamps to kFloorDbm for a direct caller. No library path reaches it:
/// energy sums and radios drop a disjoint pair at overlaps() first.
[[nodiscard]] double overlap_loss_db(Band tx, Band rx);

/// IEEE 802.11b/g channel n in [1, 13].
[[nodiscard]] Band wifi_channel(int n);
/// IEEE 802.15.4 channel n in [11, 26].
[[nodiscard]] Band zigbee_channel(int n);
/// Bluetooth BR/EDR channel n in [0, 78].
[[nodiscard]] Band bluetooth_channel(int n);

}  // namespace bicord::phy

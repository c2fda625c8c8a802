#pragma once
// RF power units and conversions.
//
// Powers are carried as plain `double` dBm throughout the library (strong
// typing here hurts more than it helps: dB arithmetic is pervasive), but all
// *combination* of powers goes through the helpers below so the linear/log
// distinction stays in one place.

#include <cmath>

namespace bicord::phy {

/// Floor of every received power: Medium::rx_power_dbm clamps a weaker link
/// up to it, so an overlapping transmission always adds at least this much.
/// A transmission whose band misses the receiver's band (phy::overlaps) is
/// not clamped up: energy sums and radios drop it, and it contributes nothing.
inline constexpr double kFloorDbm = -120.0;

[[nodiscard]] inline double dbm_to_mw(double dbm) {
  // 10^(x/10) == 2^(x * log2(10)/10). exp2 is severalfold cheaper than the
  // general-base pow, and this conversion runs on every transmission edge.
  constexpr double kLog2TenOverTen = 0.33219280948873623;
  return std::exp2(dbm * kLog2TenOverTen);
}

[[nodiscard]] inline double mw_to_dbm(double mw) {
  if (mw <= 0.0) return kFloorDbm;
  return 10.0 * std::log10(mw);
}

/// Sum of two powers expressed in dBm (addition happens in linear domain).
[[nodiscard]] inline double combine_dbm(double a_dbm, double b_dbm) {
  return mw_to_dbm(dbm_to_mw(a_dbm) + dbm_to_mw(b_dbm));
}

/// Signal-to-interference-plus-noise ratio in dB.
[[nodiscard]] inline double sinr_db(double signal_dbm, double interference_dbm,
                                    double noise_dbm) {
  const double denom_mw = dbm_to_mw(interference_dbm) + dbm_to_mw(noise_dbm);
  return signal_dbm - mw_to_dbm(denom_mw);
}

}  // namespace bicord::phy

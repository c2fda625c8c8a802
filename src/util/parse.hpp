#pragma once
// Strict value readers shared by every text input: ScenarioSpec keys,
// FaultPlan tokens and command-line flags.
//
// A reader takes the whole string or nothing. Leading whitespace, trailing
// characters, values outside the target type (no clamping), and nan/inf are
// all rejected; on failure *out is left untouched. A leading '+' is accepted.

#include <cstdint>
#include <limits>
#include <string_view>
#include <utility>

#include "util/time.hpp"

namespace bicord {

/// Largest magnitude parse_duration() accepts: 10^6 s, far above any real
/// experiment, and small enough that `now + d` cannot overflow.
inline constexpr Duration kMaxParsedDuration = Duration::from_sec(1'000'000);

/// Upper bound for counts that size an allocation (packets per burst, nodes
/// in a dense field): larger values exhaust memory instead of failing.
inline constexpr std::int64_t kMaxAllocCount = 10'000;

[[nodiscard]] bool parse_i64(std::string_view s, std::int64_t* out);
[[nodiscard]] bool parse_u64(std::string_view s, std::uint64_t* out);

/// An integer for a field of type T within [lo, hi]: a value outside the
/// bounds or outside what T holds is rejected, never narrowed.
template <typename T>
[[nodiscard]] bool parse_int(std::string_view s, T* out,
                             std::int64_t lo = std::numeric_limits<std::int64_t>::min(),
                             std::int64_t hi = std::numeric_limits<std::int64_t>::max()) {
  std::int64_t v = 0;
  if (!parse_i64(s, &v) || v < lo || v > hi || !std::in_range<T>(v)) return false;
  *out = static_cast<T>(v);
  return true;
}

/// Finite numbers only.
[[nodiscard]] bool parse_f64(std::string_view s, double* out);
/// A number with a us / ms / s suffix ("250us", "1.5s"), rounded to the
/// nearest microsecond. Magnitudes above kMaxParsedDuration are rejected;
/// the sign is the caller's to check.
[[nodiscard]] bool parse_duration(std::string_view s, Duration* out);

}  // namespace bicord

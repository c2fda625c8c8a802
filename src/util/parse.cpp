#include "util/parse.hpp"

#include <charconv>
#include <cmath>

namespace bicord {
namespace {

/// from_chars takes no leading '+'; the strtod family did, so "+3" stays legal.
std::string_view drop_plus(std::string_view s) {
  if (s.size() > 1 && s[0] == '+' && s[1] != '+' && s[1] != '-') s.remove_prefix(1);
  return s;
}

template <typename T>
bool read_whole(std::string_view s, T* out) {
  s = drop_plus(s);
  T v{};
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || end != s.data() + s.size()) return false;
  *out = v;
  return true;
}

}  // namespace

bool parse_i64(std::string_view s, std::int64_t* out) { return read_whole(s, out); }

bool parse_u64(std::string_view s, std::uint64_t* out) { return read_whole(s, out); }

bool parse_f64(std::string_view s, double* out) {
  double v = 0.0;
  if (!read_whole(s, &v) || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

bool parse_duration(std::string_view s, Duration* out) {
  double scale_to_us = 0.0;
  if (s.size() > 2 && s.substr(s.size() - 2) == "us") {
    scale_to_us = 1.0;
    s.remove_suffix(2);
  } else if (s.size() > 2 && s.substr(s.size() - 2) == "ms") {
    scale_to_us = 1e3;
    s.remove_suffix(2);
  } else if (s.size() > 1 && s.back() == 's') {
    scale_to_us = 1e6;
    s.remove_suffix(1);
  } else {
    return false;
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) s.remove_suffix(1);
  double v = 0.0;
  if (!parse_f64(s, &v)) return false;
  const double us = v * scale_to_us;
  if (std::abs(us) > static_cast<double>(kMaxParsedDuration.us())) return false;
  *out = Duration::from_us(std::llround(us));
  return true;
}

}  // namespace bicord

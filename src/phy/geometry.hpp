#pragma once
// 2D placement of devices (the paper's office testbed is planar, Fig. 6).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

namespace bicord::phy {

struct Position {
  double x = 0.0;  ///< metres
  double y = 0.0;  ///< metres

  friend bool operator==(const Position&, const Position&) = default;
};

[[nodiscard]] inline double distance(Position a, Position b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

/// Squared distance — the spatial-culling predicate compares against a
/// squared radius so the hot path never pays the sqrt.
[[nodiscard]] inline double distance2(Position a, Position b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return dx * dx + dy * dy;
}

/// Integer grid cell containing a position (uniform grid, SpatialIndex).
struct CellCoord {
  std::int32_t cx = 0;
  std::int32_t cy = 0;

  friend bool operator==(const CellCoord&, const CellCoord&) = default;
};

/// The cell of a position, saturated at the int32 range. The index stays
/// exact: clamping is monotone, so it never moves two cells further apart,
/// and a non-finite position is never audible, so NaN may take any cell.
[[nodiscard]] inline CellCoord cell_of(Position p, double cell_size_m) {
  const auto index = [cell_size_m](double coord_m) {
    constexpr double kMin = std::numeric_limits<std::int32_t>::min();
    constexpr double kMax = std::numeric_limits<std::int32_t>::max();
    const double c = std::floor(coord_m / cell_size_m);
    return std::isnan(c) ? 0 : static_cast<std::int32_t>(std::clamp(c, kMin, kMax));
  };
  return CellCoord{index(p.x), index(p.y)};
}

}  // namespace bicord::phy

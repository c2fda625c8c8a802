#pragma once
// Uniform-grid spatial index over node positions.
//
// Purely geometric bookkeeping behind phy::Medium's O(neighborhood) paths:
// maps every node to the grid cell containing its position and answers
// "visit every node within `ring` cells of this cell". Windows are
// enumerated in row-major cell order and buckets in insertion order, but
// callers must not rely on either: the Medium sorts whatever it gathers
// (by attach seq) before acting on it, so bucket order never leaks into
// simulation results. That also makes swap-remove rebucketing safe.
//
// The cell table is open addressing with power-of-two capacity. It is only
// ever probed by key (never iterated in storage order), which keeps results
// deterministic. Cells are created on demand and never destroyed — a run's
// node set occupies a bounded region, so empty husk cells are cheap — and
// the occupied bounding box grows monotonically, letting unbounded windows
// (infinite interference radius) clamp to occupied space instead of looping
// over empty cells.

#include <cstdint>
#include <vector>

#include "phy/frame.hpp"
#include "phy/geometry.hpp"

namespace bicord::phy {

class SpatialIndex {
 public:
  /// Windows never need more than this many rings: they are clamped to the
  /// occupied bounding box anyway, and 2^20 cells of any sane size exceed
  /// every deployment the simulator can hold.
  static constexpr std::int64_t kMaxRing = 1 << 20;

  explicit SpatialIndex(double cell_size_m);

  /// Registers node `id` (ids must arrive densely: 0, 1, 2, ...).
  void add_node(NodeId id, Position pos);
  /// Rebuckets `id` after a move; returns true when its grid cell changed.
  bool move_node(NodeId id, Position pos);

  [[nodiscard]] double cell_size_m() const { return cell_m_; }
  [[nodiscard]] std::size_t node_count() const { return node_cell_.size(); }
  [[nodiscard]] CellCoord cell_of_node(NodeId id) const { return node_cell_[id]; }
  [[nodiscard]] CellCoord cell_at(Position pos) const { return cell_of(pos, cell_m_); }

  /// Smallest ring (Chebyshev cell distance) such that the window
  /// [c-ring, c+ring]^2 around the cell of *any* point p contains every
  /// node within `radius_m` of p: floor(r/cell) + 1 covers the worst-case
  /// in-cell offset, and one extra cell absorbs floor()-boundary rounding.
  [[nodiscard]] std::int64_t ring_for(double radius_m) const;

  /// Visits every node whose cell lies within `ring` cells (Chebyshev) of
  /// `center`, row-major (y outer, x inner), clamped to the occupied
  /// bounding box.
  template <typename Fn>
  void for_each_in_window(CellCoord center, std::int64_t ring, Fn&& fn) const {
    if (node_cell_.empty()) return;
    const std::int64_t cx = center.cx;
    const std::int64_t cy = center.cy;
    const std::int64_t x0 = std::max<std::int64_t>(cx - ring, min_cx_);
    const std::int64_t x1 = std::min<std::int64_t>(cx + ring, max_cx_);
    const std::int64_t y0 = std::max<std::int64_t>(cy - ring, min_cy_);
    const std::int64_t y1 = std::min<std::int64_t>(cy + ring, max_cy_);
    if (!grid_.empty()) {
      // Fast path: the bbox fits the flat row-major map, so a window probe
      // is one array load instead of a hash walk. Same cells, same order.
      for (std::int64_t y = y0; y <= y1; ++y) {
        const std::int64_t row = (y - min_cy_) * grid_w_;
        for (std::int64_t x = x0; x <= x1; ++x) {
          const std::uint32_t ci = grid_[static_cast<std::size_t>(row + (x - min_cx_))];
          if (ci == kNoCell) continue;
          for (const NodeId n : cells_[ci].nodes) fn(n);
        }
      }
      return;
    }
    for (std::int64_t y = y0; y <= y1; ++y) {
      for (std::int64_t x = x0; x <= x1; ++x) {
        const std::uint32_t ci = find_cell(pack(static_cast<std::int32_t>(x),
                                                static_cast<std::int32_t>(y)));
        if (ci == kNoCell) continue;
        for (const NodeId n : cells_[ci].nodes) fn(n);
      }
    }
  }

 private:
  struct Cell {
    std::uint64_t key = 0;
    std::vector<NodeId> nodes;
  };
  static constexpr std::uint32_t kNoCell = 0xFFFFFFFFu;

  [[nodiscard]] static std::uint64_t pack(std::int32_t cx, std::int32_t cy) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
           static_cast<std::uint32_t>(cy);
  }
  /// Bbox areas up to this many cells keep a flat row-major cell map (the
  /// window fast path): 2^16 cells is ~256 KB of indices — cache-friendly —
  /// and at any realistic cell size covers multi-kilometre deployments.
  static constexpr std::int64_t kMaxGridCells = std::int64_t{1} << 16;

  [[nodiscard]] std::uint32_t find_cell(std::uint64_t key) const;
  [[nodiscard]] std::uint32_t find_or_create(std::uint64_t key);
  void grow_table();
  void expand_bbox(CellCoord c);
  void rebuild_grid();

  double cell_m_;
  std::vector<Cell> cells_;
  std::vector<std::uint32_t> table_;  ///< open addressing; kNoCell = empty slot
  std::vector<CellCoord> node_cell_;  ///< indexed by NodeId
  // Occupied bounding box; grows monotonically (cells are never destroyed).
  bool bbox_empty_ = true;
  std::int64_t min_cx_ = 0;
  std::int64_t max_cx_ = 0;
  std::int64_t min_cy_ = 0;
  std::int64_t max_cy_ = 0;
  // Flat bbox-shaped cell map; empty once the bbox outgrows kMaxGridCells
  // (the hash table then serves every probe).
  std::vector<std::uint32_t> grid_;
  std::int64_t grid_w_ = 0;
  bool grid_ok_ = true;
};

}  // namespace bicord::phy

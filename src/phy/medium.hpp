#pragma once
// The shared wireless medium.
//
// The Medium owns the registry of nodes (name + position), tracks every
// in-flight transmission, computes per-link received power (path loss +
// per-link shadowing + band-overlap scaling), answers energy queries (CCA,
// RSSI sampling), and fans transmission start/end notifications out to the
// attached radios. It also accounts per-technology airtime, which the
// metrics layer turns into the paper's "channel utilization".
//
// Two execution paths produce bitwise-identical results (DESIGN.md Sec. 12):
// the brute-force path visits every active transmission / every listener,
// while the spatially-indexed path (MediumTuning::spatial_index) culls both
// to a grid neighborhood sized by a conservative interference radius. The
// audibility predicate that decides what a receiver can hear is shared by
// both paths, so the equivalence is by construction, and the test suite
// (tests/phy/medium_equivalence_test.cpp) enforces it.

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "phy/frame.hpp"
#include "phy/geometry.hpp"
#include "phy/path_loss.hpp"
#include "phy/spatial_index.hpp"
#include "phy/spectrum.hpp"
#include "phy/units.hpp"
#include "sim/simulator.hpp"
#include "util/time.hpp"

namespace bicord::phy {

using TxId = std::uint64_t;
inline constexpr TxId kInvalidTx = 0;

/// A transmission currently on the air.
struct ActiveTransmission {
  TxId id = kInvalidTx;
  Frame frame;
  Band band;
  double tx_power_dbm = 0.0;
  TimePoint start;
  TimePoint end;
  /// Fault injection: the frame is on the air but no receiver can decode it
  /// (its energy is still visible to CCA/RSSI/SINR).
  bool fault_corrupted = false;
  /// Fault injection: the frame is invisible to every *other* node — no
  /// energy, no lock — as if every receiver were momentarily deaf. The
  /// sender's own tx-done path is unaffected.
  bool fault_dropped = false;
};

/// Verdict a TxInterceptor returns for each transmission entering the air.
enum class TxVerdict : std::uint8_t { Deliver, Corrupt, Drop };

/// Fault-injection hook consulted once per begin_tx, before listeners are
/// notified. Deterministic per seed when the implementation draws from a
/// dedicated split RNG stream (see fault::FaultInjector).
class TxInterceptor {
 public:
  virtual TxVerdict intercept(const ActiveTransmission& tx) = 0;

 protected:
  ~TxInterceptor() = default;
};

/// Implemented by radios (and passive observers such as RSSI samplers that
/// want edge-triggered updates).
///
/// Delivery contract: a listener attached *globally* sees every event on the
/// medium. A listener attached *bound to a node* is guaranteed the events
/// that can change what its node observes — the start and end of every
/// transmission audible at the node (see Medium::audible) and every position
/// change that can alter an audible link — and may additionally receive
/// events for inaudible transmissions (it must treat those as no-ops; the
/// spatially-indexed path prunes them, the brute-force path does not).
class MediumListener {
 public:
  virtual void on_tx_start(const ActiveTransmission& tx) = 0;
  virtual void on_tx_end(const ActiveTransmission& tx) = 0;
  /// A node's position changed. Received power is a pure function of medium
  /// state between transmission edges *and* moves, so edge-driven observers
  /// (batched RSSI capture) need this to stay exact under device mobility.
  virtual void on_position_change(NodeId node) { (void)node; }

 protected:
  ~MediumListener() = default;
};

/// Performance knobs. The defaults reproduce the historical behavior bit for
/// bit; enabling the spatial index must not change any simulation output
/// either — the equivalence suite proves it per seed.
struct MediumTuning {
  /// Contributions whose received power provably cannot exceed this floor are
  /// skipped — identically — by both execution paths (energy sums and
  /// listener tracking). At the default kFloorDbm the derived interference
  /// radius is hundreds of metres, far beyond the office testbed, so nothing
  /// is ever culled in the paper's presets. Dense presets raise it toward
  /// the victim technology's thermal noise floor to make culling effective.
  double snap_floor_dbm = kFloorDbm;
  /// Route energy queries and listener fan-out through a uniform-grid
  /// spatial index: O(neighborhood) instead of O(nodes) per event.
  bool spatial_index = false;
  /// Grid cell edge in metres; 0 derives radius(max_tx_power_dbm) / 3.
  double cell_size_m = 0.0;
  /// Upper bound on any tx power this medium will carry — sizes the derived
  /// cell and seeds the energy-query window. Exceeding it at begin_tx is
  /// safe (the window ratchets up), merely slower.
  double max_tx_power_dbm = 30.0;
};

class Medium {
 public:
  Medium(sim::Simulator& sim, PathLossModel path_loss, MediumTuning tuning = {});

  Medium(const Medium&) = delete;
  Medium& operator=(const Medium&) = delete;

  // --- node registry -------------------------------------------------------

  NodeId add_node(std::string name, Position pos);
  void set_position(NodeId id, Position pos);
  [[nodiscard]] Position position(NodeId id) const;
  [[nodiscard]] const std::string& node_name(NodeId id) const;
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }

  /// Attaches a global listener: sees every event on the medium.
  void attach(MediumListener* listener);
  /// Attaches a listener bound to `node`: the indexed path only routes it
  /// events material at that node's position (see MediumListener contract).
  /// Radios and RSSI samplers bind; tracers and protocol observers that need
  /// the full event stream attach globally.
  void attach(MediumListener* listener, NodeId node);
  void detach(MediumListener* listener);

  /// Installs (or clears, with nullptr) the fault-injection hook. At most one
  /// interceptor is active; it is consulted once per begin_tx.
  void set_tx_interceptor(TxInterceptor* interceptor) { interceptor_ = interceptor; }

  // --- transmission --------------------------------------------------------

  /// Puts a frame on the air for `duration`; the end event is scheduled
  /// automatically. Returns the transmission id.
  TxId begin_tx(const Frame& frame, Band band, double tx_power_dbm, Duration duration);

  [[nodiscard]] const std::vector<ActiveTransmission>& active() const { return active_; }

  // --- propagation / energy queries ---------------------------------------

  /// Received power at node `dst` listening on `rx_band` for a transmission
  /// from `src` with the given parameters. Includes mean path loss, a fixed
  /// per-link shadowing term, and the band-overlap attenuation.
  [[nodiscard]] double rx_power_dbm(NodeId src, double tx_power_dbm, Band tx_band,
                                    NodeId dst, Band rx_band) const;
  [[nodiscard]] double rx_power_dbm(const ActiveTransmission& tx, NodeId dst,
                                    Band rx_band) const;

  /// True when `tx` can deliver more than tuning().snap_floor_dbm at `dst`:
  /// distance(src, dst) <= interference_radius_m(tx power). The predicate is
  /// deliberately band-agnostic (a disjoint-band neighbor still registers
  /// floor-level energy) and conservative under shadowing, so culling a
  /// non-audible transmission can never change an energy sum above the snap
  /// floor. Both execution paths apply exactly this predicate.
  [[nodiscard]] bool audible(const ActiveTransmission& tx, NodeId dst) const;

  /// Distance at which `tx_power_dbm` provably falls below the snap floor:
  /// inverts the mean path loss at snap_floor_dbm, pads by the provable
  /// shadowing bound (see DESIGN.md Sec. 12) and 5% slack. Infinite when the
  /// path-loss exponent is non-positive (then nothing is ever culled).
  [[nodiscard]] double interference_radius_m(double tx_power_dbm) const;

  /// Total in-band energy at `rx` from all active transmissions except those
  /// originated by `exclude_src`, combined with the thermal noise floor of
  /// `rx_band`. This is what a CCA energy-detect or RSSI register reads.
  [[nodiscard]] double energy_dbm(NodeId rx, Band rx_band,
                                  NodeId exclude_src = kInvalidNode) const;

  /// Thermal noise floor for a band: -174 dBm/Hz + 10 log10(BW) + NF(6 dB).
  [[nodiscard]] static double noise_floor_dbm(Band band);

  // --- airtime accounting ---------------------------------------------------

  /// Cumulative on-air time per technology since construction.
  [[nodiscard]] Duration airtime(Technology tech) const;
  /// Cumulative on-air time per (node, any technology).
  [[nodiscard]] Duration airtime_of(NodeId node) const;

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] const PathLossModel& path_loss() const { return path_loss_; }
  [[nodiscard]] const MediumTuning& tuning() const { return tuning_; }
  [[nodiscard]] bool spatially_indexed() const { return index_ != nullptr; }

 private:
  struct NodeEntry {
    std::string name;
    Position pos;
  };

  /// Listener registration. `seq` is the monotone attach counter: audiences
  /// are sorted by it so both paths invoke listeners in attach order, and
  /// transmission end edges filter on the seq watermark captured at begin
  /// so listeners attached mid-flight never see an end without its start.
  struct ListenerSlot {
    MediumListener* listener = nullptr;
    std::uint64_t seq = 0;
    NodeId bound = kInvalidNode;  ///< kInvalidNode = global
  };
  struct ListenerRef {
    MediumListener* listener = nullptr;
    std::uint64_t seq = 0;
  };

  /// Per-active-transmission bookkeeping, parallel to active_.
  struct TxAux {
    double radius2 = 0.0;         ///< audibility radius^2 for this power
    std::uint64_t watermark = 0;  ///< listener seq fence captured at begin
    CellCoord start_cell{};       ///< source cell when the start edge fired
    std::int64_t ring = 0;        ///< window ring for this tx (indexed mode)
    /// Finalized start audience (indexed mode): the end edge replays it —
    /// plus any pins — instead of re-walking the grid window, halving the
    /// gather work per transmission. Storage comes from a pool, so steady
    /// state allocates nothing per tx. Detach scrubs it like `pinned`.
    std::vector<ListenerRef> audience;
    /// Bound listeners that became relevant (or risked becoming unreachable)
    /// mid-flight: movers crossing cells, and — when the *source* moves —
    /// everyone in the window around its new cell. They get the end edge on
    /// top of `audience`. Moves are rare, so this stays off the hot path.
    std::vector<ListenerRef> pinned;
  };

  /// Memoized audibility radius per distinct tx power (a run uses a
  /// handful). Shared by begin_tx and the public audible() so both read the
  /// exact same double.
  struct RadiusEntry {
    double power_dbm = 0.0;
    double radius_m = 0.0;
    double radius2 = 0.0;
  };

  void finish_tx(TxId id);
  [[nodiscard]] const NodeEntry& node(NodeId id) const;
  [[nodiscard]] const RadiusEntry& radius_entry(double tx_power_dbm) const;
  [[nodiscard]] static bool audible_at(double radius2, Position src, Position dst) {
    // radius2 is +inf when culling is impossible; any finite distance passes.
    return distance2(src, dst) <= radius2;
  }

  // --- listener fan-out ----------------------------------------------------
  //
  // Brute-force path: iterate the master slot list in attach (seq) order,
  // optionally fenced by a seq watermark. Indexed path: gather the bound
  // listeners of every node in the event's grid window plus the globals into
  // a reusable audience buffer, sort by seq, dedupe, then invoke. Reentrancy
  // (a callback transmitting, attaching, detaching, adding nodes) is handled
  // by never holding references into mutable containers while user code
  // runs: audiences are snapshots, detach null-marks them in place.

  /// Notifies every listener with seq < watermark present when the loop
  /// starts, in attach order. Listeners detached during the loop are
  /// null-marked and skipped, then compacted once the outermost notification
  /// unwinds.
  template <typename Fn>
  void notify_below(std::uint64_t watermark, Fn&& fn) {
    ++notify_depth_;
    const std::size_t n = listeners_.size();
    for (std::size_t i = 0; i < n; ++i) {
      const ListenerSlot& s = listeners_[i];
      if (s.listener != nullptr && s.seq < watermark) fn(s.listener);
    }
    if (--notify_depth_ == 0 && listeners_dirty_) compact_listeners();
  }

  template <typename Fn>
  void notify(Fn&& fn) {
    notify_below(std::numeric_limits<std::uint64_t>::max(), std::forward<Fn>(fn));
  }

  template <typename Fn>
  void notify_audience(const std::vector<ListenerRef>& audience, Fn&& fn) {
    ++notify_depth_;
    const std::size_t n = audience.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (audience[i].listener != nullptr) fn(audience[i].listener);
    }
    if (--notify_depth_ == 0 && listeners_dirty_) compact_listeners();
  }

  void compact_listeners();
  /// Audience buffers are pooled per notification depth so nested events
  /// (a callback that transmits) get their own scratch without allocating
  /// per event. unique_ptr keeps buffers address-stable while the pool grows.
  [[nodiscard]] std::vector<ListenerRef>& acquire_audience();
  void release_audience() { --audience_depth_; }
  /// Pooled storage for TxAux::audience snapshots: capacity is recycled
  /// across transmissions so begin_tx never allocates in steady state.
  [[nodiscard]] std::vector<ListenerRef> acquire_aux_audience() {
    if (aux_audience_pool_.empty()) return {};
    std::vector<ListenerRef> v = std::move(aux_audience_pool_.back());
    aux_audience_pool_.pop_back();
    v.clear();
    return v;
  }
  void release_aux_audience(std::vector<ListenerRef>&& v) {
    aux_audience_pool_.push_back(std::move(v));
  }
  /// Appends the bound listeners of every node in the window to `out`.
  void gather_window_listeners(CellCoord center, std::int64_t ring,
                               std::vector<ListenerRef>& out) const;
  /// Sorts by seq and drops duplicates (a listener can enter an audience
  /// via several window cells or a pin). Stable event order = attach order.
  static void finalize_audience(std::vector<ListenerRef>& audience);

  /// Total link loss (mean path loss + shadowing + band overlap) with a
  /// direct-mapped cache keyed by (src, dst, band pair). A collision simply
  /// evicts the previous entry (it is a cache of a pure function, so
  /// recomputation is always safe), which keeps lookup to one slot compare
  /// and the structure allocation-free after construction. The cached value
  /// is the same double the direct computation produces — energy readings
  /// stay bitwise identical — and the cache is flushed whenever a node moves.
  [[nodiscard]] double link_loss_db(NodeId src, Band tx_band, NodeId dst,
                                    Band rx_band) const;

  /// Linear noise-floor memo (a run uses a handful of bands) — energy_dbm
  /// pays a band compare instead of a log10 + pow per query.
  [[nodiscard]] double noise_floor_mw(Band band) const;

  /// 16 bytes per slot keeps the whole table L1-resident (a full-tuple entry
  /// was 48 bytes and pushed every lookup out to L2). The tag is the full
  /// 64-bit avalanche hash of (src, dst, band pair) with the low bit forced
  /// to 1 (0 marks an empty slot): a false hit needs two live keys that agree
  /// in all 63 tag bits *and* map to the same slot — vanishingly unlikely and,
  /// being seed-independent, it could only shift one link's loss by a
  /// deterministic constant, never break run-to-run reproducibility.
  struct LossCacheEntry {
    std::uint64_t tag = 0;  ///< 0 marks an empty slot
    double loss_db = 0.0;
  };
  static constexpr std::size_t kLossCacheSlots = 1024;  // power of two

  sim::Simulator& sim_;
  PathLossModel path_loss_;
  MediumTuning tuning_;
  std::unique_ptr<SpatialIndex> index_;  ///< null = brute-force path
  std::vector<NodeEntry> nodes_;
  std::vector<ActiveTransmission> active_;  ///< ascending by TxId
  std::vector<TxAux> tx_aux_;               ///< parallel to active_
  /// Active TxIds per source node — a moving source implicitly carries its
  /// transmissions to its new cell. Maintained in both modes (cheap).
  std::vector<std::vector<TxId>> node_active_tx_;
  std::vector<ListenerSlot> listeners_;
  std::uint64_t next_listener_seq_ = 0;
  std::vector<ListenerRef> global_listeners_;
  std::vector<std::vector<ListenerRef>> node_listeners_;  ///< by NodeId
  std::vector<std::unique_ptr<std::vector<ListenerRef>>> audience_pool_;
  std::size_t audience_depth_ = 0;
  std::vector<std::vector<ListenerRef>> aux_audience_pool_;
  /// Monotone max of every active ring ever seen (seeded from
  /// tuning.max_tx_power_dbm): the energy-query and position-change window.
  std::int64_t max_ring_ = 0;
  int notify_depth_ = 0;
  bool listeners_dirty_ = false;
  TxInterceptor* interceptor_ = nullptr;
  /// Airtime accumulators are dense (small enum / dense node ids): begin_tx
  /// bumps two of them per transmission, so no hashing on that path.
  std::array<Duration, kTechnologyCount> airtime_{};  ///< indexed by Technology
  std::vector<Duration> node_airtime_;  ///< indexed by NodeId
  mutable std::vector<LossCacheEntry> loss_cache_;
  mutable std::vector<std::pair<Band, double>> noise_mw_memo_;
  mutable std::vector<RadiusEntry> radius_memo_;
  mutable std::vector<TxId> energy_scratch_;  ///< indexed energy candidates
  TxId next_tx_id_ = 1;
};

}  // namespace bicord::phy

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
// the brute-force path delivers every transmission edge to every listener,
// while the spatially-indexed path (MediumTuning::spatial_index) delivers
// it to exactly the audible bound listeners, found through a uniform grid
// and replayed from start audiences cached per (source node, tx power).
// Energy sums run one loop in both modes. The audibility predicate that
// decides what a receiver can hear is shared by both paths, so the
// equivalence is by construction, and the test suite
// (tests/phy/medium_equivalence_test.cpp) enforces it.
//
// In-flight transmissions live in one vector, ascending by TxId: energy sums
// visit them in that order, so it fixes the floating-point summation order.
// An ended transmission is found by binary search and marked ended in place,
// and the vector is compacted in one pass once more than half of it has
// ended: retiring a transmission costs a binary search plus amortized O(1)
// moves, not a mid-vector erase. Ended entries are invisible to callers:
// find_active(), active_count() and for_each_active() report only what is on
// the air.

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
/// events for inaudible transmissions, which it must treat as no-ops. The
/// brute-force path delivers every edge to every listener. The indexed path
/// delivers a start edge to exactly the bound listeners audible at that
/// instant, and the end edge to those same listeners (even if they have
/// since moved out of range) plus any that became audible mid-flight.
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

/// Smallest derived grid cell. Windows are counted in cells, so a sub-metre
/// cell makes a 100 m window millions of cells wide, and the derived cell
/// shrinks that far when max_tx_power_dbm understates the powers actually
/// used.
inline constexpr double kMinCellM = 1.0;

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
  /// Route listener fan-out through a uniform-grid spatial index:
  /// O(neighborhood) instead of O(listeners) per event.
  bool spatial_index = false;
  /// Upper bound on any tx power this medium will carry. The grid cell is
  /// max(radius(max_tx_power_dbm) / 3, kMinCellM), and the position-change
  /// window starts at that radius. Exceeding it at begin_tx is safe (the
  /// window ratchets up), merely slower.
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

  /// Attaches a global listener: sees every event on the medium. Returns the
  /// listener's attach sequence number (see for_each_active_after).
  std::uint64_t attach(MediumListener* listener);
  /// Attaches a listener bound to `node`: the indexed path only routes it
  /// events material at that node's position (see MediumListener contract).
  /// Radios and RSSI samplers bind; tracers and protocol observers that need
  /// the full event stream attach globally. Returns the attach sequence.
  std::uint64_t attach(MediumListener* listener, NodeId node);
  void detach(MediumListener* listener);

  /// Installs (or clears, with nullptr) the fault-injection hook. At most one
  /// interceptor is active; it is consulted once per begin_tx.
  void set_tx_interceptor(TxInterceptor* interceptor) { interceptor_ = interceptor; }

  // --- transmission --------------------------------------------------------

  /// Puts a frame on the air for `duration`; the end event is scheduled
  /// automatically. Returns the transmission id.
  TxId begin_tx(const Frame& frame, Band band, double tx_power_dbm, Duration duration);

  /// The transmission `id` while it is on the air; nullptr once it has ended
  /// or for an id never issued.
  [[nodiscard]] const ActiveTransmission* find_active(TxId id) const {
    const std::size_t i = live_index(id);
    return i == active_.size() ? nullptr : &active_[i];
  }
  /// Number of transmissions on the air.
  [[nodiscard]] std::size_t active_count() const { return active_.size() - ended_; }
  /// Calls fn(const ActiveTransmission&) for every transmission on the air,
  /// in ascending TxId order. fn must not begin or end transmissions.
  template <typename Fn>
  void for_each_active(Fn&& fn) const {
    for (std::size_t i = 0; i < active_.size(); ++i) {
      if (!tx_aux_[i].ended) fn(active_[i]);
    }
  }
  /// Same, restricted to the transmissions that began after the listener
  /// with attach sequence `listener_seq` attached. Those are exactly the ones
  /// whose end edge that listener is guaranteed while they are audible at
  /// its node, so it may start tracking one mid-flight without leaking it.
  template <typename Fn>
  void for_each_active_after(std::uint64_t listener_seq, Fn&& fn) const {
    for (std::size_t i = 0; i < active_.size(); ++i) {
      if (!tx_aux_[i].ended && listener_seq < tx_aux_[i].watermark) fn(active_[i]);
    }
  }

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
  /// band-agnostic and conservative under shadowing, so culling a
  /// non-audible transmission can never change an energy sum above the snap
  /// floor. Both execution paths apply exactly this predicate, and the
  /// cached audiences depend on it alone. Band overlap is a separate test at
  /// the receiver (phy::overlaps): energy_dbm and radios drop a disjoint
  /// transmission even when it is audible.
  [[nodiscard]] bool audible(const ActiveTransmission& tx, NodeId dst) const;

  /// Distance at which `tx_power_dbm` provably falls below the snap floor:
  /// inverts the mean path loss at snap_floor_dbm, pads by the provable
  /// shadowing bound (see DESIGN.md Sec. 12) and 5% slack. Infinite when the
  /// path-loss exponent is non-positive or a parameter is NaN (then nothing
  /// is ever culled).
  [[nodiscard]] double interference_radius_m(double tx_power_dbm) const;

  /// Total in-band energy at `rx` from all active transmissions except those
  /// originated by `exclude_src`, combined with the thermal noise floor of
  /// `rx_band`. This is what a CCA energy-detect or RSSI register reads. A
  /// transmission whose band misses `rx_band` adds nothing.
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
    /// Off the air, awaiting compaction: every loop over active_ skips it.
    bool ended = false;
    double radius2 = 0.0;         ///< audibility radius^2 for this power
    std::uint64_t watermark = 0;  ///< listener seq fence captured at begin
    std::int64_t ring = 0;        ///< window ring for this tx (indexed mode)
    /// Exact start audience (indexed mode): the audible bound listeners plus
    /// the globals, seq-sorted and all below `watermark`. The end edge
    /// replays it — plus any pins — so a listener that heard the start always
    /// hears the end. Storage comes from a pool, so steady state allocates
    /// nothing per tx. Detach scrubs it like `pinned`.
    std::vector<ListenerRef> audience;
    /// Bound listeners that became audible mid-flight: a mover that lands
    /// in range, and — when the *source* moves — everyone in range of its
    /// new position. They get the end edge on top of `audience`. Moves are
    /// rare, so this stays off the hot path.
    std::vector<ListenerRef> pinned;
  };

  /// An AudienceEntry epoch that never matches: rebuild before next use.
  static constexpr std::uint64_t kStaleEpoch =
      std::numeric_limits<std::uint64_t>::max();
  /// Cached exact start audience of (source node, tx power): the seq-sorted
  /// bound listeners within that power's interference radius of the source,
  /// plus the globals. Valid while `epoch` equals audience_epoch_. Attach
  /// and detach invalidate every entry by bumping the epoch; a move marks
  /// stale only the mover's own entries and those whose radius it crosses.
  struct AudienceEntry {
    double power_dbm = 0.0;
    double radius2 = 0.0;
    std::uint64_t epoch = kStaleEpoch;
    std::vector<ListenerRef> refs;
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
  /// Index of live transmission `id` in active_, or active_.size().
  [[nodiscard]] std::size_t live_index(TxId id) const {
    const auto it = std::lower_bound(
        active_.begin(), active_.end(), id,
        [](const ActiveTransmission& t, TxId v) { return t.id < v; });
    const auto i = static_cast<std::size_t>(it - active_.begin());
    return it != active_.end() && it->id == id && !tx_aux_[i].ended ? i : active_.size();
  }
  /// Drops ended entries from active_ and tx_aux_ in one order-preserving
  /// pass. Runs only from finish_tx, which no loop over either vector calls.
  void compact_active();
  [[nodiscard]] const NodeEntry& node(NodeId id) const;
  [[nodiscard]] const RadiusEntry& radius_entry(double tx_power_dbm) const;
  [[nodiscard]] static bool audible_at(double radius2, Position src, Position dst) {
    // radius2 is +inf when culling is impossible; any finite distance passes.
    return distance2(src, dst) <= radius2;
  }

  // --- listener fan-out ----------------------------------------------------
  //
  // Brute-force path: iterate the master slot list in attach (seq) order,
  // optionally fenced by a seq watermark. Indexed path: copy the cached
  // start audience (or, for moves, gather the bound listeners of every node
  // in the event's grid window plus the globals, sort by seq and dedupe)
  // into a reusable audience buffer, then invoke. Reentrancy (a callback
  // transmitting, attaching, detaching, adding nodes) is handled by never
  // holding references into mutable containers while user code runs:
  // audiences are snapshots, detach null-marks them in place.

  /// Notifies every listener with seq < watermark present when the loop
  /// starts, in attach order. Detached listeners are null-marked slots, so
  /// the loop skips them; once the outermost notification unwinds, the
  /// slots are compacted if more than half of them are dead.
  template <typename Fn>
  void notify_below(std::uint64_t watermark, Fn&& fn) {
    ++notify_depth_;
    const std::size_t n = listeners_.size();
    for (std::size_t i = 0; i < n; ++i) {
      const ListenerSlot& s = listeners_[i];
      if (s.listener != nullptr && s.seq < watermark) fn(s.listener);
    }
    if (--notify_depth_ == 0 && 2 * dead_listeners_ > listeners_.size()) {
      compact_listeners();
    }
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
    if (--notify_depth_ == 0 && 2 * dead_listeners_ > listeners_.size()) {
      compact_listeners();
    }
  }

  /// Drops the null-marked slots from listeners_ in one order-preserving
  /// pass. Runs only when no notification is walking listeners_.
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
  /// Appends to `out` the bound listeners of every node in the window whose
  /// position is within sqrt(radius2) of `src_pos`.
  void gather_audible_listeners(Position src_pos, CellCoord center, std::int64_t ring,
                                double radius2, std::vector<ListenerRef>& out) const;
  /// The exact start audience of a transmission from `src` at `tx_power_dbm`,
  /// rebuilt from the grid window when its cache entry is stale. The
  /// reference is valid until the next begin_tx.
  [[nodiscard]] const std::vector<ListenerRef>& start_audience(NodeId src,
                                                               double tx_power_dbm,
                                                               double radius2,
                                                               std::int64_t ring);
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
  std::vector<ActiveTransmission> active_;  ///< ascending by TxId, ended included
  std::vector<TxAux> tx_aux_;               ///< parallel to active_
  std::size_t ended_ = 0;                   ///< entries of active_ marked ended
  std::vector<ListenerSlot> listeners_;     ///< attach order, detached null-marked
  std::size_t dead_listeners_ = 0;          ///< null-marked slots in listeners_
  std::uint64_t next_listener_seq_ = 0;
  std::vector<ListenerRef> global_listeners_;
  std::vector<std::vector<ListenerRef>> node_listeners_;  ///< by NodeId
  std::vector<std::vector<AudienceEntry>> audience_cache_;  ///< by NodeId (indexed)
  std::uint64_t audience_epoch_ = 0;  ///< bumped by attach and detach
  std::vector<std::unique_ptr<std::vector<ListenerRef>>> audience_pool_;
  std::size_t audience_depth_ = 0;
  std::vector<std::vector<ListenerRef>> aux_audience_pool_;
  /// Monotone max of every active ring ever seen (seeded from
  /// tuning.max_tx_power_dbm): the position-change window.
  std::int64_t max_ring_ = 0;
  int notify_depth_ = 0;
  TxInterceptor* interceptor_ = nullptr;
  /// Airtime accumulators are dense (small enum / dense node ids): begin_tx
  /// bumps two of them per transmission, so no hashing on that path.
  std::array<Duration, kTechnologyCount> airtime_{};  ///< indexed by Technology
  std::vector<Duration> node_airtime_;  ///< indexed by NodeId
  mutable std::vector<LossCacheEntry> loss_cache_;
  mutable std::vector<std::pair<Band, double>> noise_mw_memo_;
  mutable std::vector<RadiusEntry> radius_memo_;
  TxId next_tx_id_ = 1;
};

}  // namespace bicord::phy

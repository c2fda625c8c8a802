#include "phy/medium.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

namespace bicord::phy {

Medium::Medium(sim::Simulator& sim, PathLossModel path_loss, MediumTuning tuning)
    : sim_(sim), path_loss_(path_loss), tuning_(tuning) {
  if (tuning_.spatial_index) {
    double cell = tuning_.cell_size_m;
    if (!(cell > 0.0)) {
      // Roughly a third of the maximum interference radius keeps windows at
      // ring 5 (11x11 cells) while buckets stay coarse enough to hold a
      // workable number of nodes. An unbounded radius (exponent <= 0) falls
      // back to an arbitrary cell: every window clamps to the occupied
      // bounding box anyway, so the choice only affects constant factors.
      const double r = interference_radius_m(tuning_.max_tx_power_dbm);
      cell = std::isfinite(r) ? std::max(r / 3.0, 1e-3) : 50.0;
    }
    index_ = std::make_unique<SpatialIndex>(cell);
    max_ring_ = index_->ring_for(interference_radius_m(tuning_.max_tx_power_dbm));
  }
}

NodeId Medium::add_node(std::string name, Position pos) {
  nodes_.push_back(NodeEntry{std::move(name), pos});
  node_airtime_.push_back(Duration::zero());
  node_listeners_.emplace_back();
  node_active_tx_.emplace_back();
  const auto id = static_cast<NodeId>(nodes_.size() - 1);
  if (index_ != nullptr) index_->add_node(id, pos);
  return id;
}

const Medium::NodeEntry& Medium::node(NodeId id) const {
  if (id >= nodes_.size()) throw std::out_of_range("Medium: unknown node id");
  return nodes_[id];
}

void Medium::set_position(NodeId id, Position pos) {
  if (id >= nodes_.size()) throw std::out_of_range("Medium: unknown node id");
  nodes_[id].pos = pos;
  // Distances changed: every cached link loss involving any node is suspect.
  // Moves are rare (mobility period >> sample period), so a full flush is
  // cheaper than per-node bookkeeping. assign() keeps the slot storage.
  loss_cache_.assign(loss_cache_.size(), LossCacheEntry{});
  if (index_ == nullptr) {
    notify([id](MediumListener* l) { l->on_position_change(id); });
    return;
  }
  const CellCoord old_cell = index_->cell_of_node(id);
  if (index_->move_node(id, pos)) {
    // The mover's bound listeners may have left the start window of active
    // transmissions they tracked: pin them so end edges still reach them.
    // Over-pinning is harmless — end audiences dedupe and watermark-filter.
    if (!node_listeners_[id].empty()) {
      for (auto& aux : tx_aux_) {
        aux.pinned.insert(aux.pinned.end(), node_listeners_[id].begin(),
                          node_listeners_[id].end());
      }
    }
    // Transmissions sourced at the mover carry their audible footprint with
    // them. Listeners near the *old* cell are already in the start-audience
    // snapshot; pin everyone reachable from the new cell so observers the
    // transmission just became audible to get its end edge too.
    const CellCoord new_cell = index_->cell_of_node(id);
    for (const TxId t : node_active_tx_[id]) {
      for (std::size_t i = 0; i < active_.size(); ++i) {
        if (active_[i].id != t) continue;
        gather_window_listeners(new_cell, tx_aux_[i].ring, tx_aux_[i].pinned);
        tx_aux_[i].start_cell = new_cell;
        break;
      }
    }
  }
  // Only links sourced at the mover change readings, so every listener whose
  // observations can shift sits within the maximum ring of the mover's old
  // or new cell (including the mover's own listeners). Globals always hear.
  const CellCoord new_cell = index_->cell_of_node(id);
  auto& audience = acquire_audience();
  audience.clear();
  gather_window_listeners(old_cell, max_ring_, audience);
  if (!(new_cell == old_cell)) gather_window_listeners(new_cell, max_ring_, audience);
  audience.insert(audience.end(), global_listeners_.begin(), global_listeners_.end());
  finalize_audience(audience);
  notify_audience(audience, [id](MediumListener* l) { l->on_position_change(id); });
  release_audience();
}

Position Medium::position(NodeId id) const { return node(id).pos; }

const std::string& Medium::node_name(NodeId id) const { return node(id).name; }

void Medium::attach(MediumListener* listener) { attach(listener, kInvalidNode); }

void Medium::attach(MediumListener* listener, NodeId node) {
  if (listener == nullptr) throw std::invalid_argument("Medium::attach: null listener");
  if (node != kInvalidNode && node >= nodes_.size()) {
    throw std::invalid_argument("Medium::attach: unknown node id");
  }
  const std::uint64_t seq = next_listener_seq_++;
  listeners_.push_back(ListenerSlot{listener, seq, node});
  if (node == kInvalidNode) {
    global_listeners_.push_back(ListenerRef{listener, seq});
  } else {
    node_listeners_[node].push_back(ListenerRef{listener, seq});
  }
}

void Medium::detach(MediumListener* listener) {
  const auto scrub = [listener](std::vector<ListenerRef>& v) {
    v.erase(std::remove_if(v.begin(), v.end(),
                           [listener](const ListenerRef& r) {
                             return r.listener == listener;
                           }),
            v.end());
  };
  // Side structures are only read while audiences are being built (never
  // while user code runs), so direct erasure is safe even mid-notification.
  for (const ListenerSlot& s : listeners_) {
    if (s.listener != listener) continue;
    if (s.bound == kInvalidNode) {
      scrub(global_listeners_);
    } else {
      scrub(node_listeners_[s.bound]);
    }
  }
  for (auto& aux : tx_aux_) {
    if (!aux.audience.empty()) scrub(aux.audience);
    if (!aux.pinned.empty()) scrub(aux.pinned);
  }
  // In-flight audiences are snapshots: null-mark so their loops skip it.
  for (std::size_t i = 0; i < audience_depth_; ++i) {
    for (ListenerRef& r : *audience_pool_[i]) {
      if (r.listener == listener) r.listener = nullptr;
    }
  }
  if (notify_depth_ > 0) {
    // Mid-notification: null-mark so the running loop skips it; the slot is
    // compacted when the outermost notify() unwinds.
    for (ListenerSlot& s : listeners_) {
      if (s.listener == listener) {
        s.listener = nullptr;
        listeners_dirty_ = true;
      }
    }
    return;
  }
  listeners_.erase(std::remove_if(listeners_.begin(), listeners_.end(),
                                  [listener](const ListenerSlot& s) {
                                    return s.listener == listener;
                                  }),
                   listeners_.end());
}

void Medium::compact_listeners() {
  listeners_.erase(std::remove_if(listeners_.begin(), listeners_.end(),
                                  [](const ListenerSlot& s) {
                                    return s.listener == nullptr;
                                  }),
                   listeners_.end());
  listeners_dirty_ = false;
}

std::vector<Medium::ListenerRef>& Medium::acquire_audience() {
  if (audience_depth_ == audience_pool_.size()) {
    audience_pool_.push_back(std::make_unique<std::vector<ListenerRef>>());
  }
  return *audience_pool_[audience_depth_++];
}

void Medium::gather_window_listeners(CellCoord center, std::int64_t ring,
                                     std::vector<ListenerRef>& out) const {
  index_->for_each_in_window(center, ring, [this, &out](NodeId n) {
    const auto& refs = node_listeners_[n];
    out.insert(out.end(), refs.begin(), refs.end());
  });
}

void Medium::finalize_audience(std::vector<ListenerRef>& audience) {
  std::sort(audience.begin(), audience.end(),
            [](const ListenerRef& a, const ListenerRef& b) { return a.seq < b.seq; });
  audience.erase(std::unique(audience.begin(), audience.end(),
                             [](const ListenerRef& a, const ListenerRef& b) {
                               return a.seq == b.seq;
                             }),
                 audience.end());
}

const Medium::RadiusEntry& Medium::radius_entry(double tx_power_dbm) const {
  for (const auto& e : radius_memo_) {
    if (e.power_dbm == tx_power_dbm) return e;
  }
  const double r = interference_radius_m(tx_power_dbm);
  radius_memo_.push_back(RadiusEntry{tx_power_dbm, r, r * r});
  return radius_memo_.back();
}

double Medium::interference_radius_m(double tx_power_dbm) const {
  if (path_loss_.exponent <= 0.0) return std::numeric_limits<double>::infinity();
  // Provable bound on |shadowing_db| / sigma: PathLossModel::shadowing_db
  // clamps the Box-Muller uniform at u1 >= 2^-53, so |z| <= sqrt(2*53*ln 2)
  // ~= 8.5718; 9 sigma is therefore strictly outside every possible draw.
  constexpr double kShadowingZBound = 9.0;
  const double margin_db = path_loss_.shadowing_sigma_db > 0.0
                               ? kShadowingZBound * path_loss_.shadowing_sigma_db
                               : 0.0;
  const double excess_db =
      tx_power_dbm + margin_db - path_loss_.pl_d0_db - tuning_.snap_floor_dbm;
  // 5% slack (~0.2 dB at exponent 3) keeps the cut strictly conservative
  // against FP rounding in mean_loss_db; band-overlap attenuation (>= 0) is
  // conservatively ignored. Overflowing pow lands on +inf = never cull.
  return 1.05 * std::pow(10.0, excess_db / (10.0 * path_loss_.exponent));
}

bool Medium::audible(const ActiveTransmission& tx, NodeId dst) const {
  return audible_at(radius_entry(tx.tx_power_dbm).radius2, node(tx.frame.src).pos,
                    node(dst).pos);
}

TxId Medium::begin_tx(const Frame& frame, Band band, double tx_power_dbm,
                      Duration duration) {
  if (frame.src >= nodes_.size()) {
    throw std::invalid_argument("Medium::begin_tx: frame.src is not a registered node");
  }
  if (duration <= Duration::zero()) {
    throw std::invalid_argument("Medium::begin_tx: non-positive duration");
  }
  ActiveTransmission tx;
  tx.id = next_tx_id_++;
  tx.frame = frame;
  tx.band = band;
  tx.tx_power_dbm = tx_power_dbm;
  tx.start = sim_.now();
  tx.end = sim_.now() + duration;
  if (interceptor_ != nullptr) {
    switch (interceptor_->intercept(tx)) {
      case TxVerdict::Deliver:
        break;
      case TxVerdict::Corrupt:
        tx.fault_corrupted = true;
        break;
      case TxVerdict::Drop:
        tx.fault_dropped = true;
        break;
    }
  }
  TxAux aux;
  const RadiusEntry& re = radius_entry(tx_power_dbm);
  aux.radius2 = re.radius2;
  aux.watermark = next_listener_seq_;
  if (index_ != nullptr) {
    aux.start_cell = index_->cell_of_node(frame.src);
    aux.ring = index_->ring_for(re.radius_m);
    if (aux.ring > max_ring_) max_ring_ = aux.ring;
  }
  active_.push_back(tx);
  tx_aux_.push_back(std::move(aux));
  node_active_tx_[frame.src].push_back(tx.id);

  airtime_[static_cast<std::size_t>(frame.tech)] += duration;
  node_airtime_[frame.src] += duration;

  if (index_ == nullptr) {
    notify([&tx](MediumListener* l) { l->on_tx_start(tx); });
  } else {
    // Snapshot before callbacks run: nested begin_tx may grow tx_aux_.
    const CellCoord cell = tx_aux_.back().start_cell;
    const std::int64_t ring = tx_aux_.back().ring;
    auto& audience = acquire_audience();
    audience.clear();
    gather_window_listeners(cell, ring, audience);
    audience.insert(audience.end(), global_listeners_.begin(), global_listeners_.end());
    finalize_audience(audience);
    // Save the finalized start audience for the end edge (every ref has
    // seq < watermark by construction). Must happen before callbacks run:
    // a callback may detach (which scrubs saved audiences) or transmit
    // (which may reallocate tx_aux_).
    std::vector<ListenerRef> snap = acquire_aux_audience();
    snap.assign(audience.begin(), audience.end());
    tx_aux_.back().audience = std::move(snap);
    notify_audience(audience, [&tx](MediumListener* l) { l->on_tx_start(tx); });
    release_audience();
  }

  const TxId id = tx.id;
  sim_.at(tx.end, [this, id] { finish_tx(id); });
  return id;
}

void Medium::finish_tx(TxId id) {
  const auto it = std::find_if(active_.begin(), active_.end(),
                               [id](const ActiveTransmission& t) { return t.id == id; });
  if (it == active_.end()) return;  // defensive: already removed
  const auto i = static_cast<std::size_t>(it - active_.begin());
  const ActiveTransmission tx = *it;
  TxAux aux = std::move(tx_aux_[i]);
  active_.erase(it);
  tx_aux_.erase(tx_aux_.begin() + static_cast<std::ptrdiff_t>(i));
  auto& src_list = node_active_tx_[tx.frame.src];
  src_list.erase(std::find(src_list.begin(), src_list.end(), id));

  if (index_ == nullptr) {
    // The watermark fence means a listener attached mid-flight never sees an
    // end edge without its start — exactly what the indexed path delivers.
    notify_below(aux.watermark, [&tx](MediumListener* l) { l->on_tx_end(tx); });
    return;
  }
  // Replay the saved start audience instead of re-walking the grid window:
  // everything that heard the start is in it, detach scrubbed anyone who
  // left, and mid-flight movers (in either direction, including a moving
  // source) were pinned by set_position. Pins may duplicate saved refs or
  // carry post-watermark seqs; the filter + finalize pass absorbs both.
  auto& audience = acquire_audience();
  audience.clear();
  audience.insert(audience.end(), aux.audience.begin(), aux.audience.end());
  audience.insert(audience.end(), aux.pinned.begin(), aux.pinned.end());
  audience.erase(std::remove_if(audience.begin(), audience.end(),
                                [&aux](const ListenerRef& r) {
                                  return r.seq >= aux.watermark;
                                }),
                 audience.end());
  finalize_audience(audience);
  notify_audience(audience, [&tx](MediumListener* l) { l->on_tx_end(tx); });
  release_audience();
  release_aux_audience(std::move(aux.audience));
}

namespace {
/// 64-bit finalizer (murmur3) — spreads node ids and band bit patterns.
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

std::uint64_t band_bits(Band b) {
  std::uint64_t c = 0;
  std::uint64_t w = 0;
  static_assert(sizeof(double) == sizeof(std::uint64_t));
  std::memcpy(&c, &b.center_mhz, sizeof(c));
  std::memcpy(&w, &b.width_mhz, sizeof(w));
  // Distinct odd multipliers keep (center, width) and the two band operands
  // from cancelling under xor; the single mix64 at the end does the real
  // avalanche work.
  return c * 0x9e3779b97f4a7c15ULL + w * 0xc2b2ae3d27d4eb4fULL;
}
}  // namespace

double Medium::link_loss_db(NodeId src, Band tx_band, NodeId dst, Band rx_band) const {
  if (src >= nodes_.size() || dst >= nodes_.size()) {
    // throws for the unknown node (and dst below if src is fine)
    static_cast<void>(node(src));
    static_cast<void>(node(dst));
  }
  if (loss_cache_.empty()) loss_cache_.resize(kLossCacheSlots);
  const std::uint64_t h =
      mix64(((static_cast<std::uint64_t>(src) << 32) | dst) ^ band_bits(tx_band) ^
            (band_bits(rx_band) << 1));
  const std::uint64_t tag = h | 1;  // low bit set: 0 stays the empty marker
  LossCacheEntry& e = loss_cache_[(h >> 1) & (kLossCacheSlots - 1)];
  if (e.tag == tag) return e.loss_db;
  const double d = distance(node(src).pos, node(dst).pos);
  // Link key is direction-independent so A->B and B->A shadow identically.
  const std::uint64_t lo = std::min(src, dst);
  const std::uint64_t hi = std::max(src, dst);
  const std::uint64_t link_key = (lo << 32) | hi;
  const double loss = path_loss_.mean_loss_db(d) + path_loss_.shadowing_db(link_key) +
                      overlap_loss_db(tx_band, rx_band);
  e = LossCacheEntry{tag, loss};
  return loss;
}

double Medium::rx_power_dbm(NodeId src, double tx_power_dbm, Band tx_band, NodeId dst,
                            Band rx_band) const {
  const double p = tx_power_dbm - link_loss_db(src, tx_band, dst, rx_band);
  return p < kFloorDbm ? kFloorDbm : p;
}

double Medium::rx_power_dbm(const ActiveTransmission& tx, NodeId dst, Band rx_band) const {
  return rx_power_dbm(tx.frame.src, tx.tx_power_dbm, tx.band, dst, rx_band);
}

double Medium::noise_floor_mw(Band band) const {
  for (const auto& [b, mw] : noise_mw_memo_) {
    if (b == band) return mw;
  }
  const double mw = dbm_to_mw(noise_floor_dbm(band));
  noise_mw_memo_.emplace_back(band, mw);
  return mw;
}

double Medium::energy_dbm(NodeId rx, Band rx_band, NodeId exclude_src) const {
  double acc_mw = noise_floor_mw(rx_band);
  if (active_.empty()) return mw_to_dbm(acc_mw);
  const Position rx_pos = node(rx).pos;
  // Below the crossover the linear scan touches fewer cache lines than the
  // window does cell probes, so take it even when indexed: it visits a
  // superset of the window's candidates in the same ascending-TxId order
  // with the same skip chain, hence bitwise-identical sums.
  const std::size_t window_probes =
      static_cast<std::size_t>(2 * std::min<std::int64_t>(max_ring_, 128) + 1) *
      static_cast<std::size_t>(2 * std::min<std::int64_t>(max_ring_, 128) + 1);
  if (index_ == nullptr || active_.size() <= window_probes) {
    for (std::size_t i = 0; i < active_.size(); ++i) {
      const ActiveTransmission& tx = active_[i];
      if (tx.frame.src == rx || tx.frame.src == exclude_src) continue;
      if (tx.fault_dropped) continue;  // invisible to every other node
      if (!audible_at(tx_aux_[i].radius2, nodes_[tx.frame.src].pos, rx_pos)) continue;
      acc_mw += dbm_to_mw(rx_power_dbm(tx, rx, rx_band));
    }
    return mw_to_dbm(acc_mw);
  }
  // Gather candidate transmissions from the grid neighborhood. Sorting by
  // TxId recreates the exact iteration (and therefore FP summation) order of
  // the brute-force loop — active_ is ascending by id — and the dedupe
  // guards against a window visiting a bucket twice.
  energy_scratch_.clear();
  index_->for_each_in_window(index_->cell_of_node(rx), max_ring_, [this](NodeId n) {
    const auto& txs = node_active_tx_[n];
    energy_scratch_.insert(energy_scratch_.end(), txs.begin(), txs.end());
  });
  std::sort(energy_scratch_.begin(), energy_scratch_.end());
  energy_scratch_.erase(std::unique(energy_scratch_.begin(), energy_scratch_.end()),
                        energy_scratch_.end());
  std::size_t ai = 0;
  for (const TxId t : energy_scratch_) {
    while (ai < active_.size() && active_[ai].id < t) ++ai;
    if (ai == active_.size()) break;
    if (active_[ai].id != t) continue;
    const ActiveTransmission& tx = active_[ai];
    if (tx.frame.src == rx || tx.frame.src == exclude_src) continue;
    if (tx.fault_dropped) continue;  // invisible to every other node
    if (!audible_at(tx_aux_[ai].radius2, nodes_[tx.frame.src].pos, rx_pos)) continue;
    acc_mw += dbm_to_mw(rx_power_dbm(tx, rx, rx_band));
  }
  return mw_to_dbm(acc_mw);
}

double Medium::noise_floor_dbm(Band band) {
  if (band.width_mhz <= 0.0) throw std::invalid_argument("noise_floor_dbm: empty band");
  return -174.0 + 10.0 * std::log10(band.width_mhz * 1e6) + 6.0;
}

Duration Medium::airtime(Technology tech) const {
  const auto i = static_cast<std::size_t>(tech);
  return i < airtime_.size() ? airtime_[i] : Duration::zero();
}

Duration Medium::airtime_of(NodeId node_id) const {
  return node_id < node_airtime_.size() ? node_airtime_[node_id] : Duration::zero();
}

}  // namespace bicord::phy

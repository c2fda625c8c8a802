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
    // Roughly a third of the maximum interference radius keeps windows at
    // ring 5 (11x11 cells) while buckets stay coarse enough to hold a
    // workable number of nodes. An unbounded radius (exponent <= 0) falls
    // back to an arbitrary cell: every window clamps to the occupied
    // bounding box anyway, so the choice only affects constant factors.
    const double r = interference_radius_m(tuning_.max_tx_power_dbm);
    const double cell = std::isfinite(r) ? std::max(r / 3.0, kMinCellM) : 50.0;
    index_ = std::make_unique<SpatialIndex>(cell);
    max_ring_ = index_->ring_for(r);
  }
}

NodeId Medium::add_node(std::string name, Position pos) {
  nodes_.push_back(NodeEntry{std::move(name), pos});
  node_airtime_.push_back(Duration::zero());
  node_listeners_.emplace_back();
  const auto id = static_cast<NodeId>(nodes_.size() - 1);
  if (index_ != nullptr) {
    index_->add_node(id, pos);
    audience_cache_.emplace_back();
  }
  return id;
}

const Medium::NodeEntry& Medium::node(NodeId id) const {
  if (id >= nodes_.size()) throw std::out_of_range("Medium: unknown node id");
  return nodes_[id];
}

void Medium::set_position(NodeId id, Position pos) {
  if (id >= nodes_.size()) throw std::out_of_range("Medium: unknown node id");
  const Position old_pos = nodes_[id].pos;
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
  index_->move_node(id, pos);
  const CellCoord new_cell = index_->cell_of_node(id);
  for (AudienceEntry& e : audience_cache_[id]) e.epoch = kStaleEpoch;
  // Start audiences are exact, so a listener that comes into range of an
  // active transmission mid-flight is in no saved audience: pin it for the
  // end edge. That holds for any move, even one inside a single grid cell.
  // A moving source carries its footprint: pin every listener now in range
  // of its new position. Over-pinning is harmless — end audiences dedupe
  // and watermark-filter.
  const std::vector<ListenerRef>& mover_refs = node_listeners_[id];
  for (std::size_t i = 0; i < active_.size(); ++i) {
    TxAux& aux = tx_aux_[i];
    if (aux.ended) continue;
    const NodeId src = active_[i].frame.src;
    if (src == id) {
      gather_audible_listeners(pos, new_cell, aux.ring, aux.radius2, aux.pinned);
    } else if (!mover_refs.empty() && audible_at(aux.radius2, nodes_[src].pos, pos)) {
      aux.pinned.insert(aux.pinned.end(), mover_refs.begin(), mover_refs.end());
    }
  }
  // Only links sourced at the mover change readings, so every listener whose
  // observations can shift sits within the maximum ring of the mover's old
  // or new cell (including the mover's own listeners). Globals always hear.
  // The same windows hold every source whose cached audience the mover's
  // listeners can enter or leave (every entry's ring is <= max_ring_), so
  // the walk also marks stale the entries whose radius the mover crossed.
  auto& audience = acquire_audience();
  audience.clear();
  const auto visit = [&](NodeId n) {
    const std::vector<ListenerRef>& refs = node_listeners_[n];
    audience.insert(audience.end(), refs.begin(), refs.end());
    if (mover_refs.empty() || n == id) return;
    const Position src_pos = nodes_[n].pos;
    for (AudienceEntry& e : audience_cache_[n]) {
      const bool was_in = audible_at(e.radius2, src_pos, old_pos);
      if (was_in != audible_at(e.radius2, src_pos, pos)) e.epoch = kStaleEpoch;
    }
  };
  index_->for_each_in_window(old_cell, max_ring_, visit);
  if (!(new_cell == old_cell)) index_->for_each_in_window(new_cell, max_ring_, visit);
  audience.insert(audience.end(), global_listeners_.begin(), global_listeners_.end());
  finalize_audience(audience);
  notify_audience(audience, [id](MediumListener* l) { l->on_position_change(id); });
  release_audience();
}

Position Medium::position(NodeId id) const { return node(id).pos; }

const std::string& Medium::node_name(NodeId id) const { return node(id).name; }

std::uint64_t Medium::attach(MediumListener* listener) {
  return attach(listener, kInvalidNode);
}

std::uint64_t Medium::attach(MediumListener* listener, NodeId node) {
  if (listener == nullptr) throw std::invalid_argument("Medium::attach: null listener");
  if (node != kInvalidNode && node >= nodes_.size()) {
    throw std::invalid_argument("Medium::attach: unknown node id");
  }
  const std::uint64_t seq = next_listener_seq_++;
  ++audience_epoch_;
  listeners_.push_back(ListenerSlot{listener, seq, node});
  if (node == kInvalidNode) {
    global_listeners_.push_back(ListenerRef{listener, seq});
  } else {
    node_listeners_[node].push_back(ListenerRef{listener, seq});
  }
  return seq;
}

void Medium::detach(MediumListener* listener) {
  if (listener == nullptr) return;  // would match the dead slots
  const auto scrub = [listener](std::vector<ListenerRef>& v) {
    v.erase(std::remove_if(v.begin(), v.end(),
                           [listener](const ListenerRef& r) {
                             return r.listener == listener;
                           }),
            v.end());
  };
  // Side structures are only read while audiences are being built (never
  // while user code runs), so direct erasure is safe even mid-notification.
  // The slot itself is null-marked, so a running notify_below skips it.
  ++audience_epoch_;
  for (ListenerSlot& s : listeners_) {
    if (s.listener != listener) continue;
    scrub(s.bound == kInvalidNode ? global_listeners_ : node_listeners_[s.bound]);
    s.listener = nullptr;
    ++dead_listeners_;
  }
  for (auto& aux : tx_aux_) {
    if (aux.ended) continue;
    if (!aux.audience.empty()) scrub(aux.audience);
    if (!aux.pinned.empty()) scrub(aux.pinned);
  }
  // In-flight audiences are snapshots: null-mark so their loops skip it.
  for (std::size_t i = 0; i < audience_depth_; ++i) {
    for (ListenerRef& r : *audience_pool_[i]) {
      if (r.listener == listener) r.listener = nullptr;
    }
  }
  if (notify_depth_ == 0 && 2 * dead_listeners_ > listeners_.size()) compact_listeners();
}

void Medium::compact_listeners() {
  listeners_.erase(std::remove_if(listeners_.begin(), listeners_.end(),
                                  [](const ListenerSlot& s) {
                                    return s.listener == nullptr;
                                  }),
                   listeners_.end());
  dead_listeners_ = 0;
}

std::vector<Medium::ListenerRef>& Medium::acquire_audience() {
  if (audience_depth_ == audience_pool_.size()) {
    audience_pool_.push_back(std::make_unique<std::vector<ListenerRef>>());
  }
  return *audience_pool_[audience_depth_++];
}

void Medium::gather_audible_listeners(Position src_pos, CellCoord center,
                                      std::int64_t ring, double radius2,
                                      std::vector<ListenerRef>& out) const {
  index_->for_each_in_window(center, ring, [&](NodeId n) {
    const auto& refs = node_listeners_[n];
    if (refs.empty() || !audible_at(radius2, src_pos, nodes_[n].pos)) return;
    out.insert(out.end(), refs.begin(), refs.end());
  });
}

const std::vector<Medium::ListenerRef>& Medium::start_audience(NodeId src,
                                                               double tx_power_dbm,
                                                               double radius2,
                                                               std::int64_t ring) {
  std::vector<AudienceEntry>& entries = audience_cache_[src];
  auto it = std::find_if(entries.begin(), entries.end(),
                         [tx_power_dbm](const AudienceEntry& e) {
                           return e.power_dbm == tx_power_dbm;
                         });
  if (it == entries.end()) {
    entries.push_back(AudienceEntry{tx_power_dbm, radius2, kStaleEpoch, {}});
    it = entries.end() - 1;
  }
  if (it->epoch != audience_epoch_) {
    it->refs.clear();
    gather_audible_listeners(nodes_[src].pos, index_->cell_of_node(src), ring, radius2,
                             it->refs);
    it->refs.insert(it->refs.end(), global_listeners_.begin(), global_listeners_.end());
    finalize_audience(it->refs);
    it->epoch = audience_epoch_;
  }
  return it->refs;
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
  // conservatively ignored. Overflowing pow lands on +inf = never cull, and
  // so does a NaN parameter: a NaN radius would fail every distance test,
  // the sender's own (distance 0) included.
  const double r = 1.05 * std::pow(10.0, excess_db / (10.0 * path_loss_.exponent));
  return std::isnan(r) ? std::numeric_limits<double>::infinity() : r;
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
  if (std::isnan(tx_power_dbm)) {
    throw std::invalid_argument("Medium::begin_tx: NaN tx power");
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
    aux.ring = index_->ring_for(re.radius_m);
    if (aux.ring > max_ring_) max_ring_ = aux.ring;
  }
  const double radius2 = aux.radius2;
  const std::int64_t ring = aux.ring;
  active_.push_back(tx);
  tx_aux_.push_back(std::move(aux));

  airtime_[static_cast<std::size_t>(frame.tech)] += duration;
  node_airtime_[frame.src] += duration;

  if (index_ == nullptr) {
    notify([&tx](MediumListener* l) { l->on_tx_start(tx); });
  } else {
    // Copy the cached audience twice before callbacks run: once to notify
    // (detach null-marks pooled buffers), once as the snapshot the end edge
    // replays (every ref has seq < watermark). A callback may detach, which
    // scrubs saved audiences, or transmit, which may reallocate tx_aux_ and
    // rebuild cache entries.
    const std::vector<ListenerRef>& cached =
        start_audience(frame.src, tx_power_dbm, radius2, ring);
    auto& audience = acquire_audience();
    audience.assign(cached.begin(), cached.end());
    std::vector<ListenerRef> snap = acquire_aux_audience();
    snap.assign(cached.begin(), cached.end());
    tx_aux_.back().audience = std::move(snap);
    notify_audience(audience, [&tx](MediumListener* l) { l->on_tx_start(tx); });
    release_audience();
  }

  const TxId id = tx.id;
  sim_.at(tx.end, [this, id] { finish_tx(id); });
  return id;
}

void Medium::finish_tx(TxId id) {
  const std::size_t i = live_index(id);
  if (i == active_.size()) return;  // defensive: already removed
  const ActiveTransmission tx = active_[i];
  // Moving out leaves the entry's audience and pin storage empty; the entry
  // itself stays as a tombstone until more than half the vector has ended.
  TxAux aux = std::move(tx_aux_[i]);
  tx_aux_[i].ended = true;
  if (2 * ++ended_ > active_.size()) compact_active();

  if (index_ == nullptr) {
    // The watermark fence means a listener attached mid-flight never sees an
    // end edge without its start — exactly what the indexed path delivers.
    notify_below(aux.watermark, [&tx](MediumListener* l) { l->on_tx_end(tx); });
    return;
  }
  // Replay the saved start audience: everything that heard the start is in
  // it, detach scrubbed anyone who left, and listeners that came into range
  // mid-flight (by their own move or the source's) were pinned by
  // set_position. Without pins the snapshot is already seq-sorted and below
  // the watermark, so it is swapped into the pooled buffer as it is. Pins
  // may duplicate saved refs or carry post-watermark seqs; the filter +
  // finalize pass absorbs both.
  auto& audience = acquire_audience();
  if (aux.pinned.empty()) {
    audience.swap(aux.audience);
  } else {
    audience.clear();
    audience.insert(audience.end(), aux.audience.begin(), aux.audience.end());
    audience.insert(audience.end(), aux.pinned.begin(), aux.pinned.end());
    audience.erase(std::remove_if(audience.begin(), audience.end(),
                                  [&aux](const ListenerRef& r) {
                                    return r.seq >= aux.watermark;
                                  }),
                   audience.end());
    finalize_audience(audience);
  }
  notify_audience(audience, [&tx](MediumListener* l) { l->on_tx_end(tx); });
  release_audience();
  release_aux_audience(std::move(aux.audience));
}

void Medium::compact_active() {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < active_.size(); ++i) {
    if (tx_aux_[i].ended) continue;
    if (kept != i) {
      active_[kept] = active_[i];
      tx_aux_[kept] = std::move(tx_aux_[i]);
    }
    ++kept;
  }
  const auto end = static_cast<std::ptrdiff_t>(kept);
  active_.erase(active_.begin() + end, active_.end());
  tx_aux_.erase(tx_aux_.begin() + end, tx_aux_.end());
  ended_ = 0;
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
  const Position rx_pos = node(rx).pos;
  for (std::size_t i = 0; i < active_.size(); ++i) {
    const TxAux& aux = tx_aux_[i];
    if (aux.ended) continue;
    const ActiveTransmission& tx = active_[i];
    if (tx.frame.src == rx || tx.frame.src == exclude_src) continue;
    if (tx.fault_dropped) continue;  // invisible to every other node
    if (!overlaps(tx.band, rx_band)) continue;
    if (!audible_at(aux.radius2, nodes_[tx.frame.src].pos, rx_pos)) continue;
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

// Reference-equivalence suite for the spatially-indexed medium.
//
// Two worlds run the same randomized script — same nodes, same transmissions,
// same moves, same listener churn — one on the brute-force Medium, one on the
// spatially-indexed Medium. Every energy query and rx-power probe must agree
// BITWISE (the index may only skip contributions the audibility predicate
// proves irrelevant, never change arithmetic), and the material notification
// streams (events audible at each bound listener, all events for globals)
// must be identical in content and order. DESIGN.md Sec. 12 documents why
// this holds by construction; this suite enforces it per seed across
// topology sizes from 10 to 1500 nodes, clustered and uniform placement,
// mobility (including sources that move mid-transmission, and sub-cell
// jitter across interference radii), band retunes, and listener
// attach/detach churn.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "coex/placement.hpp"
#include "phy/medium.hpp"
#include "phy/spectrum.hpp"
#include "phy/units.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace bicord::phy {
namespace {

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// Records the events material at its node: tx edges filtered by the shared
/// audibility predicate, moves filtered by the maximum interference radius.
/// Filtering at delivery time makes brute (which sees everything) and indexed
/// (which sees a superset of the material events) directly comparable: if the
/// indexed world ever culls a material event, its recorder's stream comes up
/// short; if both streams match, the superset difference was all no-ops.
struct BoundRecorder final : MediumListener {
  struct Ev {
    char kind;         // 'S' tx start, 'E' tx end, 'P' position change
    std::uint64_t id;  // tx id or moved node
  };

  Medium* medium = nullptr;
  NodeId node = kInvalidNode;
  double reach_m = 0.0;  ///< interference radius at the script's max power
  std::vector<Ev> evs;

  void on_tx_start(const ActiveTransmission& tx) override {
    if (medium->audible(tx, node)) evs.push_back({'S', tx.id});
  }
  void on_tx_end(const ActiveTransmission& tx) override {
    if (medium->audible(tx, node)) evs.push_back({'E', tx.id});
  }
  void on_position_change(NodeId moved) override {
    const Position self = medium->position(node);
    const Position other = medium->position(moved);
    if (distance2(self, other) <= reach_m * reach_m || moved == node) {
      evs.push_back({'P', moved});
    }
  }
};

/// Global listeners are promised the complete event stream in both modes, so
/// their recording carries no filter at all.
struct GlobalRecorder final : MediumListener {
  std::vector<BoundRecorder::Ev> evs;
  void on_tx_start(const ActiveTransmission& tx) override { evs.push_back({'S', tx.id}); }
  void on_tx_end(const ActiveTransmission& tx) override { evs.push_back({'E', tx.id}); }
  void on_position_change(NodeId moved) override { evs.push_back({'P', moved}); }
};

struct ScriptParams {
  std::size_t nodes = 50;
  int clusters = 0;          ///< 0 = uniform placement
  double area_m = 400.0;
  double shift_m = 0.0;  ///< added to both coordinates of every site
  double cluster_sigma_m = 40.0;
  double shadow_sigma_db = 0.0;
  double snap_floor_dbm = -97.0;
  double max_tx_power_dbm = 20.0;  ///< the medium's bound: sizes the grid cell
  int steps = 250;
  std::size_t bound_listeners = 40;  ///< capped at `nodes`
  int burst = 0;  ///< extra long-lived txes up front (a crowded air)
  double move_sigma_m = 8.0;    ///< per-axis jitter of a move
  double far_hop_share = 0.25;  ///< share of moves that first hop to a far site
  std::int64_t min_tx_us = 80;
  std::int64_t max_tx_us = 4000;
  /// Listener churn and node joins; without them (their steps advance time
  /// instead) cached audiences are invalidated only by moves.
  bool churn = true;
  std::uint64_t seed = 1;
};

Band band_for(int i) {
  switch (i % 5) {
    case 0: return zigbee_channel(11 + (i / 5) % 16);
    case 1: return wifi_channel(1);
    case 2: return wifi_channel(6);
    case 3: return wifi_channel(11);
    default: return zigbee_channel(26 - (i / 5) % 16);
  }
}

class World {
 public:
  World(const ScriptParams& p, const std::vector<Position>& sites, bool spatial)
      : sim_(p.seed) {
    PathLossModel pl;
    pl.exponent = 3.8;
    pl.shadowing_sigma_db = p.shadow_sigma_db;
    MediumTuning tuning;
    tuning.snap_floor_dbm = p.snap_floor_dbm;
    tuning.spatial_index = spatial;
    tuning.max_tx_power_dbm = p.max_tx_power_dbm;
    medium_ = std::make_unique<Medium>(sim_, pl, tuning);
    for (std::size_t i = 0; i < sites.size(); ++i) {
      medium_->add_node("n" + std::to_string(i), sites[i]);
    }
  }

  sim::Simulator sim_;
  std::unique_ptr<Medium> medium_;
  std::vector<std::unique_ptr<BoundRecorder>> bound_;
  GlobalRecorder global_;
};

void attach_recorder(World& w, NodeId node) {
  auto rec = std::make_unique<BoundRecorder>();
  rec->medium = w.medium_.get();
  rec->node = node;
  rec->reach_m = w.medium_->interference_radius_m(20.0);
  w.medium_->attach(rec.get(), node);
  w.bound_.push_back(std::move(rec));
}

/// Drives both worlds through one shared script (one Rng, identical draws)
/// and asserts bitwise/stream equality after every step.
void run_equivalence(const ScriptParams& p) {
  SCOPED_TRACE("nodes=" + std::to_string(p.nodes) + " clusters=" +
               std::to_string(p.clusters) + " seed=" + std::to_string(p.seed));
  coex::PlacementParams pp;
  pp.area_m = p.area_m;
  pp.clusters = p.clusters;
  pp.cluster_sigma_m = p.cluster_sigma_m;
  auto sites = coex::generate_placement(pp, p.nodes, p.seed * 31 + 7);
  for (auto& site : sites) site = Position{site.x + p.shift_m, site.y + p.shift_m};

  World brute(p, sites, false);
  World indexed(p, sites, true);
  ASSERT_FALSE(brute.medium_->spatially_indexed());
  ASSERT_TRUE(indexed.medium_->spatially_indexed());

  const std::size_t bound = std::min(p.bound_listeners, p.nodes);
  for (std::size_t i = 0; i < bound; ++i) {
    const auto node = static_cast<NodeId>((i * 13) % p.nodes);
    attach_recorder(brute, node);
    attach_recorder(indexed, node);
  }
  brute.medium_->attach(&brute.global_);
  indexed.medium_->attach(&indexed.global_);

  Rng rng(p.seed);
  auto node_count = p.nodes;

  const auto probe = [&](int step) {
    for (int k = 0; k < 3; ++k) {
      const auto rx =
          static_cast<NodeId>((static_cast<std::size_t>(step) * 7 + static_cast<std::size_t>(k) * 11) %
                              node_count);
      const Band band = band_for(step + k);
      const double eb = brute.medium_->energy_dbm(rx, band);
      const double ei = indexed.medium_->energy_dbm(rx, band);
      ASSERT_EQ(bits(eb), bits(ei))
          << "energy mismatch at step " << step << " rx=" << rx << ": brute=" << eb
          << " indexed=" << ei;
    }
    const auto src = static_cast<NodeId>(rng.uniform_int(0, static_cast<std::int64_t>(node_count) - 1));
    const auto dst = static_cast<NodeId>(rng.uniform_int(0, static_cast<std::int64_t>(node_count) - 1));
    const Band tb = band_for(step);
    const Band rb = band_for(step + 2);
    ASSERT_EQ(bits(brute.medium_->rx_power_dbm(src, 12.0, tb, dst, rb)),
              bits(indexed.medium_->rx_power_dbm(src, 12.0, tb, dst, rb)));
  };

  const auto begin_tx = [&](NodeId src, int bi, double power, Duration dur) {
    Frame f;
    f.tech = (bi % 5 == 0) ? Technology::ZigBee : Technology::WiFi;
    f.src = src;
    const Band band = band_for(bi);
    const TxId a = brute.medium_->begin_tx(f, band, power, dur);
    const TxId b = indexed.medium_->begin_tx(f, band, power, dur);
    ASSERT_EQ(a, b);
  };

  // Optional burst of long-lived transmissions: hundreds on the air at once,
  // so every energy probe sums a long in-flight list and every move pins
  // against many live transmissions.
  for (int i = 0; i < p.burst; ++i) {
    const auto src = static_cast<NodeId>((static_cast<std::size_t>(i) * 17) % node_count);
    begin_tx(src, i, i % 3 == 0 ? 20.0 : 5.0, Duration::from_ms(40 + i % 7));
  }

  for (int step = 0; step < p.steps; ++step) {
    const double roll = rng.uniform();
    if (roll < 0.45) {
      // Transmit: mixed powers hit several interference radii (per-power
      // rings); mixed bands exercise retuned receivers via the probes.
      const auto src = static_cast<NodeId>(rng.uniform_int(0, static_cast<std::int64_t>(node_count) - 1));
      const double power = 20.0 - 4.0 * static_cast<double>(step % 6);
      const Duration dur = Duration::from_us(rng.uniform_int(p.min_tx_us, p.max_tx_us));
      begin_tx(src, step, power, dur);
    } else if (roll < 0.70) {
      // Move: mostly local jitter, sometimes a hop to a far site — crossing
      // many grid cells while transmissions are in flight (pinning paths).
      const auto m = static_cast<NodeId>(rng.uniform_int(0, static_cast<std::int64_t>(node_count) - 1));
      Position pos = brute.medium_->position(m);
      if (rng.bernoulli(p.far_hop_share)) {
        pos = sites[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(p.nodes) - 1))];
      }
      pos.x += rng.normal(0.0, p.move_sigma_m);
      pos.y += rng.normal(0.0, p.move_sigma_m);
      brute.medium_->set_position(m, pos);
      indexed.medium_->set_position(m, pos);
    } else if (roll < 0.80 && p.churn) {
      // Listener churn: detach one bound recorder, attach a fresh one
      // (fresh attach seq — exercises the end-edge watermark fence).
      if (!brute.bound_.empty() && rng.bernoulli(0.5)) {
        const auto victim = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(brute.bound_.size()) - 1));
        brute.medium_->detach(brute.bound_[victim].get());
        indexed.medium_->detach(indexed.bound_[victim].get());
        ASSERT_EQ(brute.bound_[victim]->evs.size(), indexed.bound_[victim]->evs.size());
        brute.bound_.erase(brute.bound_.begin() + static_cast<std::ptrdiff_t>(victim));
        indexed.bound_.erase(indexed.bound_.begin() + static_cast<std::ptrdiff_t>(victim));
      } else {
        const auto node =
            static_cast<NodeId>(rng.uniform_int(0, static_cast<std::int64_t>(node_count) - 1));
        attach_recorder(brute, node);
        attach_recorder(indexed, node);
      }
    } else if (roll < 0.85 && p.churn) {
      // Node join mid-run, immediately active.
      Position pos = sites[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(p.nodes) - 1))];
      pos.x += 1.5;
      const NodeId a = brute.medium_->add_node("j", pos);
      const NodeId b = indexed.medium_->add_node("j", pos);
      ASSERT_EQ(a, b);
      node_count = brute.medium_->node_count();
      attach_recorder(brute, a);
      attach_recorder(indexed, b);
      begin_tx(a, step, 10.0, Duration::from_us(500));
    } else {
      const Duration dt = Duration::from_us(rng.uniform_int(100, 2500));
      brute.sim_.run_for(dt);
      indexed.sim_.run_for(dt);
      ASSERT_EQ(brute.sim_.now().us(), indexed.sim_.now().us());
    }
    ASSERT_EQ(brute.medium_->active_count(), indexed.medium_->active_count());
    probe(step);
  }

  // Drain every scheduled end event, then compare the recorded streams.
  brute.sim_.run_for(Duration::from_ms(200));
  indexed.sim_.run_for(Duration::from_ms(200));
  ASSERT_EQ(brute.medium_->active_count(), 0u);
  ASSERT_EQ(indexed.medium_->active_count(), 0u);

  ASSERT_EQ(brute.bound_.size(), indexed.bound_.size());
  for (std::size_t i = 0; i < brute.bound_.size(); ++i) {
    const auto& eb = brute.bound_[i]->evs;
    const auto& ei = indexed.bound_[i]->evs;
    ASSERT_EQ(eb.size(), ei.size()) << "bound listener " << i << " at node "
                                    << brute.bound_[i]->node;
    for (std::size_t k = 0; k < eb.size(); ++k) {
      ASSERT_EQ(eb[k].kind, ei[k].kind) << "listener " << i << " event " << k;
      ASSERT_EQ(eb[k].id, ei[k].id) << "listener " << i << " event " << k;
    }
    brute.medium_->detach(brute.bound_[i].get());
    indexed.medium_->detach(indexed.bound_[i].get());
  }
  // Vacuousness guard: the script must actually have produced traffic.
  ASSERT_GT(brute.global_.evs.size(), static_cast<std::size_t>(p.steps));
  ASSERT_EQ(brute.global_.evs.size(), indexed.global_.evs.size());
  for (std::size_t k = 0; k < brute.global_.evs.size(); ++k) {
    ASSERT_EQ(brute.global_.evs[k].kind, indexed.global_.evs[k].kind) << "global event " << k;
    ASSERT_EQ(brute.global_.evs[k].id, indexed.global_.evs[k].id) << "global event " << k;
  }
  brute.medium_->detach(&brute.global_);
  indexed.medium_->detach(&indexed.global_);

  // Airtime bookkeeping is shared arithmetic, but assert it anyway: a culled
  // begin_tx would show up here first.
  ASSERT_EQ(brute.medium_->airtime(Technology::WiFi).us(),
            indexed.medium_->airtime(Technology::WiFi).us());
  ASSERT_EQ(brute.medium_->airtime(Technology::ZigBee).us(),
            indexed.medium_->airtime(Technology::ZigBee).us());
}

TEST(MediumEquivalence, TinyUniform) {
  ScriptParams p;
  p.nodes = 10;
  p.area_m = 120.0;
  p.steps = 300;
  p.bound_listeners = 10;
  p.seed = 11;
  run_equivalence(p);
}

TEST(MediumEquivalence, SmallClusteredWithShadowing) {
  ScriptParams p;
  p.nodes = 60;
  p.clusters = 4;
  p.area_m = 500.0;
  p.cluster_sigma_m = 30.0;
  p.shadow_sigma_db = 3.0;  // radius picks up the 9-sigma margin
  p.steps = 300;
  p.seed = 22;
  run_equivalence(p);
}

TEST(MediumEquivalence, MidClusteredDefaultSnapNeverCulls) {
  // At the permissive default floor the derived radius dwarfs the field, so
  // the indexed path must degenerate to exactly the brute-force behavior.
  ScriptParams p;
  p.nodes = 120;
  p.clusters = 6;
  p.area_m = 300.0;
  p.snap_floor_dbm = -120.0;
  p.steps = 200;
  p.seed = 33;
  run_equivalence(p);
}

TEST(MediumEquivalence, MidUniformSmallCellsMergePath) {
  // A 13.5 dBm bound derives ~25 m cells instead of 20 dBm's ~37 m, so
  // audiences are gathered over more, smaller cells, and the script's 16
  // and 20 dBm transmissions exceed the bound, ratcheting the window ring.
  // The burst, led by a 20 dBm transmission, ratchets it before the first
  // move, and keeps 220 long transmissions on the air.
  ScriptParams p;
  p.nodes = 250;
  p.area_m = 900.0;
  p.max_tx_power_dbm = 13.5;
  p.burst = 220;
  p.steps = 200;
  p.seed = 44;
  run_equivalence(p);
}

TEST(MediumEquivalence, SubCellJitterAroundLongTransmissions) {
  // Small moves while many long transmissions are on the air: movers (and
  // moving sources) cross interference radii without leaving their grid
  // cell, which only pinning on every move gets right. No listener churn,
  // so a stale cached audience survives until a radius crossing marks it.
  ScriptParams p;
  p.nodes = 120;
  p.area_m = 300.0;
  p.bound_listeners = 120;
  p.move_sigma_m = 2.0;
  p.far_hop_share = 0.0;
  p.min_tx_us = 5000;
  p.max_tx_us = 30000;
  p.churn = false;
  p.steps = 400;
  p.seed = 77;
  run_equivalence(p);
}

TEST(MediumEquivalence, SitesBeyondTheInt32CellRange) {
  // Clusters spread over +-5e11 m: at the derived ~37 m cell most sites lie
  // beyond +-2^31 cells, where cell_of saturates. Saturation never moves
  // two cells further apart, so every audible edge must still be delivered.
  ScriptParams p;
  p.nodes = 200;
  p.clusters = 8;
  p.area_m = 1e12;
  p.shift_m = -5e11;
  p.steps = 250;
  p.seed = 88;
  run_equivalence(p);
}

TEST(MediumEquivalence, DenseClusteredField) {
  ScriptParams p;
  p.nodes = 700;
  p.clusters = 12;
  p.area_m = 1600.0;
  p.cluster_sigma_m = 120.0;
  p.steps = 180;
  p.bound_listeners = 80;
  p.seed = 55;
  run_equivalence(p);
}

TEST(MediumEquivalence, CityScaleClustered) {
  ScriptParams p;
  p.nodes = 1500;
  p.clusters = 24;
  p.area_m = 3200.0;
  p.cluster_sigma_m = 120.0;
  p.steps = 140;
  p.bound_listeners = 100;
  p.seed = 66;
  run_equivalence(p);
}

}  // namespace
}  // namespace bicord::phy

// Reentrancy stress for the medium's listener fan-out, in both execution
// modes. Listeners mutate the world from inside notifications: they detach
// themselves and each other, attach fresh listeners, add nodes, transmit
// (nested begin_tx), and teleport their own node across the field — which
// rebuckets the spatial grid in the middle of the very notification that is
// being delivered. The invariants checked are the ones scenario code depends
// on: a detached listener is never invoked again (not even later in the same
// event), a listener attached mid-flight never sees a transmission's end
// without its start (the seq watermark fence), and the medium stays
// internally consistent (every begin gets its end, active drains to empty).
// scripts/check.sh runs this under ASan/UBSan and TSan, where the pinned
// audience and snapshot machinery would light up on any dangling reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "coex/placement.hpp"
#include "phy/medium.hpp"
#include "phy/spectrum.hpp"
#include "phy/units.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace bicord::phy {
namespace {

struct Stress;

/// Chaos never detaches below this many live listeners, nor attaches above
/// the cap: attach probability is per callback, and callbacks scale with the
/// listener count, so uncapped growth would compound.
constexpr int kDetachFloor = 20;
constexpr int kAttachCap = 400;
/// Chaos rolls per outer step: without a budget, a full audience cascades
/// through nested notifications and detaches its way down to the floor.
constexpr int kChaosBudgetPerStep = 200;

struct ChaosListener final : MediumListener {
  Stress* owner = nullptr;
  NodeId node = kInvalidNode;
  bool detached = false;
  /// Transmissions already on the air when this listener attached: the
  /// watermark fence promises their end edges are never delivered here.
  std::vector<TxId> preexisting;
  int starts = 0;
  int ends = 0;
  int moves = 0;

  void on_tx_start(const ActiveTransmission& tx) override;
  void on_tx_end(const ActiveTransmission& tx) override;
  void on_position_change(NodeId moved) override;
};

struct Stress {
  explicit Stress(bool spatial, std::uint64_t seed)
      : sim(seed), rng(seed * 101 + 3) {
    PathLossModel pl;
    pl.exponent = 3.8;
    pl.shadowing_sigma_db = 0.0;
    MediumTuning tuning;
    tuning.snap_floor_dbm = -97.0;
    tuning.spatial_index = spatial;
    tuning.max_tx_power_dbm = 20.0;
    medium = std::make_unique<Medium>(sim, pl, tuning);

    coex::PlacementParams pp;
    pp.area_m = 900.0;
    pp.clusters = 8;
    pp.cluster_sigma_m = 60.0;
    sites = coex::generate_placement(pp, 300, seed);
    for (std::size_t i = 0; i < sites.size(); ++i) {
      medium->add_node("n" + std::to_string(i), sites[i]);
    }
    for (std::size_t i = 0; i < 120; ++i) {
      attach_listener(static_cast<NodeId>((i * 5) % medium->node_count()));
    }
  }

  ChaosListener* attach_listener(NodeId node) {
    auto l = std::make_unique<ChaosListener>();
    l->owner = this;
    l->node = node;
    medium->for_each_active(
        [&](const ActiveTransmission& tx) { l->preexisting.push_back(tx.id); });
    medium->attach(l.get(), node);
    listeners.push_back(std::move(l));
    ++attaches;
    ++live;
    return listeners.back().get();
  }

  void transmit(NodeId src, Duration dur) {
    Frame f;
    f.tech = (transmissions % 4 == 0) ? Technology::ZigBee : Technology::WiFi;
    f.src = src;
    const Band band = (transmissions % 4 == 0)
                          ? zigbee_channel(11 + transmissions % 16)
                          : wifi_channel(1 + 5 * (transmissions % 3));
    const double power = (transmissions % 4 == 0) ? 0.0 : 20.0;
    medium->begin_tx(f, band, power, dur);
    ++transmissions;
  }

  void detach(ChaosListener& l) {
    medium->detach(&l);
    l.detached = true;
    ++detaches;
    --live;
  }

  /// The chaos menu, invoked from inside listener callbacks.
  void mutate(ChaosListener* self) {
    if (depth >= 3 || budget == 0) return;  // structured, not unbounded
    --budget;
    ++depth;
    const double roll = rng.uniform();
    if (roll < 0.015 && live > kDetachFloor) {
      // Detach a random live listener (possibly one later in this very
      // audience): it must never hear anything again.
      const auto victim = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(listeners.size()) - 1));
      if (!listeners[victim]->detached) detach(*listeners[victim]);
    } else if (roll < 0.03 && live < kAttachCap) {
      attach_listener(static_cast<NodeId>(
          rng.uniform_int(0, static_cast<std::int64_t>(medium->node_count()) - 1)));
    } else if (roll < 0.05) {
      // Teleport our own node across the field mid-notification: the grid
      // rebuckets (swap-remove + possibly new cells) while this event's
      // audience snapshot is still being walked.
      Position pos = sites[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(sites.size()) - 1))];
      pos.x += rng.normal(0.0, 5.0);
      pos.y += rng.normal(0.0, 5.0);
      medium->set_position(self->node, pos);
      ++teleports;
    } else if (roll < 0.06 && joins < 40) {
      // A node joins during a notification and speaks immediately.
      Position pos = sites[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(sites.size()) - 1))];
      pos.y += 2.0;
      const NodeId id = medium->add_node("joiner", pos);
      attach_listener(id);
      transmit(id, Duration::from_us(300));
      ++joins;
    } else if (roll < 0.09) {
      transmit(self->node, Duration::from_us(rng.uniform_int(100, 900)));
    } else if (roll < 0.12) {
      // Query energy while the world is mid-mutation.
      const auto rx = static_cast<NodeId>(
          rng.uniform_int(0, static_cast<std::int64_t>(medium->node_count()) - 1));
      const double e = medium->energy_dbm(rx, zigbee_channel(15));
      EXPECT_TRUE(e <= 40.0 && e >= -180.0) << "implausible energy " << e;
    }
    --depth;
  }

  sim::Simulator sim;
  Rng rng;
  std::unique_ptr<Medium> medium;
  std::vector<Position> sites;
  /// Every listener ever attached, detached ones included.
  std::vector<std::unique_ptr<ChaosListener>> listeners;
  int live = 0;  ///< listeners still attached
  int budget = 0;  ///< chaos rolls left in the current outer step
  int depth = 0;
  int transmissions = 0;
  int attaches = 0;
  int detaches = 0;
  int teleports = 0;
  int joins = 0;
};

void ChaosListener::on_tx_start(const ActiveTransmission& tx) {
  EXPECT_FALSE(detached) << "detached listener invoked for tx start " << tx.id;
  ++starts;
  owner->mutate(this);
}

void ChaosListener::on_tx_end(const ActiveTransmission& tx) {
  EXPECT_FALSE(detached) << "detached listener invoked for tx end " << tx.id;
  // The watermark fence: transmissions begun before we attached must end
  // silently for us, in both execution modes.
  EXPECT_TRUE(std::find(preexisting.begin(), preexisting.end(), tx.id) ==
              preexisting.end())
      << "end edge for pre-attach tx " << tx.id;
  ++ends;
  owner->mutate(this);
}

void ChaosListener::on_position_change(NodeId moved) {
  EXPECT_FALSE(detached) << "detached listener invoked for move of " << moved;
  ++moves;
  // No mutation here: moves are already triggered from tx callbacks, and
  // recursing on them too would make the chaos volume explode.
}

/// The callbacks' chaos detaches most listeners from inside notifications.
/// With `detach_heavy`, the outer loop also replaces the oldest live
/// listener after every transmission, so listeners detach outside any
/// notification while transmissions are on the air too: the medium then
/// compacts its dead listener slots straight from detach() as well as when
/// a notification unwinds.
void run_stress(bool spatial, std::uint64_t seed, bool detach_heavy = false) {
  SCOPED_TRACE(std::string(spatial ? "indexed" : "brute") + " seed=" +
               std::to_string(seed) + (detach_heavy ? " detach-heavy" : ""));
  Stress s(spatial, seed);
  ASSERT_EQ(s.medium->spatially_indexed(), spatial);

  // Outer driver: a steady drumbeat of transmissions from random nodes; all
  // the interesting behavior happens inside the listener callbacks.
  int outer_detaches = 0;
  int min_live = s.live;
  for (int step = 0; step < 900; ++step) {
    s.budget = kChaosBudgetPerStep;
    const auto src = static_cast<NodeId>(
        s.rng.uniform_int(0, static_cast<std::int64_t>(s.medium->node_count()) - 1));
    s.transmit(src, Duration::from_us(s.rng.uniform_int(80, 1200)));
    if (detach_heavy) {
      const auto oldest = std::find_if(s.listeners.begin(), s.listeners.end(),
                                       [](const auto& l) { return !l->detached; });
      if (oldest != s.listeners.end()) {
        s.detach(**oldest);
        ++outer_detaches;
      }
      s.attach_listener(static_cast<NodeId>(
          s.rng.uniform_int(0, static_cast<std::int64_t>(s.medium->node_count()) - 1)));
    }
    if (step % 3 == 0) s.sim.run_for(Duration::from_us(s.rng.uniform_int(50, 700)));
    min_live = std::min(min_live, s.live);
  }
  // The audience stays populated for the whole run, not just its first steps.
  EXPECT_GE(min_live, kDetachFloor);
  if (detach_heavy) {
    EXPECT_GT(outer_detaches, 800);
    EXPECT_GT(2 * s.detaches, s.attaches);
  }
  s.sim.run_for(Duration::from_ms(50));
  EXPECT_EQ(s.medium->active_count(), 0u);

  // The chaos must actually have happened for this test to mean anything.
  EXPECT_GT(s.detaches, 3);
  EXPECT_GT(s.attaches, 130);
  EXPECT_GT(s.teleports, 10);
  EXPECT_GT(s.joins, 2);
  int total_starts = 0;
  for (const auto& l : s.listeners) total_starts += l->starts;
  EXPECT_GT(total_starts, 1000);

  for (auto& l : s.listeners) {
    if (!l->detached) s.medium->detach(l.get());
  }
}

TEST(MediumStress, BruteForceReentrantChurn) { run_stress(false, 5); }
TEST(MediumStress, IndexedReentrantChurn) { run_stress(true, 5); }
TEST(MediumStress, IndexedReentrantChurnAltSeed) { run_stress(true, 77); }
TEST(MediumStress, BruteForceDetachHeavy) { run_stress(false, 5, true); }
TEST(MediumStress, IndexedDetachHeavy) { run_stress(true, 5, true); }

}  // namespace
}  // namespace bicord::phy

#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <vector>

namespace bicord::sim {
namespace {

TimePoint at_us(std::int64_t us) { return TimePoint::from_us(us); }

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(at_us(30), [&] { order.push_back(3); });
  q.schedule(at_us(10), [&] { order.push_back(1); });
  q.schedule(at_us(20), [&] { order.push_back(2); });
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesFireInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(at_us(5), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().callback();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueueTest, SizeTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.schedule(at_us(1), [] {});
  q.schedule(at_us(2), [] {});
  EXPECT_EQ(q.size(), 2u);
  EXPECT_TRUE(q.cancel(a));
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelledEventNeverFires) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.schedule(at_us(1), [&] { fired = true; });
  q.schedule(at_us(2), [] {});
  EXPECT_TRUE(q.cancel(id));
  while (!q.empty()) q.pop().callback();
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, CancelReturnsFalseForFiredEvent) {
  EventQueue q;
  const EventId id = q.schedule(at_us(1), [] {});
  q.pop().callback();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueueTest, CancelReturnsFalseTwice) {
  EventQueue q;
  const EventId id = q.schedule(at_us(1), [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueueTest, CancelInvalidId) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(kInvalidEventId));
  EXPECT_FALSE(q.cancel(999));
}

TEST(EventQueueTest, PendingFollowsOneIdThroughPopAndSlotReuse) {
  EventQueue q;
  const EventId fired = q.schedule(at_us(1), [] {});
  EXPECT_TRUE(q.pending(fired));
  q.pop();
  EXPECT_FALSE(q.pending(fired));
  const EventId reused = q.schedule(at_us(2), [] {});  // takes the freed slot
  EXPECT_FALSE(q.pending(fired));
  EXPECT_FALSE(q.cancel(fired));
  EXPECT_TRUE(q.pending(reused));
  EXPECT_TRUE(q.cancel(reused));
  EXPECT_FALSE(q.pending(reused));
  EXPECT_FALSE(q.pending(kInvalidEventId));
}

TEST(EventQueueTest, PeriodicStaysPendingInsideItsTickUntilItCancels) {
  EventQueue q;
  EventId id = kInvalidEventId;
  std::vector<bool> seen;
  id = q.schedule_periodic(at_us(1), Duration::from_us(1), [&] {
    seen.push_back(q.pending(id));
    q.cancel(id);
    seen.push_back(q.pending(id));
  });
  q.pop().callback();
  EXPECT_EQ(seen, (std::vector<bool>{true, false}));
}

TEST(EventQueueTest, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId early = q.schedule(at_us(1), [] {});
  q.schedule(at_us(5), [] {});
  q.cancel(early);
  EXPECT_EQ(q.next_time(), at_us(5));
}

TEST(EventQueueTest, ThrowsOnEmptyAccess) {
  EventQueue q;
  EXPECT_THROW(q.next_time(), std::logic_error);
  EXPECT_THROW(q.pop(), std::logic_error);
}

TEST(EventQueueTest, RejectsNullCallback) {
  EventQueue q;
  EXPECT_THROW(q.schedule(at_us(1), EventCallback{}), std::invalid_argument);
}

TEST(EventQueueTest, CancelHeavyWorkloadKeepsDeadFractionBounded) {
  EventQueue q;
  std::vector<EventId> ids;
  std::uint64_t x = 7;
  for (int i = 0; i < 10000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    ids.push_back(q.schedule(at_us(static_cast<std::int64_t>(x % 50000)), [] {}));
  }
  // Cancel 90% in shuffled order; after every cancel the lazy-deletion debt
  // must respect the compaction bound: either the heap is trivially small or
  // dead entries are at most half of it.
  std::vector<std::size_t> victims;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i % 10 != 0) victims.push_back(i);
  }
  for (std::size_t i = victims.size(); i > 1; --i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    std::swap(victims[i - 1], victims[x % i]);
  }
  for (const std::size_t v : victims) {
    ASSERT_TRUE(q.cancel(ids[v]));
    const std::size_t heap_entries = q.size() + q.dead_entries();
    EXPECT_TRUE(heap_entries < 64 || q.dead_entries() * 2 <= heap_entries)
        << "dead=" << q.dead_entries() << " heap=" << heap_entries;
  }
  EXPECT_GE(q.compactions(), 1u);
  EXPECT_EQ(q.size(), 1000u);
  // Slots are recycled through the free list, never leaked.
  EXPECT_LE(q.slot_capacity(), 10000u);
  // The survivors still pop in time order and all of them fire.
  TimePoint last = TimePoint::origin();
  std::size_t popped = 0;
  while (!q.empty()) {
    const auto fired = q.pop();
    EXPECT_GE(fired.time, last);
    last = fired.time;
    ++popped;
  }
  EXPECT_EQ(popped, 1000u);
  // Lazy deletion may leave a residue of dead entries that never reached the
  // heap top; it must stay below the compaction threshold.
  EXPECT_LT(q.dead_entries(), 64u);
}

TEST(EventQueueTest, RandomizedTraceMatchesReferenceModel) {
  // Drives the queue with a random schedule/cancel/pop mix and checks every
  // pop against a brute-force reference: the live event with the smallest
  // (time, schedule-call index), i.e. FIFO among same-instant ties.
  struct RefEntry {
    std::int64_t time_us;
    std::size_t schedule_idx;
    EventId id;
  };
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    EventQueue q;
    std::uint64_t x = seed;
    const auto rnd = [&x](std::uint64_t m) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      return (x >> 33) % m;
    };
    std::vector<RefEntry> live;
    std::unordered_map<EventId, std::size_t> idx_of;
    std::size_t schedules = 0;
    std::int64_t now_us = 0;  // pops advance time; schedules never go backward
    for (int op = 0; op < 4000; ++op) {
      const std::uint64_t r = rnd(100);
      if (r < 55 || q.empty()) {
        const std::int64_t t = now_us + static_cast<std::int64_t>(rnd(40));
        const EventId id = q.schedule(at_us(t), [] {});
        idx_of[id] = schedules;
        live.push_back(RefEntry{t, schedules, id});
        ++schedules;
      } else if (r < 75 && !live.empty()) {
        const std::size_t v = rnd(live.size());
        ASSERT_TRUE(q.cancel(live[v].id));
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(v));
      } else {
        const auto expect = std::min_element(
            live.begin(), live.end(), [](const RefEntry& a, const RefEntry& b) {
              return a.time_us != b.time_us ? a.time_us < b.time_us
                                            : a.schedule_idx < b.schedule_idx;
            });
        ASSERT_EQ(q.next_time(), at_us(expect->time_us));
        const auto fired = q.pop();
        ASSERT_EQ(fired.time, at_us(expect->time_us));
        ASSERT_EQ(idx_of.at(fired.id), expect->schedule_idx);
        now_us = expect->time_us;
        live.erase(expect);
      }
      ASSERT_EQ(q.size(), live.size());
    }
    // Drain: the remaining trace must replay the reference exactly.
    std::stable_sort(live.begin(), live.end(), [](const RefEntry& a, const RefEntry& b) {
      return a.time_us != b.time_us ? a.time_us < b.time_us
                                    : a.schedule_idx < b.schedule_idx;
    });
    for (const RefEntry& e : live) {
      const auto fired = q.pop();
      ASSERT_EQ(fired.time, at_us(e.time_us));
      ASSERT_EQ(idx_of.at(fired.id), e.schedule_idx);
    }
    EXPECT_TRUE(q.empty());
  }
}

TEST(EventQueueTest, PeriodicTickSurvivesSlabGrowthFromItsOwnSchedules) {
  // Regression: the periodic trampoline used to invoke the tick in place in
  // the slot slab; a tick that schedules enough events to grow the slab left
  // its own closure's captures in freed storage (use-after-free, caught by
  // ASan). The tick must touch its captures after forcing the growth.
  EventQueue q;
  int ticks = 0;
  std::vector<EventId> spawned;
  const EventId id = q.schedule_periodic(at_us(10), Duration::from_us(10), [&] {
    ++ticks;
    for (int i = 0; i < 4096; ++i) {
      spawned.push_back(q.schedule(at_us(1000000 + i), [] {}));
    }
    ++ticks;  // reads the capture frame again after the slab reallocated
  });
  for (int i = 0; i < 2; ++i) {
    auto fired = q.pop();
    ASSERT_EQ(fired.time, at_us(10 * (i + 1)));
    fired.callback();
  }
  EXPECT_EQ(ticks, 4);
  EXPECT_EQ(q.size(), spawned.size() + 1);
  EXPECT_TRUE(q.cancel(id));
  for (const EventId e : spawned) EXPECT_TRUE(q.cancel(e));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, ExecutingPeriodicTickCountsAsLive) {
  // empty()/size() must include the periodic event whose tick is currently
  // running: it will fire again unless cancelled, so code inspecting the
  // queue from inside a callback sees a consistent count.
  EventQueue q;
  std::size_t size_inside = 999;
  bool empty_inside = true;
  const EventId id = q.schedule_periodic(at_us(5), Duration::from_us(5), [&] {
    size_inside = q.size();
    empty_inside = q.empty();
  });
  q.pop().callback();
  EXPECT_EQ(size_inside, 1u);
  EXPECT_FALSE(empty_inside);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, PeriodicCancelledInsideOwnTickStopsCounting) {
  EventQueue q;
  EventId id = kInvalidEventId;
  std::size_t size_after_cancel = 999;
  id = q.schedule_periodic(at_us(1), Duration::from_us(1), [&] {
    EXPECT_TRUE(q.cancel(id));
    size_after_cancel = q.size();
  });
  q.pop().callback();
  EXPECT_EQ(size_after_cancel, 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, ThrowingPeriodicTickReleasesItsSlot) {
  EventQueue q;
  q.schedule_periodic(at_us(1), Duration::from_us(1),
                      [] { throw std::runtime_error("tick failed"); });
  auto fired = q.pop();
  EXPECT_THROW(fired.callback(), std::runtime_error);
  // The event is dropped, not wedged in a half-executed state: the queue
  // drains and the slot is recycled for new work.
  EXPECT_TRUE(q.empty());
  bool ran = false;
  q.schedule(at_us(2), [&] { ran = true; });
  q.pop().callback();
  EXPECT_TRUE(ran);
}

TEST(EventQueueTest, ManyEventsStressOrdering) {
  EventQueue q;
  // Deterministic pseudo-random times; verify global ordering on pop.
  std::uint64_t x = 42;
  for (int i = 0; i < 5000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    q.schedule(at_us(static_cast<std::int64_t>(x % 100000)), [] {});
  }
  TimePoint last = TimePoint::origin();
  while (!q.empty()) {
    const auto fired = q.pop();
    EXPECT_GE(fired.time, last);
    last = fired.time;
  }
}

}  // namespace
}  // namespace bicord::sim

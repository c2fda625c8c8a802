#pragma once
// The discrete-event simulator: a virtual clock plus the event queue.
//
// Everything in the library that needs to act "later" — frame completions,
// backoff expiry, white-space deadlines, traffic arrivals — schedules a
// callback here. The simulator advances the clock to each event in timestamp
// order; there is no real time anywhere in the library.
//
// Code that owns a callback on `this` does not keep raw EventIds: a device
// that fires at a fixed period holds a PeriodicTask, and a one-shot deadline
// that is re-armed, cancelled or tested (an ACK wait, a backoff, a lease
// expiry, a watchdog) holds a Timer. Both cancel their firing when destroyed.
// A plain after() stays right for fire-and-forget callbacks that may have
// several firings pending at once.

#include <cstdint>
#include <functional>
#include <utility>

#include "sim/event_queue.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace bicord::sim {

class Simulator {
 public:
  /// `seed` drives the root RNG from which all per-device streams split.
  explicit Simulator(std::uint64_t seed = 1);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] TimePoint now() const { return now_; }
  [[nodiscard]] Rng& rng() { return rng_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Schedules `cb` at absolute time `when` (must be >= now()).
  EventId at(TimePoint when, EventCallback cb);
  /// Schedules `cb` after `delay` (must be >= 0).
  EventId after(Duration delay, EventCallback cb);
  /// Schedules `cb` to fire first after `initial_delay` and then every
  /// `period`, reusing one queue slot across ticks (the allocation-free
  /// repeating-timer primitive; PeriodicTask wraps it). The event re-arms
  /// *after* each tick returns, so same-instant events the tick scheduled
  /// fire first.
  EventId every(Duration initial_delay, Duration period, EventCallback cb);
  /// Cancels a pending event; false if it already fired or was cancelled.
  /// Cancelling a periodic event works from inside its own tick, too.
  bool cancel(EventId id);
  /// True while `id` can still fire (see EventQueue::pending).
  [[nodiscard]] bool pending(EventId id) const { return queue_.pending(id); }

  /// Runs events until the queue empties or the clock would pass `deadline`.
  /// The clock is left at min(deadline, time of last event).
  void run_until(TimePoint deadline);
  /// Runs for `d` simulated time from now().
  void run_for(Duration d);
  /// Runs until the event queue is empty.
  void run_all();
  /// Fires exactly one event if any is pending. Returns false when idle.
  bool step();

  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t dispatched_events() const { return dispatched_; }
  /// Time of the earliest pending event, or TimePoint::max() when idle
  /// (lets a driver that calls step() itself stop at a deadline).
  [[nodiscard]] TimePoint next_event_time() const {
    return queue_.empty() ? TimePoint::max() : queue_.next_time();
  }

 private:
  TimePoint now_;
  EventQueue queue_;
  Rng rng_;
  std::uint64_t seed_;
  std::uint64_t dispatched_ = 0;
};

/// Fires every `period` until stop() — the one timer for fixed-period devices
/// (traffic generators, interferers, slot clocks), expiry timers and
/// samplers. Safe to destroy before the simulator (it cancels its pending
/// event). Built on Simulator::every(), so a running task occupies one
/// reusable queue slot instead of re-scheduling a fresh event per tick.
class PeriodicTask {
 public:
  PeriodicTask(Simulator& sim, Duration period, std::function<void()> tick);
  ~PeriodicTask();

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void start();
  /// Starts with the first tick after `initial_delay`.
  void start_after(Duration initial_delay);
  /// Unless running: runs one tick now, inline, and then arms the next tick
  /// `period` later — after the tick returns, so the re-arm queues behind
  /// every event the tick scheduled, as a periodic event's re-arm does.
  /// running() is true during that tick; a stop() inside it holds.
  void start_now();
  void stop();
  [[nodiscard]] bool running() const { return event_ != kInvalidEventId; }
  [[nodiscard]] Duration period() const { return period_; }

 private:
  void arm(Duration delay);

  Simulator& sim_;
  Duration period_;
  std::function<void()> tick_;
  EventId event_ = kInvalidEventId;
};

/// A handle on at most one pending one-shot: the one timer for deadlines
/// (ACK and backoff waits, white-space lease expiry, watchdogs, grace
/// clocks). Arming replaces a pending firing by cancelling it and then
/// scheduling the new one, the same two queue calls in the same order as a
/// hand-written cancel-and-reschedule, so sequence numbers and same-instant
/// order do not move. Destroying the timer cancels its firing. The callable
/// goes to Simulator::at as given, so it stays inside InlineCallback's buffer
/// and is built in place there, as a direct at() call would build it.
class Timer {
 public:
  explicit Timer(Simulator& sim) : sim_(sim) {}
  ~Timer() { cancel(); }

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// Fires `cb` at `when` (must be >= now()) instead of any pending firing.
  template <typename F>
  void at(TimePoint when, F&& cb) {
    cancel();
    id_ = sim_.at(when, std::forward<F>(cb));
    deadline_ = when;
  }
  /// Fires `cb` after `delay` (must be >= 0) instead of any pending firing.
  template <typename F>
  void after(Duration delay, F&& cb) {
    at(sim_.now() + delay, std::forward<F>(cb));
  }
  void cancel() {
    if (armed()) sim_.cancel(id_);
    id_ = kInvalidEventId;
  }

  /// True from arming until the firing starts (so false inside its own
  /// callback) or until cancel(). A firing due later is pending, since only
  /// cancel() removes it early; one due now may already have been popped,
  /// so only then is the queue asked.
  [[nodiscard]] bool armed() const {
    if (id_ == kInvalidEventId) return false;
    if (deadline_ != sim_.now()) return deadline_ > sim_.now();
    return sim_.pending(id_);
  }
  /// When the last arming fires (meaningful while armed()).
  [[nodiscard]] TimePoint deadline() const { return deadline_; }

 private:
  Simulator& sim_;
  EventId id_ = kInvalidEventId;
  TimePoint deadline_;
};

}  // namespace bicord::sim

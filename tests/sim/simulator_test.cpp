#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace bicord::sim {
namespace {

using namespace bicord::time_literals;

TEST(SimulatorTest, ClockAdvancesToEvents) {
  Simulator sim;
  std::vector<std::int64_t> times;
  sim.after(5_ms, [&] { times.push_back(sim.now().us()); });
  sim.after(1_ms, [&] { times.push_back(sim.now().us()); });
  sim.run_all();
  EXPECT_EQ(times, (std::vector<std::int64_t>{1000, 5000}));
  EXPECT_EQ(sim.now().us(), 5000);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  bool late_fired = false;
  sim.after(10_ms, [&] { late_fired = true; });
  sim.run_until(TimePoint::from_us(5000));
  EXPECT_FALSE(late_fired);
  EXPECT_EQ(sim.now().us(), 5000);  // clock lands exactly on the deadline
  sim.run_for(5_ms);
  EXPECT_TRUE(late_fired);
}

TEST(SimulatorTest, EventsScheduledDuringRunFire) {
  Simulator sim;
  int count = 0;
  sim.after(1_ms, [&] {
    ++count;
    sim.after(1_ms, [&] { ++count; });
  });
  sim.run_for(10_ms);
  EXPECT_EQ(count, 2);
}

TEST(SimulatorTest, CancelPreventsDispatch) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.after(1_ms, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run_all();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, RejectsSchedulingInThePast) {
  Simulator sim;
  sim.after(1_ms, [] {});
  sim.run_all();
  EXPECT_THROW(sim.at(TimePoint::origin(), [] {}), std::invalid_argument);
  EXPECT_THROW(sim.after(Duration::from_us(-1), [] {}), std::invalid_argument);
}

TEST(SimulatorTest, StepFiresExactlyOne) {
  Simulator sim;
  int count = 0;
  sim.after(1_ms, [&] { ++count; });
  sim.after(2_ms, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sim.step());
}

TEST(SimulatorTest, DispatchCounter) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.after(Duration::from_us(i + 1), [] {});
  sim.run_all();
  EXPECT_EQ(sim.dispatched_events(), 5u);
}

TEST(SimulatorTest, SeedIsRecorded) {
  Simulator sim(777);
  EXPECT_EQ(sim.seed(), 777u);
}

TEST(PeriodicTaskTest, FiresAtPeriod) {
  Simulator sim;
  int ticks = 0;
  PeriodicTask task(sim, 10_ms, [&] { ++ticks; });
  task.start();
  sim.run_for(35_ms);
  EXPECT_EQ(ticks, 3);  // t = 10, 20, 30
}

TEST(PeriodicTaskTest, StartAfterCustomDelay) {
  Simulator sim;
  int ticks = 0;
  PeriodicTask task(sim, 10_ms, [&] { ++ticks; });
  task.start_after(Duration::zero());
  sim.run_for(25_ms);
  EXPECT_EQ(ticks, 3);  // t = 0, 10, 20
}

TEST(PeriodicTaskTest, StopHalts) {
  Simulator sim;
  int ticks = 0;
  PeriodicTask task(sim, 10_ms, [&] { ++ticks; });
  task.start();
  sim.run_for(15_ms);
  task.stop();
  EXPECT_FALSE(task.running());
  sim.run_for(100_ms);
  EXPECT_EQ(ticks, 1);
}

TEST(PeriodicTaskTest, TickMayRestartItself) {
  Simulator sim;
  int ticks = 0;
  PeriodicTask task(sim, 10_ms, [&] { ++ticks; });
  PeriodicTask restarter(sim, 15_ms, [&] { task.start_after(1_ms); });
  task.start();
  restarter.start();
  sim.run_for(100_ms);
  EXPECT_GT(ticks, 3);
}

TEST(PeriodicTaskTest, RejectsBadConstruction) {
  Simulator sim;
  EXPECT_THROW(PeriodicTask(sim, Duration::zero(), [] {}), std::invalid_argument);
  EXPECT_THROW(PeriodicTask(sim, 1_ms, std::function<void()>{}), std::invalid_argument);
}

TEST(PeriodicTaskTest, DestructorCancels) {
  Simulator sim;
  int ticks = 0;
  {
    PeriodicTask task(sim, 1_ms, [&] { ++ticks; });
    task.start();
  }
  sim.run_for(10_ms);
  EXPECT_EQ(ticks, 0);
}

TEST(PeriodicTaskTest, StartNowTicksInlineThenEveryPeriod) {
  Simulator sim;
  std::vector<std::int64_t> times;
  PeriodicTask task(sim, 10_ms, [&] { times.push_back(sim.now().us()); });
  task.start_now();
  EXPECT_EQ(times, (std::vector<std::int64_t>{0}));  // before any event runs
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_for(25_ms);
  EXPECT_EQ(times, (std::vector<std::int64_t>{0, 10000, 20000}));
}

TEST(PeriodicTaskTest, StartNowStopInsideTheTickHolds) {
  Simulator sim;
  int ticks = 0;
  PeriodicTask task(sim, 10_ms, [&] {
    ++ticks;
    task.stop();
  });
  task.start_now();
  EXPECT_FALSE(task.running());
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.run_for(50_ms);
  EXPECT_EQ(ticks, 1);
}

TEST(PeriodicTaskTest, StartNowIsRunningDuringTheTick) {
  Simulator sim;
  std::vector<bool> seen;
  PeriodicTask task(sim, 10_ms, [&] { seen.push_back(task.running()); });
  task.start_now();
  sim.run_for(10_ms);
  EXPECT_EQ(seen, (std::vector<bool>{true, true}));
}

TEST(PeriodicTaskTest, StartNowWhileRunningDoesNothing) {
  Simulator sim;
  std::vector<std::int64_t> times;
  PeriodicTask task(sim, 10_ms, [&] {
    times.push_back(sim.now().us());
    task.start_now();  // re-entrant call from the tick: also a no-op
  });
  task.start_now();
  sim.run_for(5_ms);
  task.start_now();
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_for(20_ms);
  EXPECT_EQ(times, (std::vector<std::int64_t>{0, 10000, 20000}));
}

TEST(PeriodicTaskTest, StartNowArmsBehindEventsTheTickSchedules) {
  // A device that ticks in start() and then re-schedules itself queues its
  // next tick after whatever its first tick scheduled for that instant.
  Simulator sim;
  std::vector<char> order;
  PeriodicTask task(sim, 10_ms, [&] {
    order.push_back('t');
    if (order.size() == 1) sim.after(10_ms, [&] { order.push_back('e'); });
  });
  task.start_now();
  sim.run_for(10_ms);
  EXPECT_EQ(order, (std::vector<char>{'t', 'e', 't'}));
}

TEST(TimerTest, RearmingReplacesThePendingFiring) {
  Simulator sim;
  std::vector<std::int64_t> times;
  Timer timer(sim);
  timer.after(5_ms, [&] { times.push_back(sim.now().us()); });
  timer.after(8_ms, [&] { times.push_back(sim.now().us()); });
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(timer.deadline(), TimePoint::from_us(8000));
  sim.run_for(20_ms);
  EXPECT_EQ(times, (std::vector<std::int64_t>{8000}));
  EXPECT_FALSE(timer.armed());
}

TEST(TimerTest, ArmedIsFalseInsideItsOwnFiring) {
  Simulator sim;
  Timer timer(sim);
  std::vector<bool> seen;
  timer.after(1_ms, [&] {
    seen.push_back(timer.armed());
    if (seen.size() == 1) timer.after(Duration::zero(), [&] { seen.push_back(timer.armed()); });
  });
  EXPECT_TRUE(timer.armed());
  sim.run_for(2_ms);
  EXPECT_EQ(seen, (std::vector<bool>{false, false}));
  EXPECT_EQ(sim.dispatched_events(), 2u);
}

TEST(TimerTest, ArmedIsTrueForAFiringDueNowButNotYetRun) {
  Simulator sim;
  Timer timer(sim);
  std::vector<bool> seen;
  // The plain event runs first at t = 1 ms and sees the timer still queued
  // for that instant.
  sim.after(1_ms, [&] { seen.push_back(timer.armed()); });
  timer.after(1_ms, [] {});
  sim.run_for(1_ms);
  EXPECT_EQ(seen, (std::vector<bool>{true}));
  EXPECT_FALSE(timer.armed());
}

TEST(TimerTest, DestroyingTheTimerCancelsItsFiring) {
  Simulator sim;
  int fired = 0;
  {
    Timer timer(sim);
    timer.after(1_ms, [&] { ++fired; });
    EXPECT_EQ(sim.pending_events(), 1u);
  }
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.run_for(10_ms);
  EXPECT_EQ(fired, 0);
}

TEST(TimerTest, CancelAfterTheFiringLeavesAnEventInTheReusedSlotAlone) {
  Simulator sim;
  Timer timer(sim);
  bool other_fired = false;
  timer.after(1_ms, [&] {
    // The timer's slot was freed before this callback ran, so this event
    // takes it over; cancel() must not mistake it for the timer's.
    sim.after(Duration::zero(), [&] { other_fired = true; });
    timer.cancel();
    EXPECT_EQ(sim.pending_events(), 1u);
  });
  sim.run_for(1_ms);
  EXPECT_TRUE(other_fired);
}

TEST(TimerTest, FiresInScheduleOrderWithPlainEventsAtTheSameInstant) {
  Simulator sim;
  std::vector<char> order;
  const TimePoint t = TimePoint::from_us(1000);
  Timer timer(sim);
  sim.at(t, [&] { order.push_back('a'); });
  timer.at(t, [&] { order.push_back('x'); });
  sim.at(t, [&] { order.push_back('b'); });
  // Re-arming gives up the old place and queues behind 'b', exactly like a
  // cancel followed by a fresh schedule.
  timer.at(t, [&] { order.push_back('t'); });
  sim.at(t, [&] { order.push_back('c'); });
  sim.run_for(1_ms);
  EXPECT_EQ(order, (std::vector<char>{'a', 'b', 't', 'c'}));
}

}  // namespace
}  // namespace bicord::sim

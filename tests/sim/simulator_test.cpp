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

TEST(PeriodicTaskTest, SetPeriodTakesEffectNextArm) {
  Simulator sim;
  std::vector<std::int64_t> times;
  PeriodicTask task(sim, 10_ms, [&] { times.push_back(sim.now().us()); });
  task.start();
  sim.run_for(10_ms);
  // The tick at t=10 already re-armed itself for t=20 with the old period;
  // the new period applies from the arm after that.
  task.set_period(20_ms);
  sim.run_for(50_ms);
  ASSERT_GE(times.size(), 3u);
  EXPECT_EQ(times[0], 10000);
  EXPECT_EQ(times[1], 20000);
  EXPECT_EQ(times[2], 40000);
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

}  // namespace
}  // namespace bicord::sim

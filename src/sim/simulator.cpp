#include "sim/simulator.hpp"

#include <stdexcept>

namespace bicord::sim {

Simulator::Simulator(std::uint64_t seed) : rng_(seed), seed_(seed) {}

EventId Simulator::at(TimePoint when, EventCallback cb) {
  if (when < now_) throw std::invalid_argument("Simulator::at: time in the past");
  return queue_.schedule(when, std::move(cb));
}

EventId Simulator::after(Duration delay, EventCallback cb) {
  if (delay < Duration::zero()) {
    throw std::invalid_argument("Simulator::after: negative delay");
  }
  return queue_.schedule(now_ + delay, std::move(cb));
}

EventId Simulator::every(Duration initial_delay, Duration period, EventCallback cb) {
  if (initial_delay < Duration::zero()) {
    throw std::invalid_argument("Simulator::every: negative initial delay");
  }
  return queue_.schedule_periodic(now_ + initial_delay, period, std::move(cb));
}

bool Simulator::cancel(EventId id) { return queue_.cancel(id); }

void Simulator::run_until(TimePoint deadline) {
  while (!queue_.empty() && queue_.next_time() <= deadline) {
    auto fired = queue_.pop();
    now_ = fired.time;
    ++dispatched_;
    fired.callback();
  }
  if (now_ < deadline) now_ = deadline;
}

void Simulator::run_for(Duration d) { run_until(now_ + d); }

void Simulator::run_all() {
  while (step()) {
  }
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  auto fired = queue_.pop();
  now_ = fired.time;
  ++dispatched_;
  fired.callback();
  return true;
}

namespace {
/// `event_` while start_now()'s inline tick runs, so running() reads true.
/// No real id equals it (an EventQueue id carries its slot + 1 in the high
/// word), so cancel() rejects it as invalid.
constexpr EventId kInlineTick = 1;
}  // namespace

PeriodicTask::PeriodicTask(Simulator& sim, Duration period, std::function<void()> tick)
    : sim_(sim), period_(period), tick_(std::move(tick)) {
  if (period_ <= Duration::zero()) {
    throw std::invalid_argument("PeriodicTask: period must be positive");
  }
  if (!tick_) throw std::invalid_argument("PeriodicTask: null tick");
}

PeriodicTask::~PeriodicTask() { stop(); }

void PeriodicTask::start() { start_after(period_); }

void PeriodicTask::start_after(Duration initial_delay) {
  stop();
  arm(initial_delay);
}

void PeriodicTask::start_now() {
  if (running()) return;
  event_ = kInlineTick;
  tick_();
  // A stop() inside the tick cleared the marker, a restart replaced it.
  if (event_ == kInlineTick) arm(period_);
}

void PeriodicTask::stop() {
  if (event_ != kInvalidEventId) {
    sim_.cancel(event_);
    event_ = kInvalidEventId;
  }
}

void PeriodicTask::arm(Duration delay) {
  event_ = sim_.every(delay, period_, [this] { tick_(); });
}

}  // namespace bicord::sim

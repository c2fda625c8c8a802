#include "core/coordination_engine.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace bicord::core {

CoordinationEngine::CoordinationEngine(sim::Simulator& sim,
                                       const TechnologyTraits& traits,
                                       AllocatorParams allocator,
                                       std::size_t history_capacity)
    : sim_(sim),
      traits_(traits),
      allocator_(allocator),
      grant_history_(history_capacity) {}

bool CoordinationEngine::grant_active() const {
  return traits_.lease_based ? sim_.now() < lease_until_ : grant_outstanding_;
}

Duration CoordinationEngine::jittered(Duration d) const {
  if (!timer_jitter_) return d;
  Duration j = timer_jitter_(d);
  return j > Duration::zero() ? j : Duration::from_us(1);
}

Duration CoordinationEngine::skewed(Duration d) const {
  if (!timer_skew_) return d;
  Duration s = timer_skew_(d);
  return s > Duration::zero() ? s : Duration::from_us(1);
}

std::optional<Duration> CoordinationEngine::on_request(TimePoint t) {
  ++requests_;
  last_request_ = t;
  if (grant_active()) {
    // Already serving this burst (leftover requester traffic overlapping our
    // resumed transmissions re-triggers detection; the allocator sees it as
    // the same round until the protection actually elapses).
    return std::nullopt;
  }
  if (election_ != nullptr && !election_->is_primary(member_)) {
    // Secondary grantor: observe the request, never answer it. The election
    // starts the grace clock and promotes us if the primary stays silent.
    ++shadowed_;
    election_->on_request_observed(member_, t);
    return std::nullopt;
  }
  if (policy_ && !policy_()) {
    ++ignored_;
    return std::nullopt;
  }
  const Duration grant = allocator_.on_request(t);
  ++grants_;
  grant_history_.push(t, grant);
  if (grant_observer_) grant_observer_(t, grant);
  if (election_ != nullptr) {
    election_->on_grant_issued(member_, t, grant + traits_.grant_margin);
  }
  BICORD_LOG(Debug, t, traits_.log_tag,
             "request detected, granting " << grant << " white space");
  return grant;
}

void CoordinationEngine::begin_grant(TimePoint t) {
  grant_outstanding_ = true;
  grant_started_ = t;
}

void CoordinationEngine::on_resume(TimePoint t) {
  if (!grant_active()) return;
  if (resume_filter_ && resume_filter_(t)) return;  // fault injection
  grant_outstanding_ = false;
  watchdog_.cancel();
  // Sustained silence after resuming marks the end of the requester's burst.
  end_of_burst_check(t);
}

void CoordinationEngine::arm_watchdog(TimePoint deadline) {
  // Armed as a relative delay through the skew hook: a drifted crystal fires
  // the watchdog early or late. Without a skew hook this is event-for-event
  // identical to scheduling at the absolute deadline.
  const Duration delay =
      deadline > sim_.now() ? deadline - sim_.now() : Duration::zero();
  watchdog_.after(skewed(delay), [this] { on_watchdog(); });
}

void CoordinationEngine::on_watchdog() {
  if (!grant_active()) return;
  ++watchdog_recoveries_;
  grant_outstanding_ = false;
  BICORD_LOG(Warn, sim_.now(), "fault.recovery",
             traits_.name << " watchdog: grant from " << grant_started_
                          << " never resumed; force-clearing");
  // Treat the watchdog instant as the resume point so the allocator still
  // closes the round instead of waiting for a resume that will never come.
  end_of_burst_check(sim_.now());
}

void CoordinationEngine::begin_lease(TimePoint now, Duration lease) {
  lease_until_ = now + lease;
  grant_started_ = now;
}

void CoordinationEngine::arm_lease_expiry() {
  // Relative delay through the skew hook: a fast crystal releases the lease
  // before lease_until_, a slow one after — the drift the lease margin in
  // TechnologyTraits has to absorb. No skew hook = same instant as before.
  const Duration delay =
      lease_until_ > sim_.now() ? lease_until_ - sim_.now() : Duration::zero();
  lease_expiry_.after(skewed(delay), [this] { on_lease_expired(); });
}

void CoordinationEngine::on_lease_expired() {
  if (release_hook_) release_hook_();
  end_of_burst_check(sim_.now());
}

void CoordinationEngine::end_of_burst_check(TimePoint resume_time) {
  sim_.after(jittered(allocator_.params().end_of_burst_gap), [this, resume_time] {
    if (grant_active()) return;  // a new round started meanwhile
    if (last_request_ > resume_time) return;  // request arrived, handled
    allocator_.on_burst_end(sim_.now());
  });
}

RequesterEngine::RequesterEngine(RequesterMac& mac, Config config)
    : mac_(mac),
      sim_(mac.medium().simulator()),
      config_(config),
      // const split(k): derives a dedicated jitter stream without advancing
      // the parent RNG, so adding it does not perturb any existing stream.
      rng_(mac.medium().simulator().rng().split(0xB1C0FDULL ^ mac.node())) {}

Duration RequesterEngine::jittered(Duration d) {
  if (config_.backoff_jitter > 0.0) {
    const double f =
        rng_.uniform(1.0 - config_.backoff_jitter, 1.0 + config_.backoff_jitter);
    d = Duration::from_us(std::max<std::int64_t>(
        100, static_cast<std::int64_t>(static_cast<double>(d.us()) * f)));
  }
  return timer_jittered(d);
}

Duration RequesterEngine::timer_jittered(Duration d) const {
  if (!timer_jitter_) return d;
  const Duration j = timer_jitter_(d);
  return j > Duration::zero() ? j : Duration::from_us(1);
}

void RequesterEngine::begin_round() {
  controls_this_round_ = 0;
  ++signaling_rounds_;
}

bool RequesterEngine::round_exhausted() const {
  return controls_this_round_ >= config_.signaling.max_control_packets;
}

void RequesterEngine::send_control(double power_dbm, std::function<void()> done) {
  ++controls_this_round_;
  ++control_packets_;
  mac_.wake_radio();  // duty-cycled radios sleep between bursts
  if (pre_send_) pre_send_();
  mac_.send_control(config_.signaling.control_payload_bytes, power_dbm,
                    std::move(done));
}

RequesterEngine::IgnoredOutcome RequesterEngine::round_ignored() {
  ++ignored_requests_;
  consecutive_ignored_ = std::min(consecutive_ignored_ + 1, 4);
  ++ignored_streak_;
  if (config_.give_up_after_ignored > 0 &&
      ignored_streak_ >= config_.give_up_after_ignored) {
    ++give_ups_;
    ignored_streak_ = 0;
    return {true, Duration::zero()};
  }
  return {false, config_.signaling.ignored_backoff * (1 << consecutive_ignored_)};
}

void RequesterEngine::reset_streaks() {
  consecutive_ignored_ = 0;
  ignored_streak_ = 0;
}

void RequesterEngine::schedule_backoff(Duration d) {
  backoff_.after(jittered(d), [this] {
    if (backoff_resume_) backoff_resume_();
  });
}

}  // namespace bicord::core

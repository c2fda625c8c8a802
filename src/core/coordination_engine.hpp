#pragma once
// Technology-agnostic halves of BiCord's coordination loop (paper Sec. V).
//
// CoordinationEngine is the grantor side: detect -> grant -> learn -> adjust
// -> expire. It owns the adaptive white-space allocator, the grant history,
// the request/grant/ignore counters, and the two ways a grant can end — a
// resume notification (flag-based grants, stale-grant watchdog included) or
// a lease expiry timer (clock-bounded leases). The technology agent supplies
// the detection events and the protection mechanics (queueing a CTS,
// dropping hop-map channels) and picks the behavior via TechnologyTraits.
//
// RequesterEngine is the requester side: signal -> wait -> transmit ->
// re-signal. It owns control-packet emission (raw, deliberately overlapping
// the interferer), round accounting, the bounded give-up ledger, and the
// jittered exponential backoff with its dedicated split RNG stream. The
// agent keeps its own acquisition state machine (CTI sampling, draining,
// CSMA fallback) and calls into the engine at each shared step.
//
// Determinism contract: every engine call keeps the exact event-scheduling
// and RNG-draw order of the pre-refactor agents — the golden determinism
// test pins scenario output bitwise across this seam.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>

#include "core/grant_history.hpp"
#include "core/grantor_election.hpp"
#include "core/ports.hpp"
#include "core/protocol_params.hpp"
#include "core/technology_traits.hpp"
#include "core/whitespace.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace bicord::core {

class CoordinationEngine {
 public:
  /// Returns true when the device is willing to grant a white space now.
  using Policy = std::function<bool()>;
  /// Observer for every grant (start, length) — drives Fig. 7.
  using GrantObserver = std::function<void(TimePoint, Duration)>;
  /// Fault hook: return true to swallow a resume notification (models a
  /// lost resume interrupt). Consulted only while a grant is active.
  using ResumeFilter = std::function<bool(TimePoint)>;
  /// Fault hook: perturb a relative timer delay (clock jitter).
  using TimerJitter = std::function<Duration(Duration)>;
  /// Fault hook: scale a relative timer delay by this node's crystal error
  /// (clock skew, ±ppm). Unlike TimerJitter it applies to *every* engine
  /// timer — watchdog and lease expiry included — because a drifted crystal
  /// mis-times exactly the deadlines the lease margins are sized for.
  using TimerSkew = std::function<Duration(Duration)>;
  /// Runs when a lease expires, before the end-of-burst check (the agent
  /// un-protects the band here).
  using ReleaseHook = std::function<void()>;

  CoordinationEngine(sim::Simulator& sim, const TechnologyTraits& traits,
                     AllocatorParams allocator, std::size_t history_capacity);

  CoordinationEngine(const CoordinationEngine&) = delete;
  CoordinationEngine& operator=(const CoordinationEngine&) = delete;

  void set_policy(Policy policy) { policy_ = std::move(policy); }
  void set_grant_observer(GrantObserver obs) { grant_observer_ = std::move(obs); }
  void set_resume_filter(ResumeFilter filter) { resume_filter_ = std::move(filter); }
  void set_timer_jitter(TimerJitter jitter) { timer_jitter_ = std::move(jitter); }
  void set_timer_skew(TimerSkew skew) { timer_skew_ = std::move(skew); }
  void set_release_hook(ReleaseHook hook) { release_hook_ = std::move(hook); }

  /// Joins a multi-grantor election as `member`. While this engine is not the
  /// elected primary, on_request() shadows the request (books it to the
  /// election, grants nothing); while primary, every grant is reported so
  /// secondaries and the invariant checker can track the protection window.
  void set_election(GrantorElection* election, GrantorElection::MemberId member) {
    election_ = election;
    member_ = member;
  }

  /// A channel request arrived at `t`. Books the request; returns the
  /// allocator's white-space grant, or nullopt when the request is absorbed
  /// into the grant already running or refused by the policy. On a grant the
  /// agent protects the band and then calls begin_grant()+arm_watchdog() or
  /// begin_lease()+arm_lease_expiry().
  std::optional<Duration> on_request(TimePoint t);

  /// Flag-based grant: mark the grant outstanding as of `t`.
  void begin_grant(TimePoint t);
  /// The protected period ended (e.g. the MAC's pause-end fired at `t`):
  /// clear the grant and start the end-of-burst check.
  void on_resume(TimePoint t);
  /// Arm the stale-grant watchdog; if no resume arrives by `deadline` the
  /// grant is force-cleared (lost CTS, wedged MAC).
  void arm_watchdog(TimePoint deadline);

  /// Clock-bounded lease: record the lease window [now, now + lease).
  void begin_lease(TimePoint now, Duration lease);
  /// (Re-)arm the expiry timer for the current lease; on expiry the release
  /// hook runs, then the end-of-burst check.
  void arm_lease_expiry();

  [[nodiscard]] const WhitespaceAllocator& allocator() const { return allocator_; }
  [[nodiscard]] const GrantHistory& grant_history() const { return grant_history_; }
  [[nodiscard]] const TechnologyTraits& traits() const { return traits_; }

  /// True while the band is protected (outstanding flag or running lease).
  [[nodiscard]] bool grant_active() const;
  [[nodiscard]] TimePoint grant_started() const { return grant_started_; }

  [[nodiscard]] std::uint64_t requests() const { return requests_; }
  [[nodiscard]] std::uint64_t grants() const { return grants_; }
  [[nodiscard]] std::uint64_t ignored() const { return ignored_; }
  /// Requests booked while a secondary in a multi-grantor election (observed
  /// and reported, never granted).
  [[nodiscard]] std::uint64_t shadowed() const { return shadowed_; }
  [[nodiscard]] std::uint64_t watchdog_recoveries() const { return watchdog_recoveries_; }

 private:
  void on_watchdog();
  void on_lease_expired();
  /// Sustained silence after `resume_time` marks the end of the requester's
  /// burst and feeds the allocator's estimator.
  void end_of_burst_check(TimePoint resume_time);
  [[nodiscard]] Duration jittered(Duration d) const;
  [[nodiscard]] Duration skewed(Duration d) const;

  sim::Simulator& sim_;
  const TechnologyTraits& traits_;
  WhitespaceAllocator allocator_;
  GrantHistory grant_history_;
  Policy policy_;
  GrantObserver grant_observer_;
  ResumeFilter resume_filter_;
  TimerJitter timer_jitter_;
  TimerSkew timer_skew_;
  ReleaseHook release_hook_;
  GrantorElection* election_ = nullptr;
  GrantorElection::MemberId member_ = 0;

  bool grant_outstanding_ = false;  ///< flag-based grants only
  TimePoint lease_until_;           ///< clock-bounded leases only
  TimePoint grant_started_;
  TimePoint last_request_;
  sim::Timer watchdog_{sim_};
  sim::Timer lease_expiry_{sim_};

  std::uint64_t requests_ = 0;
  std::uint64_t grants_ = 0;
  std::uint64_t ignored_ = 0;
  std::uint64_t shadowed_ = 0;
  std::uint64_t watchdog_recoveries_ = 0;
};

class RequesterEngine {
 public:
  struct Config {
    SignalingParams signaling;
    /// Multiplicative jitter on every backoff (d * U(1-j, 1+j)), so repeated
    /// refusals from several nodes do not re-synchronise their retries.
    /// Drawn from a dedicated split RNG stream: deterministic per seed.
    double backoff_jitter = 0.0;
    /// Bounded give-up: after this many consecutive ignored signaling rounds
    /// round_ignored() reports gave_up instead of a backoff. 0 disables.
    int give_up_after_ignored = 0;
  };

  /// Books one ignored signaling round.
  struct IgnoredOutcome {
    bool gave_up;      ///< the give-up bound fired; streak reset
    Duration backoff;  ///< exponential backoff to wait (when !gave_up)
  };

  /// Fault hook: perturb a relative timer delay (clock jitter).
  using TimerJitter = std::function<Duration(Duration)>;

  /// `mac` is the requester-side port; the owning agent keeps it alive for
  /// the engine's whole lifetime.
  RequesterEngine(RequesterMac& mac, Config config);

  RequesterEngine(const RequesterEngine&) = delete;
  RequesterEngine& operator=(const RequesterEngine&) = delete;

  void set_timer_jitter(TimerJitter jitter) { timer_jitter_ = std::move(jitter); }
  /// Runs between the radio wake and the control-packet send (e.g. retune an
  /// energy meter to the signaling PA setting). Set once, before first use.
  void set_pre_send(std::function<void()> hook) { pre_send_ = std::move(hook); }
  /// Resume action for schedule_backoff() (agent state transition + kick).
  /// Set once, before first use.
  void set_backoff_resume(std::function<void()> resume) {
    backoff_resume_ = std::move(resume);
  }

  /// Starts a signaling round: resets the per-round control budget.
  void begin_round();
  /// True when the round's control budget is spent (the grantor is ignoring
  /// us, e.g. high-priority traffic).
  [[nodiscard]] bool round_exhausted() const;
  /// Emits one raw control packet at `power_dbm` (wakes the duty-cycled
  /// radio first) and runs `done` when the transmission completes.
  void send_control(double power_dbm, std::function<void()> done);
  /// Books an ignored round: bumps the capped backoff exponent and the
  /// give-up streak; returns either gave_up or the backoff to wait.
  IgnoredOutcome round_ignored();
  /// A delivery succeeded (or the fallback window closed): clear the
  /// ignored-round ledger.
  void reset_streaks();
  /// Cancels any pending backoff and schedules the resume callback after
  /// jittered(d).
  void schedule_backoff(Duration d);

  /// Timer-jitter-only perturbation for fixed poll spacings (no RNG draw).
  [[nodiscard]] Duration timer_jittered(Duration d) const;

  [[nodiscard]] std::uint64_t control_packets() const { return control_packets_; }
  [[nodiscard]] std::uint64_t signaling_rounds() const { return signaling_rounds_; }
  [[nodiscard]] std::uint64_t ignored_requests() const { return ignored_requests_; }
  [[nodiscard]] std::uint64_t give_ups() const { return give_ups_; }

 private:
  [[nodiscard]] Duration jittered(Duration d);

  RequesterMac& mac_;
  sim::Simulator& sim_;
  Config config_;
  Rng rng_;  ///< jitter draws only; split off a dedicated stream
  TimerJitter timer_jitter_;
  std::function<void()> pre_send_;
  std::function<void()> backoff_resume_;

  int controls_this_round_ = 0;
  int consecutive_ignored_ = 0;  ///< capped; exponent of the backoff
  int ignored_streak_ = 0;       ///< uncapped; drives the give-up bound
  sim::Timer backoff_{sim_};

  std::uint64_t control_packets_ = 0;
  std::uint64_t signaling_rounds_ = 0;
  std::uint64_t ignored_requests_ = 0;
  std::uint64_t give_ups_ = 0;
};

}  // namespace bicord::core

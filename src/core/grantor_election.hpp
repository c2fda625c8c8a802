#pragma once
// Deterministic primary election + failover among co-located grantors.
//
// Real dense deployments have many Wi-Fi APs overhearing the same ZigBee
// signaling. BiCord's request/grant loop assumes exactly one grantor answers,
// so coexisting grantors must agree on a primary and hand the role over when
// it dies. GrantorElection is that agreement, modelled as the consistent
// shared view the grantors converge on:
//
//   * election — members register with a stable metric (mean received
//     signaling power of the requester at that grantor, in dBm); the primary
//     is the best-metric member, ties broken toward the lower node id. The
//     metric is geometry-derived and every grantor computes the same
//     ordering, so no election traffic is needed.
//   * shadowing — secondaries do not grant. They still detect requests and
//     overhear the primary's CTS broadcasts, so they track how long the band
//     is protected (`covered_until`) and which requests were answered.
//   * takeover — when a secondary observes a request that no running
//     protection covers and the primary stays silent for `grace`, the
//     next-ranked member promotes itself and replays the pending request
//     through its own grant path. The handoff gap (first uncovered request ->
//     new primary's first grant) is therefore exactly `grace` on a clean
//     failover, and the invariant checker enforces gap <= grace + margin.
//
// Every grant any member issues is recorded in a capped log that the
// InvariantChecker replays to prove no two grantors' protections ever
// overlap (the "double-grant" invariant). The election itself consumes no
// RNG and schedules at most one timer, so single-grantor scenarios that
// never construct it stay byte-identical (PR 5 contract).

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "phy/frame.hpp"
#include "sim/simulator.hpp"
#include "util/time.hpp"

namespace bicord::core {

class GrantorElection {
 public:
  using MemberId = std::size_t;
  /// Takeover hook: the newly promoted primary replays the pending request
  /// observed at `t` through its normal grant path (detection replay).
  using TakeoverHook = std::function<void(TimePoint)>;
  /// Liveness probe: succession skips members whose coordination process is
  /// down. A crashed grantor never self-promotes, so the shared view models
  /// the first *alive* ranked successor's grace timer firing.
  using AliveCheck = std::function<bool()>;

  /// One issued grant, as the invariant checker replays it.
  struct GrantRecord {
    MemberId member = 0;
    TimePoint start;
    TimePoint protected_until;  ///< start + grant + technology margin
  };

  /// One primary handoff. `first_grant` stays empty until the new primary
  /// actually issues a grant — an unfilled record older than handoff_bound()
  /// is an unbounded-gap violation.
  struct HandoffRecord {
    TimePoint request;   ///< the uncovered request that started the grace clock
    TimePoint takeover;  ///< when the secondary promoted itself
    MemberId from = 0;
    MemberId to = 0;
    std::optional<TimePoint> first_grant;
  };

  /// `grace` is how long a secondary waits for the primary to answer an
  /// uncovered request; `handoff_margin` is the technology lease margin that
  /// pads the enforced handoff bound (grace + margin).
  GrantorElection(sim::Simulator& sim, Duration grace, Duration handoff_margin,
                  std::size_t grant_log_capacity = 256);

  GrantorElection(const GrantorElection&) = delete;
  GrantorElection& operator=(const GrantorElection&) = delete;

  /// Registers a grantor. Call for every member before the run starts; the
  /// primary is recomputed after each registration (metric desc, node asc).
  /// A missing `alive` check means "always alive".
  MemberId add_member(phy::NodeId node, double metric_dbm, TakeoverHook hook,
                      AliveCheck alive = nullptr);

  [[nodiscard]] std::size_t member_count() const { return members_.size(); }
  [[nodiscard]] MemberId primary() const { return primary_; }
  [[nodiscard]] bool is_primary(MemberId m) const { return m == primary_; }
  [[nodiscard]] phy::NodeId member_node(MemberId m) const { return members_[m].node; }
  [[nodiscard]] double member_metric_dbm(MemberId m) const { return members_[m].metric_dbm; }

  // --- event feed (engines and agents call these) ---------------------------
  /// A secondary detected a request at `t` that its engine did not grant.
  /// Starts the grace clock when no known protection covers `t`.
  void on_request_observed(MemberId m, TimePoint t);
  /// Member `m` issued a grant at `t` protecting the band for `protection`.
  void on_grant_issued(MemberId m, TimePoint t, Duration protection);
  /// Member `m` overheard another grantor's CTS at `t` advertising
  /// `protection` of NAV — the shadow channel secondaries learn from.
  void on_grant_shadowed(MemberId m, TimePoint t, Duration protection);

  // --- takeover parameters / stats ------------------------------------------
  [[nodiscard]] Duration grace() const { return grace_; }
  /// The enforced handoff bound: grace + technology lease margin.
  [[nodiscard]] Duration handoff_bound() const { return grace_ + handoff_margin_; }
  [[nodiscard]] std::uint64_t takeovers() const { return takeovers_; }
  [[nodiscard]] std::uint64_t shadowed_cts() const { return shadowed_cts_; }
  [[nodiscard]] std::uint64_t requests_observed() const { return requests_observed_; }
  [[nodiscard]] const std::vector<HandoffRecord>& handoffs() const { return handoffs_; }
  /// Largest filled handoff gap (first_grant - request); empty when no
  /// takeover has completed yet.
  [[nodiscard]] std::optional<Duration> max_handoff_gap() const;
  /// Instant until which some member's grant protects the band.
  [[nodiscard]] TimePoint covered_until() const { return covered_until_; }

  // --- grant log (replayed by the InvariantChecker) -------------------------
  /// All-time index of the first retained record (the log is capped).
  [[nodiscard]] std::uint64_t grant_log_base() const { return grant_log_base_; }
  /// All-time index one past the newest record.
  [[nodiscard]] std::uint64_t grant_log_end() const {
    return grant_log_base_ + grant_log_.size();
  }
  /// Record by all-time index; `seq` must be in [grant_log_base, grant_log_end).
  [[nodiscard]] const GrantRecord& grant_record(std::uint64_t seq) const {
    return grant_log_[static_cast<std::size_t>(seq - grant_log_base_)];
  }

 private:
  struct Member {
    phy::NodeId node = 0;
    double metric_dbm = 0.0;
    TakeoverHook hook;
    AliveCheck alive;
  };

  [[nodiscard]] bool member_alive(MemberId m) const {
    return !members_[m].alive || members_[m].alive();
  }

  void recompute_ranking();
  void on_takeover_timer();

  sim::Simulator& sim_;
  Duration grace_;
  Duration handoff_margin_;
  std::size_t grant_log_capacity_;

  std::vector<Member> members_;
  std::vector<MemberId> ranked_;  ///< metric desc, node asc; succession order
  MemberId primary_ = 0;

  TimePoint covered_until_;
  TimePoint last_grant_at_;
  bool any_grant_ = false;

  TimePoint pending_request_;
  sim::Timer takeover_timer_{sim_};

  std::deque<GrantRecord> grant_log_;
  std::uint64_t grant_log_base_ = 0;
  std::vector<HandoffRecord> handoffs_;
  std::uint64_t takeovers_ = 0;
  std::uint64_t shadowed_cts_ = 0;
  std::uint64_t requests_observed_ = 0;
};

}  // namespace bicord::core

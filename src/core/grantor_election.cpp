#include "core/grantor_election.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace bicord::core {

GrantorElection::GrantorElection(sim::Simulator& sim, Duration grace,
                                 Duration handoff_margin,
                                 std::size_t grant_log_capacity)
    : sim_(sim),
      grace_(grace),
      handoff_margin_(handoff_margin),
      grant_log_capacity_(grant_log_capacity) {}

GrantorElection::MemberId GrantorElection::add_member(phy::NodeId node,
                                                      double metric_dbm,
                                                      TakeoverHook hook,
                                                      AliveCheck alive) {
  const MemberId id = members_.size();
  members_.push_back(Member{node, metric_dbm, std::move(hook), std::move(alive)});
  recompute_ranking();
  return id;
}

void GrantorElection::recompute_ranking() {
  ranked_.resize(members_.size());
  for (MemberId i = 0; i < members_.size(); ++i) ranked_[i] = i;
  std::sort(ranked_.begin(), ranked_.end(), [this](MemberId a, MemberId b) {
    if (members_[a].metric_dbm != members_[b].metric_dbm) {
      return members_[a].metric_dbm > members_[b].metric_dbm;
    }
    return members_[a].node < members_[b].node;
  });
  primary_ = ranked_.front();
}

void GrantorElection::on_request_observed(MemberId m, TimePoint t) {
  (void)m;
  ++requests_observed_;
  if (t < covered_until_) return;             // absorbed by a running protection
  if (any_grant_ && last_grant_at_ >= t) return;  // already answered
  if (takeover_timer_.armed()) return;  // grace clock running
  pending_request_ = t;
  takeover_timer_.after(grace_, [this] { on_takeover_timer(); });
}

void GrantorElection::on_grant_issued(MemberId m, TimePoint t, Duration protection) {
  const TimePoint until = t + protection;
  grant_log_.push_back(GrantRecord{m, t, until});
  if (grant_log_.size() > grant_log_capacity_) {
    grant_log_.pop_front();
    ++grant_log_base_;
  }
  if (until > covered_until_) covered_until_ = until;
  last_grant_at_ = t;
  any_grant_ = true;
  if (!handoffs_.empty()) {
    HandoffRecord& h = handoffs_.back();
    if (!h.first_grant.has_value() && h.to == m && t >= h.takeover) {
      h.first_grant = t;
    }
  }
  takeover_timer_.cancel();  // the pending request (if any) is being served
}

void GrantorElection::on_grant_shadowed(MemberId m, TimePoint t, Duration protection) {
  (void)m;
  ++shadowed_cts_;
  const TimePoint until = t + protection;
  if (until > covered_until_) covered_until_ = until;
  if (!any_grant_ || t > last_grant_at_) last_grant_at_ = t;
  any_grant_ = true;
  takeover_timer_.cancel();  // the overheard CTS answers the pending request
}

void GrantorElection::on_takeover_timer() {
  if (any_grant_ && last_grant_at_ >= pending_request_) return;  // answered late
  const MemberId old = primary_;
  std::size_t pos = 0;
  for (std::size_t i = 0; i < ranked_.size(); ++i) {
    if (ranked_[i] == old) {
      pos = i;
      break;
    }
  }
  // Next *alive* member in rank order, wrapping past the silent primary. A
  // dead grantor never self-promotes, so succession skips it; wrapping all
  // the way back to an alive old primary re-arms its own grant path (it was
  // silent, not dead). With every member down there is nobody to promote.
  MemberId next = old;
  for (std::size_t step = 1; step <= ranked_.size(); ++step) {
    const MemberId cand = ranked_[(pos + step) % ranked_.size()];
    if (member_alive(cand)) {
      next = cand;
      break;
    }
  }
  if (next == old && !member_alive(old)) {
    BICORD_LOG(Warn, sim_.now(), "election",
               "takeover aborted: no alive successor for member " << old);
    return;
  }
  primary_ = next;
  ++takeovers_;
  handoffs_.push_back(
      HandoffRecord{pending_request_, sim_.now(), old, primary_, std::nullopt});
  BICORD_LOG(Warn, sim_.now(), "election",
             "takeover: member " << primary_ << " (node " << members_[primary_].node
                                 << ") replaces member " << old << " after "
                                 << grace_ << " of silence");
  const TakeoverHook& hook = members_[primary_].hook;
  if (hook) hook(sim_.now());  // replay the unanswered request
}

std::optional<Duration> GrantorElection::max_handoff_gap() const {
  std::optional<Duration> gap;
  for (const HandoffRecord& h : handoffs_) {
    if (!h.first_grant.has_value()) continue;
    const Duration g = *h.first_grant - h.request;
    if (!gap.has_value() || g > *gap) gap = g;
  }
  return gap;
}

}  // namespace bicord::core

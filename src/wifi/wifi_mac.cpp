#include "wifi/wifi_mac.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/logging.hpp"

namespace bicord::wifi {

using phy::Frame;
using phy::FrameKind;
using phy::RxResult;

namespace {
phy::Radio::Config radio_config(const WifiMac::Config& cfg) {
  phy::Radio::Config rc;
  rc.tech = phy::Technology::WiFi;
  rc.band = phy::wifi_channel(cfg.channel);
  rc.sensitivity_dbm = -82.0;
  rc.sinr_threshold_db = 5.0;
  rc.sinr_width_db = 1.0;
  rc.fading_sigma_db = 1.0;
  // A 2 MHz ZigBee overlap inside the 20 MHz channel leaves enough capture
  // margin that OFDM mostly survives — the paper reports a 1-6 % Wi-Fi PRR
  // drop from ZigBee signaling, which at these link budgets emerges from
  // the raw SINR without an extra coding bonus.
  rc.narrowband_discount_db = 0.0;
  return rc;
}
}  // namespace

WifiMac::WifiMac(phy::Medium& medium, phy::NodeId node, Config config)
    : medium_(medium),
      sim_(medium.simulator()),
      node_(node),
      config_(config),
      radio_(medium, node, radio_config(config)),
      cca_rng_(medium.simulator().rng().split()) {
  radio_.set_rx_callback([this](const RxResult& rx) { handle_rx(rx); });
  radio_.set_activity_callback([this] { reevaluate(); });
}

void WifiMac::enqueue(const SendRequest& req) {
  if (queue_.size() >= kMaxQueue) {
    ++discarded_;
    return;
  }
  // push_back(Attempt{...}), not emplace_back: Attempt is an aggregate, and
  // parenthesized aggregate init (P0960) needs Clang 16 — above our floor.
  queue_.push_back(Attempt{req, sim_.now(), next_seq_++, 0, config_.timings.cw_min, 0, false});
  maybe_start_attempt();
}

void WifiMac::enqueue_front(const SendRequest& req) {
  queue_.push_front(Attempt{req, sim_.now(), next_seq_++, 0, config_.timings.cw_min, 0, false});
  maybe_start_attempt();
}

void WifiMac::pause_for(Duration d) {
  const TimePoint until = sim_.now() + d;
  if (until <= pause_until_) return;
  pause_until_ = until;
  access_timer_.cancel();
  pause_timer_.at(pause_until_, [this] {
    const TimePoint ended = sim_.now();
    reevaluate();
    if (pause_end_cb_) pause_end_cb_(ended);
  });
}

bool WifiMac::paused() const { return pause_until_ > sim_.now(); }

void WifiMac::maybe_start_attempt() {
  if (current_ || queue_.empty()) return;
  current_ = queue_.front();
  queue_.pop_front();
  // Control-class frames (CTS reservations, CTC notifications) get expedited
  // access: no random backoff, PIFS spacing.
  if (current_->req.kind == FrameKind::Data) {
    current_->backoff_slots =
        static_cast<int>(sim_.rng().uniform_int(0, current_->cw));
  } else {
    current_->backoff_slots = 0;
  }
  reevaluate();
}

bool WifiMac::channel_busy() const {
  if (radio_.transmitting() || radio_.receiving()) return true;
  double energy = radio_.energy_dbm();
  if (config_.cca_noise_sigma_db > 0.0) {
    energy += cca_rng_.normal(0.0, config_.cca_noise_sigma_db);
  }
  return energy >= config_.ed_threshold_dbm;
}

TimePoint WifiMac::earliest_access_time() const {
  TimePoint t = sim_.now();
  if (pause_until_ > t) t = pause_until_;
  if (nav_until_ > t) t = nav_until_;
  return t;
}

void WifiMac::reevaluate() {
  if (!current_ || transmitting_ || awaiting_ack_) return;

  const bool busy = channel_busy();
  if (busy) {
    if (access_timer_.armed()) {
      // Freeze: credit fully elapsed idle backoff slots.
      const Duration ifs = current_->req.kind == FrameKind::Data
                               ? config_.timings.difs()
                               : config_.timings.pifs();
      const Duration armed_for = access_timer_.deadline() - sim_.now();
      const Duration total = ifs + current_->backoff_slots * config_.timings.slot;
      const Duration elapsed = total - armed_for;
      if (elapsed > ifs) {
        const auto consumed =
            static_cast<int>((elapsed - ifs) / config_.timings.slot);
        current_->backoff_slots = std::max(0, current_->backoff_slots - consumed);
      }
      access_timer_.cancel();
    }
    // The radio keeps sensing: with a noisy ED measurement a borderline
    // channel can read busy now and idle shortly after, so re-check on a
    // short timer rather than waiting for the next medium edge only.
    if (config_.cca_noise_sigma_db > 0.0 && !recheck_timer_.armed()) {
      recheck_timer_.after(Duration::from_us(300), [this] { reevaluate(); });
    }
    return;
  }

  const TimePoint gate = earliest_access_time();
  if (gate > sim_.now()) {
    // Waiting out a pause or NAV; a timer for the gate is (re)armed lazily.
    if (!gate_timer_.armed()) gate_timer_.at(gate, [this] { reevaluate(); });
    return;
  }

  if (access_timer_.armed()) return;  // already counting down

  const Duration ifs = current_->req.kind == FrameKind::Data ? config_.timings.difs()
                                                             : config_.timings.pifs();
  const Duration wait = ifs + current_->backoff_slots * config_.timings.slot;
  access_timer_.after(wait, [this] { access_timer_fired(); });
}

void WifiMac::access_timer_fired() {
  if (!current_ || transmitting_ || awaiting_ack_) return;
  if (channel_busy() || earliest_access_time() > sim_.now()) {
    reevaluate();
    return;
  }
  start_transmission();
}

Duration WifiMac::frame_airtime(const SendRequest& req) const {
  switch (req.kind) {
    case FrameKind::Data:
      return config_.timings.data_airtime(req.payload_bytes);
    case FrameKind::Cts:
      return config_.timings.cts_airtime();
    default:
      // Notify (CTC broadcast) and other control payloads go at basic rate.
      return config_.timings.airtime(req.payload_bytes + kMacOverheadBytes,
                                     config_.timings.basic_rate_mbps);
  }
}

void WifiMac::start_transmission() {
  Frame frame;
  frame.tech = phy::Technology::WiFi;
  frame.kind = current_->req.kind;
  frame.src = node_;
  frame.dst = current_->req.dst;
  frame.bytes = current_->req.payload_bytes + kMacOverheadBytes;
  frame.seq = current_->seq;
  frame.nav = current_->req.nav;
  frame.tag = current_->req.priority;

  transmitting_ = true;
  radio_.transmit(frame, config_.tx_power_dbm, frame_airtime(current_->req),
                  [this] { on_tx_complete(); });
}

void WifiMac::on_tx_complete() {
  transmitting_ = false;
  // CTS-to-self / CTC notification: honour our own reservation.
  if ((current_->req.kind == FrameKind::Cts || current_->req.kind == FrameKind::Notify) &&
      current_->req.nav > Duration::zero()) {
    pause_for(current_->req.nav);
  }
  const bool wants_ack = config_.ack_data && current_->req.kind == FrameKind::Data &&
                         current_->req.dst != phy::kBroadcastNode;
  if (!wants_ack) {
    finish_attempt(true);
    return;
  }
  awaiting_ack_ = true;
  const Duration timeout = config_.timings.sifs + config_.timings.ack_airtime() +
                           Duration::from_us(30);
  ack_timer_.after(timeout, [this] { ack_timeout_fired(); });
}

void WifiMac::ack_timeout_fired() {
  awaiting_ack_ = false;
  ++current_->retries;
  if (current_->retries > config_.retry_limit) {
    finish_attempt(false);
    return;
  }
  current_->cw = std::min(config_.timings.cw_max, current_->cw * 2 + 1);
  current_->backoff_slots = static_cast<int>(sim_.rng().uniform_int(0, current_->cw));
  reevaluate();
}

void WifiMac::handle_rx(const RxResult& rx) {
  if (rx_hook_) rx_hook_(rx);
  if (!rx.success) return;
  const Frame& f = rx.frame;

  if (f.kind == FrameKind::Ack && f.dst == node_) {
    if (awaiting_ack_ && current_ && f.seq == current_->seq) {
      ack_timer_.cancel();
      awaiting_ack_ = false;
      finish_attempt(true);
    }
    return;
  }

  if (f.kind == FrameKind::Data && f.dst == node_ && config_.ack_data) {
    send_ack(f);
  }

  if ((f.kind == FrameKind::Cts || f.kind == FrameKind::Notify) &&
      f.nav > Duration::zero() && f.src != node_) {
    const TimePoint until = sim_.now() + f.nav;
    if (until > nav_until_) {
      nav_until_ = until;
      access_timer_.cancel();
      reevaluate();
    }
  }
}

void WifiMac::send_ack(const Frame& data) {
  Frame ack;
  ack.tech = phy::Technology::WiFi;
  ack.kind = FrameKind::Ack;
  ack.src = node_;
  ack.dst = data.src;
  ack.bytes = kAckBytes;
  ack.seq = data.seq;
  sim_.after(config_.timings.sifs, [this, ack] {
    // ACKs preempt contention but cannot preempt the radio itself.
    if (radio_.transmitting()) return;
    radio_.transmit(ack, config_.tx_power_dbm, config_.timings.ack_airtime());
  });
}

void WifiMac::finish_attempt(bool was_delivered) {
  SendOutcome outcome;
  outcome.frame.tech = phy::Technology::WiFi;
  outcome.frame.kind = current_->req.kind;
  outcome.frame.src = node_;
  outcome.frame.dst = current_->req.dst;
  outcome.frame.bytes = current_->req.payload_bytes + kMacOverheadBytes;
  outcome.frame.seq = current_->seq;
  outcome.frame.tag = current_->req.priority;
  outcome.delivered = was_delivered;
  outcome.retries = current_->retries;
  outcome.enqueued = current_->enqueued;
  outcome.completed = sim_.now();

  if (was_delivered) {
    ++delivered_;
  } else {
    ++dropped_;
  }
  current_.reset();
  if (sent_cb_) sent_cb_(outcome);
  maybe_start_attempt();
}

}  // namespace bicord::wifi

#include "zigbee/zigbee_mac.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/logging.hpp"

namespace bicord::zigbee {

using phy::Frame;
using phy::FrameKind;
using phy::RxResult;

namespace {
phy::Radio::Config radio_config(const ZigbeeMac::Config& cfg) {
  phy::Radio::Config rc;
  rc.tech = phy::Technology::ZigBee;
  rc.band = phy::zigbee_channel(cfg.channel);
  rc.sensitivity_dbm = -95.0;  // CC2420 datasheet sensitivity
  // DSSS spreading gives robust decode a little above the noise floor.
  rc.sinr_threshold_db = 3.0;
  rc.sinr_width_db = 1.5;
  rc.fading_sigma_db = 1.5;
  return rc;
}
}  // namespace

ZigbeeMac::ZigbeeMac(phy::Medium& medium, phy::NodeId node, Config config)
    : medium_(medium),
      sim_(medium.simulator()),
      node_(node),
      config_(config),
      radio_(medium, node, radio_config(config)) {
  radio_.set_rx_callback([this](const RxResult& rx) { handle_rx(rx); });
}

double ZigbeeMac::tx_power(const SendRequest& req) const {
  return req.power_dbm_override == kNoOverride ? config_.tx_power_dbm
                                               : req.power_dbm_override;
}

bool ZigbeeMac::channel_busy() const {
  return radio_.energy_dbm() >= config_.cca_threshold_dbm;
}

void ZigbeeMac::enqueue(const SendRequest& req) {
  // push_back(Attempt{...}), not emplace_back: Attempt is an aggregate, and
  // parenthesized aggregate init (P0960) needs Clang 16 — above our floor.
  queue_.push_back(Attempt{req, sim_.now(), next_seq_++, 0, 0, config_.timings.mac_min_be});
  maybe_start_attempt();
}

void ZigbeeMac::send_raw(const SendRequest& req, std::function<void()> done) {
  if (radio_.transmitting()) throw std::logic_error("ZigbeeMac::send_raw: radio busy");
  Frame frame;
  frame.tech = phy::Technology::ZigBee;
  frame.kind = req.kind;
  frame.src = node_;
  frame.dst = req.dst;
  frame.bytes = req.payload_bytes + kPhyOverheadBytes + kMacOverheadBytes;
  frame.seq = next_seq_++;
  frame.tag = req.tag;
  radio_.transmit(frame, tx_power(req), config_.timings.data_airtime(req.payload_bytes),
                  std::move(done));
}

void ZigbeeMac::maybe_start_attempt() {
  if (current_ || queue_.empty()) return;
  if (transmitting_) return;  // raw frame in flight; resume on its completion
  current_ = queue_.front();
  queue_.pop_front();
  current_->nb = 0;
  current_->be = config_.timings.mac_min_be;
  start_csma();
}

void ZigbeeMac::start_csma() {
  const auto max_delay = (std::int64_t{1} << current_->be) - 1;
  const auto slots = sim_.rng().uniform_int(0, max_delay);
  const Duration wait = config_.timings.backoff_period * slots +
                        config_.timings.cca_duration;
  backoff_timer_.after(wait, [this] { backoff_expired(); });
}

void ZigbeeMac::backoff_expired() {
  if (!current_) return;
  if (channel_busy() || radio_.transmitting() || radio_.receiving()) {
    ++current_->nb;
    current_->be = std::min(current_->be + 1, config_.timings.mac_max_be);
    if (current_->nb > config_.timings.max_csma_backoffs) {
      finish_attempt(false, true);
      return;
    }
    start_csma();
    return;
  }
  // Rx->Tx turnaround, then transmit.
  backoff_timer_.after(config_.timings.turnaround, [this] {
    if (!current_) return;
    if (channel_busy() || radio_.transmitting()) {
      // Preempted during turnaround (the ZigBee/Wi-Fi race the paper
      // describes: slow radios lose the channel while switching modes).
      ++current_->nb;
      current_->be = std::min(current_->be + 1, config_.timings.mac_max_be);
      if (current_->nb > config_.timings.max_csma_backoffs) {
        finish_attempt(false, true);
        return;
      }
      start_csma();
      return;
    }
    transmit_current();
  });
}

void ZigbeeMac::transmit_current() {
  Frame frame;
  frame.tech = phy::Technology::ZigBee;
  frame.kind = current_->req.kind;
  frame.src = node_;
  frame.dst = current_->req.dst;
  frame.bytes = current_->req.payload_bytes + kPhyOverheadBytes + kMacOverheadBytes;
  frame.seq = current_->seq;
  frame.tag = current_->req.tag;

  transmitting_ = true;
  radio_.transmit(frame, tx_power(current_->req),
                  config_.timings.data_airtime(current_->req.payload_bytes),
                  [this] { on_tx_complete(); });
}

void ZigbeeMac::on_tx_complete() {
  transmitting_ = false;
  if (!current_) {
    maybe_start_attempt();
    return;
  }
  const bool wants_ack = config_.ack_data && current_->req.kind == FrameKind::Data &&
                         current_->req.dst != phy::kBroadcastNode;
  if (!wants_ack) {
    finish_attempt(true, false);
    return;
  }
  awaiting_ack_ = true;
  ack_timer_.after(config_.timings.ack_wait + config_.timings.ack_airtime(),
                   [this] { ack_timeout_fired(); });
}

void ZigbeeMac::ack_timeout_fired() {
  awaiting_ack_ = false;
  if (!current_) return;
  ++current_->retries;
  if (current_->retries > config_.retry_limit) {
    finish_attempt(false, false);
    return;
  }
  current_->nb = 0;
  current_->be = config_.timings.mac_min_be;
  start_csma();
}

void ZigbeeMac::handle_rx(const RxResult& rx) {
  if (rx_hook_) rx_hook_(rx);
  if (!rx.success) return;
  const Frame& f = rx.frame;

  if (f.kind == FrameKind::Ack && f.dst == node_) {
    if (awaiting_ack_ && current_ && f.seq == current_->seq) {
      ack_timer_.cancel();
      awaiting_ack_ = false;
      finish_attempt(true, false);
    }
    return;
  }

  if (f.kind == FrameKind::Data && f.dst == node_ && config_.ack_data) {
    send_ack(f);
  }
}

void ZigbeeMac::send_ack(const Frame& data) {
  Frame ack;
  ack.tech = phy::Technology::ZigBee;
  ack.kind = FrameKind::Ack;
  ack.src = node_;
  ack.dst = data.src;
  ack.bytes = kAckFrameBytes;
  ack.seq = data.seq;
  sim_.after(config_.timings.turnaround, [this, ack] {
    if (radio_.transmitting() || radio_.state() == phy::RadioState::Sleep) return;
    radio_.transmit(ack, config_.tx_power_dbm, config_.timings.ack_airtime());
  });
}

void ZigbeeMac::finish_attempt(bool was_delivered, bool access_failure) {
  SendOutcome outcome;
  outcome.frame.tech = phy::Technology::ZigBee;
  outcome.frame.kind = current_->req.kind;
  outcome.frame.src = node_;
  outcome.frame.dst = current_->req.dst;
  outcome.frame.bytes = current_->req.payload_bytes + kPhyOverheadBytes + kMacOverheadBytes;
  outcome.frame.seq = current_->seq;
  outcome.frame.tag = current_->req.tag;
  outcome.delivered = was_delivered;
  outcome.channel_access_failure = access_failure;
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

}  // namespace bicord::zigbee

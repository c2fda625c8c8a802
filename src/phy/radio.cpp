#include "phy/radio.hpp"

#include <algorithm>
#include <stdexcept>

#include "phy/units.hpp"
#include "util/logging.hpp"

namespace bicord::phy {

Radio::Radio(Medium& medium, NodeId node, Config config)
    : medium_(medium),
      node_(node),
      config_(config),
      rng_(medium.simulator().rng().split()),
      noise_mw_(dbm_to_mw(Medium::noise_floor_dbm(config.band))) {
  // More concurrent foreign transmissions than this never occur in practice;
  // reserving keeps the per-tx bookkeeping allocation-free from the start.
  ongoing_.reserve(16);
  listener_seq_ = medium_.attach(this, node_);
}

Radio::~Radio() { medium_.detach(this); }

void Radio::set_band(Band band) {
  if (state_ != RadioState::Idle && state_ != RadioState::Sleep) {
    throw std::logic_error("Radio::set_band: radio busy");
  }
  apply_band(band);
}

void Radio::retune(Band band) {
  if (rx_) {
    // The lock is gone the instant the synthesizer moves: no decode draw,
    // no rx callback — the frame simply never finished for this receiver.
    rx_.reset();
    ++receptions_truncated_;
    if (state_ == RadioState::Rx) enter(RadioState::Idle);
  }
  // A transmission in flight is unaffected: the medium carries its original
  // band, and own-tx completion does not consult config_.band.
  apply_band(band);
}

void Radio::apply_band(Band band) {
  config_.band = band;
  noise_mw_ = dbm_to_mw(Medium::noise_floor_dbm(band));
  // Retuning changes what the front end sees of every transmission already
  // on the air (band overlap, narrowband discount): recompute each tracked
  // entry against the new band, preserving its fading draw, so energy and
  // SINR queries never mix new-band noise with old-band signal powers.
  foreign_mw_sum_ = 0.0;
  for (auto& o : ongoing_) {
    if (const ActiveTransmission* tx = medium_.find_active(o.id)) {
      o = make_ongoing(*tx, o.fading_db);
    }
    foreign_mw_sum_ += o.rx_power_mw;
  }
  // The start edge skipped every transmission whose band missed the old
  // band; track those the new band overlaps. Only a transmission that began
  // after this radio attached qualifies: the medium owes the radio its end
  // edge while it is audible here, so no entry stays in ongoing_ forever.
  medium_.for_each_active_after(listener_seq_, [this](const ActiveTransmission& tx) {
    if (!hears(tx)) return;
    const bool tracked = std::any_of(ongoing_.begin(), ongoing_.end(),
                                     [&tx](const Ongoing& o) { return o.id == tx.id; });
    if (!tracked) track(tx);
  });
}

bool Radio::hears(const ActiveTransmission& tx) const {
  if (tx.frame.src == node_) return false;  // own emission
  if (tx.fault_dropped) return false;       // fault injection: deaf to this frame
  // Both remaining tests are pure; the band test is the cheaper one.
  return overlaps(tx.band, config_.band) && medium_.audible(tx, node_);
}

void Radio::track(const ActiveTransmission& tx) {
  const double fading_db = config_.fading_sigma_db > 0.0
                               ? rng_.normal(0.0, config_.fading_sigma_db)
                               : 0.0;
  ongoing_.push_back(make_ongoing(tx, fading_db));
  foreign_mw_sum_ += ongoing_.back().rx_power_mw;
}

Radio::Ongoing Radio::make_ongoing(const ActiveTransmission& tx,
                                   double fading_db) const {
  // Retuned away from the transmission's band: nothing reaches the front
  // end, but the entry keeps its fading draw for a retune back.
  if (!overlaps(tx.band, config_.band)) {
    return Ongoing{tx.id, fading_db, kFloorDbm, 0.0, 0.0, tx.frame.tech, false};
  }
  const double p = medium_.rx_power_dbm(tx, node_, config_.band) + fading_db;
  // Narrowband interferers are largely ridden out by coding/interleaving
  // (SINR only — they remain fully visible to energy queries and CSI).
  double p_sinr = p;
  if (config_.narrowband_discount_db > 0.0 &&
      tx.band.width_mhz < config_.narrowband_ratio * config_.band.width_mhz) {
    p_sinr -= config_.narrowband_discount_db;
  }
  const double p_mw = dbm_to_mw(p);
  const double sinr_mw = p_sinr == p ? p_mw : dbm_to_mw(p_sinr);
  return Ongoing{tx.id, fading_db, p, p_mw, sinr_mw, tx.frame.tech, true};
}

void Radio::enter(RadioState next) {
  if (state_ == next) return;
  const RadioState prev = state_;
  state_ = next;
  if (state_cb_) state_cb_(prev, next);
}

void Radio::transmit(const Frame& frame, double tx_power_dbm, Duration duration,
                     TxDoneCallback done) {
  if (state_ == RadioState::Tx) throw std::logic_error("Radio::transmit: already transmitting");
  if (state_ == RadioState::Sleep) throw std::logic_error("Radio::transmit: radio asleep");
  if (frame.src != node_) throw std::invalid_argument("Radio::transmit: frame.src mismatch");
  if (rx_) {
    // Half-duplex: transmitting aborts the in-progress reception.
    rx_.reset();
  }
  enter(RadioState::Tx);
  tx_done_ = std::move(done);
  ++frames_sent_;
  own_tx_ = medium_.begin_tx(frame, config_.band, tx_power_dbm, duration);
}

double Radio::energy_dbm() const {
  return mw_to_dbm(foreign_mw_sum_ + noise_mw_);
}

void Radio::sleep() {
  if (state_ == RadioState::Tx) throw std::logic_error("Radio::sleep: transmitting");
  rx_.reset();
  enter(RadioState::Sleep);
}

void Radio::wake() {
  if (state_ == RadioState::Sleep) enter(RadioState::Idle);
}

bool Radio::decodable(const ActiveTransmission& tx) const {
  if (tx.frame.tech != config_.tech) return false;
  if (tx.frame.kind == FrameKind::Noise) return false;
  // Require the transmission to substantially cover this radio's channel.
  return overlap_mhz(tx.band, config_.band) >= 0.5 * config_.band.width_mhz;
}

void Radio::update_rx_sinr() {
  if (!rx_) return;
  auto& r = rx_->result;
  const double noise_mw = noise_mw_;
  double interf_mw = 0.0;
  for (const auto& o : ongoing_) {
    if (o.id == rx_->tx_id || !o.in_band) continue;
    interf_mw += o.sinr_mw;
    if (o.rx_power_dbm > r.max_interference_dbm) r.max_interference_dbm = o.rx_power_dbm;
    if (o.tech == Technology::ZigBee) {
      r.zigbee_overlap = true;
      if (o.rx_power_dbm > r.zigbee_overlap_dbm) {
        r.zigbee_overlap_dbm = o.rx_power_dbm;
        r.zigbee_overlap_tx = o.id;
      }
    }
  }
  const double sinr = r.rssi_dbm - mw_to_dbm(interf_mw + noise_mw);
  if (sinr < r.min_sinr_db) r.min_sinr_db = sinr;
}

void Radio::on_tx_start(const ActiveTransmission& tx) {
  // Disjoint band or below the medium's snap floor: don't track, and —
  // critically — don't draw fading or poke the MAC, so RNG streams are
  // bitwise identical whether or not the medium's spatial index pruned
  // this event away.
  if (!hears(tx)) return;
  track(tx);
  const double p = ongoing_.back().rx_power_dbm;

  if (state_ == RadioState::Sleep) return;

  if (state_ == RadioState::Idle && !rx_ && decodable(tx) && p >= config_.sensitivity_dbm) {
    // Lock onto the frame (preamble acquisition).
    CurrentRx cur;
    cur.tx_id = tx.id;
    cur.result.frame = tx.frame;
    cur.result.rssi_dbm = p;
    cur.result.min_sinr_db = 1e9;  // lowered by update_rx_sinr below
    cur.result.start = tx.start;
    cur.result.end = tx.end;
    rx_ = cur;
    enter(RadioState::Rx);
  }
  // Whether locked or not, a new emission changes the interference picture.
  update_rx_sinr();
  if (activity_cb_) activity_cb_();
}

void Radio::on_tx_end(const ActiveTransmission& tx) {
  if (tx.frame.src == node_) {
    if (tx.id == own_tx_) {
      own_tx_ = kInvalidTx;
      enter(RadioState::Idle);
      if (tx_done_) {
        auto done = std::move(tx_done_);
        tx_done_ = nullptr;
        done();
      }
      if (activity_cb_) activity_cb_();
    }
    return;
  }

  // Untracked transmissions (fault-dropped, disjoint or below the snap
  // floor, and not picked up by a retune) end without a trace: no SINR
  // sample, no MAC poke. Mirrors on_tx_start's early-outs so both medium
  // paths consume RNG identically.
  const auto it = std::find_if(ongoing_.begin(), ongoing_.end(),
                               [&tx](const Ongoing& o) { return o.id == tx.id; });
  if (it == ongoing_.end()) return;

  // Capture the final SINR sample before the emission leaves the air.
  update_rx_sinr();

  const bool was_locked = rx_ && rx_->tx_id == tx.id;
  foreign_mw_sum_ -= it->rx_power_mw;
  ongoing_.erase(it);
  if (ongoing_.empty()) foreign_mw_sum_ = 0.0;

  if (was_locked) finalize_rx(tx);
  if (activity_cb_) activity_cb_();
}

void Radio::finalize_rx(const ActiveTransmission& tx) {
  RxResult result = rx_->result;
  rx_.reset();
  if (state_ == RadioState::Rx) enter(RadioState::Idle);

  // Logistic PER curve around the SINR threshold gives a soft decode edge.
  const double x = (result.min_sinr_db - config_.sinr_threshold_db) /
                   (config_.sinr_width_db > 0.0 ? config_.sinr_width_db : 1.0);
  const double p_success = 1.0 / (1.0 + std::exp(-x));
  result.success = rng_.bernoulli(p_success);
  if (tx.fault_corrupted) result.success = false;  // fault injection wins
  result.end = tx.end;

  if (result.success) {
    ++frames_received_;
  } else {
    ++frames_corrupted_;
  }
  BICORD_LOG(Trace, medium_.simulator().now(), "phy.radio",
             medium_.node_name(node_) << " rx " << to_string(result.frame.kind) << " from "
                                      << result.frame.src << " rssi=" << result.rssi_dbm
                                      << " sinr=" << result.min_sinr_db
                                      << (result.success ? " OK" : " CORRUPT"));
  if (rx_cb_) rx_cb_(result);
}

}  // namespace bicord::phy

#pragma once
// Half-duplex transceiver bound to one node and one channel.
//
// The radio is the boundary between the shared medium and a MAC: it decides
// which on-air frames it can lock onto, tracks interference for the locked
// frame over its whole duration (min-SINR), and reports each completed
// reception with rich diagnostics (RSSI, min SINR, strongest cross-
// technology overlap). The overlap diagnostics feed the CSI model: a Wi-Fi
// reception that overlapped a ZigBee transmission is exactly the event
// BiCord's cross-technology signaling relies on.

#include <functional>
#include <optional>
#include <vector>

#include "phy/frame.hpp"
#include "phy/medium.hpp"
#include "phy/spectrum.hpp"
#include "phy/units.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace bicord::phy {

enum class RadioState : std::uint8_t { Sleep, Idle, Rx, Tx };

[[nodiscard]] constexpr const char* to_string(RadioState s) {
  switch (s) {
    case RadioState::Sleep: return "Sleep";
    case RadioState::Idle: return "Idle";
    case RadioState::Rx: return "Rx";
    case RadioState::Tx: return "Tx";
  }
  return "?";
}

/// A completed reception attempt delivered to the MAC.
struct RxResult {
  Frame frame;
  double rssi_dbm = kFloorDbm;            ///< signal power at this receiver
  double min_sinr_db = 0.0;               ///< worst SINR over the frame
  double max_interference_dbm = kFloorDbm;///< strongest concurrent emission
  double zigbee_overlap_dbm = kFloorDbm;  ///< strongest 802.15.4 overlap
  bool zigbee_overlap = false;            ///< any 802.15.4 tx overlapped
  TxId zigbee_overlap_tx = kInvalidTx;    ///< id of the strongest 802.15.4 tx
  bool success = false;                   ///< frame decoded correctly
  TimePoint start;
  TimePoint end;
};

class Radio final : public MediumListener {
 public:
  struct Config {
    Technology tech = Technology::WiFi;
    Band band;
    /// Minimum received power to lock onto (and later decode) a frame.
    double sensitivity_dbm = -90.0;
    /// SINR at which decoding succeeds with probability 0.5; the success
    /// curve is a logistic of width `sinr_width_db` around it.
    double sinr_threshold_db = 4.0;
    double sinr_width_db = 1.0;
    /// Per-frame fast-fading std-dev applied to the signal power.
    double fading_sigma_db = 1.5;
    /// Extra SINR-only attenuation applied to interferers much narrower than
    /// this radio's band (OFDM coding/interleaving rides out narrowband
    /// jammers; a 2 MHz ZigBee tone punctures only 2 of 20 MHz). Applied when
    /// the interferer band is below `narrowband_ratio` of our band.
    double narrowband_discount_db = 0.0;
    double narrowband_ratio = 0.3;
  };

  using RxCallback = std::function<void(const RxResult&)>;
  using TxDoneCallback = std::function<void()>;
  /// (previous state, new state) — drives the energy meter.
  using StateCallback = std::function<void(RadioState, RadioState)>;
  /// Fires on every medium activity edge (any tx start/end) — lets MACs
  /// re-evaluate CCA without polling.
  using ActivityCallback = std::function<void()>;

  Radio(Medium& medium, NodeId node, Config config);
  ~Radio();

  Radio(const Radio&) = delete;
  Radio& operator=(const Radio&) = delete;

  [[nodiscard]] NodeId node() const { return node_; }
  [[nodiscard]] RadioState state() const { return state_; }
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] Band band() const { return config_.band; }
  void set_band(Band band);
  /// Frequency-agility variant of set_band for hopping radios (TSCH slot
  /// boundaries): legal in any state. An in-progress reception is lost —
  /// the slot-boundary truncation a real hopping receiver suffers (counted
  /// in receptions_truncated()). An in-progress transmission keeps its
  /// original band on the medium (the carrier is already on the air); only
  /// the receive front end moves.
  ///
  /// Both set_band and retune keep every tracked transmission's fading
  /// draw; one whose band the new band misses contributes nothing until a
  /// later retune overlaps it again. A foreign transmission in flight that
  /// the radio did not track (its band missed the old band) and that
  /// overlaps the new one is picked up with a fresh fading draw, in
  /// ascending TxId order, if it began after the radio attached.
  void retune(Band band);

  void set_rx_callback(RxCallback cb) { rx_cb_ = std::move(cb); }
  void set_state_callback(StateCallback cb) { state_cb_ = std::move(cb); }
  void set_activity_callback(ActivityCallback cb) { activity_cb_ = std::move(cb); }

  /// Starts a transmission. The radio must not already be transmitting; an
  /// in-progress reception is aborted (half-duplex). `done` fires when the
  /// last symbol leaves the antenna.
  void transmit(const Frame& frame, double tx_power_dbm, Duration duration,
                TxDoneCallback done = {});

  /// In-band energy right now, excluding this node's own emissions — what a
  /// CCA energy-detect reads. O(1): the radio keeps a running linear-power
  /// sum of the foreign transmissions it tracks, so the per-edge CCA
  /// re-evaluations in the MACs never re-walk the medium. The reading
  /// includes this radio's per-transmission fading draw (the ED front end
  /// measures the same channel the demodulator sees). Each transmission's
  /// power is evaluated against the radio's current band — set_band()
  /// recomputes the tracked entries on retune — and one whose band misses
  /// it adds nothing.
  [[nodiscard]] double energy_dbm() const;

  /// True if a frame this radio could decode is currently on the air and
  /// being received.
  [[nodiscard]] bool receiving() const { return state_ == RadioState::Rx; }
  [[nodiscard]] bool transmitting() const { return state_ == RadioState::Tx; }

  void sleep();
  void wake();

  // MediumListener:
  void on_tx_start(const ActiveTransmission& tx) override;
  void on_tx_end(const ActiveTransmission& tx) override;

  // --- statistics -----------------------------------------------------------
  [[nodiscard]] std::uint64_t frames_sent() const { return frames_sent_; }
  [[nodiscard]] std::uint64_t frames_received() const { return frames_received_; }
  [[nodiscard]] std::uint64_t frames_corrupted() const { return frames_corrupted_; }
  /// Receptions cut short by a retune() while locked onto a frame.
  [[nodiscard]] std::uint64_t receptions_truncated() const {
    return receptions_truncated_;
  }

 private:
  /// One foreign transmission currently on the air, with its received power
  /// pre-converted to linear units at insertion (on_tx_start): the SINR
  /// update runs on every medium edge and must not pay a pow() per entry.
  /// `sinr_mw` already includes the narrowband discount. Both powers are
  /// evaluated against the radio's current band; set_band() recomputes every
  /// entry so a retune mid-air never mixes old-band signal powers with the
  /// new band's noise floor. `fading_db` keeps the per-transmission fading
  /// draw so that recomputation preserves it. An entry whose band misses the
  /// current band (only a retune makes one) has both powers at 0 mW and
  /// `in_band` false: it adds no energy and no interference diagnostics.
  struct Ongoing {
    TxId id;
    double fading_db;    ///< this radio's fast-fading draw for the tx
    double rx_power_dbm;
    double rx_power_mw;  ///< dbm_to_mw(rx_power_dbm), cached
    double sinr_mw;      ///< dbm_to_mw(rx_power_dbm - narrowband discount)
    Technology tech;
    bool in_band;        ///< overlaps(tx band, current band)
  };
  struct CurrentRx {
    TxId tx_id;
    RxResult result;
  };

  void enter(RadioState next);
  /// Shared tail of set_band/retune: swap the band, recompute every
  /// tracked entry (and the noise floor) against it, and pick up the
  /// untracked in-flight transmissions it now overlaps.
  void apply_band(Band band);
  /// True when `tx` reaches this radio at all: a foreign, undropped,
  /// audible transmission whose band overlaps the radio's band.
  [[nodiscard]] bool hears(const ActiveTransmission& tx) const;
  /// Starts tracking foreign transmission `tx` with a fresh fading draw.
  void track(const ActiveTransmission& tx);
  /// Builds the tracked-power entry for `tx` against the radio's current
  /// band, applying `fading_db` and the narrowband discount. Shared by
  /// track() and the set_band recompute.
  [[nodiscard]] Ongoing make_ongoing(const ActiveTransmission& tx,
                                     double fading_db) const;
  /// True when this radio's PHY can demodulate `tx` (same technology and
  /// sufficient band alignment).
  [[nodiscard]] bool decodable(const ActiveTransmission& tx) const;
  void update_rx_sinr();
  void finalize_rx(const ActiveTransmission& tx);

  Medium& medium_;
  NodeId node_;
  Config config_;
  Rng rng_;
  std::uint64_t listener_seq_ = 0;  ///< this radio's attach sequence
  RadioState state_ = RadioState::Idle;
  double noise_mw_ = 0.0;  ///< dbm_to_mw(noise floor of config_.band), cached

  /// Foreign energy on the air. A handful of entries at most, so a flat
  /// vector with linear search beats a node-based map (no allocation per
  /// transmission once capacity is warm, cache-friendly SINR sweeps).
  std::vector<Ongoing> ongoing_;
  /// Running sum of ongoing_[i].rx_power_mw, snapped back to exactly zero
  /// whenever the air goes quiet so incremental +/- rounding cannot drift.
  double foreign_mw_sum_ = 0.0;
  std::optional<CurrentRx> rx_;
  RxCallback rx_cb_;
  StateCallback state_cb_;
  ActivityCallback activity_cb_;
  TxDoneCallback tx_done_;
  TxId own_tx_ = kInvalidTx;

  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_received_ = 0;
  std::uint64_t frames_corrupted_ = 0;
  std::uint64_t receptions_truncated_ = 0;
};

}  // namespace bicord::phy

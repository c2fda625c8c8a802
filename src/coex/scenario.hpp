#pragma once
// The paper's experimental testbed in a box (Fig. 6).
//
// A Scenario wires up the full stack for one run: the office medium, the
// Wi-Fi link E -> F (3 m apart), a ZigBee sender at one of the four
// evaluated locations A-D with its receiver, the chosen coordination scheme
// (BiCord / ECC / plain CSMA), workload generators, optional mobility, and
// the measurement probes. Examples and every bench build on this class.

#include <memory>
#include <optional>
#include <vector>

#include "coex/metrics.hpp"
#include "core/bicord_wifi.hpp"
#include "core/bicord_zigbee.hpp"
#include "core/ecc.hpp"
#include "fault/fault_injector.hpp"
#include "interferers/bluetooth.hpp"
#include "interferers/lteu.hpp"
#include "phy/medium.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"
#include "wifi/traffic.hpp"
#include "wifi/wifi_mac.hpp"
#include "zigbee/duty_cycle.hpp"
#include "zigbee/energy.hpp"
#include "zigbee/traffic.hpp"
#include "zigbee/tsch.hpp"
#include "zigbee/zigbee_mac.hpp"

namespace bicord::coex {

/// Which testbed a config describes: the Wi-Fi/ZigBee office (coex::Scenario)
/// or the ZigBee link inside a BLE cluster (coex::BleScenario).
enum class Topology { Coex, Ble };
enum class Coordination { BiCord, Ecc, Csma, LteU, Tsch };
enum class ZigbeeLocation { A, B, C, D };
enum class WifiTrafficKind { Cbr, Saturated, Priority };

[[nodiscard]] const char* to_string(Coordination c);
[[nodiscard]] const char* to_string(ZigbeeLocation l);

/// Paper footnote 3: signaling power used at each location.
[[nodiscard]] double default_signaling_power_dbm(ZigbeeLocation loc);
/// Testbed coordinates (metres) for the ZigBee sender at each location.
[[nodiscard]] phy::Position location_position(ZigbeeLocation loc);

/// An additional ZigBee sender/receiver pair sharing the testbed (paper
/// Sec. VI: "multiple ZigBee nodes with different traffic pattern").
struct ExtraZigbeeSpec {
  ZigbeeLocation location = ZigbeeLocation::C;
  /// Placement offset from the location's nominal coordinates so two nodes
  /// at the same location do not coincide.
  phy::Position offset{0.4, -0.3};
  zigbee::BurstSource::Config burst;
  double data_power_dbm = -7.0;
  std::optional<double> signaling_power_dbm;
};

/// A field of background devices surrounding the office testbed: Wi-Fi
/// AP/client CBR pairs, plain-CSMA ZigBee links, and Bluetooth interferers,
/// placed over a square area by the deterministic cluster process in
/// placement.hpp. Powers the dense / dense1k / city presets; empty by
/// default, so every historical scenario is byte-identical to before this
/// struct existed.
struct DenseFieldSpec {
  int wifi_pairs = 0;    ///< AP + client CBR pairs (2 nodes each)
  int zigbee_links = 0;  ///< sender + receiver CSMA links (2 nodes each)
  int ble_nodes = 0;     ///< frequency-hopping Bluetooth interferers
  double area_m = 1200.0;       ///< square field edge, metres
  int clusters = 12;            ///< 0 = uniform placement
  double cluster_sigma_m = 40.0;
  /// Placement draws from Rng(placement_seed), never the simulator stream:
  /// growing the field cannot perturb the testbed's stochastic behaviour.
  std::uint64_t placement_seed = 97;
  double wifi_tx_power_dbm = 20.0;
  std::uint32_t wifi_payload_bytes = 400;
  Duration wifi_interval = Duration::from_ms(25);  ///< jittered per pair
  double zigbee_tx_power_dbm = 0.0;
  double ble_tx_power_dbm = 4.0;
  [[nodiscard]] bool empty() const {
    return wifi_pairs <= 0 && zigbee_links <= 0 && ble_nodes <= 0;
  }
};

/// The BLE links packed around the ZigBee link of the `ble` topology (paper
/// Sec. VII-D, coex::BleScenario); Scenario ignores them.
struct BleClusterSpec {
  int links = 4;          ///< BLE master/slave pairs
  bool coordinate = true;  ///< run BiCord-for-BLE agents on the BLE masters
  Duration connection_interval = Duration::from_us(7500);
  std::uint32_t payload_bytes = 251;  ///< max LE data PDU
  double tx_power_dbm = 4.0;          ///< class-2-ish audio links
  int zigbee_channel = 24;
};

struct ScenarioConfig {
  Topology topology = Topology::Coex;
  std::uint64_t seed = 1;
  Coordination coordination = Coordination::BiCord;
  ZigbeeLocation location = ZigbeeLocation::A;

  // --- Wi-Fi side ---------------------------------------------------------
  WifiTrafficKind wifi_traffic = WifiTrafficKind::Saturated;
  std::uint32_t wifi_payload_bytes = 4000;  ///< aggregated MPDU
  Duration wifi_cbr_interval = Duration::from_ms(1);
  std::uint32_t wifi_cbr_payload_bytes = 100;  ///< paper: 100 B every 1 ms
  double wifi_high_share = 0.3;                ///< Priority mode only
  Duration wifi_priority_cycle = Duration::from_sec(1);
  /// When false the Wi-Fi device never grants white spaces (BiCord policy
  /// "ignore requests").
  bool wifi_grants_requests = true;

  // --- multi-grantor coordination -------------------------------------------
  /// Additional co-located grantor APs (BiCord only): distance in metres of
  /// each extra grantor from the ZigBee sender. Non-empty builds a
  /// GrantorElection over the testbed receiver F plus these APs; empty keeps
  /// the historical single-grantor behaviour byte for byte.
  std::vector<double> extra_grantors_m;
  /// How long a secondary grantor waits for the primary to answer an
  /// uncovered request before taking over.
  Duration election_grace = Duration::from_ms(60);

  // --- ZigBee workload -----------------------------------------------------
  zigbee::BurstSource::Config burst;
  /// Paper Sec. VIII-A: the ZigBee sender uses -7 dBm for data and loses
  /// >95 % of packets whenever the Wi-Fi sender is active.
  double zigbee_data_power_dbm = -7.0;
  /// Control-packet power; nullopt means the per-location default from
  /// default_signaling_power_dbm() (paper footnote 3).
  std::optional<double> signaling_power_dbm;
  /// Distance from ZigBee sender to its receiver (paper: 1-5 m).
  std::optional<double> zigbee_link_distance_m;
  /// Additional ZigBee links beyond the primary one.
  std::vector<ExtraZigbeeSpec> extra_zigbee;

  // --- protocol parameters --------------------------------------------------
  // T_c in the estimator reflects *this implementation's* per-round
  // signaling cost (one 4.4 ms control packet + gap polls), as the paper's
  // 8 ms reflected theirs. The end-of-burst gap likewise covers this
  // substrate's re-signal latency (ACK timeout + CSMA failure + control +
  // detection, ~12-18 ms): a continuing burst must reliably re-request
  // within the gap or the estimator never sees the shortfall.
  core::AllocatorParams allocator{
      .control_duration = Duration::from_ms(5),
      .end_of_burst_gap = Duration::from_ms(30),
  };
  core::SignalingParams signaling;
  csi::CsiModelParams csi;
  csi::DetectorParams detector;
  core::EccWifiAgent::Config ecc;

  // --- environment ----------------------------------------------------------
  /// 40 dB @ 1 m, exponent 3.0, shadowing sigma 0 dB (off by default — the
  /// CSI/impulse models carry the fast variation), distances clamped at 0.1 m.
  phy::PathLossModel path_loss{40.0, 3.0, 0.0, 0.1};
  /// Medium performance knobs (snap floor, spatial index), for both
  /// topologies' media. Defaults keep the historical brute-force behaviour
  /// bit for bit; dense presets flip the index on, and the equivalence suite
  /// proves outputs stay identical.
  phy::MediumTuning medium;
  /// Background device field for the dense / city presets (empty = none).
  DenseFieldSpec dense;
  BleClusterSpec ble;
  bool person_mobility = false;    ///< someone walks near the Wi-Fi receiver
  double person_event_rate_hz = 0.4;
  bool device_mobility = false;    ///< the ZigBee sender moves within ~1 m
  Duration device_move_period = Duration::from_ms(400);
  /// Duty-cycle the primary ZigBee sender's radio (sleep when idle) — the
  /// battery-operation mode the paper's energy analysis assumes.
  bool zigbee_duty_cycle = false;

  // --- third/fourth technologies ---------------------------------------------
  /// LTE-U eNB parameters (Coordination::LteU only): CSAT period, duty
  /// cycle, transmit power. The eNB replaces the Wi-Fi device as grantor.
  interferers::LteUDevice::Config lteu;
  /// TSCH slotframe hop period (Coordination::Tsch only).
  Duration tsch_hop_period = Duration::from_ms(10);

  // --- fault injection -------------------------------------------------------
  /// Adversarial-channel faults applied during the run. Part of the config
  /// value so ExperimentRunner trials replay the same plan per seed. Empty
  /// by default: no injector is built and behaviour is byte-identical to a
  /// plan-free scenario.
  fault::FaultPlan fault_plan;
};

class Scenario {
 public:
  explicit Scenario(ScenarioConfig config);

  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  /// Advances the simulation. Workloads start on construction.
  void run_for(Duration d);
  /// Marks the start of the metric window (call after a warm-up period).
  void start_measurement();

  // --- results --------------------------------------------------------------
  [[nodiscard]] UtilizationReport utilization() const;
  [[nodiscard]] const core::ZigbeeLinkStats& zigbee_stats() const;
  /// ZigBee goodput over the measurement window, in kbit/s.
  [[nodiscard]] double zigbee_goodput_kbps() const;
  /// Wi-Fi per-frame delay (enqueue -> delivered), by priority tag.
  [[nodiscard]] const Samples& wifi_delay_ms(int priority) const;
  /// Testbed Wi-Fi Data frames delivered over those offered since
  /// construction: frames with a send outcome plus frames the sender's full
  /// queue discarded.
  [[nodiscard]] double wifi_delivery_ratio() const;

  // --- components -----------------------------------------------------------
  [[nodiscard]] sim::Simulator& simulator() { return *sim_; }
  [[nodiscard]] phy::Medium& medium() { return *medium_; }
  [[nodiscard]] wifi::WifiMac& wifi_sender() { return *wifi_sender_mac_; }
  [[nodiscard]] wifi::WifiMac& wifi_receiver() { return *wifi_receiver_mac_; }
  [[nodiscard]] zigbee::ZigbeeMac& zigbee_sender() { return *zigbee_sender_mac_; }
  [[nodiscard]] zigbee::ZigbeeMac& zigbee_receiver() { return *zigbee_receiver_mac_; }
  [[nodiscard]] core::ZigbeeAgentBase& zigbee_agent() { return *zigbee_agent_; }
  [[nodiscard]] zigbee::BurstSource& burst_source() { return *burst_source_; }
  [[nodiscard]] zigbee::EnergyMeter& energy_meter() { return *energy_meter_; }
  /// Non-null only for the matching coordination mode.
  [[nodiscard]] core::BiCordWifiAgent* bicord_wifi() { return bicord_wifi_.get(); }
  [[nodiscard]] core::BiCordZigbeeAgent* bicord_zigbee();
  [[nodiscard]] core::EccWifiAgent* ecc_wifi() { return ecc_wifi_.get(); }
  /// Non-null when `zigbee_duty_cycle` is enabled.
  [[nodiscard]] zigbee::DutyCycler* duty_cycler() { return duty_cycler_.get(); }
  /// Non-null only under Coordination::LteU: the duty-cycled eNB and its
  /// undecodable-request grantor.
  [[nodiscard]] interferers::LteUDevice* lteu_device() { return lteu_device_.get(); }
  [[nodiscard]] interferers::LteUGrantor* lteu_grantor() { return lteu_grantor_.get(); }
  /// Non-null only under Coordination::Tsch: the shared slotframe clock and
  /// the hopping requester (which is also zigbee_agent()).
  [[nodiscard]] zigbee::TschHopSchedule* tsch_schedule() { return tsch_schedule_.get(); }
  [[nodiscard]] zigbee::TschRequester* tsch_requester();
  [[nodiscard]] const ScenarioConfig& config() const { return config_; }
  [[nodiscard]] wifi::PriorityScheduleSource* priority_source() {
    return priority_source_.get();
  }
  /// Non-null when the config carried a non-empty fault plan.
  [[nodiscard]] fault::FaultInjector* fault_injector() { return fault_injector_.get(); }

  // --- multi-grantor access ---------------------------------------------------
  /// Non-null when `extra_grantors_m` is non-empty and coordination is
  /// BiCord: the shared election over all co-located grantors.
  [[nodiscard]] core::GrantorElection* election() { return election_.get(); }
  [[nodiscard]] const core::GrantorElection* election() const { return election_.get(); }
  /// Extra grantor APs beyond the testbed receiver F.
  [[nodiscard]] std::size_t extra_grantor_count() const { return extra_grantors_.size(); }
  [[nodiscard]] core::BiCordWifiAgent& extra_grantor_agent(std::size_t i) {
    return *extra_grantors_.at(i).agent;
  }
  /// Grantor agent by election-member order: 0 = testbed F, 1.. = extras.
  /// Null when out of range or not a BiCord scenario.
  [[nodiscard]] core::BiCordWifiAgent* grantor_agent(std::size_t member);

  // --- dense field access -----------------------------------------------------
  /// Background devices actually built (0 unless the config's dense spec is
  /// non-empty). Counts are devices, not nodes: a pair/link spans two nodes.
  [[nodiscard]] std::size_t dense_wifi_pair_count() const { return dense_wifi_.size(); }
  [[nodiscard]] std::size_t dense_zigbee_link_count() const { return dense_zigbee_.size(); }
  [[nodiscard]] std::size_t dense_ble_count() const {
    return dense_ble_ == nullptr ? 0 : dense_ble_->size();
  }
  /// Frames delivered across every dense Wi-Fi pair (activity sanity checks).
  [[nodiscard]] std::uint64_t dense_wifi_delivered() const;
  /// Packets delivered across every dense ZigBee link.
  [[nodiscard]] std::uint64_t dense_zigbee_delivered() const;

  // --- multi-node access ------------------------------------------------------
  /// Total ZigBee links (1 primary + extras).
  [[nodiscard]] std::size_t zigbee_link_count() const { return 1 + extras_.size(); }
  /// Per-link agent/stats; index 0 is the primary link.
  [[nodiscard]] core::ZigbeeAgentBase& zigbee_agent_at(std::size_t i);
  [[nodiscard]] const core::ZigbeeLinkStats& zigbee_stats_at(std::size_t i) const;
  /// Aggregate delivery stats over every ZigBee link.
  [[nodiscard]] core::ZigbeeLinkStats aggregate_zigbee_stats() const;

 private:
  struct ZigbeeEndpoint {
    std::unique_ptr<zigbee::ZigbeeMac> sender;
    std::unique_ptr<zigbee::ZigbeeMac> receiver;
    std::unique_ptr<core::ZigbeeAgentBase> agent;
    std::unique_ptr<zigbee::BurstSource> source;
  };

  struct DenseWifiPair {
    std::unique_ptr<wifi::WifiMac> ap;
    std::unique_ptr<wifi::WifiMac> client;
    std::unique_ptr<wifi::CbrSource> source;
    std::uint64_t delivered = 0;
  };

  struct ExtraGrantor {
    std::unique_ptr<wifi::WifiMac> mac;
    std::unique_ptr<core::BiCordWifiAgent> agent;
  };

  void build_topology();
  void build_wifi_traffic();
  void build_coordination();
  /// Extra grantor APs + the shared election (BiCord + extra_grantors_m).
  void build_grantors(const core::BiCordWifiAgent::Config& wa, double sig_power);
  void build_extra_zigbee();
  void build_dense();
  void build_mobility();
  void build_faults();
  std::unique_ptr<core::ZigbeeAgentBase> make_zigbee_agent(
      zigbee::ZigbeeMac& mac, phy::NodeId receiver, double data_power_dbm,
      double signaling_power_dbm, zigbee::EnergyMeter* meter);

  ScenarioConfig config_;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<phy::Medium> medium_;

  phy::NodeId wifi_sender_node_ = 0;
  phy::NodeId wifi_receiver_node_ = 0;
  phy::NodeId zigbee_sender_node_ = 0;
  phy::NodeId zigbee_receiver_node_ = 0;
  phy::Position zigbee_base_pos_;

  std::unique_ptr<wifi::WifiMac> wifi_sender_mac_;
  std::unique_ptr<wifi::WifiMac> wifi_receiver_mac_;
  std::unique_ptr<zigbee::ZigbeeMac> zigbee_sender_mac_;
  std::unique_ptr<zigbee::ZigbeeMac> zigbee_receiver_mac_;

  std::unique_ptr<wifi::CbrSource> cbr_source_;
  std::unique_ptr<wifi::SaturatedSource> saturated_source_;
  std::unique_ptr<wifi::PriorityScheduleSource> priority_source_;

  std::unique_ptr<core::BiCordWifiAgent> bicord_wifi_;
  std::unique_ptr<core::EccWifiAgent> ecc_wifi_;
  std::unique_ptr<core::ZigbeeAgentBase> zigbee_agent_;
  std::unique_ptr<zigbee::BurstSource> burst_source_;
  std::unique_ptr<zigbee::EnergyMeter> energy_meter_;
  std::unique_ptr<zigbee::DutyCycler> duty_cycler_;
  phy::NodeId lteu_node_ = 0;
  std::unique_ptr<interferers::LteUDevice> lteu_device_;
  std::unique_ptr<interferers::LteUGrantor> lteu_grantor_;
  std::unique_ptr<zigbee::TschHopSchedule> tsch_schedule_;
  std::unique_ptr<sim::PeriodicTask> device_mover_;
  std::vector<ZigbeeEndpoint> extras_;
  std::vector<ExtraGrantor> extra_grantors_;
  std::unique_ptr<core::GrantorElection> election_;
  std::vector<DenseWifiPair> dense_wifi_;
  std::vector<ZigbeeEndpoint> dense_zigbee_;
  std::unique_ptr<interferers::BluetoothField> dense_ble_;
  std::unique_ptr<fault::FaultInjector> fault_injector_;

  AirtimeProbe probe_;
  Samples wifi_delay_low_;
  Samples wifi_delay_high_;
  std::uint64_t wifi_generated_ = 0;
  std::uint64_t wifi_delivered_ = 0;
  TimePoint measure_start_;
};

/// Runs a scenario with warm-up and measurement windows; returns after
/// `measure` of measured time. The single warm-up idiom shared by the
/// experiment runner, the benches, and the examples.
inline void warm_and_measure(Scenario& scenario, Duration warmup, Duration measure) {
  scenario.run_for(warmup);
  scenario.start_measurement();
  scenario.run_for(measure);
}

}  // namespace bicord::coex

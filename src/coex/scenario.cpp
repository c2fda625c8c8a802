#include "coex/scenario.hpp"

#include <cmath>
#include <stdexcept>

#include "coex/placement.hpp"
#include "wifi/bicord_port.hpp"
#include "zigbee/bicord_port.hpp"

namespace bicord::coex {

namespace {
constexpr phy::Position kWifiSenderPos{0.0, 0.0};    // E in Fig. 6
constexpr phy::Position kWifiReceiverPos{3.0, 0.0};  // F in Fig. 6
constexpr double kGoldenAngle = 2.39996322972865332;

/// Radio config shared by the testbed pair E/F and any extra grantor APs —
/// every grantor must overhear the same traffic the testbed receiver does.
wifi::WifiMac::Config testbed_wifi_config() {
  wifi::WifiMac::Config wifi_cfg;
  wifi_cfg.channel = 11;
  wifi_cfg.tx_power_dbm = 20.0;
  wifi_cfg.timings.data_rate_mbps = 54.0;
  wifi_cfg.timings.basic_rate_mbps = 24.0;
  // Calibrated office ED behaviour for narrowband (ZigBee-width) energy:
  // ~10 dB less sensitive than the -62 dBm wideband figure, with a soft
  // measurement edge. This is what couples signaling power to Wi-Fi
  // deferral at locations C and D (Sec. VIII-B).
  wifi_cfg.ed_threshold_dbm = -51.0;
  wifi_cfg.cca_noise_sigma_db = 2.0;
  return wifi_cfg;
}

/// ZigBee-receiver distance per location (paper: receivers laid 1-5 m from
/// the sender; location B is the far-receiver case).
double receiver_distance_m(ZigbeeLocation loc) {
  switch (loc) {
    case ZigbeeLocation::A: return 1.5;
    case ZigbeeLocation::B: return 4.2;
    case ZigbeeLocation::C: return 2.0;
    case ZigbeeLocation::D: return 2.0;
  }
  return 2.0;
}
}  // namespace

const char* to_string(Coordination c) {
  switch (c) {
    case Coordination::BiCord: return "BiCord";
    case Coordination::Ecc: return "ECC";
    case Coordination::Csma: return "CSMA";
    case Coordination::LteU: return "LTE-U";
    case Coordination::Tsch: return "TSCH";
  }
  return "?";
}

const char* to_string(ZigbeeLocation l) {
  switch (l) {
    case ZigbeeLocation::A: return "A";
    case ZigbeeLocation::B: return "B";
    case ZigbeeLocation::C: return "C";
    case ZigbeeLocation::D: return "D";
  }
  return "?";
}

double default_signaling_power_dbm(ZigbeeLocation loc) {
  // Paper footnote 3: 0, 0, -1, -3 dBm at locations A-D.
  switch (loc) {
    case ZigbeeLocation::A: return 0.0;
    case ZigbeeLocation::B: return 0.0;
    case ZigbeeLocation::C: return -1.0;
    case ZigbeeLocation::D: return -3.0;
  }
  return 0.0;
}

phy::Position location_position(ZigbeeLocation loc) {
  switch (loc) {
    case ZigbeeLocation::A: return {3.4, 1.2};  // near the Wi-Fi receiver F
    case ZigbeeLocation::B: return {4.0, 1.2};  // behind F, far from E and
                                                // from its own receiver
    case ZigbeeLocation::C: return {1.6, 1.4};  // mid-room, closer to E
    case ZigbeeLocation::D: return {1.7, 1.0};  // near the Wi-Fi sender E
  }
  return {3.4, 1.2};
}

Scenario::Scenario(ScenarioConfig config)
    : config_(std::move(config)),
      sim_(std::make_unique<sim::Simulator>(config_.seed)),
      medium_(std::make_unique<phy::Medium>(*sim_, config_.path_loss, config_.medium)),
      probe_(*medium_) {
  build_topology();
  build_wifi_traffic();
  build_coordination();
  build_extra_zigbee();
  build_dense();
  build_mobility();
  build_faults();
  probe_.start(sim_->now());
  measure_start_ = sim_->now();
}

void Scenario::build_topology() {
  wifi_sender_node_ = medium_->add_node("wifi-E", kWifiSenderPos);
  wifi_receiver_node_ = medium_->add_node("wifi-F", kWifiReceiverPos);

  zigbee_base_pos_ = location_position(config_.location);
  zigbee_sender_node_ = medium_->add_node("zigbee-tx", zigbee_base_pos_);

  // Receiver sits `receiver_distance_m` away from the sender, pushed away
  // from the Wi-Fi sender so it is shielded a little from interference.
  const double d = config_.zigbee_link_distance_m.value_or(
      receiver_distance_m(config_.location));
  const double dx = zigbee_base_pos_.x - kWifiSenderPos.x;
  const double dy = zigbee_base_pos_.y - kWifiSenderPos.y;
  const double norm = std::max(0.1, std::hypot(dx, dy));
  const phy::Position rx_pos{zigbee_base_pos_.x + d * dx / norm,
                             zigbee_base_pos_.y + d * dy / norm};
  zigbee_receiver_node_ = medium_->add_node("zigbee-rx", rx_pos);

  const wifi::WifiMac::Config wifi_cfg = testbed_wifi_config();
  wifi_sender_mac_ = std::make_unique<wifi::WifiMac>(*medium_, wifi_sender_node_, wifi_cfg);
  wifi_receiver_mac_ =
      std::make_unique<wifi::WifiMac>(*medium_, wifi_receiver_node_, wifi_cfg);

  zigbee::ZigbeeMac::Config zb_cfg;
  zb_cfg.channel = 24;  // overlaps Wi-Fi channel 11
  zb_cfg.tx_power_dbm = config_.zigbee_data_power_dbm;
  // Fast failure at white-space edges: long CSMA/retry chains would blur
  // the Wi-Fi device's 20 ms end-of-burst silence window. BiCord firmware
  // reacts to corruption by re-signaling instead of blind retries.
  zb_cfg.retry_limit = 1;
  zb_cfg.timings.max_csma_backoffs = 2;
  zigbee_sender_mac_ =
      std::make_unique<zigbee::ZigbeeMac>(*medium_, zigbee_sender_node_, zb_cfg);
  zigbee_receiver_mac_ =
      std::make_unique<zigbee::ZigbeeMac>(*medium_, zigbee_receiver_node_, zb_cfg);

  energy_meter_ = std::make_unique<zigbee::EnergyMeter>(*sim_);
  energy_meter_->attach(zigbee_sender_mac_->radio());
  energy_meter_->set_tx_power_dbm(config_.zigbee_data_power_dbm);
}

void Scenario::build_wifi_traffic() {
  auto collect = [this](const wifi::WifiMac::SendOutcome& outcome) {
    if (outcome.frame.kind != phy::FrameKind::Data) return;
    ++wifi_generated_;
    if (outcome.delivered) {
      ++wifi_delivered_;
      const double ms = (outcome.completed - outcome.enqueued).ms();
      (outcome.frame.tag > 0 ? wifi_delay_high_ : wifi_delay_low_).add(ms);
    }
  };

  switch (config_.wifi_traffic) {
    case WifiTrafficKind::Cbr:
      wifi_sender_mac_->set_sent_callback(collect);
      cbr_source_ = std::make_unique<wifi::CbrSource>(
          *wifi_sender_mac_, wifi_receiver_node_, config_.wifi_cbr_payload_bytes,
          config_.wifi_cbr_interval);
      cbr_source_->start();
      break;
    case WifiTrafficKind::Saturated:
      saturated_source_ = std::make_unique<wifi::SaturatedSource>(
          *wifi_sender_mac_, wifi_receiver_node_, config_.wifi_payload_bytes);
      saturated_source_->set_sent_callback(collect);
      saturated_source_->start();
      break;
    case WifiTrafficKind::Priority:
      priority_source_ = std::make_unique<wifi::PriorityScheduleSource>(
          *wifi_sender_mac_, wifi_receiver_node_, config_.wifi_payload_bytes,
          config_.wifi_high_share, config_.wifi_priority_cycle);
      priority_source_->set_sent_callback(collect);
      priority_source_->start();
      break;
  }
}

std::unique_ptr<core::ZigbeeAgentBase> Scenario::make_zigbee_agent(
    zigbee::ZigbeeMac& mac, phy::NodeId receiver, double data_power_dbm,
    double signaling_power_dbm, zigbee::EnergyMeter* meter) {
  switch (config_.coordination) {
    case Coordination::BiCord:
    case Coordination::LteU: {
      // The LTE-U requester is the unmodified BiCord agent: with no CTI
      // classifier attached it probes the channel optimistically and falls
      // back to signaling — exactly the behaviour an eNB interferer needs.
      core::BiCordZigbeeAgent::Config za;
      za.signaling = config_.signaling;
      za.data_power_dbm = data_power_dbm;
      za.default_signaling_power_dbm = signaling_power_dbm;
      auto agent = std::make_unique<core::BiCordZigbeeAgent>(
          zigbee::requester_port(mac), receiver, za);
      agent->set_energy_meter(meter);
      return agent;
    }
    case Coordination::Tsch: {
      zigbee::TschRequester::Config za;
      za.signaling = config_.signaling;
      za.data_power_dbm = data_power_dbm;
      za.signaling_power_dbm = signaling_power_dbm;
      return std::make_unique<zigbee::TschRequester>(zigbee::requester_port(mac),
                                                     receiver, za);
    }
    case Coordination::Ecc: {
      core::EccZigbeeAgent::Config za;
      za.data_power_dbm = data_power_dbm;
      return std::make_unique<core::EccZigbeeAgent>(zigbee::requester_port(mac),
                                                    receiver, za);
    }
    case Coordination::Csma:
      break;
  }
  return std::make_unique<core::CsmaZigbeeAgent>(zigbee::requester_port(mac),
                                                 receiver, data_power_dbm);
}

void Scenario::build_coordination() {
  const double sig_power = config_.signaling_power_dbm.value_or(
      default_signaling_power_dbm(config_.location));

  switch (config_.coordination) {
    case Coordination::BiCord: {
      core::BiCordWifiAgent::Config wa;
      wa.allocator = config_.allocator;
      wa.csi = config_.csi;
      wa.detector = config_.detector;
      bicord_wifi_ = make_grantor(*wifi_receiver_mac_, wa);
      if (!config_.extra_grantors_m.empty()) build_grantors(wa, sig_power);
      break;
    }
    case Coordination::Ecc: {
      auto ecc_cfg = config_.ecc;
      ecc_cfg.zigbee_channel = 24;
      ecc_wifi_ = std::make_unique<core::EccWifiAgent>(
          wifi::grantor_port(*wifi_sender_mac_), ecc_cfg);
      ecc_wifi_->start();
      break;
    }
    case Coordination::LteU: {
      // The eNB sits mid-room: inside the testbed but not on top of either
      // link. Only this branch adds the node, so historical presets keep
      // their NodeIds byte for byte.
      lteu_node_ = medium_->add_node("lteu-enb", phy::Position{2.5, 2.5});
      lteu_device_ =
          std::make_unique<interferers::LteUDevice>(*medium_, lteu_node_, config_.lteu);
      interferers::LteUGrantor::Config gc;
      gc.allocator = config_.allocator;
      lteu_grantor_ = std::make_unique<interferers::LteUGrantor>(
          *medium_, lteu_node_, *lteu_device_, gc);
      lteu_device_->start();
      break;
    }
    case Coordination::Tsch: {
      // Same grantor stack as BiCord — only the traits pointer changes, which
      // flips the engine onto the clock-bounded lease path (a hopping
      // requester cannot be assumed to overhear the grant-end resume).
      core::BiCordWifiAgent::Config wa;
      wa.allocator = config_.allocator;
      wa.csi = config_.csi;
      wa.detector = config_.detector;
      wa.traits = &core::kTschTraits;
      wa.grant_margin = core::kTschTraits.grant_margin;
      wa.watchdog_slack = core::kTschTraits.watchdog_slack;
      bicord_wifi_ = make_grantor(*wifi_receiver_mac_, wa);
      zigbee::TschHopSchedule::Config hc;
      hc.hop_period = config_.tsch_hop_period;
      tsch_schedule_ = std::make_unique<zigbee::TschHopSchedule>(*sim_, hc);
      tsch_schedule_->add_radio(zigbee_sender_mac_->radio());
      tsch_schedule_->add_radio(zigbee_receiver_mac_->radio());
      tsch_schedule_->start();
      break;
    }
    case Coordination::Csma:
      break;
  }

  zigbee_agent_ =
      make_zigbee_agent(*zigbee_sender_mac_, zigbee_receiver_node_,
                        config_.zigbee_data_power_dbm, sig_power, energy_meter_.get());

  if (config_.zigbee_duty_cycle) {
    duty_cycler_ = std::make_unique<zigbee::DutyCycler>(*zigbee_sender_mac_);
    // Stay awake while the agent still holds undelivered packets: the MAC
    // looks idle between agent-paced packets and during signaling gaps.
    duty_cycler_->set_busy_hook(
        [this] { return zigbee_agent_->backlog() > 0; });
  }
  burst_source_ = std::make_unique<zigbee::BurstSource>(*sim_, config_.burst);
  burst_source_->set_burst_callback([this](int n, std::uint32_t payload) {
    if (duty_cycler_ != nullptr) duty_cycler_->wake();
    zigbee_agent_->submit_burst(n, payload);
  });
  burst_source_->start();
}

std::unique_ptr<core::BiCordWifiAgent> Scenario::make_grantor(
    wifi::WifiMac& mac, const core::BiCordWifiAgent::Config& wa) {
  auto agent = std::make_unique<core::BiCordWifiAgent>(wifi::grantor_port(mac), wa);
  if (!config_.wifi_grants_requests) {
    agent->set_policy([] { return false; });
  } else if (config_.wifi_traffic == WifiTrafficKind::Priority) {
    // Sec. VIII-G: ignore ZigBee requests while video (high priority)
    // traffic is active.
    auto* src = priority_source_.get();
    agent->set_policy([src] { return !src->high_priority_active(); });
  }
  return agent;
}

void Scenario::build_grantors(const core::BiCordWifiAgent::Config& wa,
                              double sig_power) {
  // Election metric: the mean received signaling power of the requester at
  // each grantor — pure geometry (deterministic path-loss mean), so every
  // grantor derives the same ranking without any election traffic.
  const auto metric_dbm = [&](double dist_m) {
    return sig_power - config_.path_loss.mean_loss_db(dist_m);
  };

  election_ = std::make_unique<core::GrantorElection>(
      *sim_, config_.election_grace, core::kWifiTraits.grant_margin);
  const double f_dist = std::hypot(kWifiReceiverPos.x - zigbee_base_pos_.x,
                                   kWifiReceiverPos.y - zigbee_base_pos_.y);
  bicord_wifi_->join_election(*election_, metric_dbm(f_dist));

  extra_grantors_.reserve(config_.extra_grantors_m.size());
  int gi = 0;
  for (const double dist : config_.extra_grantors_m) {
    // Deterministic golden-angle directions around the ZigBee sender: the
    // configured value is exactly the requester distance the metric uses.
    const double ang = kGoldenAngle * static_cast<double>(++gi);
    const phy::Position pos{zigbee_base_pos_.x + dist * std::cos(ang),
                            zigbee_base_pos_.y + dist * std::sin(ang)};
    const phy::NodeId node = medium_->add_node("grantor-ap", pos);

    ExtraGrantor g;
    g.mac = std::make_unique<wifi::WifiMac>(*medium_, node, testbed_wifi_config());
    g.agent = make_grantor(*g.mac, wa);
    g.agent->join_election(*election_, metric_dbm(dist));
    extra_grantors_.push_back(std::move(g));
  }
}

void Scenario::build_extra_zigbee() {
  for (const auto& spec : config_.extra_zigbee) {
    const phy::Position base = location_position(spec.location);
    const phy::Position pos{base.x + spec.offset.x, base.y + spec.offset.y};
    const phy::NodeId tx = medium_->add_node("zigbee-tx-extra", pos);

    const double d = receiver_distance_m(spec.location);
    const double norm = std::max(0.1, std::hypot(pos.x, pos.y));
    const phy::NodeId rx = medium_->add_node(
        "zigbee-rx-extra",
        phy::Position{pos.x + d * pos.x / norm, pos.y + d * pos.y / norm});

    zigbee::ZigbeeMac::Config zc;
    zc.channel = 24;
    zc.tx_power_dbm = spec.data_power_dbm;
    zc.retry_limit = 1;
    zc.timings.max_csma_backoffs = 2;

    ZigbeeEndpoint ep;
    ep.sender = std::make_unique<zigbee::ZigbeeMac>(*medium_, tx, zc);
    ep.receiver = std::make_unique<zigbee::ZigbeeMac>(*medium_, rx, zc);
    ep.agent = make_zigbee_agent(
        *ep.sender, rx, spec.data_power_dbm,
        spec.signaling_power_dbm.value_or(default_signaling_power_dbm(spec.location)),
        nullptr);
    ep.source = std::make_unique<zigbee::BurstSource>(*sim_, spec.burst);
    auto* agent = ep.agent.get();
    ep.source->set_burst_callback([agent](int n, std::uint32_t payload) {
      agent->submit_burst(n, payload);
    });
    ep.source->start();
    extras_.push_back(std::move(ep));
  }
}

void Scenario::build_dense() {
  const DenseFieldSpec& f = config_.dense;
  if (f.empty()) return;

  const std::size_t wifi_pairs = static_cast<std::size_t>(std::max(f.wifi_pairs, 0));
  const std::size_t zigbee_links = static_cast<std::size_t>(std::max(f.zigbee_links, 0));
  const std::size_t ble_nodes = static_cast<std::size_t>(std::max(f.ble_nodes, 0));

  // One placement site per device installation; link partners (Wi-Fi client,
  // ZigBee receiver) sit a few metres from their site at a deterministic
  // golden-angle offset, so no two installations share an axis.
  const std::size_t sites_needed = wifi_pairs + zigbee_links + ble_nodes;
  const auto sites = generate_placement(
      PlacementParams{f.area_m, f.clusters, f.cluster_sigma_m, 5.0}, sites_needed,
      f.placement_seed);
  std::size_t site = 0;

  dense_wifi_.reserve(wifi_pairs);
  for (std::size_t i = 0; i < wifi_pairs; ++i) {
    const phy::Position ap_pos = sites[site++];
    const double ang = kGoldenAngle * static_cast<double>(i);
    const double d = 2.0 + static_cast<double>(i % 7);
    const phy::Position cl_pos{ap_pos.x + d * std::cos(ang), ap_pos.y + d * std::sin(ang)};
    const phy::NodeId ap = medium_->add_node("dense-ap", ap_pos);
    const phy::NodeId client = medium_->add_node("dense-sta", cl_pos);

    wifi::WifiMac::Config wc;
    static constexpr int kWifiChannels[] = {1, 6, 11};
    wc.channel = kWifiChannels[i % 3];
    wc.tx_power_dbm = f.wifi_tx_power_dbm;

    DenseWifiPair pair;
    pair.ap = std::make_unique<wifi::WifiMac>(*medium_, ap, wc);
    pair.client = std::make_unique<wifi::WifiMac>(*medium_, client, wc);
    // Hash-jittered interval: co-channel APs must not fire in lockstep or
    // the field degenerates into one synchronized collision per period.
    const Duration interval =
        f.wifi_interval + Duration::from_us(static_cast<std::int64_t>((i * 317) % 5000));
    pair.source = std::make_unique<wifi::CbrSource>(*pair.ap, client,
                                                    f.wifi_payload_bytes, interval);
    auto* delivered = &dense_wifi_.emplace_back(std::move(pair)).delivered;
    dense_wifi_.back().ap->set_sent_callback(
        [delivered](const wifi::WifiMac::SendOutcome& outcome) {
          if (outcome.delivered && outcome.frame.kind == phy::FrameKind::Data) ++*delivered;
        });
    dense_wifi_.back().source->start();
  }

  dense_zigbee_.reserve(zigbee_links);
  for (std::size_t i = 0; i < zigbee_links; ++i) {
    const phy::Position tx_pos = sites[site++];
    const double ang = kGoldenAngle * static_cast<double>(i) + 0.7;
    const double d = 1.5 + 0.5 * static_cast<double>(i % 8);
    const phy::Position rx_pos{tx_pos.x + d * std::cos(ang), tx_pos.y + d * std::sin(ang)};
    const phy::NodeId tx = medium_->add_node("dense-zb-tx", tx_pos);
    const phy::NodeId rx = medium_->add_node("dense-zb-rx", rx_pos);

    zigbee::ZigbeeMac::Config zc;
    zc.channel = 11 + static_cast<int>(i % 16);  // spread over all 16 channels
    zc.tx_power_dbm = f.zigbee_tx_power_dbm;

    ZigbeeEndpoint ep;
    ep.sender = std::make_unique<zigbee::ZigbeeMac>(*medium_, tx, zc);
    ep.receiver = std::make_unique<zigbee::ZigbeeMac>(*medium_, rx, zc);
    // Field links are plain CSMA regardless of the testbed's coordination
    // mode: they are background traffic, not BiCord participants.
    ep.agent = std::make_unique<core::CsmaZigbeeAgent>(
        zigbee::requester_port(*ep.sender), rx, f.zigbee_tx_power_dbm);
    zigbee::BurstSource::Config bc;
    bc.packets_per_burst = 2 + static_cast<int>(i % 5);
    bc.payload_bytes = 30 + 10 * static_cast<std::uint32_t>(i % 6);
    bc.mean_interval = Duration::from_ms(150 + 50 * static_cast<std::int64_t>(i % 8));
    bc.poisson = (i % 2) == 0;
    ep.source = std::make_unique<zigbee::BurstSource>(*sim_, bc);
    auto* agent = ep.agent.get();
    ep.source->set_burst_callback([agent](int n, std::uint32_t payload) {
      agent->submit_burst(n, payload);
    });
    ep.source->start();
    dense_zigbee_.push_back(std::move(ep));
  }

  if (ble_nodes == 0) return;
  interferers::BluetoothField::Config bt;
  bt.tx_power_dbm = f.ble_tx_power_dbm;
  dense_ble_ = std::make_unique<interferers::BluetoothField>(*medium_, bt);
  // Started empty, so each device splits its stream and runs its first slot
  // before the next one joins.
  dense_ble_->start();
  for (std::size_t i = 0; i < ble_nodes; ++i) {
    dense_ble_->add(medium_->add_node("dense-bt", sites[site++]));
  }
}

void Scenario::build_mobility() {
  if (config_.person_mobility && bicord_wifi_ != nullptr) {
    bicord_wifi_->csi_stream().set_mobility(config_.person_event_rate_hz);
  }
  if (config_.device_mobility) {
    device_mover_ = std::make_unique<sim::PeriodicTask>(
        *sim_, config_.device_move_period, [this] {
          // Random walk within ~1 m of the base position (Sec. VIII-F).
          auto& rng = sim_->rng();
          const double r = rng.uniform(0.0, 0.5);
          const double theta = rng.uniform(0.0, 6.283185307179586);
          medium_->set_position(zigbee_sender_node_,
                                phy::Position{zigbee_base_pos_.x + r * std::cos(theta),
                                              zigbee_base_pos_.y + r * std::sin(theta)});
        });
    device_mover_->start();
  }
}

void Scenario::build_faults() {
  if (config_.fault_plan.empty()) return;
  fault_injector_ = std::make_unique<fault::FaultInjector>(*sim_, config_.fault_plan);
  fault_injector_->attach_medium(*medium_);
  if (bicord_wifi_ != nullptr) fault_injector_->attach_wifi_agent(*bicord_wifi_);
  // Extra grantors get their own clock-skew slots (attach order after the
  // testbed grantor, so single-grantor plans draw identically to before).
  for (auto& g : extra_grantors_) fault_injector_->attach_wifi_agent(*g.agent);
  if (auto* zb = bicord_zigbee()) fault_injector_->attach_zigbee_agent(*zb);

  fault_injector_->set_burst_shift_handler([this](int packets, Duration interval) {
    auto cfg = burst_source_->config();
    if (packets > 0) cfg.packets_per_burst = packets;
    if (interval > Duration::zero()) cfg.mean_interval = interval;
    burst_source_->set_config(cfg);
  });
  // Link index space: 0 = primary, 1..extras = extra links, then the dense
  // field's ZigBee links — so churn plans can cycle background devices
  // in and out of dense scenarios without touching the testbed. Negative
  // links address grantors: -1 = testbed receiver F, -2.. = extra grantor
  // APs; node-leave kills that grantor's coordination process (the radio
  // keeps running), node-join revives it.
  fault_injector_->set_node_handler([this](int link, bool join) {
    if (link < 0) {
      const std::size_t g = static_cast<std::size_t>(-link) - 1;
      core::BiCordWifiAgent* agent = nullptr;
      if (g == 0) {
        agent = bicord_wifi_.get();
      } else if (g - 1 < extra_grantors_.size()) {
        agent = extra_grantors_[g - 1].agent.get();
      }
      if (agent != nullptr) agent->set_offline(!join);
      return;
    }
    zigbee::BurstSource* source = nullptr;
    if (link == 0) {
      source = burst_source_.get();
    } else if (static_cast<std::size_t>(link - 1) < extras_.size()) {
      source = extras_[static_cast<std::size_t>(link - 1)].source.get();
    } else if (static_cast<std::size_t>(link - 1) - extras_.size() < dense_zigbee_.size()) {
      source = dense_zigbee_[static_cast<std::size_t>(link - 1) - extras_.size()].source.get();
    }
    if (source == nullptr) return;
    if (join && !source->running()) {
      source->start();
    } else if (!join && source->running()) {
      source->stop();
    }
  });
  fault_injector_->arm();
}

void Scenario::run_for(Duration d) { sim_->run_for(d); }

void Scenario::start_measurement() {
  probe_.start(sim_->now());
  measure_start_ = sim_->now();
}

UtilizationReport Scenario::utilization() const { return probe_.report(sim_->now()); }

const core::ZigbeeLinkStats& Scenario::zigbee_stats() const {
  return zigbee_agent_->stats();
}

double Scenario::zigbee_goodput_kbps() const {
  const double elapsed = (sim_->now() - measure_start_).sec();
  if (elapsed <= 0.0) return 0.0;
  return static_cast<double>(zigbee_agent_->stats().payload_bytes_delivered) * 8.0 /
         1000.0 / elapsed;
}

const Samples& Scenario::wifi_delay_ms(int priority) const {
  return priority > 0 ? wifi_delay_high_ : wifi_delay_low_;
}

double Scenario::wifi_delivery_ratio() const {
  // Every capped enqueue() caller offers Data frames, so each discard is an
  // offered Data frame that never got a send outcome.
  const std::uint64_t offered = wifi_generated_ + wifi_sender_mac_->discarded();
  return offered ? static_cast<double>(wifi_delivered_) / static_cast<double>(offered)
                 : 0.0;
}

std::uint64_t Scenario::dense_wifi_delivered() const {
  std::uint64_t total = 0;
  for (const auto& p : dense_wifi_) total += p.delivered;
  return total;
}

std::uint64_t Scenario::dense_zigbee_delivered() const {
  std::uint64_t total = 0;
  for (const auto& ep : dense_zigbee_) total += ep.agent->stats().delivered;
  return total;
}

core::BiCordZigbeeAgent* Scenario::bicord_zigbee() {
  return dynamic_cast<core::BiCordZigbeeAgent*>(zigbee_agent_.get());
}

zigbee::TschRequester* Scenario::tsch_requester() {
  return dynamic_cast<zigbee::TschRequester*>(zigbee_agent_.get());
}

core::ZigbeeAgentBase& Scenario::zigbee_agent_at(std::size_t i) {
  if (i == 0) return *zigbee_agent_;
  return *extras_.at(i - 1).agent;
}

const core::ZigbeeLinkStats& Scenario::zigbee_stats_at(std::size_t i) const {
  if (i == 0) return zigbee_agent_->stats();
  return extras_.at(i - 1).agent->stats();
}

core::ZigbeeLinkStats Scenario::aggregate_zigbee_stats() const {
  core::ZigbeeLinkStats total;
  for (std::size_t i = 0; i < zigbee_link_count(); ++i) {
    const auto& s = zigbee_stats_at(i);
    total.generated += s.generated;
    total.delivered += s.delivered;
    total.dropped += s.dropped;
    total.payload_bytes_delivered += s.payload_bytes_delivered;
    for (double v : s.delay_ms.values()) total.delay_ms.add(v);
  }
  return total;
}

}  // namespace bicord::coex

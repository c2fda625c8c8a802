#include "coex/cti_training.hpp"

#include <cmath>
#include <map>
#include <utility>

#include "interferers/bluetooth.hpp"
#include "interferers/microwave.hpp"
#include "phy/medium.hpp"
#include "sim/simulator.hpp"
#include "wifi/wifi_phy.hpp"
#include "util/stats.hpp"
#include "zigbee/zigbee_phy.hpp"

namespace bicord::coex {

namespace {
using detect::RssiSegment;

struct LabelledSegment {
  RssiSegment segment;
  phy::Technology tech;
  int device = -1;  ///< Wi-Fi device index, -1 otherwise
};

/// Repeating raw transmission: `airtime` on, `gap` off.
class RawPeriodicTx {
 public:
  RawPeriodicTx(phy::Medium& medium, phy::Frame frame, phy::Band band,
                double power_dbm, Duration airtime, Duration gap)
      : medium_(medium),
        frame_(frame),
        band_(band),
        power_dbm_(power_dbm),
        airtime_(airtime),
        task_(medium.simulator(), airtime + gap, [this] {
          ++frame_.seq;
          medium_.begin_tx(frame_, band_, power_dbm_, airtime_);
        }) {}

  void start() { task_.start_now(); }
  void stop() { task_.stop(); }

 private:
  phy::Medium& medium_;
  phy::Frame frame_;
  phy::Band band_;
  double power_dbm_;
  Duration airtime_;
  sim::PeriodicTask task_;
};

void collect_segments(sim::Simulator& sim, detect::RssiSampler& sampler, int count,
                      phy::Technology tech, int device,
                      std::vector<LabelledSegment>& out) {
  using namespace bicord::time_literals;
  sim.run_for(30_ms);  // let the source reach steady state
  for (int i = 0; i < count; ++i) {
    bool done = false;
    sampler.capture([&](RssiSegment seg) {
      out.push_back(LabelledSegment{std::move(seg), tech, device});
      done = true;
    });
    while (!done && sim.step()) {
    }
    sim.run_for(2_ms);  // inter-capture gap
  }
}
}  // namespace

CtiTrainingResult train_cti_pipeline(const CtiTrainingConfig& config) {
  using namespace bicord::time_literals;

  sim::Simulator sim(config.seed);
  phy::Medium medium(sim, phy::PathLossModel{40.0, 3.3, 0.0, 0.1});
  const phy::Band zb_band = phy::zigbee_channel(24);

  const phy::NodeId collector = medium.add_node("collector", {0.0, 0.0});
  detect::RssiSampler sampler(medium, collector, zb_band);
  // TelosB-grade RSSI accuracy plus slow indoor fading: the register is
  // noisy sample to sample, and whole captures shift as people move.
  sampler.set_measurement_noise(0.8, 3.0);

  std::vector<LabelledSegment> all;

  // --- foreign ZigBee sender: 50-byte broadcasts every 2 ms ---------------
  {
    const phy::NodeId node = medium.add_node("zb-src", {1.5, 0.5});
    phy::Frame f;
    f.tech = phy::Technology::ZigBee;
    f.kind = phy::FrameKind::Data;
    f.src = node;
    const Duration airtime = zigbee::PhyTimings{}.data_airtime(50);
    RawPeriodicTx tx(medium, f, zb_band, 0.0, airtime, 2_ms);
    tx.start();
    collect_segments(sim, sampler, config.segments_per_source,
                     phy::Technology::ZigBee, -1, all);
    tx.stop();
    sim.run_for(50_ms);
  }

  // --- Bluetooth headset stream --------------------------------------------
  {
    const phy::NodeId node = medium.add_node("bt-src", {1.2, 0.8});
    interferers::BluetoothDevice bt(medium, node);
    bt.start();
    collect_segments(sim, sampler, config.segments_per_source,
                     phy::Technology::Bluetooth, -1, all);
    bt.stop();
    sim.run_for(50_ms);
  }

  // --- microwave oven --------------------------------------------------------
  {
    const phy::NodeId node = medium.add_node("oven", {2.5, 1.0});
    interferers::MicrowaveOven oven(medium, node);
    oven.start();
    collect_segments(sim, sampler, config.segments_per_source,
                     phy::Technology::Microwave, -1, all);
    oven.stop();
    sim.run_for(50_ms);
  }

  // --- Wi-Fi sender at each distance (one "device" per placement). Real
  // devices also differ in workload: frame size and pacing vary slightly
  // per device, which is what the Smoggy-Link fingerprint keys on beyond
  // the raw energy level.
  const std::uint32_t device_payload[] = {150, 100, 60};
  const Duration device_interval[] = {Duration::from_us(800), 1_ms,
                                      Duration::from_us(1300)};
  for (std::size_t d = 0; d < config.wifi_distances_m.size(); ++d) {
    const phy::NodeId node =
        medium.add_node("wifi-src", {config.wifi_distances_m[d], 0.0});
    phy::Frame f;
    f.tech = phy::Technology::WiFi;
    f.kind = phy::FrameKind::Data;
    f.src = node;
    const Duration airtime = wifi::PhyTimings{}.data_airtime(device_payload[d % 3]);
    RawPeriodicTx tx(medium, f, phy::wifi_channel(11), 20.0, airtime,
                     device_interval[d % 3] - airtime);
    tx.start();
    collect_segments(sim, sampler, config.segments_per_source,
                     phy::Technology::WiFi, static_cast<int>(d), all);
    tx.stop();
    sim.run_for(50_ms);
  }

  // --- split train / test (interleaved) -------------------------------------
  CtiTrainingResult result;
  result.classifier = detect::InterferenceClassifier(config.features);
  result.identifier = detect::DeviceIdentifier(config.features);

  std::vector<const LabelledSegment*> train;
  std::vector<const LabelledSegment*> test;
  for (std::size_t i = 0; i < all.size(); ++i) {
    (i % 2 == 0 ? train : test).push_back(&all[i]);
  }
  result.training_segments = train.size();
  result.test_segments = test.size();

  std::vector<int> train_device_truth;
  for (const auto* s : train) {
    result.classifier.add_training_segment(s->segment, s->tech);
    if (s->tech == phy::Technology::WiFi) {
      result.identifier.add_fingerprint(s->segment);
      train_device_truth.push_back(s->device);
    }
  }
  result.classifier.train();

  Rng rng(config.seed ^ 0xD1CEu);
  result.identifier.build(static_cast<int>(config.wifi_distances_m.size()), rng);

  // Map clusters to true devices by majority vote on the training set.
  std::map<int, std::map<int, int>> votes;
  const auto& train_clusters = result.identifier.training_labels();
  for (std::size_t i = 0; i < train_clusters.size(); ++i) {
    ++votes[train_clusters[i]][train_device_truth[i]];
  }
  std::map<int, int> cluster_to_device;
  for (const auto& [cluster, counts] : votes) {
    int best_device = -1;
    int best_votes = -1;
    for (const auto& [device, n] : counts) {
      if (n > best_votes) {
        best_votes = n;
        best_device = device;
      }
    }
    cluster_to_device[cluster] = best_device;
  }

  // --- held-out evaluation ----------------------------------------------------
  std::size_t tech_hits = 0;
  std::size_t wifi_hits = 0;
  std::map<int, std::pair<int, int>> per_device;  // device -> (hits, total)
  for (const auto* s : test) {
    const auto verdict = result.classifier.classify(s->segment);
    const phy::Technology predicted =
        verdict.value_or(phy::Technology::Microwave);  // "no activity" != Wi-Fi
    if (verdict.has_value() && predicted == s->tech) ++tech_hits;
    const bool is_wifi = s->tech == phy::Technology::WiFi;
    const bool said_wifi = verdict.has_value() && predicted == phy::Technology::WiFi;
    if (is_wifi == said_wifi) ++wifi_hits;

    if (is_wifi) {
      const int cluster = result.identifier.identify(s->segment);
      auto& [hits, total] = per_device[s->device];
      ++total;
      const auto it = cluster_to_device.find(cluster);
      if (it != cluster_to_device.end() && it->second == s->device) ++hits;
    }
  }
  result.tech_accuracy =
      static_cast<double>(tech_hits) / static_cast<double>(test.size());
  result.wifi_detection_accuracy =
      static_cast<double>(wifi_hits) / static_cast<double>(test.size());

  std::vector<double> dev_acc;
  for (const auto& [device, ht] : per_device) {
    dev_acc.push_back(static_cast<double>(ht.first) / static_cast<double>(ht.second));
  }
  result.device_accuracy = bicord::mean_of(dev_acc);
  double var = 0.0;
  for (double a : dev_acc) var += (a - result.device_accuracy) * (a - result.device_accuracy);
  result.device_accuracy_std =
      dev_acc.size() > 1 ? std::sqrt(var / static_cast<double>(dev_acc.size())) : 0.0;

  return result;
}

}  // namespace bicord::coex

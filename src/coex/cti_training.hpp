#pragma once
// Builds and evaluates the CTI-detection pipeline (paper Sec. VII-A).
//
// Reproduces the paper's data-collection procedure: a ZigBee collector
// records 40 kHz / 5 ms RSSI segments while exactly one interference source
// is active — a foreign ZigBee sender (50 B every 2 ms), a Bluetooth
// headset stream, a microwave oven, or a Wi-Fi CBR sender (100 B every
// 1 ms) placed at 1, 3 and 5 m. Half the segments train the decision tree
// and the k-means fingerprint clusters; the other half measure accuracy.

#include <cstdint>
#include <vector>

#include "detect/classifier.hpp"

namespace bicord::coex {

/// Fewest segments per source that train: half the segments train, and the
/// device k-means needs one training row per Wi-Fi device.
inline constexpr int kMinSegmentsPerSource = 2;

struct CtiTrainingConfig {
  std::uint64_t seed = 42;
  /// Segments recorded per source configuration (paper: 200; at least
  /// kMinSegmentsPerSource).
  int segments_per_source = 200;
  /// Wi-Fi sender distances from the collector, metres (paper: 1, 3, 5).
  std::vector<double> wifi_distances_m = {1.0, 3.0, 5.0};
  detect::FeatureParams features;
};

struct CtiTrainingResult {
  detect::InterferenceClassifier classifier;
  detect::DeviceIdentifier identifier;

  /// Held-out multi-class accuracy of the technology classifier.
  double tech_accuracy = 0.0;
  /// Held-out binary accuracy of "is this Wi-Fi?" — the paper's 96.39 %.
  double wifi_detection_accuracy = 0.0;
  /// Held-out per-device identification accuracy — the paper's 89.76 %.
  double device_accuracy = 0.0;
  /// Std-dev of the per-device accuracies — the paper's 2.14 %.
  double device_accuracy_std = 0.0;

  std::size_t training_segments = 0;
  std::size_t test_segments = 0;
};

/// Runs the full collection + training + evaluation procedure.
[[nodiscard]] CtiTrainingResult train_cti_pipeline(const CtiTrainingConfig& config);

}  // namespace bicord::coex

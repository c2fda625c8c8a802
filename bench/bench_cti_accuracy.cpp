// Sec. VII-A accuracy numbers: the CTI-detection pipeline. A ZigBee
// collector records 200 RSSI segments (40 kHz, 5 ms) per source — foreign
// ZigBee (50 B / 2 ms), a Bluetooth headset stream, a microwave oven, and a
// Wi-Fi CBR sender at 1, 3, and 5 m — then trains the ZiSense decision tree
// and the Smoggy-Link k-means fingerprints. Paper anchors: Wi-Fi detection
// accuracy 96.39 %; per-device identification 89.76 % +/- 2.14 %.

#include "bench_common.hpp"
#include "coex/cti_training.hpp"

using namespace bicord;
using namespace bicord::bench;

int main(int argc, char** argv) {
  const int segments = arg_or(argc, argv, 200);  // paper: 200
  if (segments < coex::kMinSegmentsPerSource) {
    std::fprintf(stderr, "error: scale must be at least %d segments per source (got %d)\n",
                 coex::kMinSegmentsPerSource, segments);
    return 2;
  }
  const std::uint64_t seed = 1414;
  print_header("bench_cti_accuracy", "Sec. VII-A (CTI detection accuracy)", seed);
  std::printf("segments per source: %d\n\n", segments);

  coex::CtiTrainingConfig cfg;
  cfg.seed = seed;
  cfg.segments_per_source = segments;
  const auto result = coex::train_cti_pipeline(cfg);

  AsciiTable table;
  table.set_header({"metric", "measured", "paper"});
  table.add_row({"Wi-Fi detection accuracy",
                 AsciiTable::percent(result.wifi_detection_accuracy, 2), "96.39%"});
  table.add_row({"multi-class technology accuracy",
                 AsciiTable::percent(result.tech_accuracy, 2), "(n/a)"});
  table.add_row({"device identification accuracy",
                 AsciiTable::percent(result.device_accuracy, 2), "89.76%"});
  table.add_row({"device accuracy std-dev",
                 AsciiTable::percent(result.device_accuracy_std, 2), "2.14%"});
  table.add_row({"training segments",
                 AsciiTable::cell(static_cast<std::int64_t>(result.training_segments)),
                 "~600"});
  table.add_row({"held-out segments",
                 AsciiTable::cell(static_cast<std::int64_t>(result.test_segments)),
                 "~600"});
  std::printf("%s\n", table.render().c_str());
  return 0;
}

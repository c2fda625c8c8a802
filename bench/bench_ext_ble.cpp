// Extension experiment (paper Sec. VII-D): BiCord coordination between
// ZigBee and Bluetooth Low Energy networks.
//
// Several aggressive BLE connections hop across the 2.4 GHz band around a
// ZigBee link. Uncoordinated, every hop onto the ZigBee channel corrupts
// in-flight packets. With BiCord-for-BLE, a delivery failure triggers a
// control-packet request; the BLE masters' cross-decoding receivers lease
// the overlapping data channels out of their hopping maps (the spectral
// analogue of a white space), with the lease length learned by the same
// white-space allocator. We report ZigBee delivery/delay/retries and the
// BLE links' own packet success — coordination must not hurt BLE.

#include "bench_common.hpp"
#include "coex/ble_scenario.hpp"

using namespace bicord;
using namespace bicord::bench;
using namespace bicord::time_literals;

namespace {
coex::BleScenario::Report run(std::uint64_t seed, bool coordinate, int ble_links,
                              Duration sim_time) {
  auto spec = *coex::ScenarioSpec::preset("ble");
  spec.set("seed", seed);
  spec.set("ble.links", ble_links);
  spec.set("ble.coordinate", coordinate);
  coex::BleScenario scenario(spec.must_config());
  scenario.run_for(sim_time);
  return scenario.report();
}
}  // namespace

int main(int argc, char** argv) {
  const int seconds = arg_or(argc, argv, 15);
  const std::uint64_t seed = 2626;
  print_header("bench_ext_ble",
               "extension — BiCord for ZigBee/BLE coexistence (Sec. VII-D)", seed);

  AsciiTable table;
  table.set_header({"configuration", "zb delivery", "zb delay (ms)",
                    "zb MAC attempts/pkt", "BLE pkt success", "leases", "controls"});
  for (int links : {4, 8, 16}) {
    for (bool coordinate : {false, true}) {
      const coex::BleScenario::Report r =
          run(seed + static_cast<std::uint64_t>(links), coordinate, links,
              Duration::from_sec(seconds));
      char name[64];
      std::snprintf(name, sizeof(name), "%d BLE links, %s", links,
                    coordinate ? "BiCord-BLE" : "uncoordinated");
      table.add_row({name, AsciiTable::percent(r.zb_delivery),
                     AsciiTable::cell(r.zb_delay_ms, 1),
                     AsciiTable::cell(r.zb_attempt_overhead, 2),
                     AsciiTable::percent(r.ble_success),
                     AsciiTable::cell(static_cast<std::int64_t>(r.leases)),
                     AsciiTable::cell(static_cast<std::int64_t>(r.controls))});
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("expected: BLE pressure on a 2 MHz ZigBee channel is inherently mild\n"
              "(one of 37 hop channels overlaps), so CSMA absorbs low densities —\n"
              "itself a finding. As density grows, coordination trims the retry\n"
              "overhead and delay tail at negligible cost to BLE throughput.\n");
  return 0;
}

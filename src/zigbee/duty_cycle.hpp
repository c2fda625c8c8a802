#pragma once
// Radio duty cycling for a ZigBee sender node.
//
// A battery-powered mote does not listen continuously: between activities
// the radio sleeps and only wakes for its own traffic (the paper's energy
// analysis assumes this — Sec. VII-B compares *active* radio energy, and
// notes that traditional approaches "keep sensing the channel", i.e. burn
// the RX current BiCord avoids). The DutyCycler puts the radio to sleep
// whenever the MAC has been idle for `idle_timeout` and wakes it when new
// work arrives; the energy meter then shows the sleep-current baseline the
// datasheet promises.

#include <functional>

#include "sim/simulator.hpp"
#include "zigbee/zigbee_mac.hpp"

namespace bicord::zigbee {

class DutyCycler {
 public:
  struct Config {
    /// Radio sleeps after this much continuous MAC idleness.
    Duration idle_timeout = Duration::from_ms(5);
  };

  explicit DutyCycler(ZigbeeMac& mac) : DutyCycler(mac, Config{}) {}
  DutyCycler(ZigbeeMac& mac, Config config);

  DutyCycler(const DutyCycler&) = delete;
  DutyCycler& operator=(const DutyCycler&) = delete;

  /// Wakes the radio (no-op when awake). Call before submitting work.
  void wake();
  /// Optional extra business signal (e.g. an agent's backlog): while it
  /// returns true the radio stays awake even if the MAC looks idle.
  void set_busy_hook(std::function<bool()> hook) { busy_hook_ = std::move(hook); }
  /// Notifies the cycler that MAC activity just finished; re-arms the
  /// sleep timer.
  void activity();

  [[nodiscard]] bool sleeping() const;
  [[nodiscard]] std::uint64_t sleep_transitions() const { return sleeps_; }

 private:
  void arm();
  void maybe_sleep();

  ZigbeeMac& mac_;
  Config config_;
  std::function<bool()> busy_hook_;
  sim::Timer timer_;
  std::uint64_t sleeps_ = 0;
};

}  // namespace bicord::zigbee

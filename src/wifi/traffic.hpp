#pragma once
// Wi-Fi application traffic sources.
//
// Three archetypes cover everything the paper evaluates:
//  * CbrSource — the evaluation's default "100-byte packets every 1 ms"
//    sender (Sec. VIII-A) that also clocks the receiver's CSI stream;
//  * SaturatedSource — backlogged file transfer for the channel-utilization
//    experiments (the MAC is always contending);
//  * PriorityScheduleSource — alternates high-priority (video) and
//    low-priority (file) periods for the Fig. 13 prioritization experiment.

#include <cstdint>

#include "sim/simulator.hpp"
#include "util/stats.hpp"
#include "wifi/wifi_mac.hpp"

namespace bicord::wifi {

/// Constant-bit-rate unicast data: one `payload_bytes` frame every `interval`.
class CbrSource {
 public:
  CbrSource(WifiMac& mac, phy::NodeId dst, std::uint32_t payload_bytes,
            Duration interval);

  void start();
  void stop();
  [[nodiscard]] std::uint64_t generated() const { return generated_; }

 private:
  WifiMac& mac_;
  phy::NodeId dst_;
  std::uint32_t payload_bytes_;
  sim::PeriodicTask task_;
  std::uint64_t generated_ = 0;
};

/// Backlogged sender: keeps `depth` frames queued at all times, refilling as
/// the MAC drains them. Models a large file transfer. `depth` may not exceed
/// WifiMac::kMaxQueue (the refill could never reach it).
class SaturatedSource {
 public:
  SaturatedSource(WifiMac& mac, phy::NodeId dst, std::uint32_t payload_bytes,
                  int depth = 2);

  void start();
  void stop();
  [[nodiscard]] std::uint64_t generated() const { return generated_; }
  /// Chained: SaturatedSource installs itself as the MAC's sent callback and
  /// forwards outcomes here.
  void set_sent_callback(WifiMac::SentCallback cb) { forward_ = std::move(cb); }

 private:
  void refill();

  WifiMac& mac_;
  phy::NodeId dst_;
  std::uint32_t payload_bytes_;
  int depth_;
  bool running_ = false;
  std::uint64_t generated_ = 0;
  WifiMac::SentCallback forward_;
};

/// Saturated traffic alternating between high-priority (video, priority 1)
/// and low-priority (file transfer, priority 0) windows. Within each cycle
/// of length `cycle`, the first `high_share` fraction is high priority.
class PriorityScheduleSource {
 public:
  PriorityScheduleSource(WifiMac& mac, phy::NodeId dst, std::uint32_t payload_bytes,
                         double high_share, Duration cycle);

  void start();
  void stop();
  /// True while the source is inside a high-priority window — the BiCord
  /// agent consults this to decide whether to honour ZigBee requests.
  [[nodiscard]] bool high_priority_active() const;
  [[nodiscard]] std::uint64_t generated() const { return generated_; }
  void set_sent_callback(WifiMac::SentCallback cb) { forward_ = std::move(cb); }

 private:
  void refill();
  [[nodiscard]] int current_priority() const;

  WifiMac& mac_;
  phy::NodeId dst_;
  std::uint32_t payload_bytes_;
  double high_share_;
  Duration cycle_;
  bool running_ = false;
  TimePoint started_;
  std::uint64_t generated_ = 0;
  WifiMac::SentCallback forward_;
};

}  // namespace bicord::wifi

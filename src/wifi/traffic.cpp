#include "wifi/traffic.hpp"

#include <stdexcept>

namespace bicord::wifi {

CbrSource::CbrSource(WifiMac& mac, phy::NodeId dst, std::uint32_t payload_bytes,
                     Duration interval)
    : mac_(mac),
      dst_(dst),
      payload_bytes_(payload_bytes),
      task_(mac.simulator(), interval, [this] {
        mac_.enqueue(WifiMac::SendRequest{dst_, payload_bytes_, phy::FrameKind::Data,
                                          Duration::zero(), 0});
        ++generated_;
      }) {}

void CbrSource::start() { task_.start_after(Duration::zero()); }

void CbrSource::stop() { task_.stop(); }

SaturatedSource::SaturatedSource(WifiMac& mac, phy::NodeId dst,
                                 std::uint32_t payload_bytes, int depth)
    : mac_(mac), dst_(dst), payload_bytes_(payload_bytes), depth_(depth) {
  if (depth_ > static_cast<int>(WifiMac::kMaxQueue)) {
    throw std::invalid_argument("SaturatedSource: depth above WifiMac::kMaxQueue");
  }
}

void SaturatedSource::start() {
  running_ = true;
  mac_.set_sent_callback([this](const WifiMac::SendOutcome& outcome) {
    if (forward_) forward_(outcome);
    refill();
  });
  for (int i = 0; i < depth_; ++i) refill();
}

void SaturatedSource::stop() { running_ = false; }

void SaturatedSource::refill() {
  if (!running_) return;
  while (mac_.queue_depth() < static_cast<std::size_t>(depth_)) {
    mac_.enqueue(WifiMac::SendRequest{dst_, payload_bytes_, phy::FrameKind::Data,
                                      Duration::zero(), 0});
    ++generated_;
  }
}

PriorityScheduleSource::PriorityScheduleSource(WifiMac& mac, phy::NodeId dst,
                                               std::uint32_t payload_bytes,
                                               double high_share, Duration cycle)
    : mac_(mac),
      dst_(dst),
      payload_bytes_(payload_bytes),
      high_share_(high_share),
      cycle_(cycle) {}

void PriorityScheduleSource::start() {
  running_ = true;
  started_ = mac_.simulator().now();
  mac_.set_sent_callback([this](const WifiMac::SendOutcome& outcome) {
    if (forward_) forward_(outcome);
    refill();
  });
  refill();
  refill();
}

void PriorityScheduleSource::stop() { running_ = false; }

bool PriorityScheduleSource::high_priority_active() const {
  if (!running_) return false;
  const Duration into_cycle =
      Duration::from_us((mac_.simulator().now() - started_).us() % cycle_.us());
  return static_cast<double>(into_cycle.us()) <
         high_share_ * static_cast<double>(cycle_.us());
}

int PriorityScheduleSource::current_priority() const {
  return high_priority_active() ? 1 : 0;
}

void PriorityScheduleSource::refill() {
  if (!running_) return;
  // A real file transfer / video stream keeps a deep buffer queued at the
  // MAC; per-frame delay then reflects reservation overheads (Fig. 13).
  while (mac_.queue_depth() < 24) {
    mac_.enqueue(WifiMac::SendRequest{dst_, payload_bytes_, phy::FrameKind::Data,
                                      Duration::zero(), current_priority()});
    ++generated_;
  }
}

}  // namespace bicord::wifi

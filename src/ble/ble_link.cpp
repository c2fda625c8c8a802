#include "ble/ble_link.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>

#include "phy/units.hpp"

namespace bicord::ble {

namespace {
using namespace bicord::time_literals;

constexpr Duration kIfs = Duration::from_us(150);  // T_IFS
constexpr double kSinrThresholdDb = 6.0;           // GFSK demodulation
constexpr double kSinrWidthDb = 1.5;

/// BLE 1M PHY on-air duration: (preamble 1 + AA 4 + header 2 + payload +
/// CRC 3) bytes at 1 Mb/s.
Duration ble_airtime(std::uint32_t payload_bytes) {
  return Duration::from_us((10 + static_cast<std::int64_t>(payload_bytes)) * 8);
}
}  // namespace

phy::Band data_channel_band(int n) {
  if (n < 0 || n >= kDataChannels) {
    throw std::invalid_argument("ble::data_channel_band: n must be in [0,36]");
  }
  // Data channels 0-10 -> 2404..2424 MHz, 11-36 -> 2428..2478 MHz
  // (2426 MHz is the advertising channel 38).
  const double center = n <= 10 ? 2404.0 + 2.0 * n : 2428.0 + 2.0 * (n - 11);
  return phy::Band{center, 2.0};
}

BleConnection::BleConnection(phy::Medium& medium, phy::NodeId master,
                             phy::NodeId slave, Config config)
    : medium_(medium),
      sim_(medium.simulator()),
      master_(master),
      slave_(slave),
      config_(config),
      rng_(medium.simulator().rng().split()),
      events_(sim_, config_.connection_interval, [this] { connection_event(); }) {
  map_.fill(true);
  if (std::gcd(config_.hop_increment, kDataChannels) != 1) {
    throw std::invalid_argument("BleConnection: hop_increment must be coprime with 37");
  }
}

int BleConnection::enabled_channels() const {
  int n = 0;
  for (bool e : map_) n += e ? 1 : 0;
  return n;
}

bool BleConnection::set_channel_enabled(int channel, bool enabled) {
  if (channel < 0 || channel >= kDataChannels) {
    throw std::invalid_argument("BleConnection::set_channel_enabled: bad channel");
  }
  auto& slot = map_[static_cast<std::size_t>(channel)];
  if (!enabled && slot && enabled_channels() <= 2) return false;  // keep the link alive
  slot = enabled;
  return true;
}

std::vector<int> BleConnection::channels_overlapping(phy::Band band) {
  std::vector<int> hits;
  for (int c = 0; c < kDataChannels; ++c) {
    if (phy::overlap_mhz(data_channel_band(c), band) > 0.0) hits.push_back(c);
  }
  return hits;
}

int BleConnection::next_enabled_channel() {
  // Channel selection algorithm #1 style: hop, remapping excluded channels.
  for (int step = 0; step < kDataChannels; ++step) {
    channel_ = (channel_ + config_.hop_increment) % kDataChannels;
    if (map_[static_cast<std::size_t>(channel_)]) return channel_;
  }
  return -1;
}

Duration BleConnection::transmit_packet(phy::NodeId from, phy::NodeId to, int channel) {
  const Duration airtime = ble_airtime(config_.payload_bytes);
  phy::Frame f;
  f.tech = phy::Technology::Bluetooth;
  f.kind = phy::FrameKind::Data;
  f.src = from;
  f.dst = to;
  f.bytes = config_.payload_bytes + 10;
  medium_.begin_tx(f, data_channel_band(channel), config_.tx_power_dbm, airtime);
  judge_packet(to, channel, config_.tx_power_dbm, from);
  return airtime;
}

void BleConnection::judge_packet(phy::NodeId to, int channel, double tx_power_dbm,
                                 phy::NodeId from) {
  // Sample the interference at the receiver at the packet's start and
  // midpoint (events can begin or end mid-packet) and decide on the worst.
  const phy::Band band = data_channel_band(channel);
  const double signal = medium_.rx_power_dbm(from, tx_power_dbm, band, to, band);
  auto interference = [this, to, band, from] {
    return medium_.energy_dbm(to, band, from);
  };
  const double i0 = interference();
  const Duration airtime = ble_airtime(config_.payload_bytes);
  judge_.after(airtime / 2, [this, signal, i0, interference] {
    const double worst = std::max(i0, interference());
    const double sinr = signal - worst;
    const double p = 1.0 / (1.0 + std::exp(-(sinr - kSinrThresholdDb) / kSinrWidthDb));
    if (rng_.bernoulli(p)) {
      ++stats_.packets_ok;
    } else {
      ++stats_.packets_corrupted;
    }
  });
}

void BleConnection::connection_event() {
  ++stats_.events;
  const int channel = next_enabled_channel();
  if (channel < 0) {
    ++stats_.events_skipped;
  } else {
    // Master -> slave, then slave -> master after T_IFS.
    const Duration m_air = transmit_packet(master_, slave_, channel);
    reply_.after(m_air + kIfs, [this, channel] {
      if (!events_.running()) return;
      transmit_packet(slave_, master_, channel);
    });
  }
}

}  // namespace bicord::ble

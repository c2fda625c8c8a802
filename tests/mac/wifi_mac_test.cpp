#include "wifi/wifi_mac.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sim/simulator.hpp"
#include "wifi/traffic.hpp"

namespace bicord::wifi {
namespace {

using namespace bicord::time_literals;
using phy::FrameKind;

struct WifiMacFixture : ::testing::Test {
  WifiMacFixture()
      : sim(11), medium(sim, phy::PathLossModel{40.0, 3.0, 0.0, 0.1}) {
    node_a = medium.add_node("A", {0.0, 0.0});
    node_b = medium.add_node("B", {3.0, 0.0});
    node_c = medium.add_node("C", {1.5, 1.0});
    mac_a = std::make_unique<WifiMac>(medium, node_a, config());
    mac_b = std::make_unique<WifiMac>(medium, node_b, config());
  }

  static WifiMac::Config config() {
    WifiMac::Config c;
    c.channel = 11;
    c.tx_power_dbm = 20.0;
    return c;
  }

  sim::Simulator sim;
  phy::Medium medium;
  phy::NodeId node_a{};
  phy::NodeId node_b{};
  phy::NodeId node_c{};
  std::unique_ptr<WifiMac> mac_a;
  std::unique_ptr<WifiMac> mac_b;
};

TEST_F(WifiMacFixture, UnicastDataIsAcked) {
  std::vector<WifiMac::SendOutcome> outcomes;
  mac_a->set_sent_callback([&](const WifiMac::SendOutcome& o) { outcomes.push_back(o); });
  mac_a->enqueue({node_b, 500, FrameKind::Data, Duration::zero(), 0});
  sim.run_for(10_ms);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].delivered);
  EXPECT_EQ(outcomes[0].retries, 0);
  EXPECT_EQ(mac_a->delivered(), 1u);
  EXPECT_EQ(mac_a->dropped(), 0u);
}

TEST_F(WifiMacFixture, DestroyedWhileContendingCancelsItsAccessTimer) {
  mac_a->enqueue({node_b, 500, FrameKind::Data, Duration::zero(), 0});
  const auto pending = sim.pending_events();  // the DIFS + backoff wait
  mac_a.reset();
  EXPECT_EQ(sim.pending_events(), pending - 1);
  sim.run_for(10_ms);
}

TEST_F(WifiMacFixture, BroadcastNeedsNoAck) {
  bool sent = false;
  mac_a->set_sent_callback([&](const WifiMac::SendOutcome& o) {
    sent = true;
    EXPECT_TRUE(o.delivered);
  });
  mac_a->enqueue({phy::kBroadcastNode, 100, FrameKind::Data, Duration::zero(), 0});
  sim.run_for(5_ms);
  EXPECT_TRUE(sent);
}

TEST_F(WifiMacFixture, QueueDrainsInOrder) {
  std::vector<std::uint64_t> seqs;
  mac_a->set_sent_callback(
      [&](const WifiMac::SendOutcome& o) { seqs.push_back(o.frame.seq); });
  for (int i = 0; i < 5; ++i) {
    mac_a->enqueue({node_b, 200, FrameKind::Data, Duration::zero(), 0});
  }
  sim.run_for(50_ms);
  ASSERT_EQ(seqs.size(), 5u);
  for (std::size_t i = 1; i < seqs.size(); ++i) EXPECT_GT(seqs[i], seqs[i - 1]);
}

TEST_F(WifiMacFixture, FullQueueDiscardsWithoutSpendingSequenceNumbers) {
  // A 1 us CBR interval used to grow the queue by 10^6 frames per sim-s.
  std::vector<std::uint64_t> seqs;
  mac_a->set_sent_callback(
      [&](const WifiMac::SendOutcome& o) { seqs.push_back(o.frame.seq); });
  // The first frame goes straight to the head of line; the queue fills
  // behind it.
  for (std::size_t i = 0; i < WifiMac::kMaxQueue + 5; ++i) {
    mac_a->enqueue({node_b, 200, FrameKind::Data, Duration::zero(), 0});
  }
  EXPECT_EQ(mac_a->queue_depth(), WifiMac::kMaxQueue);
  EXPECT_EQ(mac_a->discarded(), 4u);
  // The reservation path is never capped, and its frame takes the next
  // sequence number after the last queued one.
  mac_a->enqueue_front({node_b, 200, FrameKind::Data, Duration::zero(), 0});
  EXPECT_EQ(mac_a->queue_depth(), WifiMac::kMaxQueue + 1);
  sim.run_for(10_ms);
  ASSERT_GE(seqs.size(), 3u);
  EXPECT_EQ(seqs[0], 1u);
  EXPECT_EQ(seqs[1], WifiMac::kMaxQueue + 2);
  EXPECT_EQ(seqs[2], 2u);
  EXPECT_EQ(mac_a->discarded(), 4u);
  // A saturated source deeper than the cap could never fill its queue.
  EXPECT_THROW(SaturatedSource(*mac_a, node_b, 200, static_cast<int>(WifiMac::kMaxQueue) + 1),
               std::invalid_argument);
}

TEST_F(WifiMacFixture, EnqueueFrontPreempts) {
  std::vector<FrameKind> kinds;
  mac_a->set_sent_callback(
      [&](const WifiMac::SendOutcome& o) { kinds.push_back(o.frame.kind); });
  mac_a->enqueue({node_b, 1200, FrameKind::Data, Duration::zero(), 0});
  mac_a->enqueue({node_b, 1200, FrameKind::Data, Duration::zero(), 0});
  mac_a->enqueue_front({phy::kBroadcastNode, 0, FrameKind::Cts, Duration::zero(), 0});
  sim.run_for(50_ms);
  ASSERT_GE(kinds.size(), 2u);
  // The CTS entered at the front: it must not come last.
  EXPECT_NE(kinds.back(), FrameKind::Cts);
}

TEST_F(WifiMacFixture, RetriesWhenReceiverGone) {
  // Move B out of range: data cannot be ACKed, A retries then drops.
  medium.set_position(node_b, {1000.0, 0.0});
  std::vector<WifiMac::SendOutcome> outcomes;
  mac_a->set_sent_callback([&](const WifiMac::SendOutcome& o) { outcomes.push_back(o); });
  mac_a->enqueue({node_b, 200, FrameKind::Data, Duration::zero(), 0});
  sim.run_for(2_sec);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].delivered);
  EXPECT_EQ(outcomes[0].retries, mac_a->config().retry_limit + 1);
  EXPECT_EQ(mac_a->dropped(), 1u);
}

TEST_F(WifiMacFixture, CtsSilencesOtherMacs) {
  // B broadcasts a CTS with a 20 ms NAV; A must stay silent until it expires.
  std::vector<TimePoint> a_tx_times;
  mac_a->set_sent_callback(
      [&](const WifiMac::SendOutcome& o) { a_tx_times.push_back(o.completed); });

  mac_b->enqueue_front({phy::kBroadcastNode, 0, FrameKind::Cts, 20_ms, 0});
  sim.run_for(2_ms);  // CTS is on air / delivered
  const TimePoint nav_set = sim.now();
  mac_a->enqueue({node_b, 100, FrameKind::Data, Duration::zero(), 0});
  sim.run_for(50_ms);

  ASSERT_FALSE(a_tx_times.empty());
  EXPECT_GE(a_tx_times[0], nav_set + 18_ms);
  EXPECT_GT(mac_a->nav_until().us(), 0);
}

TEST_F(WifiMacFixture, CtsToSelfPausesSender) {
  mac_b->enqueue_front({phy::kBroadcastNode, 0, FrameKind::Cts, 30_ms, 0});
  sim.run_for(2_ms);
  EXPECT_TRUE(mac_b->paused());
  sim.run_for(40_ms);
  EXPECT_FALSE(mac_b->paused());
}

TEST_F(WifiMacFixture, PauseEndCallbackFires) {
  TimePoint ended;
  mac_a->set_pause_end_callback([&](TimePoint t) { ended = t; });
  mac_a->pause_for(10_ms);
  EXPECT_TRUE(mac_a->paused());
  sim.run_for(20_ms);
  EXPECT_EQ(ended.us(), 10000);
}

TEST_F(WifiMacFixture, PausesExtendNotShorten) {
  mac_a->pause_for(20_ms);
  mac_a->pause_for(5_ms);  // shorter: ignored
  sim.run_for(10_ms);
  EXPECT_TRUE(mac_a->paused());
  sim.run_for(15_ms);
  EXPECT_FALSE(mac_a->paused());
}

TEST_F(WifiMacFixture, PausedMacDefersTraffic) {
  std::vector<TimePoint> tx_times;
  mac_a->set_sent_callback(
      [&](const WifiMac::SendOutcome& o) { tx_times.push_back(o.completed); });
  mac_a->pause_for(25_ms);
  mac_a->enqueue({node_b, 100, FrameKind::Data, Duration::zero(), 0});
  sim.run_for(60_ms);
  ASSERT_EQ(tx_times.size(), 1u);
  EXPECT_GE(tx_times[0], TimePoint::from_us(25000));
}

TEST_F(WifiMacFixture, RxHookSeesOverheardFrames) {
  WifiMac mac_c(medium, node_c, config());
  int heard = 0;
  mac_c.set_rx_hook([&](const phy::RxResult& rx) {
    if (rx.frame.kind == FrameKind::Data) ++heard;
  });
  mac_a->enqueue({node_b, 300, FrameKind::Data, Duration::zero(), 0});
  sim.run_for(10_ms);
  EXPECT_EQ(heard, 1);  // C is not the destination but still hears it
}

TEST_F(WifiMacFixture, TwoSaturatedSendersShareChannel) {
  WifiMac mac_c(medium, node_c, config());
  SaturatedSource src_a(*mac_a, node_b, 1000);
  SaturatedSource src_c(mac_c, node_b, 1000);
  int a_done = 0;
  int c_done = 0;
  src_a.set_sent_callback([&](const WifiMac::SendOutcome& o) { a_done += o.delivered; });
  src_c.set_sent_callback([&](const WifiMac::SendOutcome& o) { c_done += o.delivered; });
  src_a.start();
  src_c.start();
  sim.run_for(200_ms);
  EXPECT_GT(a_done, 50);
  EXPECT_GT(c_done, 50);
  // Rough fairness: neither sender starves.
  EXPECT_GT(a_done, c_done / 4);
  EXPECT_GT(c_done, a_done / 4);
}

TEST_F(WifiMacFixture, CbrSourceGeneratesAtInterval) {
  CbrSource src(*mac_a, node_b, 100, 1_ms);
  src.start();
  sim.run_for(100_ms);
  EXPECT_NEAR(static_cast<double>(src.generated()), 100.0, 2.0);
  src.stop();
  const auto before = src.generated();
  sim.run_for(10_ms);
  EXPECT_EQ(src.generated(), before);
}

TEST_F(WifiMacFixture, PrioritySourceSchedulesWindows) {
  PriorityScheduleSource src(*mac_a, node_b, 500, 0.3, 100_ms);
  src.start();
  // At t=10ms we are inside the high-priority window (first 30 ms of cycle).
  sim.run_for(10_ms);
  EXPECT_TRUE(src.high_priority_active());
  sim.run_for(40_ms);  // t=50ms: low-priority part
  EXPECT_FALSE(src.high_priority_active());
  sim.run_for(60_ms);  // t=110ms: next cycle, high again
  EXPECT_TRUE(src.high_priority_active());
}

}  // namespace
}  // namespace bicord::wifi

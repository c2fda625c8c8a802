// runner::parallel_for, the trial thread pool of every sweep: the caller
// plus helper threads drain one shared index counter.

#include "runner/parallel_runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace bicord::runner {
namespace {

TEST(TrialPoolTest, RunsEveryTrialExactlyOnce) {
  constexpr std::size_t n = 200;
  std::vector<std::atomic<int>> hits(n);
  EXPECT_EQ(parallel_for(n, 4, [&](std::size_t i) { hits[i].fetch_add(1); }), 4);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << "trial " << i;
}

TEST(TrialPoolTest, MapReturnsResultsInSubmissionOrder) {
  const auto out = parallel_map<std::size_t>(100, 4, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(TrialPoolTest, PropagatesLowestIndexedException) {
  std::vector<std::atomic<int>> hits(64);
  auto fn = [&](std::size_t i) {
    hits[i].fetch_add(1);
    if (i == 7 || i == 3 || i == 50) {
      throw std::runtime_error("trial " + std::to_string(i));
    }
  };
  try {
    parallel_for(64, 4, fn);
    FAIL() << "expected the trial exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "trial 3");  // lowest index, not first-to-fail
  }
  // A failing trial must not abort its siblings: every trial still ran.
  for (std::size_t i = 0; i < 64; ++i) EXPECT_EQ(hits[i].load(), 1) << "trial " << i;
}

TEST(TrialPoolTest, MoreJobsThanTrialsDoesNotHang) {
  // One thread per trial at most: the caller plus two helpers.
  std::vector<std::size_t> out(3);
  EXPECT_EQ(parallel_for(3, 8, [&](std::size_t i) { out[i] = i; }), 3);
  EXPECT_EQ(out, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(TrialPoolTest, ZeroTrialsReturnsImmediately) {
  bool called = false;
  EXPECT_EQ(parallel_for(0, 4, [&](std::size_t) { called = true; }), 1);
  EXPECT_FALSE(called);
}

TEST(TrialPoolTest, SingleJobRunsInline) {
  const auto caller = std::this_thread::get_id();
  EXPECT_EQ(parallel_for(8, 1,
                         [&](std::size_t) {
                           EXPECT_EQ(std::this_thread::get_id(), caller);
                         }),
            1);
}

TEST(TrialPoolTest, ParallelMapConvenience) {
  const auto out = parallel_map<int>(50, 4, [](std::size_t i) {
    return static_cast<int>(i) * 2;
  });
  int sum = std::accumulate(out.begin(), out.end(), 0);
  EXPECT_EQ(sum, 2 * (49 * 50 / 2));
}

TEST(TrialPoolTest, NullTrialFunctionIsRejected) {
  EXPECT_THROW(parallel_for(4, 2, nullptr), std::invalid_argument);
}

TEST(ResolveJobsTest, HonorsExplicitRequest) {
  EXPECT_EQ(resolve_jobs(1), 1);
  EXPECT_EQ(resolve_jobs(5), 5);
}

TEST(ResolveJobsTest, FallsBackToEnvThenHardware) {
  const char* saved = std::getenv("BICORD_JOBS");
  const std::string saved_value = saved != nullptr ? saved : "";

  ::setenv("BICORD_JOBS", "3", 1);
  EXPECT_EQ(resolve_jobs(0), 3);
  EXPECT_EQ(resolve_jobs(2), 2);  // explicit request still wins

  ::setenv("BICORD_JOBS", "not-a-number", 1);
  EXPECT_GE(resolve_jobs(0), 1);  // garbage env -> hardware fallback

  ::unsetenv("BICORD_JOBS");
  EXPECT_GE(resolve_jobs(0), 1);
  EXPECT_GE(resolve_jobs(-7), 1);

  if (saved != nullptr) ::setenv("BICORD_JOBS", saved_value.c_str(), 1);
}

}  // namespace
}  // namespace bicord::runner

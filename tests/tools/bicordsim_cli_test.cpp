// Exit-code and output contract of the bicordsim CLI: a run whose invariant
// checker records violations must exit 1 so scripted sweeps
// (scripts/check.sh, EXPERIMENTS.md recipes) fail loudly, a clean
// multigrantor run must exit 0 while still printing the election report
// block, bad input exits 2, and stdout carries only deterministic output.
//
// The binary path is injected by CMake via BICORD_SIM_BIN.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace {

namespace fs = std::filesystem;

struct Result {
  int exit_code = -1;
  std::string output;
};

/// Runs bicordsim, capturing stdout and stderr, or stdout alone. Each test
/// gets its own capture file, so parallel test runs never share one.
Result run_sim(const std::string& args, bool stdout_only = false) {
  const fs::path out_file =
      fs::path(::testing::TempDir()) /
      (std::string("bicordsim_cli_") +
       ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".txt");
  const std::string cmd = std::string(BICORD_SIM_BIN) + " " + args + " > " +
                          out_file.string() + (stdout_only ? " 2>/dev/null" : " 2>&1");
  const int raw = std::system(cmd.c_str());
  Result r;
  r.exit_code = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  std::ifstream in(out_file);
  std::stringstream ss;
  ss << in.rdbuf();
  r.output = ss.str();
  return r;
}

TEST(BicordsimCliTest, CleanMultigrantorRunExitsZeroWithElectionReport) {
  const Result r = run_sim("--scenario multigrantor --seconds 1");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  // The election block must make it into the report table.
  EXPECT_NE(r.output.find("grantors"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("max handoff gap"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("invariant checks / violations"), std::string::npos)
      << r.output;
}

TEST(BicordsimCliTest, InvariantViolationsGateTheExitCode) {
  // Refusing every grant strands each takeover without a first grant: the
  // handoff-gap invariant fires and the process must exit 1.
  const Result r = run_sim(
      "--scenario multigrantor --set wifi.grants_requests=false --seconds 1");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("handoff gap unbounded"), std::string::npos)
      << r.output;
}

TEST(BicordsimCliTest, UnknownPresetExitsWithUsageError) {
  const Result r = run_sim("--scenario no-such-preset --seconds 1");
  EXPECT_EQ(r.exit_code, 2) << r.output;
}

TEST(BicordsimCliTest, ZeroPriorityCycleExitsWithUsageError) {
  const Result r = run_sim(
      "--wifi-traffic priority --set wifi.priority_cycle=0us --seconds 1");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("wifi.priority_cycle"), std::string::npos) << r.output;
}

TEST(BicordsimCliTest, RepeatStdoutIsByteIdenticalAcrossRuns) {
  // Wall time and throughput differ run to run, so they stay off stdout.
  const std::string args = "--scenario fig10 --repeat 2 --seconds 1 --jobs 2";
  const Result a = run_sim(args, /*stdout_only=*/true);
  const Result b = run_sim(args, /*stdout_only=*/true);
  ASSERT_EQ(a.exit_code, 0) << a.output;
  ASSERT_EQ(b.exit_code, 0) << b.output;
  EXPECT_EQ(a.output, b.output);
}

}  // namespace

// Exit-code and output contract of the bicordsim CLI: a run whose invariant
// checker records violations must exit 1 so scripted sweeps
// (scripts/check.sh, EXPERIMENTS.md recipes) fail loudly, a clean
// multigrantor run must exit 0 while still printing the election report
// block, bad input exits 2, and stdout carries only deterministic output.
// The benches share the `--jobs` check and reject stray arguments too.
//
// The binary paths are injected by CMake via BICORD_SIM_BIN and, when the
// benches are built, BICORD_FIG8_BIN and BICORD_ABLATION_BIN.

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

/// Runs a shell command line whose last command is the program under test,
/// capturing its stdout and stderr, or stdout alone. Each test gets its own
/// capture file, so parallel test runs never share one.
Result run(const std::string& command, bool stdout_only = false) {
  const fs::path out_file =
      fs::path(::testing::TempDir()) /
      (std::string("bicordsim_cli_") +
       ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".txt");
  const std::string cmd = command + " > " + out_file.string() +
                          (stdout_only ? " 2>/dev/null" : " 2>&1");
  const int raw = std::system(cmd.c_str());
  Result r;
  r.exit_code = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
  std::ifstream in(out_file);
  std::stringstream ss;
  ss << in.rdbuf();
  r.output = ss.str();
  return r;
}

Result run_sim(const std::string& args, bool stdout_only = false) {
  return run(std::string(BICORD_SIM_BIN) + " " + args, stdout_only);
}

/// Bad input: exit 2 with a message containing `needle`.
void expect_usage_error(const Result& r, const std::string& needle) {
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find(needle), std::string::npos) << r.output;
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

TEST(BicordsimCliTest, BleTopologyIsRefusedFromAPresetOrASet) {
  // bicordsim builds only the Wi-Fi topology; --set used to slip past the
  // check and run the Wi-Fi testbed for a BLE spec.
  expect_usage_error(run_sim("--scenario ble --seconds 1"), "topology=ble");
  expect_usage_error(run_sim("--set topology=ble --seconds 1"), "topology=ble");
}

TEST(BicordsimCliTest, DirectoryInputFileExitsWithUsageError) {
  // Both used to abort (134) with an uncaught std::ios_failure.
  const std::string dir = ::testing::TempDir();
  expect_usage_error(run_sim("--scenario @" + dir + " --seconds 1"),
                     "cannot read scenario file");
  expect_usage_error(run_sim("--fault-plan @" + dir + " --seconds 1"),
                     "cannot read fault plan file");
}

TEST(BicordsimCliTest, OversizedInputFileExitsWithUsageError) {
  // @/dev/zero used to read without bound; a file one byte over the 1 MiB
  // cap is refused the same way, before any of it is parsed.
  const fs::path path = fs::path(::testing::TempDir()) / "bicordsim_cli_oversized.txt";
  {
    std::ofstream out(path, std::ios::binary);
    out << std::string((std::size_t{1} << 20) + 1, '\n');
  }
  expect_usage_error(run_sim("--scenario @" + path.string() + " --seconds 1"),
                     "larger than 1 MiB");
  expect_usage_error(run_sim("--fault-plan @" + path.string() + " --seconds 1"),
                     "larger than 1 MiB");
  fs::remove(path);
}

TEST(BicordsimCliTest, ZeroPriorityCycleExitsWithUsageError) {
  expect_usage_error(
      run_sim("--set wifi.traffic=priority --set wifi.priority_cycle=0us --seconds 1"),
      "wifi.priority_cycle");
}

TEST(BicordsimCliTest, InfiniteCellSizeExitsWithUsageError) {
  // Used to escape as an uncaught std::invalid_argument from the grid (134).
  // The key is gone, as the grid cell is always derived; naming a removed
  // key must still exit 2 and name it.
  expect_usage_error(run_sim("--scenario dense --set medium.cell=inf --seconds 1"),
                     "medium.cell");
}

TEST(BicordsimCliTest, RepeatedSetAppendsInCommandLineOrder) {
  // The second --set used to replace the first, so this ran BiCord.
  const Result r = run_sim("--set coordination=ecc --set seed=7 --seconds 1",
                           /*stdout_only=*/true);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("scheme=ECC"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("seed=7,"), std::string::npos) << r.output;
}

TEST(BicordsimCliTest, ZeroSecondsWithRepeatExitsWithUsageError) {
  // Used to abort (134) on ExperimentRunner's positive-window check.
  expect_usage_error(run_sim("--seconds 0 --repeat 2"), "--seconds");
}

TEST(BicordsimCliTest, NegativeSecondsExitsWithUsageError) {
  // Used to print "-5s measured" over an all-zero table.
  expect_usage_error(run_sim("--seconds -5"), "--seconds");
}

TEST(BicordsimCliTest, OverflowingSecondsExitsWithUsageError) {
  // Used to clamp to "9223372036854775807s measured" over an all-zero table.
  expect_usage_error(run_sim("--seconds 99999999999999999999"), "--seconds");
}

TEST(BicordsimCliTest, OversizedBurstPacketsFlagExitsWithUsageError) {
  // The value reaches the spec unnarrowed, so the spec's limit sees it.
  expect_usage_error(run_sim("--set burst.packets=9999999999 --seconds 1"), "burst.packets");
}

TEST(BicordsimCliTest, RemovedScenarioFlagsExitWithUsageError) {
  // Scenario values are spec keys, set with --set; the flags that copied
  // them are gone and must fail loudly rather than be ignored.
  for (const std::string args :
       {"--scheme ecc", "--location B", "--seed 7", "--burst-packets 5",
        "--burst-payload 50", "--burst-interval-ms 200", "--poisson", "--no-poisson",
        "--wifi-traffic cbr", "--wifi-high-share 0.5", "--ecc-whitespace-ms 30",
        "--ecc-period-ms 120", "--step-ms 40", "--person-mobility", "--device-mobility"}) {
    expect_usage_error(run_sim(args + " --seconds 1"),
                       "unknown flag " + args.substr(0, args.find(' ')));
  }
}

TEST(BicordsimCliTest, UnwritableTraceFileExitsBeforeTheRun) {
  // Used to run the whole simulation, print its table, and only then fail
  // to open the file and exit 1.
  const fs::path path =
      fs::path(::testing::TempDir()) / "bicordsim_cli_no_such_dir" / "trace.jsonl";
  const Result r = run_sim("--scenario fig10 --seconds 1 --trace-file " + path.string());
  expect_usage_error(r, "cannot open trace file");
  EXPECT_EQ(r.output.find("bicordsim: scheme="), std::string::npos) << r.output;
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

TEST(BicordsimCliTest, ThreadStartFailureFinishesOnTheCallingThread) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "ASan and TSAN reserve more address space than the limit allows";
#endif
  // 63 helper stacks do not fit in 400 MB of address space. This used to
  // abort (134) with an uncaught std::system_error from starting a thread.
  const std::string args = "--seconds 1 --warmup-seconds 0 --repeat 64";
  const Result limited =
      run("ulimit -v 400000; " + std::string(BICORD_SIM_BIN) + " " + args + " --jobs 64",
          /*stdout_only=*/true);
  const Result serial = run_sim(args + " --jobs 1", /*stdout_only=*/true);
  ASSERT_EQ(limited.exit_code, 0) << limited.output;
  ASSERT_EQ(serial.exit_code, 0) << serial.output;
  EXPECT_EQ(limited.output, serial.output);
}

TEST(BicordsimCliTest, OversizedRepeatExitsWithUsageError) {
  // Used to abort (134) with an uncaught std::bad_alloc.
  expect_usage_error(run_sim("--repeat 2147483647 --seconds 1"), "--repeat");
}

TEST(BicordsimCliTest, NarrowingJobsExitsWithUsageError) {
  // 4294967297 used to narrow to one thread.
  expect_usage_error(run_sim("--repeat 2 --jobs 4294967297 --seconds 1"), "--jobs");
}

TEST(BicordsimCliTest, OversizedJobsExitsWithUsageError) {
  // Used to narrow to a negative count and silently run the hardware default.
  expect_usage_error(run_sim("--jobs 2147483648 --seconds 1"), "--jobs");
}

TEST(BicordsimCliTest, NegativeJobsExitsWithUsageError) {
  // Used to silently run the hardware default.
  expect_usage_error(run_sim("--jobs -3 --seconds 1"), "--jobs");
}

#ifdef BICORD_FIG8_BIN
TEST(BenchCliTest, NarrowingJobsExitsWithUsageError) {
  // Used to narrow to one thread, like bicordsim's flag.
  expect_usage_error(run(std::string(BICORD_FIG8_BIN) + " 1 --jobs 4294967297"),
                     "--jobs");
}

TEST(BenchCliTest, SerialBenchRejectsArgumentsAfterTheScale) {
  // Both used to run to exit 0, ignoring everything after the scale.
  expect_usage_error(run(std::string(BICORD_ABLATION_BIN) + " 5 --jobs 2"),
                     "unknown flag --jobs");
  expect_usage_error(run(std::string(BICORD_ABLATION_BIN) + " 5 nonsense"), "'nonsense'");
}
#endif

}  // namespace

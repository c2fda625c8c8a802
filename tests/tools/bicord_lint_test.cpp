// Fixture-driven tests for tools/bicord_lint.cpp: every rule must fire on a
// minimal snippet, the allow-annotation must waive it, and the baseline
// ratchet must reject growth. The PR-3 periodic-callback capture pattern —
// the bug that motivated the lifetime rules — is reproduced verbatim as a
// fixture so the linter provably catches the real thing.
//
// The linter binary path is injected by CMake via BICORD_LINT_BIN.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace {

namespace fs = std::filesystem;

class BicordLintTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = fs::path(::testing::TempDir()) /
            (std::string("bicord_lint_") + info->name());
    fs::remove_all(root_);
    // Rules scope by path segment: determinism/lifetime fire under src/ only,
    // float-equality under src/detect/ and src/csi/.
    fs::create_directories(root_ / "src" / "detect");
  }

  void TearDown() override { fs::remove_all(root_); }

  fs::path write(const std::string& rel, const std::string& content) {
    const fs::path p = root_ / rel;
    fs::create_directories(p.parent_path());
    std::ofstream out(p);
    out << content;
    return p;
  }

  struct Result {
    int exit_code = -1;
    std::string output;
  };

  /// Runs the linter over `args` (paths/flags), capturing stdout+stderr.
  Result run(const std::string& args) {
    const fs::path out_file = root_ / "lint_out.txt";
    const std::string cmd = std::string(BICORD_LINT_BIN) + " " + args + " > " +
                            out_file.string() + " 2>&1";
    const int raw = std::system(cmd.c_str());
    Result r;
    r.exit_code = WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
    std::ifstream in(out_file);
    std::stringstream ss;
    ss << in.rdbuf();
    r.output = ss.str();
    return r;
  }

  Result run_on(const fs::path& target, const std::string& extra = "") {
    return run(extra.empty() ? target.string() : extra + " " + target.string());
  }

  fs::path root_;
};

TEST_F(BicordLintTest, CleanFilePasses) {
  const auto p = write("src/clean.cpp",
                       "#include \"util/rng.hpp\"\n"
                       "int draw(bicord::Rng& rng) { return 4; }\n");
  const Result r = run_on(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("clean"), std::string::npos) << r.output;
}

TEST_F(BicordLintTest, BannedRandFires) {
  const auto p = write("src/a.cpp",
                       "#include <cstdlib>\n"
                       "int roll() { return std::rand() % 6; }\n");
  const Result r = run_on(p);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("[banned-rand]"), std::string::npos) << r.output;
}

TEST_F(BicordLintTest, RandomDeviceFires) {
  const auto p = write("src/b.cpp",
                       "#include <random>\n"
                       "unsigned seed() { return std::random_device{}(); }\n");
  const Result r = run_on(p);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("[banned-rand]"), std::string::npos) << r.output;
}

TEST_F(BicordLintTest, WallClockFires) {
  const auto p = write("src/c.cpp",
                       "#include <chrono>\n"
                       "auto t() { return std::chrono::steady_clock::now(); }\n");
  const Result r = run_on(p);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("[wall-clock]"), std::string::npos) << r.output;
}

TEST_F(BicordLintTest, CTimeFires) {
  const auto p = write("src/d.cpp",
                       "#include <ctime>\n"
                       "long now() { return time(nullptr); }\n");
  const Result r = run_on(p);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("[wall-clock]"), std::string::npos) << r.output;
}

TEST_F(BicordLintTest, AirtimeDoesNotTripWallClock) {
  // `airtime(...)`, `next_time()` and friends share the `time(` suffix; the
  // word boundary must keep them clean.
  const auto p = write("src/e.cpp",
                       "struct M { double airtime(int t); double next_time(); };\n"
                       "double f(M& m) { return m.airtime(3) + m.next_time(); }\n");
  const Result r = run_on(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(BicordLintTest, UnorderedIterationFires) {
  const auto p = write("src/f.cpp",
                       "#include <unordered_map>\n"
                       "int sum(const std::unordered_map<int, int>& m) {\n"
                       "  std::unordered_map<int, int> copy = m;\n"
                       "  int s = 0;\n"
                       "  for (const auto& kv : copy) s += kv.second;\n"
                       "  return s;\n"
                       "}\n");
  const Result r = run_on(p);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("[unordered-iteration]"), std::string::npos) << r.output;
}

TEST_F(BicordLintTest, DelayedCatchAllCaptureFires) {
  const auto p = write("src/g.cpp",
                       "void arm(Sim& sim, int& n) {\n"
                       "  sim.after(Duration::from_ms(5), [&] { ++n; });\n"
                       "}\n");
  const Result r = run_on(p);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("[delayed-ref-capture]"), std::string::npos) << r.output;
}

TEST_F(BicordLintTest, ZeroDelayCatchAllIsAllowed) {
  // A zero-delay post runs before control returns to the caller's caller;
  // the capture cannot dangle, so the rule stays quiet.
  const auto p = write("src/h.cpp",
                       "void drain(Sim& sim, int& n) {\n"
                       "  sim.after(Duration::zero(), [&] { ++n; });\n"
                       "}\n");
  const Result r = run_on(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(BicordLintTest, RawThisToDirectQueueScheduleFires) {
  const auto p = write("src/i.cpp",
                       "void Foo::arm() {\n"
                       "  queue_.schedule(when_, [this] { tick(); });\n"
                       "}\n");
  const Result r = run_on(p);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("[delayed-ref-capture]"), std::string::npos) << r.output;
}

TEST_F(BicordLintTest, ThisToSimulatorAfterIsSanctionedIdiom) {
  // Simulator::after + [this] with cancel-in-destructor discipline is the
  // codebase-wide idiom; only the direct EventQueue calls flag raw this.
  const auto p = write("src/j.cpp",
                       "void Foo::arm() {\n"
                       "  timer_ = sim_.after(gap_, [this] { tick(); });\n"
                       "}\n");
  const Result r = run_on(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(BicordLintTest, Pr3PeriodicSlabCapturePatternFires) {
  // The PR-3 use-after-free, reduced: run_periodic() invokes the callback
  // while it still lives in slab storage; if the tick schedules enough events
  // to grow `slots_`, the std::vector reallocates and the executing callback's
  // captures are freed under it. The fixed EventQueue moves the callback to a
  // local first — this fixture keeps the buggy shape pinned.
  const auto p = write("src/k.cpp",
                       "void EventQueue::run_periodic(std::uint32_t idx) {\n"
                       "  slots_[idx].callback();  // executes out of the slab\n"
                       "  rearm(idx);\n"
                       "}\n");
  const Result r = run_on(p);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("[slab-callback-invoke]"), std::string::npos) << r.output;
}

TEST_F(BicordLintTest, MovedToLocalSlabInvokeIsClean) {
  const auto p = write("src/l.cpp",
                       "void EventQueue::run_periodic(std::uint32_t idx) {\n"
                       "  EventCallback cb = std::move(slots_[idx].callback);\n"
                       "  cb();\n"
                       "}\n");
  const Result r = run_on(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(BicordLintTest, MissingPragmaOnceFires) {
  const auto p = write("src/m.hpp", "struct M { int x = 0; };\n");
  const Result r = run_on(p);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("[pragma-once]"), std::string::npos) << r.output;
}

TEST_F(BicordLintTest, UsingNamespaceInHeaderFires) {
  const auto p = write("src/n.hpp",
                       "#pragma once\n"
                       "using namespace std;\n");
  const Result r = run_on(p);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("[using-namespace-header]"), std::string::npos)
      << r.output;
}

TEST_F(BicordLintTest, FloatEqualityInDetectorFires) {
  const auto p = write("src/detect/o.cpp",
                       "bool match(double score) { return score == 0.5; }\n");
  const Result r = run_on(p);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("[float-equality]"), std::string::npos) << r.output;
}

TEST_F(BicordLintTest, FloatEqualityOutsideDetectorScopeIsQuiet) {
  const auto p = write("src/p.cpp",
                       "bool match(double score) { return score == 0.5; }\n");
  const Result r = run_on(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(BicordLintTest, AllowAnnotationSameLineHonored) {
  const auto p = write(
      "src/q.cpp",
      "#include <chrono>\n"
      "auto t() { return std::chrono::steady_clock::now(); }  "
      "// bicord-lint: allow(wall-clock)\n");
  const Result r = run_on(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(BicordLintTest, AllowAnnotationPrecedingLineHonored) {
  const auto p = write("src/r.cpp",
                       "#include <chrono>\n"
                       "// bicord-lint: allow(wall-clock)\n"
                       "auto t() { return std::chrono::steady_clock::now(); }\n");
  const Result r = run_on(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(BicordLintTest, AllowAnnotationForOtherRuleDoesNotWaive) {
  const auto p = write(
      "src/s.cpp",
      "#include <chrono>\n"
      "auto t() { return std::chrono::steady_clock::now(); }  "
      "// bicord-lint: allow(banned-rand)\n");
  const Result r = run_on(p);
  EXPECT_EQ(r.exit_code, 2) << r.output;
}

TEST_F(BicordLintTest, CommentedBannedCallIsIgnored) {
  const auto p = write("src/t.cpp",
                       "// std::rand() must never appear in live code\n"
                       "/* neither may time(nullptr) */\n"
                       "const char* doc = \"std::rand()\";\n"
                       "int live = 1;\n");
  // String literals are blanked too, so the quoted std::rand() stays quiet.
  const Result r = run_on(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(BicordLintTest, DigitSeparatorsAreNotCharLiterals) {
  // An odd number of C++14 digit separators (500'000 has one quote) used to
  // open a bogus char literal and blank the rest of the line from the scan,
  // hiding the banned call after it.
  const auto p = write("src/ds.cpp",
                       "int f() { int n = 500'000; return std::rand() % n; }\n");
  const Result r = run_on(p);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("[banned-rand]"), std::string::npos) << r.output;
}

TEST_F(BicordLintTest, RealCharLiteralStillBlanked) {
  // 'r' carries no identifier char before it: still a char literal, and the
  // banned-looking text inside a string literal stays invisible.
  const auto p = write("src/cl.cpp",
                       "char tag() { return 'r'; }\n"
                       "const char* doc = \"std::rand()\";\n");
  const Result r = run_on(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(BicordLintTest, BaselineSuppressesKnownFindingOnly) {
  const auto p = write("src/u.cpp", "int roll() { return std::rand() % 6; }\n");
  const fs::path baseline = root_ / "baseline.txt";
  // Baseline the rand finding...
  Result r = run("--baseline " + baseline.string() + " --write-baseline " +
                 p.string());
  EXPECT_EQ(r.exit_code, 0) << r.output;
  r = run("--baseline " + baseline.string() + " " + p.string());
  EXPECT_EQ(r.exit_code, 0) << r.output;
  // ...then a NEW finding in another file must still fail.
  const auto p2 =
      write("src/v.cpp", "long now() { return time(nullptr); }\n");
  r = run("--baseline " + baseline.string() + " " + p.string() + " " +
          p2.string());
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("[wall-clock]"), std::string::npos) << r.output;
}

TEST_F(BicordLintTest, BaselineRatchetRejectsGrowth) {
  const auto p = write("src/w.cpp", "int roll() { return std::rand() % 6; }\n");
  const fs::path baseline = root_ / "baseline.txt";
  Result r = run("--baseline " + baseline.string() + " --write-baseline " +
                 p.string());
  ASSERT_EQ(r.exit_code, 0) << r.output;
  // Introduce a second violation and try to re-baseline: the ratchet must
  // refuse (exit 3) and leave the committed baseline untouched.
  write("src/w.cpp",
        "int roll() { return std::rand() % 6; }\n"
        "long now() { return time(nullptr); }\n");
  r = run("--baseline " + baseline.string() + " --write-baseline " + p.string());
  EXPECT_EQ(r.exit_code, 3) << r.output;
  EXPECT_NE(r.output.find("ratchet"), std::string::npos) << r.output;
  // Check mode still reports exactly the new finding.
  r = run("--baseline " + baseline.string() + " " + p.string());
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("[wall-clock]"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("[banned-rand]"), std::string::npos) << r.output;
}

TEST_F(BicordLintTest, BaselineShrinkIsReportedAndRewritable) {
  const auto p = write("src/x.cpp", "int roll() { return std::rand() % 6; }\n");
  const fs::path baseline = root_ / "baseline.txt";
  Result r = run("--baseline " + baseline.string() + " --write-baseline " +
                 p.string());
  ASSERT_EQ(r.exit_code, 0) << r.output;
  // Fix the violation: check mode passes and nudges toward the ratchet.
  write("src/x.cpp", "int roll() { return 4; }\n");
  r = run("--baseline " + baseline.string() + " " + p.string());
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("ratchet down"), std::string::npos) << r.output;
  // Shrinking rewrite is allowed.
  r = run("--baseline " + baseline.string() + " --write-baseline " + p.string());
  EXPECT_EQ(r.exit_code, 0) << r.output;
  r = run("--baseline " + baseline.string() + " " + p.string());
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("ratchet down"), std::string::npos) << r.output;
}

TEST_F(BicordLintTest, DirectoryScanFindsNestedViolations) {
  write("src/deep/nested/y.cpp", "unsigned s() { return std::random_device{}(); }\n");
  write("src/deep/z.hpp", "#pragma once\nstruct Z {};\n");
  const Result r = run((root_ / "src").string());
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("[banned-rand]"), std::string::npos) << r.output;
}

TEST_F(BicordLintTest, ScenarioConfigLiteralInBenchFires) {
  const auto p = write("bench/bench_new.cpp",
                       "int main() {\n"
                       "  coex::ScenarioConfig cfg;\n"
                       "  cfg.seed = 1;\n"
                       "  return 0;\n"
                       "}\n");
  const Result r = run_on(p);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("[scenario-config-literal]"), std::string::npos)
      << r.output;
}

TEST_F(BicordLintTest, BleScenarioConfigLiteralInToolsFires) {
  const auto p = write("tools/t.cpp",
                       "int main() { coex::BleScenarioConfig cfg; return 0; }\n");
  const Result r = run_on(p);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("[scenario-config-literal]"), std::string::npos)
      << r.output;
}

TEST_F(BicordLintTest, ScenarioConfigAtHomeLayerAndTestsIsQuiet) {
  // src/coex/ owns the structs; tests may build configs directly to probe
  // edge cases the spec layer deliberately cannot express.
  write("src/coex/scenario_user.cpp",
        "coex::ScenarioConfig lowered() { return coex::ScenarioConfig{}; }\n");
  write("tests/coex/scenario_test.cpp",
        "void probe() { coex::ScenarioConfig cfg; (void)cfg; }\n");
  Result r = run((root_ / "src" / "coex").string());
  EXPECT_EQ(r.exit_code, 0) << r.output;
  r = run((root_ / "tests").string());
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(BicordLintTest, ScenarioConfigLiteralIsWaivable) {
  const auto p = write("bench/bench_waived.cpp",
                       "int main() {\n"
                       "  // bicord-lint: allow(scenario-config-literal)\n"
                       "  coex::ScenarioConfig cfg;\n"
                       "  return 0;\n"
                       "}\n");
  const Result r = run_on(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(BicordLintTest, ScenarioSpecUsageDoesNotTrip) {
  const auto p = write("bench/bench_spec.cpp",
                       "int main() {\n"
                       "  auto spec = *coex::ScenarioSpec::preset(\"fig7\");\n"
                       "  spec.set(\"seed\", 7);\n"
                       "  coex::Scenario scenario(spec.must_config());\n"
                       "  return 0;\n"
                       "}\n");
  const Result r = run_on(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(BicordLintTest, GrantIssueOutsideEngineFires) {
  const auto p = write("src/mac/rogue.cpp",
                       "void Rogue::on_request() {\n"
                       "  engine_.begin_grant(sim_.now());\n"
                       "  engine_.arm_watchdog(sim_.now() + grace_);\n"
                       "}\n");
  const Result r = run_on(p);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("[grant-issue-outside-engine]"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("begin_grant"), std::string::npos) << r.output;
}

TEST_F(BicordLintTest, PrivateGrantHistoryOutsideEngineFires) {
  const auto p = write("src/mac/ledger.hpp",
                       "#pragma once\n"
                       "#include \"core/grant_history.hpp\"\n"
                       "struct Ledger { core::GrantHistory grants{16}; };\n");
  const Result r = run_on(p);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("[grant-issue-outside-engine]"), std::string::npos)
      << r.output;
}

TEST_F(BicordLintTest, GrantIssueInsideEngineAndTestsIsQuiet) {
  // src/core/ owns grant issuance; tests drive the primitives directly to
  // probe lease edges.
  write("src/core/agent.cpp",
        "void Agent::grant() { engine_.begin_grant(sim_.now()); }\n");
  write("tests/core/grant_test.cpp",
        "void probe(Engine& e) { e.begin_lease(t0, Duration::from_ms(4)); }\n");
  Result r = run((root_ / "src" / "core").string());
  EXPECT_EQ(r.exit_code, 0) << r.output;
  r = run((root_ / "tests").string());
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(BicordLintTest, GrantIssueIsWaivable) {
  const auto p = write("src/ble/agent.cpp",
                       "void Agent::lease() {\n"
                       "  // bicord-lint: allow(grant-issue-outside-engine)\n"
                       "  engine_.begin_lease(sim_.now(), grant_);\n"
                       "}\n");
  const Result r = run_on(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(BicordLintTest, GrantHistoryIncludeAndReadAccessAreQuiet) {
  // Including the header or reading the engine's history through the const
  // accessor is observation, not issuance.
  const auto p = write("src/mac/reader.cpp",
                       "#include \"core/grant_history.hpp\"\n"
                       "std::size_t n(const Engine& e) { return "
                       "e.grant_history().size(); }\n");
  const Result r = run_on(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(BicordLintTest, ThreadOutsidePoolFires) {
  write("src/mac/worker.cpp",
        "#include <thread>\n"
        "void spin() { std::thread t([] {}); t.join(); }\n");
  // src/sim/ is not a pool home: one simulation runs on one thread.
  write("src/sim/parallel_dispatch.cpp",
        "#include <thread>\n"
        "void pool() { std::thread t([] {}); t.join(); }\n");
  const Result r = run((root_ / "src").string());
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("[thread-outside-pool]"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("src/sim/parallel_dispatch.cpp"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("2 new finding"), std::string::npos) << r.output;
}

TEST_F(BicordLintTest, AsyncAndJthreadOutsidePoolFire) {
  const auto p = write("src/coex/fan.cpp",
                       "#include <future>\n"
                       "#include <thread>\n"
                       "void go() {\n"
                       "  auto f = std::async([] { return 1; });\n"
                       "  std::jthread t([] {});\n"
                       "}\n");
  const Result r = run_on(p);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("[thread-outside-pool]"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("2 new finding"), std::string::npos) << r.output;
}

TEST_F(BicordLintTest, ThreadInsidePoolHomesIsQuiet) {
  // The sanctioned home: the trial pool's directory.
  write("src/runner/trial_pool.cpp",
        "#include <thread>\n"
        "void pool() { std::thread t([] {}); t.join(); }\n");
  write("src/runner/parallel_runner.cpp",
        "#include <thread>\n"
        "void pool() { std::thread t([] {}); t.join(); }\n");
  const Result r = run((root_ / "src").string());
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(BicordLintTest, ThreadOutsidePoolIsWaivable) {
  const auto p = write("src/mac/pool.hpp",
                       "#pragma once\n"
                       "#include <thread>\n"
                       "#include <vector>\n"
                       "struct Pool {\n"
                       "  // bicord-lint: allow(thread-outside-pool)\n"
                       "  std::vector<std::thread> workers_;\n"
                       "};\n");
  const Result r = run_on(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(BicordLintTest, ThreadOutsideSrcIsQuiet) {
  // tools/ and tests/ spawn helper threads freely (e.g. test harnesses).
  write("tools/loadgen.cpp",
        "#include <thread>\n"
        "void go() { std::thread t([] {}); t.join(); }\n");
  const Result r = run((root_ / "tools").string());
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(BicordLintTest, RulesDoNotApplyOutsideSrc) {
  // Determinism rules scope to src/: tools/ and tests/ may read wall clocks.
  write("tools/cli.cpp",
        "#include <chrono>\n"
        "auto t() { return std::chrono::steady_clock::now(); }\n");
  const Result r = run((root_ / "tools").string());
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

// --- stripper regressions: raw strings and line continuations ---------------

TEST_F(BicordLintTest, RawStringBodyIsOpaque) {
  // Quotes, comment markers and unbalanced parens inside R"(...)" used to
  // desynchronize the comment/string state machine; the whole literal is one
  // opaque token now.
  const auto p = write("src/rs1.cpp",
                       "const char* doc = R\"(std::rand() // \" ( /* )\";\n"
                       "int live = 1;\n");
  const Result r = run_on(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(BicordLintTest, CodeAfterRawStringStillScanned) {
  // The desync bug's worst case: a raw string containing a quote blanked the
  // *rest of the line*, hiding the banned call after it.
  const auto p = write("src/rs2.cpp",
                       "long t() { const char* s = R\"(quote \" // marker)\"; "
                       "return time(nullptr); }\n");
  const Result r = run_on(p);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("[wall-clock]"), std::string::npos) << r.output;
}

TEST_F(BicordLintTest, MultiLineRawStringBlanked) {
  const auto p = write("src/rs3.cpp",
                       "const char* s = R\"(\n"
                       "std::rand()\n"
                       "time(nullptr)\n"
                       ")\";\n"
                       "int live = 1;\n");
  const Result r = run_on(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(BicordLintTest, CustomDelimiterRawStringHandled) {
  // With a custom delimiter, a bare )" inside the body does NOT terminate
  // the literal; only )x" does. The banned call after it must still fire.
  const auto p = write("src/rs4.cpp",
                       "int f() { const char* s = R\"x(body with )\" inside)x\"; "
                       "return std::rand(); }\n");
  const Result r = run_on(p);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("[banned-rand]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("1 new finding"), std::string::npos) << r.output;
}

TEST_F(BicordLintTest, IdentifierEndingInRIsNotARawString) {
  // `str"..."`-style: the R must not be glued to a preceding identifier.
  const auto p = write("src/rs5.cpp",
                       "#define STR(x) #x\n"
                       "const char* s = STR\"not raw\";\n"
                       "int live = 1;\n");
  const Result r = run_on(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(BicordLintTest, LineContinuationCommentConsumesNextLine) {
  // A // comment ending in \ swallows the next physical line; scanning that
  // line as code manufactured phantom findings.
  const auto p = write("src/lc1.cpp",
                       "// note: do not call \\\n"
                       "time(nullptr) here\n"
                       "int live = 1;\n");
  const Result r = run_on(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(BicordLintTest, LineContinuationChainsAndThenEnds) {
  // Continuations chain while each line ends in \; the first line without
  // one ends the comment, and real code after that is scanned again.
  const auto p = write("src/lc2.cpp",
                       "// chain \\\n"
                       "still comment \\\n"
                       "last comment line\n"
                       "long t() { return time(nullptr); }\n");
  const Result r = run_on(p);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("[wall-clock]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("1 new finding"), std::string::npos) << r.output;
}

// --- unordered-accumulation -------------------------------------------------

TEST_F(BicordLintTest, UnorderedFloatAccumulationFires) {
  const auto p = write("src/ua1.cpp",
                       "#include <unordered_map>\n"
                       "double total(const std::unordered_map<int, double>& m) {\n"
                       "  std::unordered_map<int, double> copy = m;\n"
                       "  double sum = 0.0;\n"
                       "  for (const auto& kv : copy) sum += kv.second;\n"
                       "  return sum;\n"
                       "}\n");
  const Result r = run_on(p);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("[unordered-iteration]"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("[unordered-accumulation]"), std::string::npos)
      << r.output;
}

TEST_F(BicordLintTest, OrderedMapAccumulationIsQuiet) {
  const auto p = write("src/ua2.cpp",
                       "#include <map>\n"
                       "double total(const std::map<int, double>& m) {\n"
                       "  double sum = 0.0;\n"
                       "  for (const auto& kv : m) sum += kv.second;\n"
                       "  return sum;\n"
                       "}\n");
  const Result r = run_on(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(BicordLintTest, IntegerAccumulationOnlyTripsIteration) {
  // Integer addition commutes: the unordered loop still flags iteration
  // order, but not the accumulation refinement.
  const auto p = write("src/ua3.cpp",
                       "#include <unordered_map>\n"
                       "int total(const std::unordered_map<int, int>& m) {\n"
                       "  std::unordered_map<int, int> copy = m;\n"
                       "  int sum = 0;\n"
                       "  for (const auto& kv : copy) sum += kv.second;\n"
                       "  return sum;\n"
                       "}\n");
  const Result r = run_on(p);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("[unordered-iteration]"), std::string::npos)
      << r.output;
  EXPECT_EQ(r.output.find("[unordered-accumulation]"), std::string::npos)
      << r.output;
}

// --- layering ---------------------------------------------------------------

class BicordLintLayeringTest : public BicordLintTest {
 protected:
  fs::path layering(const std::string& content) {
    return write("layering.txt", content);
  }

  Result run_layered(const fs::path& dag) {
    return run("--layering " + dag.string() + " --src-root " +
               (root_ / "src").string() + " " + (root_ / "src").string());
  }
};

TEST_F(BicordLintLayeringTest, DirectViolationFires) {
  const auto dag = layering("a: util\nb: util\nutil:\n");
  write("src/a/x.hpp", "#pragma once\n#include \"b/y.hpp\"\n");
  write("src/b/y.hpp", "#pragma once\n");
  const Result r = run_layered(dag);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("[layering]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("may not depend on `b`"), std::string::npos)
      << r.output;
}

TEST_F(BicordLintLayeringTest, AllowedIncludeIsQuiet) {
  const auto dag = layering("a: util\nutil:\n");
  write("src/a/x.hpp", "#pragma once\n#include \"util/u.hpp\"\n");
  write("src/util/u.hpp", "#pragma once\n");
  const Result r = run_layered(dag);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(BicordLintLayeringTest, WaivedIncludeIsQuiet) {
  // The grandfathered-include shape: allow(layering) at the include site.
  const auto dag = layering("a: util\nb: util\nutil:\n");
  write("src/a/x.hpp",
        "#pragma once\n"
        "#include \"b/y.hpp\"  // bicord-lint: allow(layering) — legacy\n");
  write("src/b/y.hpp", "#pragma once\n");
  const Result r = run_layered(dag);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(BicordLintLayeringTest, TransitiveChainIsReportedWithFullPath) {
  // Non-transitively-closed DAG: a->b allowed, b->c allowed, a->c NOT.
  // Every hop is individually legal, so only the chain walk catches the
  // escape — and the message must show the whole path.
  const auto dag = layering("a: b\nb: c\nc:\n");
  write("src/a/x.hpp", "#pragma once\n#include \"b/y.hpp\"\n");
  write("src/b/y.hpp", "#pragma once\n#include \"c/z.hpp\"\n");
  write("src/c/z.hpp", "#pragma once\n");
  const Result r = run_layered(dag);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("[layering]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("b/y.hpp -> "), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("c/z.hpp"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("may not depend on `c`"), std::string::npos)
      << r.output;
}

TEST_F(BicordLintLayeringTest, MissingLayeringFileIsUsageError) {
  write("src/a/x.hpp", "#pragma once\n");
  const Result r = run("--layering " + (root_ / "no_such.txt").string() + " " +
                       (root_ / "src").string());
  EXPECT_EQ(r.exit_code, 1) << r.output;
}

TEST_F(BicordLintLayeringTest, UnlistedModuleWarnsAndIsUnconstrained) {
  const auto dag = layering("b: util\nutil:\n");
  write("src/a/x.hpp", "#pragma once\n#include \"b/y.hpp\"\n");
  write("src/b/y.hpp", "#pragma once\n");
  const Result r = run_layered(dag);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("no entry in the layering file"), std::string::npos)
      << r.output;
}

// --- waiver edge cases ------------------------------------------------------

TEST_F(BicordLintTest, AllowInsideLambdaBodyHonored) {
  // A same-line allow deep inside a multi-line lambda waives that line.
  const auto p = write("src/we1.cpp",
                       "#include <chrono>\n"
                       "void time_trials(Pool& pool) {\n"
                       "  pool.run(4, [&](std::size_t i) {\n"
                       "    sink(i, std::chrono::steady_clock::now());  "
                       "// bicord-lint: allow(wall-clock)\n"
                       "  });\n"
                       "}\n");
  const Result r = run_on(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(BicordLintTest, StackedMultiRuleWaiverHonored) {
  // One annotation naming several rules waives each of them on the next line.
  const auto p = write("src/we2.cpp",
                       "#include <cstdlib>\n"
                       "long seed() {\n"
                       "  // bicord-lint: allow(wall-clock, banned-rand)\n"
                       "  return time(nullptr) ^ std::rand();\n"
                       "}\n");
  const Result r = run_on(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(BicordLintTest, UnknownRuleInAllowWarnsOnCleanFile) {
  const auto p = write("src/we3.cpp",
                       "// bicord-lint: allow(no-such-rule)\n"
                       "int live = 1;\n");
  const Result r = run_on(p);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("unknown rule 'no-such-rule'"), std::string::npos)
      << r.output;
}

TEST_F(BicordLintTest, UnknownRuleInAllowDoesNotWaive) {
  // A typo'd rule name must not silently pass the finding it meant to waive.
  const auto p = write("src/we4.cpp",
                       "// bicord-lint: allow(wallclock)\n"
                       "long t() { return time(nullptr); }\n");
  const Result r = run_on(p);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("[wall-clock]"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("unknown rule 'wallclock'"), std::string::npos)
      << r.output;
}

// --- JSON output and rule-scoped baselines ----------------------------------

TEST_F(BicordLintTest, JsonModeEmitsFindings) {
  const auto p = write("src/js1.cpp", "int roll() { return std::rand() % 6; }\n");
  const Result r = run("--json " + p.string());
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("\"version\": 2"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("\"rule\": \"banned-rand\""), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"baselined\": false"), std::string::npos)
      << r.output;
}

TEST_F(BicordLintTest, JsonModeCleanFileExitsZero) {
  const auto p = write("src/js2.cpp", "int live = 1;\n");
  const Result r = run("--json " + p.string());
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("\"new\": 0"), std::string::npos) << r.output;
}

TEST_F(BicordLintTest, FingerprintsAreRuleTagged) {
  const auto p = write("src/ft1.cpp", "int roll() { return std::rand() % 6; }\n");
  const fs::path baseline = root_ / "baseline.txt";
  Result r = run("--baseline " + baseline.string() + " --write-baseline " +
                 p.string());
  ASSERT_EQ(r.exit_code, 0) << r.output;
  std::ifstream in(baseline);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("banned-rand:"), std::string::npos) << ss.str();
}

TEST_F(BicordLintTest, RuleScopedRefreshOnlyTouchesThatRulesSlice) {
  const auto p = write("src/rr1.cpp",
                       "int roll() { return std::rand() % 6; }\n"
                       "long now() { return time(nullptr); }\n");
  const fs::path baseline = root_ / "baseline.txt";
  Result r = run("--baseline " + baseline.string() + " --write-baseline " +
                 p.string());
  ASSERT_EQ(r.exit_code, 0) << r.output;
  // Fix the rand; the wall-clock stays. A banned-rand-scoped refresh shrinks
  // only that slice, and the wall-clock entry keeps suppressing.
  write("src/rr1.cpp",
        "int roll() { return 4; }\n"
        "long now() { return time(nullptr); }\n");
  r = run("--baseline " + baseline.string() +
          " --write-baseline --rule banned-rand " + p.string());
  EXPECT_EQ(r.exit_code, 0) << r.output;
  r = run("--baseline " + baseline.string() + " " + p.string());
  EXPECT_EQ(r.exit_code, 0) << r.output;
  std::ifstream in(baseline);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str().find("banned-rand:"), std::string::npos) << ss.str();
  EXPECT_NE(ss.str().find("wall-clock:"), std::string::npos) << ss.str();
}

TEST_F(BicordLintTest, RuleScopedRefreshCannotAbsorbOtherRulesRegressions) {
  const auto p = write("src/rr2.cpp", "int roll() { return std::rand() % 6; }\n");
  const fs::path baseline = root_ / "baseline.txt";
  Result r = run("--baseline " + baseline.string() + " --write-baseline " +
                 p.string());
  ASSERT_EQ(r.exit_code, 0) << r.output;
  // Introduce a NEW wall-clock regression, then refresh the banned-rand
  // slice: the refresh succeeds (its slice didn't grow) but must NOT absorb
  // the wall-clock finding — check mode still fails on it.
  write("src/rr2.cpp",
        "int roll() { return std::rand() % 6; }\n"
        "long now() { return time(nullptr); }\n");
  r = run("--baseline " + baseline.string() +
          " --write-baseline --rule banned-rand " + p.string());
  EXPECT_EQ(r.exit_code, 0) << r.output;
  r = run("--baseline " + baseline.string() + " " + p.string());
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("[wall-clock]"), std::string::npos) << r.output;
}

TEST_F(BicordLintTest, RuleScopedRefreshRefusesScopedGrowth) {
  const auto p = write("src/rr3.cpp", "int roll() { return std::rand() % 6; }\n");
  const fs::path baseline = root_ / "baseline.txt";
  Result r = run("--baseline " + baseline.string() + " --write-baseline " +
                 p.string());
  ASSERT_EQ(r.exit_code, 0) << r.output;
  write("src/rr3.cpp",
        "int roll() { return std::rand() % 6; }\n"
        "int toss() { return std::rand() & 1; }\n");
  r = run("--baseline " + baseline.string() +
          " --write-baseline --rule banned-rand " + p.string());
  EXPECT_EQ(r.exit_code, 3) << r.output;
  EXPECT_NE(r.output.find("ratchet"), std::string::npos) << r.output;
}

TEST_F(BicordLintTest, RuleFlagWithoutWriteBaselineIsUsageError) {
  const auto p = write("src/rr4.cpp", "int live = 1;\n");
  Result r = run("--rule banned-rand " + p.string());
  EXPECT_EQ(r.exit_code, 1) << r.output;
  r = run("--baseline " + (root_ / "b.txt").string() +
          " --write-baseline --rule no-such-rule " + p.string());
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("unknown rule"), std::string::npos) << r.output;
}

}  // namespace

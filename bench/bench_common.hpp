#pragma once
// Shared helpers for the reproduction benches.
//
// Every bench accepts an optional positional argument scaling the workload
// (trials / packets / repetitions) so `for b in build/bench/*; do $b; done`
// finishes quickly while full paper-scale runs remain one flag away. The
// benches that sweep independent trials also take the shared `--jobs N`
// flag selecting how many threads the sweep spreads over (0 = BICORD_JOBS
// env, else all hardware threads); the serial ones (arg_or) take the scale
// alone. Thread count never changes the reported numbers: trials are merged
// in seed order (see runner/parallel_runner.hpp). Set BICORD_PROGRESS=1 for
// a live per-trial ticker on stderr during long sweeps.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "coex/scenario.hpp"
#include "coex/scenario_spec.hpp"
#include "runner/parallel_runner.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/time.hpp"

namespace bicord::bench {

/// Parses argv into `flags` and returns the optional positional scale, else
/// `fallback`. Garbage, unknown flags and stray arguments fail loudly
/// (exit 2) instead of being ignored.
inline int parse_scale(Flags& flags, int argc, char** argv, int fallback) {
  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n\n%s", flags.error().c_str(),
                 flags.usage(argv[0]).c_str());
    std::exit(2);
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.usage(argv[0]).c_str());
    std::exit(0);
  }
  const auto& positional = flags.positional();
  if (positional.size() > 1) {
    std::fprintf(stderr, "error: unexpected argument '%s' after the scale\n",
                 positional[1].c_str());
    std::exit(2);
  }
  if (positional.empty()) return fallback;
  const auto v = parse_positive_int(positional.front());
  if (!v) {
    std::fprintf(stderr,
                 "error: expected a positive integer scale argument, got '%s'\n",
                 positional.front().c_str());
    std::exit(2);
  }
  return *v;
}

inline constexpr const char* kBenchDescription =
    "bicord reproduction bench — optional positional argument scales the "
    "workload (trials / packets / repetitions)";

/// The scale argument of a serial bench, which takes no flags.
inline int arg_or(int argc, char** argv, int fallback) {
  Flags flags(kBenchDescription);
  return parse_scale(flags, argc, argv, fallback);
}

/// Parsed CLI of a parallel bench.
struct BenchArgs {
  int scale = 0;  ///< positional workload knob (or the bench's fallback)
  int jobs = 0;   ///< resolved worker count, always >= 1
};

/// Parses `[scale] [--jobs N]`; exits loudly on garbage or unknown flags.
inline BenchArgs parse_args(int argc, char** argv, int fallback_scale) {
  Flags flags(kBenchDescription);
  add_jobs_flag(flags);
  BenchArgs args;
  args.scale = parse_scale(flags, argc, argv, fallback_scale);
  std::string jobs_error;
  const auto jobs = get_jobs_flag(flags, &jobs_error);
  if (!jobs) {
    std::fprintf(stderr, "error: %s\n", jobs_error.c_str());
    std::exit(2);
  }
  args.jobs = runner::resolve_jobs(*jobs);
  return args;
}

inline void print_header(const char* id, const char* paper_ref, std::uint64_t seed) {
  std::printf("==============================================================\n");
  std::printf("%s\n", id);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("seed: %llu\n", static_cast<unsigned long long>(seed));
  std::printf("==============================================================\n");
}

/// The warm-up/measure idiom, implemented once next to Scenario itself.
using coex::warm_and_measure;

/// Fans `trials` independent cells out over `jobs` threads and returns the
/// results in cell order (so downstream table assembly is deterministic).
/// Prints the sweep's RunReport line and, with BICORD_PROGRESS=1, a live
/// per-trial counter on stderr.
template <typename R>
[[nodiscard]] std::vector<R> sweep(const char* label, std::size_t trials, int jobs,
                                   const std::function<R(std::size_t)>& fn) {
  const char* ticker_env = std::getenv("BICORD_PROGRESS");
  const bool ticker = ticker_env != nullptr && ticker_env[0] != '\0' &&
                      ticker_env[0] != '0';
  std::atomic<std::size_t> done{0};
  std::vector<R> out(trials);
  const auto start = std::chrono::steady_clock::now();
  const int threads = runner::parallel_for(trials, jobs, [&](std::size_t i) {
    out[i] = fn(i);
    const std::size_t d = done.fetch_add(1) + 1;
    if (ticker) std::fprintf(stderr, "\r[%s] %zu/%zu trials", label, d, trials);
  });
  if (ticker) std::fprintf(stderr, "\n");
  const runner::RunReport report{
      trials, threads,
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count()};
  std::printf("[%s] %s\n\n", label, report.to_string().c_str());
  return out;
}

}  // namespace bicord::bench

#pragma once
// Minimal command-line flag parser for the library's executables.
//
// Supports `--name value`, `--name=value`, and boolean `--name` /
// `--no-name`. Flags are registered with defaults and a help line;
// `parse()` validates everything and produces a formatted usage text.
// Numbers go through the strict readers of util/parse.hpp. A repeated flag
// keeps its last value, except a list flag, which keeps every value.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace bicord {

class Flags {
 public:
  explicit Flags(std::string program_description = {});

  /// Registers a flag; `name` without the leading dashes.
  void add_string(const std::string& name, std::string default_value,
                  std::string help);
  void add_int(const std::string& name, std::int64_t default_value, std::string help);
  void add_double(const std::string& name, double default_value, std::string help);
  void add_bool(const std::string& name, bool default_value, std::string help);
  /// A repeatable string flag: every occurrence is kept, in command-line order.
  void add_list(const std::string& name, std::string help);

  /// Parses argv. Returns false (and fills error()) on unknown flags, type
  /// mismatches, or missing values. `--help` sets help_requested().
  bool parse(int argc, const char* const* argv);

  [[nodiscard]] const std::string& get_string(const std::string& name) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] bool get_bool(const std::string& name) const;
  [[nodiscard]] const std::vector<std::string>& get_list(const std::string& name) const;
  /// True if the user supplied the flag explicitly (vs default).
  [[nodiscard]] bool provided(const std::string& name) const;

  [[nodiscard]] bool help_requested() const { return help_requested_; }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] std::string usage(const std::string& program_name) const;
  /// Positional (non-flag) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }

 private:
  enum class Type { String, Int, Double, Bool, List };
  struct Entry {
    Type type = Type::String;
    std::string value;
    std::string default_value;
    std::string help;
    bool provided = false;
    std::vector<std::string> values;  ///< every occurrence of a List flag
  };

  void add(const std::string& name, Type type, std::string value, std::string help);
  [[nodiscard]] const Entry& entry_of(const std::string& name, Type expected) const;
  bool assign(const std::string& name, const std::string& value);

  std::string description_;
  std::map<std::string, Entry> entries_;
  std::vector<std::string> order_;
  std::vector<std::string> positional_;
  bool help_requested_ = false;
  std::string error_;
};

/// Strict base-10 parse of a whole string as a positive int. Returns
/// nullopt on empty input, sign-only/garbage/trailing characters,
/// non-positive values, and overflow — callers can then fail loudly
/// instead of silently running with a default.
[[nodiscard]] std::optional<int> parse_positive_int(const std::string& s);

/// Registers the shared `--jobs` flag every parallel executable exposes
/// (0 = auto: the BICORD_JOBS environment variable, else all hardware
/// threads). Resolution happens in runner::resolve_jobs.
void add_jobs_flag(Flags& flags);

/// Reads the flag add_jobs_flag registered. Like every other count it is
/// bounded, to [0, kMaxAllocCount]; outside that range the result is
/// nullopt and *error names the flag and its range.
[[nodiscard]] std::optional<int> get_jobs_flag(const Flags& flags, std::string* error);

}  // namespace bicord

#include "util/flags.hpp"

#include <sstream>
#include <stdexcept>

#include "util/parse.hpp"

namespace bicord {

Flags::Flags(std::string program_description)
    : description_(std::move(program_description)) {}

namespace {
const char* type_name(int t) {
  switch (t) {
    case 0: return "string";
    case 1: return "int";
    case 2: return "double";
    case 3: return "bool";
    case 4: return "list";
  }
  return "?";
}
}  // namespace

void Flags::add(const std::string& name, Type type, std::string value,
                std::string help) {
  Entry e;
  e.type = type;
  e.default_value = value;
  e.value = std::move(value);
  e.help = std::move(help);
  entries_[name] = std::move(e);
  order_.push_back(name);
}

void Flags::add_string(const std::string& name, std::string default_value,
                       std::string help) {
  add(name, Type::String, std::move(default_value), std::move(help));
}

void Flags::add_int(const std::string& name, std::int64_t default_value,
                    std::string help) {
  add(name, Type::Int, std::to_string(default_value), std::move(help));
}

void Flags::add_double(const std::string& name, double default_value, std::string help) {
  std::ostringstream os;
  os << default_value;
  add(name, Type::Double, os.str(), std::move(help));
}

void Flags::add_bool(const std::string& name, bool default_value, std::string help) {
  add(name, Type::Bool, default_value ? "true" : "false", std::move(help));
}

void Flags::add_list(const std::string& name, std::string help) {
  add(name, Type::List, "", std::move(help));
}

bool Flags::assign(const std::string& name, const std::string& value) {
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    error_ = "unknown flag --" + name;
    return false;
  }
  Entry& e = it->second;
  std::int64_t i = 0;
  double f = 0.0;
  switch (e.type) {
    case Type::Int:
      if (!parse_i64(value, &i)) {
        error_ = "flag --" + name + " expects an integer, got '" + value + "'";
        return false;
      }
      break;
    case Type::Double:
      if (!parse_f64(value, &f)) {
        error_ = "flag --" + name + " expects a finite number, got '" + value + "'";
        return false;
      }
      break;
    case Type::Bool:
      if (value != "true" && value != "false") {
        error_ = "flag --" + name + " expects true/false, got '" + value + "'";
        return false;
      }
      break;
    case Type::String:
      break;
    case Type::List:
      e.values.push_back(value);
      break;
  }
  e.value = value;
  e.provided = true;
  return true;
}

bool Flags::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);

    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      if (!assign(arg.substr(0, eq), arg.substr(eq + 1))) return false;
      continue;
    }

    // Boolean shorthand: --flag / --no-flag.
    const bool negated = arg.rfind("no-", 0) == 0;
    const std::string bare = negated ? arg.substr(3) : arg;
    const auto it = entries_.find(bare);
    if (it != entries_.end() && it->second.type == Type::Bool) {
      it->second.value = negated ? "false" : "true";
      it->second.provided = true;
      continue;
    }
    if (negated) {
      error_ = "unknown flag --" + arg;
      return false;
    }

    // `--name value` form.
    if (it == entries_.end()) {
      error_ = "unknown flag --" + arg;
      return false;
    }
    if (i + 1 >= argc) {
      error_ = "flag --" + arg + " is missing a value";
      return false;
    }
    if (!assign(arg, argv[++i])) return false;
  }
  return true;
}

const Flags::Entry& Flags::entry_of(const std::string& name, Type expected) const {
  const auto it = entries_.find(name);
  if (it == entries_.end()) throw std::logic_error("Flags: unregistered flag " + name);
  if (it->second.type != expected) {
    throw std::logic_error("Flags: flag " + name + " is not a " +
                           type_name(static_cast<int>(expected)));
  }
  return it->second;
}

const std::string& Flags::get_string(const std::string& name) const {
  return entry_of(name, Type::String).value;
}

std::int64_t Flags::get_int(const std::string& name) const {
  std::int64_t v = 0;
  (void)parse_i64(entry_of(name, Type::Int).value, &v);  // checked in assign()
  return v;
}

double Flags::get_double(const std::string& name) const {
  double v = 0.0;
  (void)parse_f64(entry_of(name, Type::Double).value, &v);  // checked in assign()
  return v;
}

const std::vector<std::string>& Flags::get_list(const std::string& name) const {
  return entry_of(name, Type::List).values;
}

bool Flags::get_bool(const std::string& name) const {
  return entry_of(name, Type::Bool).value == "true";
}

bool Flags::provided(const std::string& name) const {
  const auto it = entries_.find(name);
  return it != entries_.end() && it->second.provided;
}

std::optional<int> parse_positive_int(const std::string& s) {
  int v = 0;
  if (!parse_int(s, &v, 1)) return std::nullopt;
  return v;
}

void add_jobs_flag(Flags& flags) {
  flags.add_int("jobs", 0,
                "worker threads for multi-seed runs "
                "(0 = BICORD_JOBS env, else all hardware threads)");
}

std::optional<int> get_jobs_flag(const Flags& flags, std::string* error) {
  const std::int64_t jobs = flags.get_int("jobs");
  if (jobs < 0 || jobs > kMaxAllocCount) {
    *error = "--jobs must be in [0, " + std::to_string(kMaxAllocCount) + "] (got " +
             std::to_string(jobs) + ")";
    return std::nullopt;
  }
  return static_cast<int>(jobs);
}

std::string Flags::usage(const std::string& program_name) const {
  std::ostringstream os;
  if (!description_.empty()) os << description_ << "\n\n";
  os << "usage: " << program_name << " [flags]\n\nflags:\n";
  for (const auto& name : order_) {
    const Entry& e = entries_.at(name);
    os << "  --" << name << " (" << type_name(static_cast<int>(e.type));
    if (e.type == Type::List) {
      os << ", repeatable)\n";
    } else {
      os << ", default " << (e.default_value.empty() ? "\"\"" : e.default_value) << ")\n";
    }
    os << "      " << e.help << "\n";
  }
  return os.str();
}

}  // namespace bicord

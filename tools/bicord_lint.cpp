// bicord-lint: the project-aware analyzer clang-tidy cannot replace.
//
// Encodes BiCord-specific static rules — the determinism contract
// (DESIGN.md Sec. 7) and the callback-lifetime lessons of the PR-3
// EventQueue use-after-free — as one pass per file over the source tree:
// each file's comment/string-stripped token stream, its quoted
// `#include "module/file.hpp"` lines, and a lightweight symbol table
// (float/double names and unordered-container names).
//
// It is deliberately not a real C++ parser: every rule is chosen so that a
// stripped token scan decides it with near-zero false positives on this
// codebase, and every rule can be waived per line with
//
//     // bicord-lint: allow(<rule>[, <rule>…])
//
// on the offending line or the line directly above it. An allow() naming a
// rule this linter does not know prints a warning instead of silently
// waiving nothing.
//
// Rules (see DESIGN.md Sec. 10 for the rationale table):
//   determinism (src/ only)
//     banned-rand          std::rand / srand / random_device
//     wall-clock           system_clock / steady_clock / high_resolution_clock,
//                          time(), clock(), gettimeofday, localtime, ...
//     unordered-iteration  range-for over an unordered container (iteration
//                          order is implementation-defined => replay-hostile)
//     unordered-accumulation
//                          a float/double `+=` accumulation fed from an
//                          unordered-container loop — float addition does not
//                          commute, so the sum depends on hash order
//   lifetime (src/ only)
//     delayed-ref-capture  [&] catch-all (any scheduling call) or raw `this`
//                          (direct EventQueue::schedule/schedule_periodic)
//                          in a callback armed with a nonzero delay
//     slab-callback-invoke invoking a callable that still lives inside
//                          indexed container storage (slots_[i].callback(...))
//                          — the exact PR-3 bug shape; move it to a local first
//   structure (src/ only, needs --layering)
//     layering             an #include that crosses the module DAG in
//                          scripts/layering.txt — e.g. core must not include
//                          wifi/ble/zigbee/coex — or a src/ module with no
//                          entry there. A layering file that is not
//                          transitively closed is rejected on load, so each
//                          file's own includes decide every include chain
//   hygiene (everywhere scanned)
//     pragma-once            every header starts with #pragma once
//     using-namespace-header no `using namespace` at header scope
//     float-equality         (src/detect/, src/csi/ only) == / != on
//                            floating-point values in detector/estimator math
//     scenario-config-literal (outside src/coex/ and tests/) naming
//                            ScenarioConfig/BleScenarioConfig directly
//     grant-issue-outside-engine (src/ outside src/core/) calling the
//                            grant-issue primitives or naming GrantHistory
//     thread-outside-pool    (src/ outside src/runner/) naming
//                            std::thread / std::jthread / std::async
//
// Any finding fails; there is no suppression file. A deliberate exception is
// waived in place with allow().
//
// Exit codes: 0 clean, 1 usage/IO error (including a layering file that is
//             not transitively closed), 2 findings.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Finding {
  std::string path;   // normalized, as given on the command line
  std::size_t line;   // 1-based
  std::string rule;
  std::string message;
};

const std::vector<std::string> kAllRules = {
    "banned-rand",
    "wall-clock",
    "unordered-iteration",
    "unordered-accumulation",
    "delayed-ref-capture",
    "slab-callback-invoke",
    "layering",
    "pragma-once",
    "using-namespace-header",
    "float-equality",
    "scenario-config-literal",
    "grant-issue-outside-engine",
    "thread-outside-pool",
};

bool is_known_rule(const std::string& r) {
  return std::find(kAllRules.begin(), kAllRules.end(), r) != kAllRules.end();
}

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

std::string normalize_path(std::string p) {
  std::replace(p.begin(), p.end(), '\\', '/');
  return p;
}

bool path_has_segment(const std::string& path, const std::string& seg) {
  // True when `seg` (e.g. "src") appears as a whole directory component.
  const std::string p = "/" + path;
  return p.find("/" + seg + "/") != std::string::npos;
}

bool is_header(const std::string& path) {
  return path.size() > 4 && (path.rfind(".hpp") == path.size() - 4 ||
                             path.rfind(".h") == path.size() - 2);
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// --- file loading / token stripping -----------------------------------------

struct IncludeRef {
  std::size_t line = 0;      // 0-based
  std::string target;        // as written: "module/file.hpp"
};

struct AllowWarning {
  std::size_t line = 0;  // 0-based
  std::string rule;
};

/// One scanned file: raw lines, comment/string-stripped code lines, the
/// per-line set of rules waived by `// bicord-lint: allow(...)` annotations,
/// quoted includes, and any allow() entries naming unknown rules.
struct FileView {
  std::vector<std::string> raw;
  std::vector<std::string> code;               // literals/comments blanked
  std::vector<std::set<std::string>> allowed;  // effective allow set per line
  std::vector<IncludeRef> includes;
  std::vector<AllowWarning> unknown_allows;
};

void collect_allows(const std::string& comment, std::set<std::string>* out,
                    std::vector<std::string>* unknown) {
  static const std::regex re(R"(bicord-lint:\s*allow\(([^)]*)\))");
  for (auto it = std::sregex_iterator(comment.begin(), comment.end(), re);
       it != std::sregex_iterator(); ++it) {
    std::stringstream ss((*it)[1].str());
    std::string rule;
    while (std::getline(ss, rule, ',')) {
      rule = trim(rule);
      if (rule.empty()) continue;
      if (is_known_rule(rule)) {
        out->insert(rule);
      } else if (std::all_of(rule.begin(), rule.end(), [](char ch) {
                   return ident_char(ch) || ch == '-';
                 })) {
        // Warn only for plausible rule names (typos); syntax placeholders in
        // prose like `allow(<rule>…)` are not waivers and not worth noise.
        unknown->push_back(rule);
      }
    }
  }
}

/// True when line[i] is the opening quote of a raw string literal: the quote
/// is preceded by R (optionally prefixed u8/u/U/L), and the character before
/// the prefix is not part of an identifier.
bool raw_string_opens(const std::string& line, std::size_t i) {
  if (i == 0 || line[i] != '"' || line[i - 1] != 'R') return false;
  std::size_t p = i - 1;  // at 'R'
  if (p >= 2 && line[p - 2] == 'u' && line[p - 1] == '8') {
    p -= 2;
  } else if (p >= 1 &&
             (line[p - 1] == 'u' || line[p - 1] == 'U' || line[p - 1] == 'L')) {
    p -= 1;
  }
  return p == 0 || !ident_char(line[p - 1]);
}

FileView load_file(const std::string& path, bool* ok) {
  FileView v;
  std::ifstream in(path, std::ios::binary);
  *ok = static_cast<bool>(in);
  if (!*ok) return v;
  std::string line;
  bool in_block_comment = false;
  bool in_line_comment = false;  // a // comment ended in \ — next physical
                                 // line is still comment text
  bool in_raw_string = false;
  std::string raw_terminator;  // ")delim\"" of the open raw string
  std::vector<std::set<std::string>> line_allows;
  static const std::regex include_re(R"re(^\s*#\s*include\s*"([^"]+)")re");
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    std::string code;
    std::string comment;
    code.reserve(line.size());
    std::size_t i = 0;
    if (in_line_comment) {
      // The previous // comment ended in a backslash: this whole physical
      // line is comment, and it may chain another continuation.
      comment = line;
      in_line_comment = !line.empty() && line.back() == '\\';
      i = line.size();
    } else if (in_raw_string) {
      const auto end = line.find(raw_terminator);
      if (end == std::string::npos) {
        i = line.size();  // whole line is raw-string body: blank it
      } else {
        in_raw_string = false;
        i = end + raw_terminator.size();
        code += '"';  // keep a token so the literal stays visible as one unit
      }
    } else if (std::smatch m; std::regex_search(line, m, include_re)) {
      IncludeRef ref;
      ref.line = v.raw.size();
      ref.target = normalize_path(m[1].str());
      v.includes.push_back(std::move(ref));
    }
    for (; i < line.size();) {
      if (in_block_comment) {
        if (line.compare(i, 2, "*/") == 0) {
          in_block_comment = false;
          i += 2;
        } else {
          comment += line[i++];
        }
        continue;
      }
      const char c = line[i];
      if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') {
        comment.append(line, i + 2, std::string::npos);
        // A // comment whose physical line ends in a backslash continues
        // onto the next line; scanning that line as code would manufacture
        // phantom findings (or hide the comment's allow() reach).
        in_line_comment = !line.empty() && line.back() == '\\';
        break;
      }
      if (c == '/' && i + 1 < line.size() && line[i + 1] == '*') {
        in_block_comment = true;
        i += 2;
        continue;
      }
      if (raw_string_opens(line, i)) {
        // R"delim( ... )delim" is one opaque token: its body may contain
        // quotes, comment markers and unbalanced parens that must not reach
        // the comment/string state machine.
        std::size_t d = i + 1;
        std::string delim;
        while (d < line.size() && line[d] != '(') delim += line[d++];
        if (d >= line.size()) {
          // Malformed open (no '(' on this line): treat rest as opaque.
          break;
        }
        raw_terminator = ")" + delim + "\"";
        const auto end = line.find(raw_terminator, d + 1);
        code += '"';
        if (end == std::string::npos) {
          in_raw_string = true;
          i = line.size();
        } else {
          i = end + raw_terminator.size();
          code += '"';
        }
        continue;
      }
      if (c == '\'' && !code.empty() &&
          (std::isalnum(static_cast<unsigned char>(code.back())) ||
           code.back() == '_')) {
        // A quote directly after an identifier/digit character is a C++14
        // digit separator (1'000'000), not the start of a char literal.
        code += c;
        ++i;
        continue;
      }
      if (c == '"' || c == '\'') {
        const char quote = c;
        code += quote;
        ++i;
        while (i < line.size()) {
          if (line[i] == '\\' && i + 1 < line.size()) {
            i += 2;
            continue;
          }
          if (line[i] == quote) break;
          ++i;
        }
        if (i < line.size()) {
          code += quote;
          ++i;
        }
        continue;
      }
      code += c;
      ++i;
    }
    v.raw.push_back(line);
    v.code.push_back(std::move(code));
    std::set<std::string> allows;
    std::vector<std::string> unknown;
    collect_allows(comment, &allows, &unknown);
    for (auto& u : unknown) {
      v.unknown_allows.push_back({v.raw.size() - 1, std::move(u)});
    }
    line_allows.push_back(std::move(allows));
  }
  // An annotation waives its own line and the one below it, so a comment
  // line above the offending statement works naturally.
  v.allowed.resize(v.raw.size());
  for (std::size_t i = 0; i < line_allows.size(); ++i) {
    v.allowed[i].insert(line_allows[i].begin(), line_allows[i].end());
    if (i + 1 < v.allowed.size()) {
      v.allowed[i + 1].insert(line_allows[i].begin(), line_allows[i].end());
    }
  }
  return v;
}

/// Concatenates code lines (newline-separated) so call expressions spanning
/// lines can be matched; `line_of(pos)` maps back to a line index.
struct Buffer {
  std::string text;
  std::vector<std::size_t> starts;  // offset of each line
  explicit Buffer(const FileView& v) {
    for (const auto& c : v.code) {
      starts.push_back(text.size());
      text += c;
      text += '\n';
    }
  }
  [[nodiscard]] std::size_t line_of(std::size_t pos) const {
    auto it = std::upper_bound(starts.begin(), starts.end(), pos);
    return static_cast<std::size_t>(it - starts.begin()) - 1;
  }
};

/// Balanced-bracket scan from an opening ( [ { at `open`; returns the offset
/// of the matching closer, or npos.
std::size_t match_forward(const std::string& text, std::size_t open) {
  int depth = 0;
  for (std::size_t p = open; p < text.size(); ++p) {
    const char ch = text[p];
    if (ch == '(' || ch == '[' || ch == '{') ++depth;
    if (ch == ')' || ch == ']' || ch == '}') {
      --depth;
      if (depth == 0) return p;
    }
  }
  return std::string::npos;
}

// --- the per-TU model -------------------------------------------------------

struct TuModel {
  std::string path;  // normalized, as given
  FileView view;
  Buffer buf;
  std::set<std::string> fp_names;         // names declared float/double
  std::set<std::string> unordered_names;  // names declared unordered_map/set

  explicit TuModel(FileView v) : view(std::move(v)), buf(view) {}
};

TuModel build_model(const std::string& path, bool* ok) {
  FileView v = load_file(path, ok);
  TuModel model(std::move(v));
  model.path = normalize_path(path);
  if (!*ok) return model;

  // Symbol table: declared names with types the rules care about.
  static const std::regex fp_decl(R"(\b(?:double|float)\s+([A-Za-z_]\w*)\b)");
  static const std::regex decl_tail(R"(([A-Za-z_]\w*)\s*(?:;|=|\{|\)|,|$))");
  for (const auto& c : model.view.code) {
    for (auto it = std::sregex_iterator(c.begin(), c.end(), fp_decl);
         it != std::sregex_iterator(); ++it) {
      model.fp_names.insert((*it)[1].str());
    }
    if (c.find("unordered_map") != std::string::npos ||
        c.find("unordered_set") != std::string::npos) {
      const auto gt = c.rfind('>');
      if (gt != std::string::npos) {
        const std::string tail = c.substr(gt + 1);
        std::smatch m;
        if (std::regex_search(tail, m, decl_tail)) {
          model.unordered_names.insert(m[1].str());
        }
      }
    }
  }

  return model;
}

// --- the layering DAG -------------------------------------------------------

/// scripts/layering.txt: one line per module, `module: dep dep …` — the
/// module may include itself plus the listed modules. The lists must be
/// transitively closed: then a chain of individually allowed includes can
/// never reach a forbidden module, and checking each file's own includes
/// covers every chain.
struct LayerConfig {
  std::map<std::string, std::set<std::string>> deps;
  bool loaded = false;
};

bool load_layering(const std::string& path, LayerConfig* cfg,
                   std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read layering file " + path;
    return false;
  }
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) {
      *error = path + ":" + std::to_string(lineno) +
               ": expected `module: dep dep …`";
      return false;
    }
    const std::string module = trim(line.substr(0, colon));
    if (module.empty()) {
      *error = path + ":" + std::to_string(lineno) + ": empty module name";
      return false;
    }
    std::set<std::string>& deps = cfg->deps[module];
    std::stringstream ss(line.substr(colon + 1));
    std::string dep;
    while (ss >> dep) deps.insert(dep);
  }
  for (const auto& [module, deps] : cfg->deps) {
    for (const auto& dep : deps) {
      const auto it = cfg->deps.find(dep);
      if (it == cfg->deps.end()) continue;
      for (const auto& reach : it->second) {
        if (reach == module || deps.count(reach)) continue;
        *error = path + " is not transitively closed: `" + module +
                 "` lists `" + dep + "`, which lists `" + reach + "`, so `" +
                 module + "` must list `" + reach + "` too";
        return false;
      }
    }
  }
  cfg->loaded = true;
  return true;
}

// --- the analyzer -----------------------------------------------------------

class Linter {
 public:
  Linter(std::string src_root, LayerConfig layering)
      : src_root_(std::move(src_root)), layering_(std::move(layering)) {}

  void scan(const std::string& path) {
    bool ok = false;
    TuModel model = build_model(path, &ok);
    if (!ok) {
      std::fprintf(stderr, "bicord-lint: cannot read %s\n", path.c_str());
      io_error_ = true;
      return;
    }
    const std::string& norm = model.path;
    const FileView& v = model.view;
    for (const auto& w : v.unknown_allows) {
      std::fprintf(stderr,
                   "%s:%zu: warning: bicord-lint allow() names unknown rule "
                   "'%s' (see --list-rules); nothing is waived by it\n",
                   norm.c_str(), w.line + 1, w.rule.c_str());
    }
    const bool core = path_has_segment(norm, "src");
    const bool detector = norm.find("src/detect/") != std::string::npos ||
                          norm.find("src/csi/") != std::string::npos;
    // The config structs' home layer plus the tests that exercise them.
    const bool spec_layer = norm.find("src/coex/") != std::string::npos ||
                            path_has_segment(norm, "tests");
    // Threads live in exactly one place: runner::parallel_for (src/runner/).
    const bool pool_home = norm.find("src/runner/") != std::string::npos;
    if (core) {
      check_banned_tokens(model);
      check_unordered_iteration(model);
      check_delayed_captures(model);
      check_slab_invoke(model);
    }
    if (is_header(norm)) {
      check_pragma_once(model);
      check_using_namespace(model);
    }
    if (detector) check_float_equality(model);
    if (!spec_layer) check_scenario_config_literal(model);
    // Grant issuance is the engine's job: everything under src/ except the
    // engine's own home directory is fenced off.
    if (core && norm.find("src/core/") == std::string::npos) {
      check_grant_issue(model);
    }
    if (core && !pool_home) check_thread_outside_pool(model);
    if (layering_.loaded) check_layering(model);
  }

  /// Every finding so far, ordered by path and line.
  [[nodiscard]] std::vector<Finding> sorted_findings() const {
    std::vector<Finding> out = findings_;
    std::stable_sort(out.begin(), out.end(),
                     [](const Finding& a, const Finding& b) {
                       if (a.path != b.path) return a.path < b.path;
                       return a.line < b.line;
                     });
    return out;
  }
  [[nodiscard]] bool io_error() const { return io_error_; }

 private:
  // --- shared reporting ----------------------------------------------------

  void report(const TuModel& m, std::size_t line_idx, const std::string& rule,
              const std::string& what) {
    const FileView& v = m.view;
    if (line_idx < v.allowed.size() && v.allowed[line_idx].count(rule)) return;
    Finding f;
    f.path = m.path;
    f.line = line_idx + 1;
    f.rule = rule;
    f.message = what;
    findings_.push_back(std::move(f));
  }

  // --- determinism / lifetime / hygiene rules (per-TU) ---------------------

  void check_banned_tokens(const TuModel& m) {
    static const std::regex rand_re(
        R"(\bstd::rand\b|\bsrand\s*\(|\brandom_device\b|[^:\w]rand\s*\()");
    static const std::regex clock_re(
        R"(\b(system_clock|steady_clock|high_resolution_clock)\b|\btime\s*\(|\bclock\s*\(|\bgettimeofday\b|\blocaltime\b|\bgmtime\b|\bstrftime\b)");
    const FileView& v = m.view;
    for (std::size_t i = 0; i < v.code.size(); ++i) {
      const std::string& c = v.code[i];
      if (c.find("#include") != std::string::npos) continue;  // type-only use is fine
      if (std::regex_search(c, rand_re)) {
        report(m, i, "banned-rand",
               "nondeterministic RNG source (use util::Rng streams): " +
                   trim(v.raw[i]));
      }
      if (std::regex_search(c, clock_re)) {
        report(m, i, "wall-clock",
               "wall-clock read in simulation code (sim time only): " +
                   trim(v.raw[i]));
      }
    }
  }

  void check_unordered_iteration(const TuModel& m) {
    // Range-for whose range expression is a declared unordered name (or
    // inlines an unordered container expression directly); plus the
    // accumulation-order refinement: a float += fed by such a loop.
    static const std::regex range_for(R"(for\s*\([^;()]*:\s*([^)]+)\))");
    static const std::regex word_re(R"([A-Za-z_]\w*)");
    const FileView& v = m.view;
    const std::string& text = m.buf.text;
    for (auto it = std::sregex_iterator(text.begin(), text.end(), range_for);
         it != std::sregex_iterator(); ++it) {
      const std::string range = (*it)[1].str();
      bool hit = range.find("unordered_") != std::string::npos;
      if (!hit) {
        for (auto w = std::sregex_iterator(range.begin(), range.end(), word_re);
             w != std::sregex_iterator(); ++w) {
          if (m.unordered_names.count(w->str())) {
            hit = true;
            break;
          }
        }
      }
      if (!hit) continue;
      const std::size_t line_idx =
          m.buf.line_of(static_cast<std::size_t>(it->position(0)));
      report(m, line_idx, "unordered-iteration",
             "iteration order of unordered containers is not deterministic: " +
                 trim(v.raw[line_idx]));
      check_unordered_accumulation(m, *it);
    }
  }

  void check_unordered_accumulation(const TuModel& m,
                                    const std::smatch& for_match) {
    // The loop body: either the { … } block after the for(...) or the single
    // statement up to the next ';'.
    const std::string& text = m.buf.text;
    const std::size_t for_pos = static_cast<std::size_t>(for_match.position(0));
    const std::size_t paren = text.find('(', for_pos);
    if (paren == std::string::npos) return;
    const std::size_t close = match_forward(text, paren);
    if (close == std::string::npos) return;
    std::size_t body_begin = close + 1;
    while (body_begin < text.size() &&
           std::isspace(static_cast<unsigned char>(text[body_begin]))) {
      ++body_begin;
    }
    std::size_t body_end;
    if (body_begin < text.size() && text[body_begin] == '{') {
      body_end = match_forward(text, body_begin);
      if (body_end == std::string::npos) return;
    } else {
      body_end = text.find(';', body_begin);
      if (body_end == std::string::npos) return;
    }
    const std::string body = text.substr(body_begin, body_end - body_begin);
    static const std::regex accum_re(R"((\b[A-Za-z_]\w*)\s*\+=)");
    for (auto it = std::sregex_iterator(body.begin(), body.end(), accum_re);
         it != std::sregex_iterator(); ++it) {
      if (!m.fp_names.count((*it)[1].str())) continue;
      const std::size_t line_idx = m.buf.line_of(
          body_begin + static_cast<std::size_t>(it->position(0)));
      report(m, line_idx, "unordered-accumulation",
             "float accumulation fed from an unordered container — float "
             "addition does not commute, so the sum depends on hash order: " +
                 trim(m.view.raw[line_idx]));
    }
  }

  static bool is_zero_delay(const std::string& arg_in) {
    const std::string arg = trim(arg_in);
    static const std::regex zero_re(
        R"(^(Duration::zero\s*\(\s*\)|0(_us|_ms|_ns|_sec)?|[\w.]*now\s*\(\s*\))$)");
    return std::regex_match(arg, zero_re);
  }

  void check_delayed_captures(const TuModel& m) {
    const Buffer& buf = m.buf;
    const FileView& v = m.view;
    static const std::regex call_re(
        R"((?:\.|->)\s*(schedule_periodic|schedule|after|every|at)\s*\()");
    for (auto it = std::sregex_iterator(buf.text.begin(), buf.text.end(), call_re);
         it != std::sregex_iterator(); ++it) {
      const std::string method = (*it)[1].str();
      const std::size_t open = static_cast<std::size_t>(it->position(0)) +
                               static_cast<std::size_t>(it->length(0)) - 1;
      // Balance parens to find the argument extent and the first top-level comma.
      int depth = 0;
      std::size_t close = std::string::npos;
      std::size_t first_comma = std::string::npos;
      for (std::size_t p = open; p < buf.text.size(); ++p) {
        const char ch = buf.text[p];
        if (ch == '(' || ch == '[' || ch == '{') ++depth;
        if (ch == ')' || ch == ']' || ch == '}') {
          --depth;
          if (depth == 0) {
            close = p;
            break;
          }
        }
        if (ch == ',' && depth == 1 && first_comma == std::string::npos) {
          first_comma = p;
        }
      }
      if (close == std::string::npos || first_comma == std::string::npos) continue;
      const std::string args = buf.text.substr(open + 1, close - open - 1);
      const std::string delay_arg =
          buf.text.substr(open + 1, first_comma - open - 1);
      if (is_zero_delay(delay_arg)) continue;
      // Lambda capture lists inside the argument region.
      static const std::regex intro_re(R"(\[([^\[\]]*)\]\s*(?:\(|mutable|\{))");
      for (auto lit = std::sregex_iterator(args.begin(), args.end(), intro_re);
           lit != std::sregex_iterator(); ++lit) {
        const std::string intro = trim((*lit)[1].str());
        const bool catch_all_ref =
            intro == "&" || intro.rfind("&,", 0) == 0 ||
            (!intro.empty() && intro.front() == '&' && intro.size() > 1 &&
             (intro[1] == ' ' || intro[1] == ','));
        static const std::regex this_re(R"((^|[,\s])this($|[,\s]))");
        const bool raw_this = std::regex_search(intro, this_re);
        const bool direct_queue =
            method == "schedule" || method == "schedule_periodic";
        if (catch_all_ref || (raw_this && direct_queue)) {
          const std::size_t line_idx = buf.line_of(
              static_cast<std::size_t>(it->position(0)));
          report(m, line_idx, "delayed-ref-capture",
                 "callback with [" + intro + "] capture armed via " + method +
                     "() with nonzero delay may outlive its captures: " +
                     trim(v.raw[line_idx]));
        }
      }
    }
  }

  void check_slab_invoke(const TuModel& m) {
    // slots_[idx].callback(...) — running a callable while it still lives in
    // growable container storage (the PR-3 use-after-free shape). Move the
    // callable to a local before invoking it.
    static const std::regex re(
        R"(\w+\s*\[[^\[\]]+\]\s*\.\s*\w*(callback|handler|tick|functor|cb|fn)\w*\s*\()");
    const FileView& v = m.view;
    for (std::size_t i = 0; i < v.code.size(); ++i) {
      if (std::regex_search(v.code[i], re)) {
        report(m, i, "slab-callback-invoke",
               "callable invoked out of indexed container storage (PR-3 "
               "use-after-free shape; move to a local first): " +
                   trim(v.raw[i]));
      }
    }
  }

  void check_thread_outside_pool(const TuModel& m) {
    // Every thread in src/ must come from runner::parallel_for (across-trial
    // fan-out, budgeted by --jobs/BICORD_JOBS); one simulation runs on one
    // thread. A raw std::thread/std::async escapes that budget and the
    // bitwise-determinism gates built around parallel_for.
    static const std::regex re(R"(\bstd\s*::\s*(thread|jthread|async)\b)");
    const FileView& v = m.view;
    for (std::size_t i = 0; i < v.code.size(); ++i) {
      const std::string& c = v.code[i];
      if (c.find("#include") != std::string::npos) continue;
      if (std::regex_search(c, re)) {
        report(m, i, "thread-outside-pool",
               "raw thread primitive outside runner::parallel_for (threads are "
               "budgeted and determinism-gated only through it): " +
                   trim(v.raw[i]));
      }
    }
  }

  void check_pragma_once(const TuModel& m) {
    for (const auto& c : m.view.code) {
      if (c.find("#pragma once") != std::string::npos) return;
    }
    report(m, 0, "pragma-once", "header is missing #pragma once");
  }

  void check_using_namespace(const TuModel& m) {
    static const std::regex re(R"(^\s*using\s+namespace\b)");
    const FileView& v = m.view;
    for (std::size_t i = 0; i < v.code.size(); ++i) {
      if (std::regex_search(v.code[i], re)) {
        report(m, i, "using-namespace-header",
               "`using namespace` leaks into every includer: " + trim(v.raw[i]));
      }
    }
  }

  void check_scenario_config_literal(const TuModel& m) {
    // Naming the raw config struct outside its home layer means a hand-rolled
    // field-by-field scenario; those drift from the presets and are invisible
    // to `bicordsim --scenario`. Build from ScenarioSpec instead.
    static const std::regex re(R"(\b(Ble)?ScenarioConfig\b)");
    const FileView& v = m.view;
    for (std::size_t i = 0; i < v.code.size(); ++i) {
      if (std::regex_search(v.code[i], re)) {
        report(m, i, "scenario-config-literal",
               "hand-rolled scenario config outside src/coex/ (build from "
               "ScenarioSpec presets + set() overrides): " +
                   trim(v.raw[i]));
      }
    }
  }

  void check_grant_issue(const TuModel& m) {
    // Issuing a grant means entering the engine's protection window: the
    // GrantorElection and InvariantChecker both learn about grants from
    // inside src/core/. A layer that calls the issue primitives (or keeps
    // its own GrantHistory) makes grants the failover invariants never see.
    static const std::regex call_re(
        R"((?:\.|->)\s*(begin_grant|begin_lease|arm_watchdog|arm_lease_expiry)\s*\()");
    static const std::regex history_re(R"(\bGrantHistory\b)");
    const FileView& v = m.view;
    for (std::size_t i = 0; i < v.code.size(); ++i) {
      const std::string& c = v.code[i];
      if (c.find("#include") != std::string::npos) continue;
      std::smatch sm;
      if (std::regex_search(c, sm, call_re)) {
        report(m, i, "grant-issue-outside-engine",
               sm[1].str() +
                   "() issues a grant outside src/core/ (route through the "
                   "coordination engine so election/invariants see it): " +
                   trim(v.raw[i]));
      } else if (std::regex_search(c, history_re)) {
        report(m, i, "grant-issue-outside-engine",
               "GrantHistory owned outside src/core/ shadows the engine's "
               "grant record: " +
                   trim(v.raw[i]));
      }
    }
  }

  void check_float_equality(const TuModel& m) {
    // Operand is a floating literal, or an identifier declared float/double in
    // this file. Detector/estimator thresholds must use tolerances.
    static const std::regex lit_re(
        R"((==|!=)\s*[-+]?(\d+\.\d*|\.\d+)f?\b|(\d+\.\d*|\.\d+)f?\s*(==|!=))");
    static const std::regex cmp_re(R"(([A-Za-z_]\w*)\s*(==|!=)\s*([A-Za-z_]\w*))");
    const FileView& v = m.view;
    for (std::size_t i = 0; i < v.code.size(); ++i) {
      const std::string& c = v.code[i];
      bool hit = std::regex_search(c, lit_re);
      if (!hit) {
        for (auto it = std::sregex_iterator(c.begin(), c.end(), cmp_re);
             it != std::sregex_iterator(); ++it) {
          if (m.fp_names.count((*it)[1].str()) ||
              m.fp_names.count((*it)[3].str())) {
            hit = true;
            break;
          }
        }
      }
      if (hit) {
        report(m, i, "float-equality",
               "exact floating-point comparison in detector/estimator math "
               "(use a tolerance): " +
                   trim(v.raw[i]));
      }
    }
  }

  // --- layering ------------------------------------------------------------

  /// First directory under --src-root, or "" for paths outside it.
  [[nodiscard]] std::string module_of(const std::string& path) const {
    const std::string norm = normalize_path(
        fs::path(path).lexically_normal().generic_string());
    const std::string root = normalize_path(
        fs::path(src_root_).lexically_normal().generic_string());
    if (norm.rfind(root + "/", 0) != 0) return "";
    const std::string rest = norm.substr(root.size() + 1);
    const auto slash = rest.find('/');
    if (slash == std::string::npos) return "";  // file directly in src/
    return rest.substr(0, slash);
  }

  /// Module of a quoted include, resolved against --src-root, then the
  /// includer's own directory; "" for external/system-ish targets.
  [[nodiscard]] std::string include_module(const std::string& includer,
                                           const std::string& target) const {
    std::error_code ec;
    const fs::path rooted = fs::path(src_root_) / target;
    if (fs::is_regular_file(rooted, ec)) return module_of(rooted.generic_string());
    const fs::path sibling = fs::path(includer).parent_path() / target;
    if (fs::is_regular_file(sibling, ec)) return module_of(sibling.generic_string());
    return "";
  }

  void check_layering(const TuModel& m) {
    const std::string module = module_of(m.path);
    if (module.empty()) return;  // layering constrains src/ modules only
    const auto own = layering_.deps.find(module);
    if (own == layering_.deps.end()) {
      report(m, 0, "layering",
             "module `" + module +
                 "` has no entry in the layering file (list it with the "
                 "modules it may include)");
      return;
    }
    for (const auto& inc : m.view.includes) {
      const std::string to = include_module(m.path, inc.target);
      if (to.empty() || to == module || own->second.count(to)) continue;
      report(m, inc.line, "layering",
             "#include \"" + inc.target + "\" crosses the layering DAG (module `" +
                 module + "` may not depend on `" + to + "`)");
    }
  }

  std::string src_root_;
  LayerConfig layering_;
  std::vector<Finding> findings_;
  bool io_error_ = false;
};

int usage() {
  std::fprintf(
      stderr,
      "usage: bicord_lint [--layering FILE] [--src-root DIR] [--list-rules]\n"
      "                   PATH...\n"
      "  PATH          file or directory (scans *.hpp/*.h/*.cpp); any\n"
      "                finding exits 2\n"
      "  --layering    enable the `layering` rule against the module DAG in\n"
      "                FILE (scripts/layering.txt), which must be\n"
      "                transitively closed\n"
      "  --src-root    the directory whose subdirectories are the layering\n"
      "                modules (default: src)\n"
      "  --list-rules  print every rule name and exit\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string layering_path;
  std::string src_root = "src";
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--layering") {
      if (++i >= argc) return usage();
      layering_path = argv[i];
    } else if (arg == "--src-root") {
      if (++i >= argc) return usage();
      src_root = argv[i];
    } else if (arg == "--list-rules") {
      for (const auto& r : kAllRules) std::printf("%s\n", r.c_str());
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      return usage();
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "bicord-lint: unknown option %s\n", arg.c_str());
      return usage();
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) return usage();

  // Expand directories; scan files in sorted order for stable output.
  std::vector<std::string> files;
  for (const auto& p : paths) {
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      for (const auto& e : fs::recursive_directory_iterator(p, ec)) {
        if (!e.is_regular_file()) continue;
        const std::string ext = e.path().extension().string();
        if (ext == ".hpp" || ext == ".h" || ext == ".cpp") {
          files.push_back(normalize_path(e.path().generic_string()));
        }
      }
    } else {
      files.push_back(normalize_path(p));
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  LayerConfig layering;
  if (!layering_path.empty()) {
    std::string error;
    if (!load_layering(layering_path, &layering, &error)) {
      std::fprintf(stderr, "bicord-lint: %s\n", error.c_str());
      return 1;
    }
  }

  Linter linter(src_root, std::move(layering));
  for (const auto& f : files) linter.scan(f);
  if (linter.io_error()) return 1;

  const std::vector<Finding> findings = linter.sorted_findings();
  for (const auto& f : findings) {
    std::printf("%s:%zu: [%s] %s\n", f.path.c_str(), f.line, f.rule.c_str(),
                f.message.c_str());
  }
  if (!findings.empty()) {
    std::printf("bicord-lint: %zu finding(s)\n", findings.size());
    return 2;
  }
  std::printf("bicord-lint: clean (%zu file(s))\n", files.size());
  return 0;
}

#include "lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace popan::lint {
namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// True when `path` contains `part` as a path component sequence, at the
/// start or after a '/'. "bench/foo.cc" and "/repo/bench/foo.cc" both
/// match "bench/"; "workbench/foo.cc" does not.
bool PathContains(const std::string& path, const std::string& part) {
  size_t pos = path.find(part);
  while (pos != std::string::npos) {
    if (pos == 0 || path[pos - 1] == '/') return true;
    pos = path.find(part, pos + 1);
  }
  return false;
}

/// Finds `word` in `code` at word boundaries, starting at `from`.
size_t FindWord(const std::string& code, const std::string& word,
                size_t from = 0) {
  size_t pos = code.find(word, from);
  while (pos != std::string::npos) {
    bool left_ok = pos == 0 || !IsIdentChar(code[pos - 1]);
    size_t end = pos + word.size();
    bool right_ok = end >= code.size() || !IsIdentChar(code[end]);
    if (left_ok && right_ok) return pos;
    pos = code.find(word, pos + 1);
  }
  return std::string::npos;
}

/// True when `word` occurs in `code` as an identifier immediately followed
/// by '(' (modulo whitespace) — a call of that function.
bool HasCall(const std::string& code, const std::string& word) {
  size_t pos = 0;
  while ((pos = FindWord(code, word, pos)) != std::string::npos) {
    size_t after = pos + word.size();
    while (after < code.size() &&
           std::isspace(static_cast<unsigned char>(code[after])) != 0) {
      ++after;
    }
    if (after < code.size() && code[after] == '(') return true;
    pos = after;
  }
  return false;
}

size_t SkipSpaces(const std::string& s, size_t pos) {
  while (pos < s.size() &&
         std::isspace(static_cast<unsigned char>(s[pos])) != 0) {
    ++pos;
  }
  return pos;
}

/// Skips a balanced <...> starting at `pos` (which must point at '<').
/// Returns the index just past the matching '>', or npos when unbalanced
/// on this line.
size_t SkipAngles(const std::string& s, size_t pos) {
  int depth = 0;
  for (size_t i = pos; i < s.size(); ++i) {
    if (s[i] == '<') ++depth;
    if (s[i] == '>') {
      --depth;
      if (depth == 0) return i + 1;
    }
  }
  return std::string::npos;
}

/// One line of the file after comment/string blanking, plus scan metadata.
struct Line {
  std::string code;             ///< literals/comments replaced by spaces
  int depth_start = 0;          ///< brace depth at the first character
  std::set<std::string> allow;  ///< rules suppressed on this line
};

struct FileModel {
  std::vector<Line> lines;
  /// For each line, the 0-based line index of the opening line of the
  /// innermost *function-like* brace block containing it, or -1.
  std::vector<int> function_start;
};

/// Strips //, /* */ comments and blanks string/char literal contents
/// (keeping the quotes) so token scans cannot match inside them, and
/// harvests `popan-lint: allow(rule, ...)` suppressions from the comment
/// text. A suppression on a code line covers that line; on a line of its
/// own it covers the next line.
void StripAndCollect(const std::string& content, FileModel* model) {
  std::vector<std::string> raw_lines;
  {
    std::string cur;
    for (char c : content) {
      if (c == '\n') {
        raw_lines.push_back(cur);
        cur.clear();
      } else if (c != '\r') {
        cur.push_back(c);
      }
    }
    if (!cur.empty()) raw_lines.push_back(cur);
  }

  enum class State { kCode, kBlockComment, kString, kChar };
  State state = State::kCode;
  std::vector<std::string> comments_per_line(raw_lines.size());
  std::vector<bool> has_code(raw_lines.size(), false);
  model->lines.resize(raw_lines.size());

  for (size_t li = 0; li < raw_lines.size(); ++li) {
    const std::string& raw = raw_lines[li];
    std::string code(raw.size(), ' ');
    std::string& comment = comments_per_line[li];
    for (size_t i = 0; i < raw.size(); ++i) {
      char c = raw[i];
      char next = i + 1 < raw.size() ? raw[i + 1] : '\0';
      switch (state) {
        case State::kCode:
          if (c == '/' && next == '/') {
            comment.append(raw, i, std::string::npos);
            i = raw.size();
          } else if (c == '/' && next == '*') {
            state = State::kBlockComment;
            ++i;
          } else if (c == '"') {
            code[i] = '"';
            state = State::kString;
          } else if (c == '\'') {
            code[i] = '\'';
            state = State::kChar;
          } else {
            code[i] = c;
          }
          break;
        case State::kBlockComment:
          comment.push_back(c);
          if (c == '*' && next == '/') {
            state = State::kCode;
            comment.push_back('/');
            ++i;
          }
          break;
        case State::kString:
          if (c == '\\') {
            ++i;
          } else if (c == '"') {
            code[i] = '"';
            state = State::kCode;
          }
          break;
        case State::kChar:
          if (c == '\\') {
            ++i;
          } else if (c == '\'') {
            code[i] = '\'';
            state = State::kCode;
          }
          break;
      }
    }
    // Unterminated string/char at end of line: treat as closed (the
    // compiler would reject it anyway; we must not poison the whole file).
    if (state == State::kString || state == State::kChar) state = State::kCode;
    model->lines[li].code = code;
    for (char cc : code) {
      if (std::isspace(static_cast<unsigned char>(cc)) == 0) {
        has_code[li] = true;
        break;
      }
    }
  }

  for (size_t li = 0; li < raw_lines.size(); ++li) {
    const std::string& comment = comments_per_line[li];
    size_t tag = comment.find("popan-lint:");
    if (tag == std::string::npos) continue;
    size_t open = comment.find("allow(", tag);
    if (open == std::string::npos) continue;
    size_t close = comment.find(')', open);
    if (close == std::string::npos) continue;
    std::string rules = comment.substr(open + 6, close - open - 6);
    std::set<std::string> parsed;
    std::string cur;
    for (char c : rules + ",") {
      if (c == ',') {
        size_t b = cur.find_first_not_of(" \t");
        size_t e = cur.find_last_not_of(" \t");
        if (b != std::string::npos) parsed.insert(cur.substr(b, e - b + 1));
        cur.clear();
      } else {
        cur.push_back(c);
      }
    }
    // A standalone comment line suppresses the next line; a trailing
    // comment suppresses its own line.
    size_t target = has_code[li] ? li : li + 1;
    if (target < model->lines.size()) {
      model->lines[target].allow.insert(parsed.begin(), parsed.end());
    }
  }
}

/// Walks the blanked code computing per-line brace depth and, for every
/// line, the opening line of the innermost function-like block around it.
/// A block is "function-like" when the statement text before its '{'
/// contains '(' and is not a control-flow or type/namespace introducer —
/// good enough to bound "the enclosing function" for the value()-check
/// rule without parsing C++.
void ComputeScopes(FileModel* model) {
  struct Open {
    int line;
    bool function_like;
  };
  std::vector<Open> stack;
  std::string statement;  // code since the last ';', '{' or '}'
  model->function_start.assign(model->lines.size(), -1);

  auto innermost_function = [&stack]() {
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      if (it->function_like) return it->line;
    }
    return -1;
  };

  for (size_t li = 0; li < model->lines.size(); ++li) {
    Line& line = model->lines[li];
    line.depth_start = static_cast<int>(stack.size());
    model->function_start[li] = innermost_function();
    for (char c : line.code) {
      if (c == '{') {
        bool fn = false;
        if (statement.find('(') != std::string::npos) {
          size_t b = statement.find_first_not_of(" \t");
          std::string first;
          for (size_t i = b; i != std::string::npos && i < statement.size() &&
                             IsIdentChar(statement[i]);
               ++i) {
            first.push_back(statement[i]);
          }
          static const char* kNotFunctions[] = {"if",     "for",   "while",
                                                "switch", "catch", "else"};
          fn = true;
          for (const char* kw : kNotFunctions) {
            if (first == kw) fn = false;
          }
          for (const char* kw : {"class", "struct", "enum", "namespace"}) {
            if (FindWord(statement, kw) != std::string::npos) fn = false;
          }
        }
        stack.push_back({static_cast<int>(li), fn});
        statement.clear();
        // The body can start on the signature line; record eagerly so a
        // one-line function still resolves to itself.
        model->function_start[li] = innermost_function();
      } else if (c == '}') {
        if (!stack.empty()) stack.pop_back();
        statement.clear();
      } else if (c == ';') {
        statement.clear();
      } else {
        statement.push_back(c);
      }
    }
  }
}

class Linter {
 public:
  Linter(std::string path, const std::string& content)
      : path_(std::move(path)) {
    StripAndCollect(content, &model_);
    ComputeScopes(&model_);
  }

  std::vector<Finding> Run() {
    CheckDeterminismRandom();
    CheckDeterminismTime();
    CheckUnorderedIteration();
    CheckNodiscardStatus();
    CheckUncheckedValue();
    CheckStreamFormatGuard();
    CheckRawMutexLock();
    CheckRawSimdIntrinsic();
    CheckUnannotatedGuardedMember();
    CheckAtomicImplicitOrdering();
    CheckRawThreadSpawn();
    CheckShardKeyArithmetic();
    std::sort(findings_.begin(), findings_.end(),
              [](const Finding& a, const Finding& b) {
                if (a.line != b.line) return a.line < b.line;
                return a.rule < b.rule;
              });
    return findings_;
  }

 private:
  void Report(const std::string& rule, size_t line_index,
              const std::string& message) {
    const Line& line = model_.lines[line_index];
    if (line.allow.count(rule) != 0) return;
    findings_.push_back(
        {rule, path_, static_cast<int>(line_index + 1), message});
  }

  // --- determinism-random ---------------------------------------------
  void CheckDeterminismRandom() {
    if (EndsWith(path_, "src/util/random.h") ||
        EndsWith(path_, "src/util/random.cc")) {
      return;
    }
    for (size_t li = 0; li < model_.lines.size(); ++li) {
      const std::string& code = model_.lines[li].code;
      if (code.find("std::random_device") != std::string::npos ||
          code.find("random_device") != std::string::npos) {
        Report("determinism-random", li,
               "std::random_device is nondeterministic; seed a Pcg32 / "
               "RngStreamFamily (src/util/random.h) instead");
      } else if (HasCall(code, "rand") || HasCall(code, "srand")) {
        Report("determinism-random", li,
               "rand()/srand() breaks cross-platform reproducibility; use "
               "the seeded generators in src/util/random.h");
      }
    }
  }

  // --- determinism-time -----------------------------------------------
  void CheckDeterminismTime() {
    bool timing_ok = PathContains(path_, "bench/") ||
                     EndsWith(path_, "src/sim/bench_json.h") ||
                     EndsWith(path_, "src/sim/bench_json.cc");
    for (size_t li = 0; li < model_.lines.size(); ++li) {
      const std::string& code = model_.lines[li].code;
      if (HasCall(code, "time") || HasCall(code, "clock")) {
        Report("determinism-time", li,
               "wall-clock time()/clock() must not feed experiment state; "
               "derive everything from the experiment seed");
      }
      if (code.find("system_clock::now") != std::string::npos ||
          code.find("high_resolution_clock::now") != std::string::npos) {
        Report("determinism-time", li,
               "system/high_resolution clock reads are nondeterministic; "
               "use steady_clock in bench timing sections only");
      }
      if (!timing_ok &&
          code.find("steady_clock::now") != std::string::npos) {
        Report("determinism-time", li,
               "steady_clock::now is only allowed in bench/ timing "
               "sections and src/sim/bench_json.{h,cc}");
      }
    }
  }

  // --- unordered-iteration --------------------------------------------
  void CheckUnorderedIteration() {
    if (!PathContains(path_, "src/sim/") &&
        !PathContains(path_, "src/spatial/") &&
        !PathContains(path_, "src/query/")) {
      return;
    }
    // Pass 1: names declared with an unordered container type.
    std::set<std::string> tracked;
    for (const Line& line : model_.lines) {
      const std::string& code = line.code;
      for (const char* type : {"unordered_map", "unordered_set"}) {
        size_t pos = 0;
        while ((pos = FindWord(code, type, pos)) != std::string::npos) {
          size_t p = SkipSpaces(code, pos + std::string(type).size());
          if (p < code.size() && code[p] == '<') {
            p = SkipAngles(code, p);
            if (p == std::string::npos) break;
            p = SkipSpaces(code, p);
            while (p < code.size() && (code[p] == '&' || code[p] == '*')) {
              p = SkipSpaces(code, p + 1);
            }
            std::string name;
            while (p < code.size() && IsIdentChar(code[p])) {
              name.push_back(code[p++]);
            }
            if (!name.empty()) tracked.insert(name);
          }
          pos += std::string(type).size();
        }
      }
    }
    if (tracked.empty()) return;
    // Pass 2: range-for over, or begin()/end() iteration of, a tracked name.
    for (size_t li = 0; li < model_.lines.size(); ++li) {
      const std::string& code = model_.lines[li].code;
      size_t forp = FindWord(code, "for");
      if (forp != std::string::npos) {
        size_t colon = code.find(" : ", forp);
        if (colon != std::string::npos) {
          size_t p = SkipSpaces(code, colon + 3);
          std::string name;
          while (p < code.size() && IsIdentChar(code[p])) {
            name.push_back(code[p++]);
          }
          if (tracked.count(name) != 0) {
            Report("unordered-iteration", li,
                   "iterating '" + name +
                       "' (unordered container) yields hash order, which "
                       "varies across platforms; use an ordered container "
                       "or sort before emitting");
            continue;
          }
        }
      }
      for (const std::string& name : tracked) {
        for (const char* method : {".begin()", ".cbegin()", ".end()"}) {
          if (code.find(name + method) != std::string::npos) {
            Report("unordered-iteration", li,
                   "iterator over '" + name +
                       "' (unordered container) yields hash order; sort "
                       "before any result or serialized output");
            break;
          }
        }
      }
    }
  }

  // --- nodiscard-status -----------------------------------------------
  void CheckNodiscardStatus() {
    for (size_t li = 0; li < model_.lines.size(); ++li) {
      const std::string& code = model_.lines[li].code;
      size_t p = SkipSpaces(code, 0);
      if (p >= code.size() || code[p] == '#') continue;
      if (code.find("[[nodiscard]]") != std::string::npos) continue;

      // Leading qualifiers before the return type.
      bool progressed = true;
      std::string first_word;
      while (progressed) {
        progressed = false;
        std::string word;
        size_t q = p;
        while (q < code.size() && IsIdentChar(code[q])) word.push_back(code[q++]);
        if (first_word.empty()) first_word = word;
        for (const char* kw : {"static", "inline", "virtual", "friend",
                               "constexpr", "explicit", "extern"}) {
          if (word == kw) {
            p = SkipSpaces(code, q);
            progressed = true;
          }
        }
      }
      if (first_word == "return" || first_word == "using" ||
          first_word == "typedef" || first_word == "template" ||
          first_word == "case") {
        continue;
      }
      // Optional namespace qualification of the return type.
      for (const char* prefix : {"::popan::", "popan::", "::"}) {
        std::string pr(prefix);
        if (code.compare(p, pr.size(), pr) == 0) {
          p += pr.size();
          break;
        }
      }
      size_t type_end;
      if (code.compare(p, 9, "StatusOr<") == 0) {
        type_end = SkipAngles(code, p + 8);
        if (type_end == std::string::npos) continue;
      } else if (code.compare(p, 6, "Status") == 0 &&
                 (p + 6 >= code.size() || !IsIdentChar(code[p + 6]))) {
        type_end = p + 6;
      } else {
        continue;
      }
      size_t q = SkipSpaces(code, type_end);
      if (q < code.size() && (code[q] == '&' || code[q] == '*')) {
        continue;  // returning a reference/pointer to a status: not a drop
      }
      // An identifier must follow; "Status(" is a constructor, "Status::"
      // an expression.
      std::string name;
      while (q < code.size() && IsIdentChar(code[q])) name.push_back(code[q++]);
      if (name.empty() || name == "operator") continue;
      if (code.compare(q, 2, "::") == 0) continue;  // out-of-line definition
      q = SkipSpaces(code, q);
      if (q >= code.size() || code[q] != '(') continue;  // variable, member
      // `Status s(StatusCode::kNotFound, "")` is a variable with ctor
      // arguments, not a declaration: literal arguments (before any `=`,
      // which would be a default parameter value) give it away.
      {
        bool literal_arg = false;
        int pd = 0;
        for (size_t i = q; i < code.size(); ++i) {
          if (code[i] == '(') ++pd;
          if (code[i] == ')' && --pd == 0) break;
          if (code[i] == '=') break;
          if (code[i] == '"' || code[i] == '\'' ||
              (std::isdigit(static_cast<unsigned char>(code[i])) != 0 &&
               i > 0 && !IsIdentChar(code[i - 1]))) {
            literal_arg = true;
            break;
          }
        }
        if (literal_arg) continue;
      }
      // The previous non-blank line may carry the attribute.
      bool annotated_above = false;
      for (size_t back = li; back > 0; --back) {
        const std::string& prev = model_.lines[back - 1].code;
        if (prev.find_first_not_of(" \t") == std::string::npos) continue;
        annotated_above = prev.find("[[nodiscard]]") != std::string::npos;
        break;
      }
      if (annotated_above) continue;
      Report("nodiscard-status", li,
             "'" + name +
                 "' returns Status/StatusOr but is not [[nodiscard]]; a "
                 "silently dropped error defeats the typed error contract");
    }
  }

  // --- status-unchecked-value -----------------------------------------
  void CheckUncheckedValue() {
    for (size_t li = 0; li < model_.lines.size(); ++li) {
      const std::string& code = model_.lines[li].code;
      if (code.find(".IgnoreError()") != std::string::npos) {
        Report("status-unchecked-value", li,
               ".IgnoreError() discards a Status unconditionally; handle "
               "it or (void)-cast with a suppression and a reason");
      }
      size_t pos = 0;
      while ((pos = code.find(".value()", pos)) != std::string::npos) {
        std::string receiver = ReceiverBefore(code, pos);
        pos += 8;
        if (receiver == "__SKIP__") continue;
        if (!receiver.empty() && CheckedEarlier(receiver, li)) continue;
        Report("status-unchecked-value", li,
               receiver.empty()
                   ? "chained .value() with no possible ok() check; bind "
                     "the StatusOr to a variable and test ok() first"
                   : "'" + receiver +
                         ".value()' has no preceding '" + receiver +
                         ".ok()' (or .status()) check in this function");
      }
    }
  }

  /// The identifier whose member .value() is being called at `dot`, "" when
  /// it is a chained call, or "__SKIP__" for forms that carry their own
  /// check (e.g. the expansion pattern `std::move(x).value()` is resolved
  /// to `x`).
  static std::string ReceiverBefore(const std::string& code, size_t dot) {
    if (dot == 0) return "";
    size_t i = dot;
    while (i > 0 &&
           std::isspace(static_cast<unsigned char>(code[i - 1])) != 0) {
      --i;
    }
    if (i == 0) return "";
    if (code[i - 1] == ')') {
      // Possibly std::move(ident) — scan back over one balanced group.
      int depth = 0;
      size_t j = i;
      while (j > 0) {
        --j;
        if (code[j] == ')') ++depth;
        if (code[j] == '(') {
          --depth;
          if (depth == 0) break;
        }
      }
      if (depth != 0) return "";
      std::string inner = code.substr(j + 1, i - j - 2);
      size_t b = inner.find_first_not_of(" \t");
      size_t e = inner.find_last_not_of(" \t");
      inner = b == std::string::npos ? "" : inner.substr(b, e - b + 1);
      size_t k = j;
      while (k > 0 &&
             std::isspace(static_cast<unsigned char>(code[k - 1])) != 0) {
        --k;
      }
      size_t name_end = k;
      while (k > 0 && (IsIdentChar(code[k - 1]) || code[k - 1] == ':')) --k;
      std::string callee = code.substr(k, name_end - k);
      bool inner_is_ident = !inner.empty();
      for (char c : inner) {
        if (!IsIdentChar(c)) inner_is_ident = false;
      }
      if ((callee == "std::move" || callee == "move") && inner_is_ident) {
        return inner;
      }
      return "";
    }
    if (!IsIdentChar(code[i - 1])) return "";
    size_t end = i;
    while (i > 0 && IsIdentChar(code[i - 1])) --i;
    return code.substr(i, end - i);
  }

  /// True when `receiver`.ok() / ->ok() / .status() appears between the
  /// start of the enclosing function and line `li` inclusive.
  bool CheckedEarlier(const std::string& receiver, size_t li) const {
    int start = model_.function_start[li];
    size_t from = start < 0 ? 0 : static_cast<size_t>(start);
    for (size_t lj = from; lj <= li; ++lj) {
      const std::string& code = model_.lines[lj].code;
      size_t pos = 0;
      while ((pos = FindWord(code, receiver, pos)) != std::string::npos) {
        size_t p = SkipSpaces(code, pos + receiver.size());
        if (code.compare(p, 1, ".") == 0) {
          p = SkipSpaces(code, p + 1);
        } else if (code.compare(p, 2, "->") == 0) {
          p = SkipSpaces(code, p + 2);
        } else {
          pos += receiver.size();
          continue;
        }
        if (code.compare(p, 3, "ok(") == 0 ||
            code.compare(p, 7, "status(") == 0) {
          return true;
        }
        pos += receiver.size();
      }
    }
    return false;
  }

  // --- stream-format-guard --------------------------------------------
  void CheckStreamFormatGuard() {
    static const char* kManipulators[] = {
        "setprecision",    "std::hex",       "std::fixed",
        "std::scientific", "std::uppercase", "std::setbase"};
    struct Guard {
      int depth;
    };
    std::vector<Guard> guards;
    int depth = 0;
    for (size_t li = 0; li < model_.lines.size(); ++li) {
      const std::string& code = model_.lines[li].code;
      struct Event {
        size_t col;
        int kind;  // 0 open brace, 1 close brace, 2 guard decl, 3 manipulator
        const char* what;
      };
      std::vector<Event> events;
      for (size_t i = 0; i < code.size(); ++i) {
        if (code[i] == '{') events.push_back({i, 0, nullptr});
        if (code[i] == '}') events.push_back({i, 1, nullptr});
      }
      size_t g = FindWord(code, "StreamFormatGuard");
      if (g != std::string::npos) {
        size_t p = SkipSpaces(code, g + 17);
        // A declaration introduces a name; a mere mention (e.g. in a
        // using-decl) does not arm the guard.
        if (p < code.size() && IsIdentChar(code[p])) {
          events.push_back({g, 2, nullptr});
        }
      }
      for (const char* m : kManipulators) {
        size_t pos = 0;
        std::string token(m);
        while ((pos = code.find(token, pos)) != std::string::npos) {
          bool left_ok = pos == 0 || !IsIdentChar(code[pos - 1]);
          size_t end = pos + token.size();
          bool right_ok = end >= code.size() || !IsIdentChar(code[end]);
          if (left_ok && right_ok) events.push_back({pos, 3, m});
          pos = end;
        }
      }
      std::sort(events.begin(), events.end(),
                [](const Event& a, const Event& b) { return a.col < b.col; });
      for (const Event& e : events) {
        switch (e.kind) {
          case 0:
            ++depth;
            break;
          case 1:
            --depth;
            while (!guards.empty() && guards.back().depth > depth) {
              guards.pop_back();
            }
            break;
          case 2:
            guards.push_back({depth});
            break;
          case 3:
            if (guards.empty()) {
              Report("stream-format-guard", li,
                     std::string(e.what) +
                         " outside a StreamFormatGuard scope leaves sticky "
                         "format state on the stream; declare "
                         "StreamFormatGuard guard(&os); first");
            }
            break;
        }
      }
    }
  }

  // --- raw-mutex-lock ---------------------------------------------------
  void CheckRawMutexLock() {
    // Pass 1: names declared as RAII lock wrappers. A deferred
    // unique_lock/shared_lock legitimately calls .lock()/.unlock() itself
    // (condition-variable waits); the wrapper still releases on unwind.
    std::set<std::string> wrappers;
    for (const Line& line : model_.lines) {
      const std::string& code = line.code;
      for (const char* type :
           {"lock_guard", "scoped_lock", "unique_lock", "shared_lock"}) {
        size_t pos = 0;
        while ((pos = FindWord(code, type, pos)) != std::string::npos) {
          size_t p = SkipSpaces(code, pos + std::string(type).size());
          // Explicit template arguments, or CTAD with none.
          if (p < code.size() && code[p] == '<') {
            p = SkipAngles(code, p);
            if (p == std::string::npos) break;
            p = SkipSpaces(code, p);
          }
          std::string name;
          while (p < code.size() && IsIdentChar(code[p])) {
            name.push_back(code[p++]);
          }
          if (!name.empty()) wrappers.insert(name);
          pos += std::string(type).size();
        }
      }
    }
    // Pass 2: .lock()/.unlock() (or ->) on anything that is not a tracked
    // wrapper is a raw mutex operation. try_lock and *_lock identifiers
    // fail the word-boundary test and are not this rule's business.
    for (size_t li = 0; li < model_.lines.size(); ++li) {
      const std::string& code = model_.lines[li].code;
      for (const char* method : {"lock", "unlock"}) {
        size_t pos = 0;
        while ((pos = FindWord(code, method, pos)) != std::string::npos) {
          size_t start = pos;
          pos += std::string(method).size();
          size_t after = SkipSpaces(code, pos);
          if (after >= code.size() || code[after] != '(') continue;
          size_t recv_end;
          if (start >= 1 && code[start - 1] == '.') {
            recv_end = start - 1;
          } else if (start >= 2 && code[start - 2] == '-' &&
                     code[start - 1] == '>') {
            recv_end = start - 2;
          } else {
            continue;  // free function or member definition, not a call
          }
          size_t b = recv_end;
          while (b > 0 && IsIdentChar(code[b - 1])) --b;
          std::string receiver = code.substr(b, recv_end - b);
          if (!receiver.empty() && wrappers.count(receiver) != 0) continue;
          Report("raw-mutex-lock", li,
                 "direct ." + std::string(method) + "() on '" +
                     (receiver.empty() ? std::string("<expr>") : receiver) +
                     "' bypasses RAII; hold the mutex with std::lock_guard/"
                     "std::scoped_lock (std::unique_lock for deferred or "
                     "condition-variable use)");
        }
      }
    }
  }

  // --- unannotated-guarded-member ---------------------------------------
  void CheckUnannotatedGuardedMember() {
    // Only the concurrent subsystems carry the capability discipline; the
    // rest of the tree (tests, benches, tools) may use ad-hoc mutexes.
    if (!PathContains(path_, "src/sim/") &&
        !PathContains(path_, "src/server/") &&
        !PathContains(path_, "src/spatial/")) {
      return;
    }
    // Walk the brace structure recording, per line, the opening line of
    // the class/struct block the line sits *directly* inside (-1 when the
    // innermost block is a function, namespace, enum, or initializer).
    // This is the ComputeScopes walk with a class-vs-function verdict.
    std::vector<int> class_open(model_.lines.size(), -1);
    {
      struct Open {
        int line;
        bool class_like;
      };
      std::vector<Open> stack;
      std::string statement;
      for (size_t li = 0; li < model_.lines.size(); ++li) {
        if (!stack.empty() && stack.back().class_like) {
          class_open[li] = stack.back().line;
        }
        for (char c : model_.lines[li].code) {
          if (c == '{') {
            bool cls = (FindWord(statement, "class") != std::string::npos ||
                        FindWord(statement, "struct") != std::string::npos) &&
                       FindWord(statement, "enum") == std::string::npos;
            stack.push_back({static_cast<int>(li), cls});
            statement.clear();
          } else if (c == '}') {
            if (!stack.empty()) stack.pop_back();
            statement.clear();
          } else if (c == ';') {
            statement.clear();
          } else {
            statement.push_back(c);
          }
        }
      }
    }
    // A mutex member declaration: "std::mutex name_;" / "popan::Mutex
    // name_;" at class scope. MutexLock/lock_guard locals fail the word
    // boundary or the class-scope test.
    auto is_mutex_decl = [](const std::string& code) {
      for (const char* word : {"mutex", "Mutex"}) {
        size_t pos = FindWord(code, word);
        if (pos == std::string::npos) continue;
        size_t p = SkipSpaces(code, pos + std::string(word).size());
        if (p < code.size() && IsIdentChar(code[p])) return true;
      }
      return false;
    };
    // Group member lines by their class block and check classes that
    // declare a mutex.
    std::set<int> classes_with_mutex;
    for (size_t li = 0; li < model_.lines.size(); ++li) {
      if (class_open[li] >= 0 && is_mutex_decl(model_.lines[li].code)) {
        classes_with_mutex.insert(class_open[li]);
      }
    }
    for (size_t li = 0; li < model_.lines.size(); ++li) {
      if (class_open[li] < 0 ||
          classes_with_mutex.count(class_open[li]) == 0) {
        continue;
      }
      const std::string& code = model_.lines[li].code;
      // Candidate data member: a one-line declaration ending in ';'.
      size_t last = code.find_last_not_of(" \t");
      if (last == std::string::npos || code[last] != ';') continue;
      if (code.find("GUARDED_BY") != std::string::npos) continue;
      if (is_mutex_decl(code)) continue;  // the capability itself
      // Exempt other synchronization primitives and thread handles: they
      // are the machinery, not the guarded state.
      bool exempt = false;
      for (const char* word :
           {"condition_variable", "CondVar", "ThreadRole", "atomic",
            "thread", "static", "constexpr", "using", "typedef", "friend"}) {
        if (FindWord(code, word) != std::string::npos) {
          exempt = true;
          break;
        }
      }
      if (exempt) continue;
      // A '(' here means a member function declaration (or a member whose
      // type spells parentheses, e.g. std::function — those stay out of
      // the rule's reach; annotate them by hand where it matters).
      if (code.find('(') != std::string::npos) continue;
      // Needs at least a type token and a name token.
      size_t first = code.find_first_not_of(" \t");
      size_t ident_tokens = 0;
      for (size_t i = first; i < last;) {
        if (IsIdentChar(code[i])) {
          ++ident_tokens;
          while (i < last && IsIdentChar(code[i])) ++i;
        } else {
          ++i;
        }
      }
      if (ident_tokens < 2) continue;
      Report("unannotated-guarded-member", li,
             "class declares a mutex but this data member has no "
             "GUARDED_BY/PT_GUARDED_BY annotation "
             "(util/thread_annotations.h); tag it with the mutex that "
             "protects it so clang -Wthread-safety can check the lock "
             "discipline");
    }
  }

  // --- atomic-implicit-ordering -----------------------------------------
  void CheckAtomicImplicitOrdering() {
    // Every std::atomic operation spells its memory_order. The argument
    // list may span lines (compare_exchange_strong usually does), so scan
    // forward to the balanced ')' before deciding. Every operation but
    // load() takes an argument, so an empty `.store()` is some other
    // class's accessor, not an atomic.
    static const char* const kOps[] = {
        "load",        "store",
        "exchange",    "fetch_add",
        "fetch_sub",   "fetch_and",
        "fetch_or",    "fetch_xor",
        "compare_exchange_weak", "compare_exchange_strong"};
    for (size_t li = 0; li < model_.lines.size(); ++li) {
      const std::string& code = model_.lines[li].code;
      for (const char* op : kOps) {
        size_t pos = 0;
        while ((pos = FindWord(code, op, pos)) != std::string::npos) {
          size_t start = pos;
          pos += std::string(op).size();
          size_t open = SkipSpaces(code, pos);
          if (open >= code.size() || code[open] != '(') continue;
          // Member call only: ".op(" or "->op(". A free function or the
          // definition of an unrelated load()/store() is not an atomic.
          if (!(start >= 1 && code[start - 1] == '.') &&
              !(start >= 2 && code[start - 2] == '-' &&
                code[start - 1] == '>')) {
            continue;
          }
          if (ArgsContain(li, open, "memory_order")) continue;
          const size_t close = SkipSpaces(code, open + 1);
          if (std::string(op) != "load" && close < code.size() &&
              code[close] == ')') {
            continue;
          }
          Report("atomic-implicit-ordering", li,
                 "atomic ." + std::string(op) +
                     "() without an explicit std::memory_order; implicit "
                     "seq_cst hides intent — spell the ordering (and the "
                     "reason it suffices) at every atomic access");
        }
      }
    }
  }

  /// Scans the argument list opening at (line, col of '(') across lines
  /// to the balanced ')', returning true when `token` occurs inside.
  bool ArgsContain(size_t li, size_t open, const std::string& token) {
    int depth = 0;
    std::string args;
    // 32 lines bounds the scan on unbalanced input (macro soup).
    for (size_t l = li; l < model_.lines.size() && l < li + 32; ++l) {
      const std::string& code = model_.lines[l].code;
      for (size_t i = l == li ? open : 0; i < code.size(); ++i) {
        if (code[i] == '(') ++depth;
        if (code[i] == ')') {
          --depth;
          if (depth == 0) return args.find(token) != std::string::npos;
        }
        args.push_back(code[i]);
      }
      args.push_back(' ');
    }
    return args.find(token) != std::string::npos;
  }

  // --- raw-thread-spawn -------------------------------------------------
  void CheckRawThreadSpawn() {
    // The sanctioned homes for raw threads: the pool that everyone else
    // must use, and the harnesses whose whole point is unpooled threads
    // under TSan.
    for (const char* allowed :
         {"src/sim/thread_pool.h", "src/sim/thread_pool.cc",
          "src/sim/rw_storm.h", "src/sim/rw_storm.cc",
          "src/shard/shard_storm.h", "src/shard/shard_storm.cc"}) {
      if (EndsWith(path_, allowed)) return;
    }
    for (size_t li = 0; li < model_.lines.size(); ++li) {
      const std::string& code = model_.lines[li].code;
      // std::thread used as a type (declaration, temporary, or container
      // element) spawns or owns a raw thread. "std::thread::..." (static
      // members like hardware_concurrency) and "std::thread&" (join loops,
      // parameters) do not.
      size_t pos = 0;
      while ((pos = code.find("std::thread", pos)) != std::string::npos) {
        bool left_ok = pos == 0 || (!IsIdentChar(code[pos - 1]) &&
                                    code[pos - 1] != ':');
        size_t end = pos + std::string("std::thread").size();
        pos = end;
        if (!left_ok) continue;
        if (end < code.size() && IsIdentChar(code[end])) continue;  // jthread
        size_t after = SkipSpaces(code, end);
        if (after >= code.size()) continue;
        char c = code[after];
        if (c == ':' || c == '&') continue;  // static member / reference
        if (IsIdentChar(c) || c == '(' || c == '{' || c == '>') {
          Report("raw-thread-spawn", li,
                 "std::thread outside the thread-pool/storm-harness "
                 "allowlist; route the work through sim::ThreadPool (or "
                 "suppress with a reason if this harness genuinely needs "
                 "an unpooled thread)");
        }
      }
      // .detach() severs the join discipline anywhere it appears.
      size_t dpos = 0;
      while ((dpos = FindWord(code, "detach", dpos)) != std::string::npos) {
        size_t start = dpos;
        dpos += std::string("detach").size();
        size_t open = SkipSpaces(code, dpos);
        if (open >= code.size() || code[open] != '(') continue;
        if (!(start >= 1 && code[start - 1] == '.') &&
            !(start >= 2 && code[start - 2] == '-' &&
              code[start - 1] == '>')) {
          continue;
        }
        Report("raw-thread-spawn", li,
               ".detach() abandons the thread join discipline; threads "
               "must be joined (the pool does this structurally)");
      }
    }
  }

  // --- shard-key-arithmetic ---------------------------------------------
  /// Splits an identifier into lowercase word parts at underscores and
  /// camelCase boundaries: "ShardKeyMask" -> {shard, key, mask}, so
  /// "monkey"/"keyboard" never read as keys.
  static std::vector<std::string> WordParts(const std::string& id) {
    std::vector<std::string> parts;
    std::string current;
    for (size_t i = 0; i < id.size(); ++i) {
      char c = id[i];
      if (c == '_') {
        if (!current.empty()) {
          parts.push_back(current);
          current.clear();
        }
        continue;
      }
      bool upper = c >= 'A' && c <= 'Z';
      bool prev_lower =
          i > 0 && ((id[i - 1] >= 'a' && id[i - 1] <= 'z') ||
                    (id[i - 1] >= '0' && id[i - 1] <= '9'));
      if (upper && prev_lower && !current.empty()) {
        parts.push_back(current);
        current.clear();
      }
      current.push_back(upper ? static_cast<char>(c - 'A' + 'a') : c);
    }
    if (!current.empty()) parts.push_back(current);
    return parts;
  }

  static bool IsKeyishIdent(const std::string& id) {
    for (const std::string& part : WordParts(id)) {
      if (part == "key" || part == "keys" || part == "morton") return true;
    }
    return false;
  }

  /// True when the postfix chain ending just before `end` (identifiers
  /// joined by '.' / '->') names a Morton key: "key", "state.shard_key",
  /// "MortonKeyOf". A ')' or ']' receiver does not resolve.
  static bool KeyishChainEndingAt(const std::string& code, size_t end) {
    size_t i = end;
    while (true) {
      while (i > 0 && code[i - 1] == ' ') --i;
      size_t stop = i;
      while (i > 0 && IsIdentChar(code[i - 1])) --i;
      if (i == stop) return false;
      std::string ident = code.substr(i, stop - i);
      if (ident[0] >= '0' && ident[0] <= '9') return false;
      if (IsKeyishIdent(ident)) return true;
      if (i >= 1 && code[i - 1] == '.') {
        --i;
        continue;
      }
      if (i >= 2 && code[i - 2] == '-' && code[i - 1] == '>') {
        i -= 2;
        continue;
      }
      return false;
    }
  }

  static bool KeyishChainStartingAt(const std::string& code, size_t pos) {
    while (true) {
      while (pos < code.size() && code[pos] == ' ') ++pos;
      size_t start = pos;
      while (pos < code.size() && IsIdentChar(code[pos])) ++pos;
      if (pos == start) return false;
      std::string ident = code.substr(start, pos - start);
      if (ident[0] >= '0' && ident[0] <= '9') return false;
      if (IsKeyishIdent(ident)) return true;
      if (pos < code.size() && code[pos] == '.') {
        ++pos;
        continue;
      }
      if (pos + 1 < code.size() && code[pos] == '-' &&
          code[pos + 1] == '>') {
        pos += 2;
        continue;
      }
      return false;
    }
  }

  static bool NumericTokenEndingAt(const std::string& code, size_t end) {
    size_t i = end;
    while (i > 0 && code[i - 1] == ' ') --i;
    size_t stop = i;
    while (i > 0 && (IsIdentChar(code[i - 1]) || code[i - 1] == '\'')) --i;
    return i < stop && code[i] >= '0' && code[i] <= '9';
  }

  static bool NumericTokenStartingAt(const std::string& code, size_t pos) {
    while (pos < code.size() && code[pos] == ' ') ++pos;
    return pos < code.size() && code[pos] >= '0' && code[pos] <= '9';
  }

  void CheckShardKeyArithmetic() {
    // The sanctioned homes for raw Morton-key bit surgery: the codec
    // itself, the hash-directory codecs built on the same interleave,
    // and the shard key-range algebra. Everywhere else must go through
    // their helpers (CodeOfPoint, DescendantRange, KeyRange/CoverBlocks,
    // ShardKeyOfPoint, ...) so depth bounds and the canonical staircase
    // invariants live in exactly one place.
    for (const char* allowed :
         {"src/spatial/morton.h", "src/spatial/morton.cc",
          "src/spatial/hash_codec.h", "src/spatial/hash_codec.cc",
          "src/spatial/excell.h", "src/spatial/excell.cc",
          "src/shard/key_range.h", "src/shard/key_range.cc"}) {
      if (EndsWith(path_, allowed)) return;
    }
    const std::string shift_msg =
        "raw shift on a Morton-key identifier outside the codec/"
        "key-range layer; use the spatial::Morton* / shard::KeyRange "
        "helpers so depth bounds stay in one place";
    const std::string mask_msg =
        "raw mask arithmetic on a Morton-key identifier outside the "
        "codec/key-range layer; use the spatial::Morton* / "
        "shard::KeyRange helpers so depth bounds stay in one place";
    for (size_t li = 0; li < model_.lines.size(); ++li) {
      const std::string& code = model_.lines[li].code;
      for (size_t pos = 0; pos + 1 < code.size(); ++pos) {
        char c = code[pos];
        char next = code[pos + 1];
        if ((c == '<' && next == '<') || (c == '>' && next == '>')) {
          size_t after = pos + 2;
          bool compound = after < code.size() && code[after] == '=';
          if (!compound) {
            // A second <</>> earlier on the line is stream piping
            // (chained insertion/extraction), not arithmetic.
            if (code.find("<<") < pos || code.find(">>") < pos) {
              ++pos;
              continue;
            }
            // Binary shifts are spaced (clang-format); "Range>>" is a
            // template closer and "cout<<x" never occurs in-tree.
            if (after >= code.size() || code[after] != ' ') {
              ++pos;
              continue;
            }
          }
          if (pos == 0 || code[pos - 1] != ' ') {
            ++pos;
            continue;
          }
          if (KeyishChainEndingAt(code, pos)) {
            Report("shard-key-arithmetic", li, shift_msg);
          }
          ++pos;
          continue;
        }
        if (c == '&' || c == '|' || c == '^') {
          if (next == c) {  // && and || are logical, not masks
            ++pos;
            continue;
          }
          if (pos == 0 || code[pos - 1] != ' ') continue;
          if (next == '=') {
            // Compound mask assignment: the target IS being rewritten.
            if (KeyishChainEndingAt(code, pos)) {
              Report("shard-key-arithmetic", li, mask_msg);
            }
            ++pos;
            continue;
          }
          if (next != ' ') continue;  // reference/address-of spellings
          bool left_key = KeyishChainEndingAt(code, pos);
          bool right_key = KeyishChainStartingAt(code, pos + 1);
          bool left_num = NumericTokenEndingAt(code, pos);
          bool right_num = NumericTokenStartingAt(code, pos + 1);
          if ((left_key && right_num) || (left_num && right_key)) {
            Report("shard-key-arithmetic", li, mask_msg);
          }
        }
      }
    }
  }

  // --- raw-simd-intrinsic -----------------------------------------------
  void CheckRawSimdIntrinsic() {
    // The one blessed home for vendor intrinsics: the dispatch wrapper.
    // Everything else must go through its kernels, so the scalar fallback
    // and the bitwise-parity tests cover every call site by construction.
    if (EndsWith(path_, "src/util/simd.h")) return;
    // x86 SSE/AVX/AVX-512 families, plus the NEON load/store/compare
    // spellings a 2-D point kernel would actually reach for. Prefix
    // match on identifier starts — _mm_loadu_pd, vld1q_f64, ... — with
    // the left boundary checked so e.g. popan_mm_bridge stays clean.
    static const char* const kPrefixes[] = {
        "_mm_",    "_mm256_",   "_mm512_",  "vld1q_",  "vst1q_",
        "vceqq_",  "vcltq_",    "vcgeq_",   "vdupq_",  "vandq_",
        "vorrq_",  "vaddq_",    "vmulq_",   "vcvtq_",  "vminq_",
        "vmaxq_",  "vgetq_",    "vreinterpretq_"};
    for (size_t li = 0; li < model_.lines.size(); ++li) {
      const std::string& code = model_.lines[li].code;
      bool reported = false;
      for (const char* prefix : kPrefixes) {
        if (reported) break;
        const std::string p(prefix);
        size_t pos = code.find(p);
        while (pos != std::string::npos) {
          const bool left_ok = pos == 0 || !IsIdentChar(code[pos - 1]);
          const size_t end = pos + p.size();
          // A real intrinsic continues with its type/op suffix.
          const bool right_ok = end < code.size() && IsIdentChar(code[end]);
          if (left_ok && right_ok) {
            size_t e = end;
            while (e < code.size() && IsIdentChar(code[e])) ++e;
            Report("raw-simd-intrinsic", li,
                   "vendor intrinsic '" + code.substr(pos, e - pos) +
                       "' outside src/util/simd.h; add or reuse a "
                       "dispatched kernel there so the scalar fallback and "
                       "the SIMD parity storm cover this code path");
            reported = true;  // one finding per line is enough signal
            break;
          }
          pos = code.find(p, pos + 1);
        }
      }
    }
  }

  std::string path_;
  FileModel model_;
  std::vector<Finding> findings_;
};

}  // namespace

std::string Finding::ToString() const {
  std::ostringstream os;
  os << path << ":" << line << ": [" << rule << "] " << message;
  return os.str();
}

std::vector<Finding> LintText(const std::string& logical_path,
                              const std::string& content) {
  return Linter(logical_path, content).Run();
}

std::vector<Finding> LintFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return {{"io-error", path, 0, "cannot open file"}};
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return LintText(path, buffer.str());
}

std::vector<std::string> CollectFiles(const std::string& root) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  static const char* kSkipDirs[] = {"build", ".git", "results", "fixtures"};
  for (const char* top : {"src", "bench", "tests", "tools"}) {
    fs::path dir = fs::path(root) / top;
    if (!fs::is_directory(dir)) continue;
    fs::recursive_directory_iterator it(dir), end;
    while (it != end) {
      if (it->is_directory()) {
        std::string name = it->path().filename().string();
        bool skip = false;
        for (const char* d : kSkipDirs) {
          if (name == d) skip = true;
        }
        if (skip) {
          it.disable_recursion_pending();
          ++it;
          continue;
        }
      } else if (it->is_regular_file()) {
        std::string p = it->path().string();
        if (EndsWith(p, ".h") || EndsWith(p, ".cc") || EndsWith(p, ".cpp")) {
          files.push_back(p);
        }
      }
      ++it;
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

int RunLint(const std::vector<std::string>& args, std::ostream& out) {
  std::string root = ".";
  std::vector<std::string> files;
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--root") {
      if (i + 1 >= args.size()) {
        out << "popan-lint: --root requires a directory argument\n";
        return 2;
      }
      root = args[++i];
    } else if (args[i] == "--help" || args[i] == "-h") {
      out << "usage: popan_lint [--root <dir>] [files...]\n"
             "Lints the given files, or src/ bench/ tests/ tools/ under "
             "--root (default: .) when none are given.\n";
      return 0;
    } else {
      files.push_back(args[i]);
    }
  }
  if (files.empty()) files = CollectFiles(root);
  if (files.empty()) {
    out << "popan-lint: no lintable files found under '" << root << "'\n";
    return 2;
  }
  size_t findings = 0;
  bool io_error = false;
  for (const std::string& file : files) {
    for (const Finding& f : LintFile(file)) {
      out << f.ToString() << "\n";
      if (f.rule == "io-error") {
        io_error = true;
      } else {
        ++findings;
      }
    }
  }
  if (io_error) return 2;
  if (findings > 0) {
    out << "popan-lint: " << findings << " finding(s) in " << files.size()
        << " file(s)\n";
    return 1;
  }
  out << "popan-lint: clean (" << files.size() << " files)\n";
  return 0;
}

}  // namespace popan::lint

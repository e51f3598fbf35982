// otclean_lint — the repo-specific static checker run in CI (and as a CTest
// entry), enforcing invariants no generic tool knows about:
//
//   raw-thread    no `std::thread` outside src/linalg/thread_pool.{h,cc} —
//                 kernel work must go through the shared ThreadPool, the one
//                 parallel execution mode (a bypassed pool changes the chunk
//                 decomposition and breaks bit-identity guarantees).
//   raw-mutex     no raw `std::mutex` / `std::lock_guard` / `std::unique_lock`
//                 / `std::condition_variable` outside
//                 common/thread_annotations.h — locking must go through the
//                 annotated Mutex/MutexLock/CondVar wrappers or clang's
//                 -Wthread-safety analysis cannot see it.
//   stdio         no `std::cout` / `printf` / `fprintf(stdout` in src/
//                 library code — a library that writes to stdout corrupts the
//                 CLI's machine-readable output; diagnostics go to stderr or
//                 the logging layer.
//   ffp-contract  every SIMD translation unit (src/linalg/simd*.cc) must be
//                 compiled with -ffp-contract=off in CMakeLists.txt — the
//                 cross-tier bit-identity contract pins one rounded multiply
//                 + one rounded add per element, which implicit FMA
//                 contraction would silently break.
//   headers       every public header under src/ carries the canonical
//                 include guard (OTCLEAN_<PATH>_H_) and is reachable from the
//                 umbrella header src/otclean/otclean.h, unless marked
//                 `// otclean-lint: internal-header`.
//   naked-value   no `.value()` on a Result/optional without a visible
//                 `ok()` / `has_value()` check or OTCLEAN_ASSIGN_OR_RETURN /
//                 OTCLEAN_CHECK_OK* macro within the preceding lines — under
//                 NDEBUG an unchecked access is silent UB, not an assert.
//
// Suppression: a finding on line N of rule R is suppressed when line N or
// line N-1 contains `otclean-lint: allow(R)` (with a justification, please).
// Headers excluded from the umbrella on purpose carry
// `// otclean-lint: internal-header` instead.
//
// Usage:
//   otclean_lint [--repo-root DIR] [--rules r1,r2,...] [--list-rules]
//
// Exit status: 0 when clean, 1 when any finding survives, 2 on usage or I/O
// errors. Findings print as `file:line: [rule] message`, one per line.
//
// Deliberately a standalone, dependency-free TU (no otclean library link):
// the linter must build and run even when the library itself does not.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Finding {
  std::string file;  // repo-relative
  size_t line = 0;   // 1-based
  std::string rule;
  std::string message;
};

struct SourceFile {
  std::string rel_path;              // forward-slash, repo-relative
  std::vector<std::string> lines;    // raw, as on disk
  std::vector<std::string> code;     // lines with comments blanked out
};

const std::vector<std::string>& AllRules() {
  static const std::vector<std::string> rules = {
      "raw-thread", "raw-mutex", "stdio", "ffp-contract", "headers",
      "naked-value"};
  return rules;
}

bool IsWordChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

/// True when `token` occurs in `line` as a standalone token (not embedded in
/// a longer identifier on either side).
bool ContainsToken(const std::string& line, const std::string& token) {
  size_t pos = 0;
  while ((pos = line.find(token, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !IsWordChar(line[pos - 1]);
    const size_t end = pos + token.size();
    const bool right_ok = end >= line.size() || !IsWordChar(line[end]);
    if (left_ok && right_ok) return true;
    pos = end;
  }
  return false;
}

/// Blanks // and /* */ comments so token scans do not fire on prose.
/// String literals are not tracked — good enough for a repo linter over a
/// codebase that does not put lock types in strings.
std::vector<std::string> StripComments(const std::vector<std::string>& lines) {
  std::vector<std::string> out;
  out.reserve(lines.size());
  bool in_block = false;
  for (const std::string& raw : lines) {
    std::string code;
    code.reserve(raw.size());
    for (size_t i = 0; i < raw.size();) {
      if (in_block) {
        if (raw.compare(i, 2, "*/") == 0) {
          in_block = false;
          i += 2;
        } else {
          ++i;
        }
        continue;
      }
      if (raw.compare(i, 2, "//") == 0) break;  // rest of line is comment
      if (raw.compare(i, 2, "/*") == 0) {
        in_block = true;
        i += 2;
        continue;
      }
      code.push_back(raw[i]);
      ++i;
    }
    out.push_back(std::move(code));
  }
  return out;
}

/// Line-level suppression: `otclean-lint: allow(rule)` on the finding's line
/// or the line directly above it.
bool Suppressed(const SourceFile& f, size_t line_index,
                const std::string& rule) {
  const std::string needle = "otclean-lint: allow(" + rule + ")";
  if (f.lines[line_index].find(needle) != std::string::npos) return true;
  if (line_index > 0 &&
      f.lines[line_index - 1].find(needle) != std::string::npos) {
    return true;
  }
  return false;
}

bool HasPrefix(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

bool HasSuffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// ------------------------------------------------------------------- rules --

void CheckRawThread(const SourceFile& f, std::vector<Finding>* findings) {
  if (f.rel_path == "src/linalg/thread_pool.h" ||
      f.rel_path == "src/linalg/thread_pool.cc") {
    return;  // the pool's home
  }
  for (size_t i = 0; i < f.code.size(); ++i) {
    if (!ContainsToken(f.code[i], "std::thread")) continue;
    if (Suppressed(f, i, "raw-thread")) continue;
    findings->push_back(
        {f.rel_path, i + 1, "raw-thread",
         "raw std::thread outside linalg/thread_pool.{h,cc} — dispatch "
         "kernel work on the shared linalg::ThreadPool (bypassing it "
         "breaks the bit-identity contract); executor-style threads need "
         "an explicit otclean-lint: allow(raw-thread) justification"});
  }
}

void CheckRawMutex(const SourceFile& f, std::vector<Finding>* findings) {
  if (f.rel_path == "src/common/thread_annotations.h") return;  // the wrapper
  static const char* kTokens[] = {
      "std::mutex",          "std::recursive_mutex", "std::timed_mutex",
      "std::shared_mutex",   "std::lock_guard",      "std::unique_lock",
      "std::scoped_lock",    "std::condition_variable",
      "std::condition_variable_any"};
  for (size_t i = 0; i < f.code.size(); ++i) {
    for (const char* token : kTokens) {
      if (!ContainsToken(f.code[i], token)) continue;
      if (Suppressed(f, i, "raw-mutex")) continue;
      findings->push_back(
          {f.rel_path, i + 1, "raw-mutex",
           std::string(token) +
               " outside common/thread_annotations.h — lock through the "
               "annotated Mutex/MutexLock/CondVar wrappers so clang "
               "-Wthread-safety can check the discipline"});
    }
  }
}

void CheckStdio(const SourceFile& f, std::vector<Finding>* findings) {
  for (size_t i = 0; i < f.code.size(); ++i) {
    const std::string& line = f.code[i];
    const bool cout = ContainsToken(line, "std::cout");
    const bool bare_printf = ContainsToken(line, "printf") &&
                             line.find("fprintf") == std::string::npos &&
                             line.find("snprintf") == std::string::npos &&
                             line.find("sprintf") == std::string::npos;
    const bool fprintf_stdout = line.find("fprintf(stdout") !=
                                    std::string::npos ||
                                line.find("fprintf( stdout") !=
                                    std::string::npos;
    if (!cout && !bare_printf && !fprintf_stdout) continue;
    if (Suppressed(f, i, "stdio")) continue;
    findings->push_back(
        {f.rel_path, i + 1, "stdio",
         "stdout I/O in library code — src/ must not write to stdout (the "
         "CLI's machine-readable output owns it); use stderr or the logging "
         "layer"});
  }
}

void CheckNakedValue(const SourceFile& f, std::vector<Finding>* findings) {
  constexpr size_t kLookback = 12;
  for (size_t i = 0; i < f.code.size(); ++i) {
    if (f.code[i].find(".value()") == std::string::npos) continue;
    bool guarded = false;
    const size_t first = i >= kLookback ? i - kLookback : 0;
    for (size_t j = first; j <= i && !guarded; ++j) {
      const std::string& ctx = f.code[j];
      guarded = ctx.find("ok()") != std::string::npos ||
                ctx.find("has_value()") != std::string::npos ||
                ctx.find("OTCLEAN_ASSIGN_OR_RETURN") != std::string::npos ||
                ctx.find("OTCLEAN_CHECK_OK") != std::string::npos;
    }
    if (guarded) continue;
    if (Suppressed(f, i, "naked-value")) continue;
    findings->push_back(
        {f.rel_path, i + 1, "naked-value",
         "naked .value() with no visible ok()/has_value() check or "
         "OTCLEAN_ASSIGN_OR_RETURN / OTCLEAN_CHECK_OK_AND_ASSIGN in the "
         "preceding lines — an unchecked access is UB under NDEBUG, not an "
         "assert"});
  }
}

/// Expected include guard for a header at src-relative path `rel`, e.g.
/// "core/solve_cache.h" -> "OTCLEAN_CORE_SOLVE_CACHE_H_". The umbrella
/// header is grandfathered as OTCLEAN_OTCLEAN_H_ (its name predates the
/// path-derived convention and is baked into every client).
std::string ExpectedGuard(const std::string& rel) {
  if (rel == "otclean/otclean.h") return "OTCLEAN_OTCLEAN_H_";
  std::string guard = "OTCLEAN_";
  for (char c : rel) {
    if (c == '/' || c == '.') {
      guard.push_back('_');
    } else {
      guard.push_back(
          static_cast<char>(c >= 'a' && c <= 'z' ? c - 'a' + 'A' : c));
    }
  }
  guard.push_back('_');
  return guard;
}

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

void CheckHeaders(const std::vector<SourceFile>& headers,
                  std::vector<Finding>* findings) {
  // 1. Canonical include guards.
  for (const SourceFile& f : headers) {
    const std::string rel = f.rel_path.substr(4);  // drop "src/"
    const std::string expected = ExpectedGuard(rel);
    std::string ifndef_name, define_name;
    size_t ifndef_line = 0;
    for (size_t i = 0; i < f.code.size(); ++i) {
      const std::string line = Trim(f.code[i]);
      if (line.empty()) continue;
      if (HasPrefix(line, "#ifndef ")) {
        ifndef_name = Trim(line.substr(8));
        ifndef_line = i + 1;
        for (size_t j = i + 1; j < f.code.size(); ++j) {
          const std::string next = Trim(f.code[j]);
          if (next.empty()) continue;
          if (HasPrefix(next, "#define ")) define_name = Trim(next.substr(8));
          break;
        }
      }
      break;  // only the first non-blank code line may open the guard
    }
    if (ifndef_name != expected || define_name != expected) {
      findings->push_back(
          {f.rel_path, ifndef_line == 0 ? 1 : ifndef_line, "headers",
           "include guard must be `#ifndef " + expected + "` / `#define " +
               expected + "` as the first directives (found ifndef=\"" +
               ifndef_name + "\", define=\"" + define_name + "\")"});
    }
  }

  // 2. Umbrella reachability: walk quoted includes from otclean/otclean.h.
  std::map<std::string, const SourceFile*> by_rel;  // src-relative -> file
  for (const SourceFile& f : headers) by_rel[f.rel_path.substr(4)] = &f;
  std::set<std::string> reached;
  std::vector<std::string> stack = {"otclean/otclean.h"};
  while (!stack.empty()) {
    const std::string cur = stack.back();
    stack.pop_back();
    if (!reached.insert(cur).second) continue;
    auto it = by_rel.find(cur);
    if (it == by_rel.end()) continue;
    for (const std::string& line : it->second->code) {
      const std::string t = Trim(line);
      if (!HasPrefix(t, "#include \"")) continue;
      const size_t close = t.find('"', 10);
      if (close == std::string::npos) continue;
      stack.push_back(t.substr(10, close - 10));
    }
  }
  if (by_rel.find("otclean/otclean.h") == by_rel.end()) {
    findings->push_back({"src/otclean/otclean.h", 1, "headers",
                         "umbrella header src/otclean/otclean.h is missing"});
  }
  for (const SourceFile& f : headers) {
    const std::string rel = f.rel_path.substr(4);
    if (reached.count(rel) != 0) continue;
    bool internal = false;
    for (const std::string& line : f.lines) {
      if (line.find("otclean-lint: internal-header") != std::string::npos) {
        internal = true;
        break;
      }
    }
    if (internal) continue;
    findings->push_back(
        {f.rel_path, 1, "headers",
         "public header not reachable from the umbrella header "
         "src/otclean/otclean.h — add it to the umbrella's includes or mark "
         "it `// otclean-lint: internal-header` with a reason"});
  }
}

/// Collects the source files named by `set_source_files_properties(...)`
/// statements whose COMPILE_OPTIONS contain -ffp-contract=off, then demands
/// every SIMD TU is covered.
void CheckFfpContract(const fs::path& repo_root,
                      const std::vector<std::string>& simd_tus,
                      std::vector<Finding>* findings) {
  std::ifstream in(repo_root / "CMakeLists.txt");
  if (!in) {
    findings->push_back({"CMakeLists.txt", 1, "ffp-contract",
                         "CMakeLists.txt not found at the repo root"});
    return;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  std::string cmake = ss.str();

  // Expand simple `set(NAME value...)` variables so flags carried via
  // ${OTCLEAN_SIMD_BASE_OPTIONS}-style indirection are still seen. Two
  // passes cover one level of nesting, which is all the build uses.
  std::map<std::string, std::string> cmake_vars;
  size_t set_pos = 0;
  while ((set_pos = cmake.find("set(", set_pos)) != std::string::npos) {
    if (set_pos > 0 && IsWordChar(cmake[set_pos - 1])) {
      set_pos += 4;  // set_source_files_properties, set_tests_properties, ...
      continue;
    }
    const size_t open = set_pos + 3;
    size_t depth = 1, end = open + 1;
    while (end < cmake.size() && depth > 0) {
      if (cmake[end] == '(') ++depth;
      if (cmake[end] == ')') --depth;
      ++end;
    }
    const std::string body = cmake.substr(open + 1, end - open - 2);
    const size_t name_end = body.find_first_of(" \t\r\n");
    if (name_end != std::string::npos) {
      cmake_vars[Trim(body.substr(0, name_end))] = body.substr(name_end + 1);
    }
    set_pos = end;
  }
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& [name, value] : cmake_vars) {
      const std::string ref = "${" + name + "}";
      size_t at = 0;
      while ((at = cmake.find(ref, at)) != std::string::npos) {
        cmake.replace(at, ref.size(), value);
        at += value.size();
      }
    }
  }

  std::set<std::string> covered;
  size_t pos = 0;
  while ((pos = cmake.find("set_source_files_properties", pos)) !=
         std::string::npos) {
    const size_t open = cmake.find('(', pos);
    if (open == std::string::npos) break;
    size_t depth = 1, end = open + 1;
    while (end < cmake.size() && depth > 0) {
      if (cmake[end] == '(') ++depth;
      if (cmake[end] == ')') --depth;
      ++end;
    }
    const std::string stmt = cmake.substr(open + 1, end - open - 2);
    if (stmt.find("ffp-contract=off") != std::string::npos) {
      for (const std::string& tu : simd_tus) {
        if (stmt.find(tu) != std::string::npos) covered.insert(tu);
      }
    }
    pos = end;
  }
  for (const std::string& tu : simd_tus) {
    if (covered.count(tu) != 0) continue;
    findings->push_back(
        {"CMakeLists.txt", 1, "ffp-contract",
         "SIMD translation unit " + tu +
             " is not compiled with -ffp-contract=off (required: the "
             "cross-tier bit-identity contract forbids implicit FMA "
             "contraction) — add it to a set_source_files_properties "
             "COMPILE_OPTIONS carrying the flag"});
  }
}

// ---------------------------------------------------------------- scanning --

bool LoadFile(const fs::path& abs, const std::string& rel, SourceFile* out) {
  std::ifstream in(abs);
  if (!in) return false;
  out->rel_path = rel;
  out->lines.clear();
  std::string line;
  while (std::getline(in, line)) out->lines.push_back(line);
  out->code = StripComments(out->lines);
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--repo-root DIR] [--rules r1,r2,...] "
               "[--list-rules]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path repo_root = fs::current_path();
  std::set<std::string> active(AllRules().begin(), AllRules().end());
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--repo-root" && i + 1 < argc) {
      repo_root = argv[++i];
    } else if (arg == "--rules" && i + 1 < argc) {
      active.clear();
      std::stringstream ss(argv[++i]);
      std::string rule;
      while (std::getline(ss, rule, ',')) {
        if (std::find(AllRules().begin(), AllRules().end(), rule) ==
            AllRules().end()) {
          std::fprintf(stderr, "otclean_lint: unknown rule \"%s\"\n",
                       rule.c_str());
          return 2;
        }
        active.insert(rule);
      }
    } else if (arg == "--list-rules") {
      for (const std::string& rule : AllRules()) {
        std::fprintf(stderr, "%s\n", rule.c_str());
      }
      return 0;
    } else {
      return Usage(argv[0]);
    }
  }

  const fs::path src_root = repo_root / "src";
  if (!fs::exists(src_root)) {
    std::fprintf(stderr, "otclean_lint: no src/ under %s\n",
                 repo_root.string().c_str());
    return 2;
  }

  std::vector<SourceFile> sources;  // every .h/.cc under src/
  std::vector<std::string> simd_tus;
  for (auto it = fs::recursive_directory_iterator(src_root);
       it != fs::recursive_directory_iterator(); ++it) {
    if (!it->is_regular_file()) continue;
    const std::string ext = it->path().extension().string();
    if (ext != ".h" && ext != ".cc") continue;
    const std::string rel =
        fs::relative(it->path(), repo_root).generic_string();
    SourceFile f;
    if (!LoadFile(it->path(), rel, &f)) {
      std::fprintf(stderr, "otclean_lint: cannot read %s\n", rel.c_str());
      return 2;
    }
    const std::string name = it->path().filename().string();
    if (HasPrefix(rel, "src/linalg/") && HasPrefix(name, "simd") &&
        ext == ".cc") {
      simd_tus.push_back(rel);
    }
    sources.push_back(std::move(f));
  }
  std::sort(sources.begin(), sources.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.rel_path < b.rel_path;
            });
  std::sort(simd_tus.begin(), simd_tus.end());

  std::vector<Finding> findings;
  std::vector<SourceFile> headers;
  for (const SourceFile& f : sources) {
    if (HasSuffix(f.rel_path, ".h")) headers.push_back(f);
    if (active.count("raw-thread")) CheckRawThread(f, &findings);
    if (active.count("raw-mutex")) CheckRawMutex(f, &findings);
    if (active.count("stdio")) CheckStdio(f, &findings);
    if (active.count("naked-value")) CheckNakedValue(f, &findings);
  }
  if (active.count("headers")) CheckHeaders(headers, &findings);
  if (active.count("ffp-contract")) {
    CheckFfpContract(repo_root, simd_tus, &findings);
  }

  for (const Finding& f : findings) {
    std::fprintf(stderr, "%s:%zu: [%s] %s\n", f.file.c_str(), f.line,
                 f.rule.c_str(), f.message.c_str());
  }
  if (!findings.empty()) {
    std::fprintf(stderr, "otclean_lint: %zu finding(s)\n", findings.size());
    return 1;
  }
  return 0;
}

#include "lint/driver.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "lint/index.h"
#include "lint/lexer.h"
#include "lint/rules.h"

namespace netstore::lint {
namespace {

namespace stdfs = std::filesystem;

/// Every rule the self-test fixture tree must trip at least once.
const std::set<std::string> kRequiredRules = {
    // Determinism family.
    "wall-clock", "rand", "raw-assert", "raw-print", "thread",
    "unordered-iter", "virtual-dtor", "float-eq", "std-function-hot-path",
    "process-state", "raw-blockbuf-alloc",
    // Ownership/aliasing family.
    "bufref-held", "poolframe-escape", "raii-temp", "manual-lock",
    "manual-suspend",
    // Zero-copy data plane.
    "raw-datapath-memcpy",
};

int usage() {
  std::cerr << "usage: netstore_lint [--self-test] [--json <path>] "
               "<dir-or-file>...\n";
  return 2;
}

/// Rules suppressed for the 1-based `line`: a "netstore-lint: allow(...)"
/// comment on that line or the one directly above.
std::set<std::string> suppressions_for(const SourceFile& f,
                                       std::uint32_t line) {
  std::set<std::string> rules;
  for (const std::uint32_t li : {line, line - 1}) {
    if (li == 0 || li > line) continue;
    const auto range = f.comments.equal_range(li);
    for (auto it = range.first; it != range.second; ++it) {
      const std::string& text = it->second;
      const std::string tag = "netstore-lint: allow(";
      std::size_t pos = text.find(tag);
      while (pos != std::string::npos) {
        const std::size_t open = pos + tag.size();
        const std::size_t close = text.find(')', open);
        if (close == std::string::npos) break;
        std::stringstream list(text.substr(open, close - open));
        std::string rule;
        while (std::getline(list, rule, ',')) {
          rule.erase(std::remove_if(rule.begin(), rule.end(), ::isspace),
                     rule.end());
          if (!rule.empty()) rules.insert(rule);
        }
        pos = text.find(tag, close);
      }
    }
  }
  return rules;
}

bool lintable_extension(const stdfs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cc" || ext == ".h" || ext == ".cpp" || ext == ".hpp";
}

bool under_testdata(const stdfs::path& p) {
  for (const auto& part : p) {
    if (part == "testdata") return true;
  }
  return false;
}

/// JSON string escaping (quotes, backslashes, control characters).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

void write_json(const std::string& path, const std::vector<Finding>& findings,
                std::size_t nfiles, std::size_t nsuppressed) {
  std::map<std::string, int> per_rule;
  for (const Finding& f : findings) per_rule[f.rule]++;

  std::ofstream out(path);
  out << "{\n  \"format\": \"netstore-report-v1\",\n"
      << "  \"bench\": \"netstore_lint\",\n"
      << "  \"reproduces\": \"static analysis gates: determinism, "
         "ownership (DESIGN.md section 15)\",\n"
      << "  \"tables\": [\n"
      << "    {\"name\": \"lint:findings\",\n"
      << "     \"columns\": [\"file\", \"line\", \"col\", \"rule\", "
         "\"message\"],\n"
      << "     \"rows\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out << (i == 0 ? "\n" : ",\n") << "      [\"" << json_escape(f.file)
        << "\", " << f.line << ", " << f.col << ", \"" << json_escape(f.rule)
        << "\", \"" << json_escape(f.message) << "\"]";
  }
  out << "\n     ]},\n"
      << "    {\"name\": \"lint:rules\",\n"
      << "     \"columns\": [\"rule\", \"findings\"],\n"
      << "     \"rows\": [";
  std::size_t i = 0;
  for (const auto& [rule, count] : per_rule) {
    out << (i++ == 0 ? "\n" : ",\n") << "      [\"" << json_escape(rule)
        << "\", " << count << "]";
  }
  out << "\n     ]}\n  ],\n"
      << "  \"snapshots\": [\n    {\"label\": \"lint\", \"metrics\": {\n"
      << "      \"lint.files\": {\"kind\": \"counter\", \"value\": " << nfiles
      << "},\n"
      << "      \"lint.findings\": {\"kind\": \"counter\", \"value\": "
      << findings.size() << "},\n"
      << "      \"lint.suppressed\": {\"kind\": \"counter\", \"value\": "
      << nsuppressed << "}\n    }}\n  ]\n}\n";
}

int self_test_verdict(const std::vector<Finding>& findings,
                      std::size_t nfiles) {
  std::set<std::string> fired;
  bool ok = true;
  // Findings in clean* fixtures mean a rule or the suppression parser
  // regressed; multi* fixtures must show that one line can carry
  // several findings of the same rule (the PR-1 truncation bug).
  std::map<std::pair<std::string, std::uint32_t>, int> same_line_rule;
  std::set<std::string> multi_files_hit;
  for (const Finding& f : findings) {
    fired.insert(f.rule);
    const std::string base = stdfs::path(f.file).filename().string();
    if (base.starts_with("clean")) {
      std::cout << "self-test FAILED: finding in clean fixture: " << f.file
                << ":" << f.line << " [" << f.rule << "]\n";
      ok = false;
    }
    if (base.starts_with("multi")) {
      multi_files_hit.insert(f.file);
      same_line_rule[{f.rule, f.line}]++;
    }
  }
  for (const std::string& rule : kRequiredRules) {
    if (fired.count(rule) == 0) {
      std::cout << "self-test FAILED: rule '" << rule
                << "' produced no finding on the fixture tree\n";
      ok = false;
    }
  }
  if (!multi_files_hit.empty()) {
    bool any_pair = false;
    for (const auto& [key, count] : same_line_rule) {
      if (count >= 2) any_pair = true;
    }
    if (!any_pair) {
      std::cout << "self-test FAILED: no multi* fixture line produced two "
                   "findings of one rule (per-line truncation regressed)\n";
      ok = false;
    }
  }
  std::cout << (ok ? "self-test passed: " : "self-test failed: ")
            << findings.size() << " finding(s) across " << nfiles
            << " fixture file(s)\n";
  return ok ? 0 : 1;
}

}  // namespace

int run_cli(int argc, char** argv) {
  bool self_test = false;
  std::string json_path;
  std::vector<stdfs::path> roots;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      roots.emplace_back(arg);
    }
  }
  if (roots.empty()) return usage();

  // --- collect and lex --------------------------------------------------
  std::vector<stdfs::path> paths;
  for (const stdfs::path& root : roots) {
    if (stdfs::is_directory(root)) {
      const bool root_in_testdata = under_testdata(root);
      for (const auto& entry : stdfs::recursive_directory_iterator(root)) {
        if (!entry.is_regular_file()) continue;
        if (!lintable_extension(entry.path())) continue;
        if (!root_in_testdata && under_testdata(entry.path())) continue;
        paths.push_back(entry.path());
      }
    } else if (stdfs::is_regular_file(root)) {
      paths.push_back(root);
    } else {
      std::cerr << "netstore_lint: no such file or directory: " << root
                << "\n";
      return 2;
    }
  }
  std::sort(paths.begin(), paths.end());
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());

  std::vector<SourceFile> files;
  files.reserve(paths.size());
  for (const stdfs::path& p : paths) files.push_back(lex_file(p.string()));

  // --- pass 1: the cross-TU index ---------------------------------------
  Index idx;
  for (const SourceFile& f : files) idx.merge(index_file(f));

  // --- pass 2: rules, suppressions, dedupe ------------------------------
  std::vector<Finding> findings;
  std::size_t nsuppressed = 0;
  for (const SourceFile& f : files) {
    std::vector<Finding> file_findings;
    run_all_rules(f, idx, file_findings);
    std::set<std::tuple<std::uint32_t, std::uint32_t, std::string,
                        std::string>>
        seen;
    for (Finding& fi : file_findings) {
      const auto sup = suppressions_for(f, fi.line);
      if (sup.count(fi.rule) != 0 || sup.count("all") != 0) {
        nsuppressed++;
        continue;
      }
      if (!seen.insert({fi.line, fi.col, fi.rule, fi.message}).second) {
        continue;
      }
      findings.push_back(std::move(fi));
    }
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.col, a.rule) <
                     std::tie(b.file, b.line, b.col, b.rule);
            });

  for (const Finding& f : findings) {
    std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
              << f.message << "\n";
  }
  if (!json_path.empty()) {
    write_json(json_path, findings, files.size(), nsuppressed);
  }

  if (self_test) return self_test_verdict(findings, files.size());

  std::cout << "netstore_lint: " << findings.size() << " finding(s) in "
            << files.size() << " file(s)\n";
  return findings.empty() ? 0 : 1;
}

}  // namespace netstore::lint

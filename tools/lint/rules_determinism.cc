// The PR-1 determinism/correctness rule family, re-hosted on the lexer.
//
// These rules are line-pattern matchers over the blanked view (comments
// and literal interiors already removed by the lexer, so raw strings and
// line continuations can no longer fool them).  Two behavioural changes
// from PR 1, both deliberate:
//
//   * every occurrence on a line is reported — the old scanner stopped at
//     the first match per rule per line, so `assert(a); assert(b);` on
//     one line reported once and the second violation survived review.
//   * rules about simulator internals (wall-clock, rand, raw-print,
//     std-function-hot-path, raw-blockbuf-alloc, process-state) are
//     scoped to src/ files, because the tree-wide run also covers tools/,
//     bench/, examples/ and tests/, where a harness legitimately prints,
//     reads the host clock and keeps process-wide state.
//
// `thread` runs everywhere the lint runs: a netstore process is one
// thread, so no linted tree may start a second one.  Parallel runs are
// separate processes.
#include <algorithm>
#include <array>
#include <cctype>
#include <filesystem>
#include <set>
#include <string_view>

#include "lint/rules.h"

namespace netstore::lint {
namespace {

struct Pattern {
  const char* rule;
  const char* needle;
  bool word_boundary;
  bool src_only;
  const char* message;
};

constexpr std::array<Pattern, 17> kPatterns = {{
    {"wall-clock", "system_clock", false, true,
     "wall-clock time in the simulation; use sim::Env::now()"},
    {"wall-clock", "steady_clock", false, true,
     "host clock in the simulation; use sim::Env::now()"},
    {"wall-clock", "high_resolution_clock", false, true,
     "host clock in the simulation; use sim::Env::now()"},
    {"wall-clock", "gettimeofday", true, true,
     "wall-clock time in the simulation; use sim::Env::now()"},
    {"wall-clock", "clock_gettime", true, true,
     "wall-clock time in the simulation; use sim::Env::now()"},
    {"wall-clock", "time(nullptr)", false, true,
     "wall-clock time in the simulation; use sim::Env::now()"},
    {"wall-clock", "time(NULL)", false, true,
     "wall-clock time in the simulation; use sim::Env::now()"},
    {"rand", "rand(", true, true,
     "unseeded libc randomness; use sim::Rng so runs replay"},
    {"rand", "srand(", true, true,
     "unseeded libc randomness; use sim::Rng so runs replay"},
    {"rand", "drand48(", true, true,
     "unseeded libc randomness; use sim::Rng so runs replay"},
    {"rand", "rand_r(", true, true,
     "unseeded libc randomness; use sim::Rng so runs replay"},
    {"rand", "random_device", false, true,
     "hardware entropy is unreplayable; use sim::Rng"},
    {"raw-assert", "assert(", true, false,
     "assert() is compiled out under NDEBUG (the default benchmark "
     "build); use NETSTORE_CHECK or NETSTORE_DCHECK"},
    {"raw-print", "printf(", true, true,
     "raw console output in a simulator component; report through obs:: "
     "instead, or suppress for genuine diagnostics"},
    {"raw-print", "fprintf(", true, true,
     "raw console output in a simulator component; report through obs:: "
     "instead, or suppress for genuine diagnostics"},
    {"raw-print", "std::cout", false, true,
     "raw console output in a simulator component; report through obs:: "
     "instead, or suppress for genuine diagnostics"},
    {"raw-print", "std::cerr", false, true,
     "raw console output in a simulator component; report through obs:: "
     "instead, or suppress for genuine diagnostics"},
}};

void check_patterns(const SourceFile& f, std::vector<Finding>& out) {
  for (std::size_t li = 0; li < f.code.size(); ++li) {
    const std::string& line = f.code[li];
    for (const Pattern& p : kPatterns) {
      if (p.src_only && !f.in_src) continue;
      if (std::string_view(p.rule) == "raw-print" && f.module == "obs") {
        continue;  // the reporting layer is the one allowed to format
      }
      std::size_t pos = line.find(p.needle);
      while (pos != std::string::npos) {
        if (!p.word_boundary || at_word(line, pos, p.needle)) {
          out.push_back({f.path, static_cast<std::uint32_t>(li + 1),
                         static_cast<std::uint32_t>(pos + 1), p.rule,
                         p.message});
        }
        pos = line.find(p.needle, pos + 1);
      }
    }
  }
}

void check_std_clog(const SourceFile& f, std::vector<Finding>& out) {
  // kept separate from kPatterns only to stay within the array literal —
  // same semantics as the other raw-print needles.
  if (!f.in_src || f.module == "obs") return;
  for (std::size_t li = 0; li < f.code.size(); ++li) {
    std::size_t pos = f.code[li].find("std::clog");
    while (pos != std::string::npos) {
      out.push_back({f.path, static_cast<std::uint32_t>(li + 1),
                     static_cast<std::uint32_t>(pos + 1), "raw-print",
                     "raw console output in a simulator component; report "
                     "through obs:: instead, or suppress for genuine "
                     "diagnostics"});
      pos = f.code[li].find("std::clog", pos + 1);
    }
  }
}

void check_thread(const SourceFile& f, std::vector<Finding>& out) {
  // Token-based, so `std :: thread` and wrapped lines match too.  Runs on
  // every linted file, not just src/.
  static const std::set<std::string> kThreadStarters = {"thread", "jthread",
                                                        "async"};
  const std::vector<Token>& ts = f.tokens;
  for (std::size_t i = 2; i < ts.size(); ++i) {
    if (ts[i].kind == Tok::kIdent && kThreadStarters.count(ts[i].text) != 0 &&
        ts[i - 1].text == "::" && ts[i - 2].text == "std") {
      out.push_back({f.path, ts[i - 2].line, ts[i - 2].col, "thread",
                     "std::" + ts[i].text + " in a single-threaded process; "
                         "run parallel work as separate processes"});
    }
  }
}

void check_raw_blockbuf_alloc(const SourceFile& f, std::vector<Finding>& out) {
  // core::BufferPool is the one component allowed to allocate frames;
  // everything else holds pages as core::BufRef so the steady state stays
  // allocation-free and layers share frames copy-on-write.
  if (!f.in_src) return;
  const std::string base = std::filesystem::path(f.path).filename().string();
  if (base.starts_with("buffer_pool")) return;
  static const char* const kNeedles[] = {
      "std::make_unique<BlockBuf>",   "std::make_unique<block::BlockBuf>",
      "std::make_shared<BlockBuf>",   "std::make_shared<block::BlockBuf>",
      "make_unique<BlockBuf>",        "make_unique<block::BlockBuf>",
      "make_shared<BlockBuf>",        "make_shared<block::BlockBuf>",
      "new BlockBuf",                 "new block::BlockBuf",
  };
  for (std::size_t li = 0; li < f.code.size(); ++li) {
    const std::string& line = f.code[li];
    for (const char* needle : kNeedles) {
      std::size_t pos = line.find(needle);
      while (pos != std::string::npos) {
        out.push_back({f.path, static_cast<std::uint32_t>(li + 1),
                       static_cast<std::uint32_t>(pos + 1),
                       "raw-blockbuf-alloc",
                       "heap-allocated BlockBuf outside core::BufferPool; "
                       "use core::BufferPool::instance().alloc() so the "
                       "frame is pooled and layers share it copy-on-write, "
                       "or suppress for a cold path"});
        pos = line.find(needle, pos + 1);
      }
    }
  }
}

void check_std_function(const SourceFile& f, std::vector<Finding>& out) {
  // The event loop, file-system caches, and block layer are the hot
  // paths: sim::Task (owning) and sim::FuncRef (borrowing) replace
  // std::function there.
  static const std::set<std::string> kHotModules = {"sim", "fs", "block"};
  if (!f.in_src || kHotModules.count(f.module) == 0) return;
  for (std::size_t li = 0; li < f.code.size(); ++li) {
    std::size_t pos = f.code[li].find("std::function");
    while (pos != std::string::npos) {
      out.push_back({f.path, static_cast<std::uint32_t>(li + 1),
                     static_cast<std::uint32_t>(pos + 1),
                     "std-function-hot-path",
                     "std::function in hot module '" + f.module +
                         "'; use sim::Task (owning) or sim::FuncRef "
                         "(borrowing), or suppress for a cold "
                         "configuration hook"});
      pos = f.code[li].find("std::function", pos + 1);
    }
  }
}

void check_process_state(const SourceFile& f, const Index& idx,
                         std::vector<Finding>& out) {
  // Static and namespace-scope storage is process-wide and outlives every
  // Testbed, so mutable state there leaks between the worlds one process
  // builds (bench sweeps build one per point).  With one thread per
  // process a thread_local is process-wide too.
  if (!f.in_src) return;
  // Mutable namespace-scope variables, from the index.  `static` ones are
  // left to the keyword scan below, which also sees function-local and
  // member statics.
  for (const GlobalVar& g : idx.globals) {
    if (g.file != f.path || g.is_static) continue;
    out.push_back({f.path, g.line, 0, "process-state",
                   "mutable namespace-scope variable '" + g.name +
                       "' is shared by every world the process builds; "
                       "move it into the world, or suppress for "
                       "process-wide diagnostics"});
  }
  for (std::size_t li = 0; li < f.code.size(); ++li) {
    const std::string& line = f.code[li];
    std::size_t pos = line.find("static");
    while (pos != std::string::npos) {
      if (at_word(line, pos, "static") &&
          (pos + 6 >= line.size() || !is_ident_char(line[pos + 6]))) {
        // Whole word (excludes static_assert / static_cast).  const and
        // constexpr anywhere on the line mean the data can never mutate.
        if (word_on_line(line, "const") || word_on_line(line, "constexpr")) {
          break;
        }
        // First structural character after the keyword, joining one
        // continuation line for wrapped declarations: '(' first means a
        // (stateless) static member function; anything else ('=', '{',
        // ';') is a static *object* definition.
        std::string decl = line.substr(pos + 6);
        if (decl.find_first_of("(;={") == std::string::npos &&
            li + 1 < f.code.size()) {
          decl += ' ' + f.code[li + 1];
        }
        const std::size_t structural = decl.find_first_of("(;={");
        if (structural == std::string::npos || decl[structural] != '(') {
          out.push_back({f.path, static_cast<std::uint32_t>(li + 1),
                         static_cast<std::uint32_t>(pos + 1),
                         "process-state",
                         "mutable static state outlives the Testbed and is "
                         "shared by every world the process builds; move "
                         "it into the world, or suppress for process-wide "
                         "diagnostics"});
        }
      }
      pos = line.find("static", pos + 6);
    }
  }
}

// --- unordered-iter -----------------------------------------------------

/// If a `for (` begins on line `li`, accumulates the parenthesized header
/// (joining up to 4 continuation lines) into `header`.
bool extract_for_header(const SourceFile& f, std::size_t li,
                        std::string& header) {
  const std::string& line = f.code[li];
  std::size_t pos = 0;
  std::size_t for_pos = std::string::npos;
  while ((pos = line.find("for", pos)) != std::string::npos) {
    if (at_word(line, pos, "for")) {
      std::size_t after = pos + 3;
      while (after < line.size() &&
             std::isspace(static_cast<unsigned char>(line[after]))) {
        after++;
      }
      if (after < line.size() && line[after] == '(') {
        for_pos = after;
        break;
      }
    }
    pos += 3;
  }
  if (for_pos == std::string::npos) return false;

  int depth = 0;
  std::string acc;
  std::size_t cur_line = li;
  std::size_t i = for_pos;
  for (int joined = 0; joined < 5; ++joined) {
    const std::string& text = f.code[cur_line];
    for (; i < text.size(); ++i) {
      if (text[i] == '(') depth++;
      if (text[i] == ')') {
        depth--;
        if (depth == 0) {
          header = acc.substr(1);  // drop the opening '('
          return true;
        }
      }
      acc.push_back(text[i]);
    }
    acc.push_back(' ');
    cur_line++;
    i = 0;
    if (cur_line >= f.code.size()) break;
  }
  return false;
}

/// Position of the range-for colon: a ':' that is not part of '::'.
std::size_t find_range_colon(const std::string& header) {
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i] != ':') continue;
    const bool prev_colon = i > 0 && header[i - 1] == ':';
    const bool next_colon = i + 1 < header.size() && header[i + 1] == ':';
    if (prev_colon || next_colon) continue;
    return i;
  }
  return std::string::npos;
}

void check_unordered_iteration(const SourceFile& f, const Index& idx,
                               std::vector<Finding>& out) {
  const auto it = idx.unordered_names.find(f.module);
  if (it == idx.unordered_names.end()) return;
  const std::set<std::string>& names = it->second;

  for (std::size_t li = 0; li < f.code.size(); ++li) {
    std::string header;
    if (!extract_for_header(f, li, header)) continue;

    if (header.find(';') == std::string::npos) {
      // Range-for: flag when the range expression is exactly a known
      // unordered container.
      const std::size_t colon = find_range_colon(header);
      if (colon == std::string::npos) continue;
      std::string range = header.substr(colon + 1);
      range.erase(std::remove_if(range.begin(), range.end(), ::isspace),
                  range.end());
      if (names.count(range) != 0) {
        out.push_back({f.path, static_cast<std::uint32_t>(li + 1), 0,
                       "unordered-iter",
                       "iteration order of '" + range +
                           "' is hash-ordered and nondeterministic; sort "
                           "first or suppress with a justification"});
      }
    } else {
      // Classic for: flag iterator walks (name.begin() / name.cbegin()).
      for (const std::string& name : names) {
        if (header.find(name + ".begin()") != std::string::npos ||
            header.find(name + ".cbegin()") != std::string::npos) {
          out.push_back({f.path, static_cast<std::uint32_t>(li + 1), 0,
                         "unordered-iter",
                         "iterator walk over unordered '" + name +
                             "' is hash-ordered and nondeterministic; "
                             "sort first or suppress with a justification"});
        }
      }
    }
  }
}

// --- virtual-dtor -------------------------------------------------------

void check_virtual_dtor(const SourceFile& f, std::vector<Finding>& out) {
  struct ClassScope {
    std::string name;
    std::size_t decl_line;
    int body_depth;
    bool has_base;
    bool has_virtual = false;
    bool has_virtual_dtor = false;
  };
  std::vector<ClassScope> stack;
  int depth = 0;
  bool pending = false;
  ClassScope next{};

  for (std::size_t li = 0; li < f.code.size(); ++li) {
    const std::string& line = f.code[li];
    for (const char* kw : {"class ", "struct "}) {
      std::size_t pos = line.find(kw);
      if (pos == std::string::npos) continue;
      if (!at_word(line, pos, kw)) continue;
      std::size_t j = pos + std::string(kw).size();
      while (j < line.size() &&
             std::isspace(static_cast<unsigned char>(line[j]))) {
        j++;
      }
      std::size_t end = j;
      while (end < line.size() && is_ident_char(line[end])) end++;
      if (end == j) continue;
      const std::string rest = line.substr(end);
      if (rest.find(';') != std::string::npos &&
          (rest.find('{') == std::string::npos ||
           rest.find(';') < rest.find('{'))) {
        continue;  // forward declaration
      }
      pending = true;
      next = ClassScope{};
      next.name = line.substr(j, end - j);
      next.decl_line = li + 1;
      next.has_base = find_range_colon(rest) != std::string::npos;
    }

    for (char c : line) {
      if (c == '{') {
        depth++;
        if (pending) {
          next.body_depth = depth;
          stack.push_back(next);
          pending = false;
        }
      } else if (c == '}') {
        if (!stack.empty() && stack.back().body_depth == depth) {
          const ClassScope& cs = stack.back();
          if (cs.has_virtual && !cs.has_virtual_dtor && !cs.has_base) {
            out.push_back(
                {f.path, static_cast<std::uint32_t>(cs.decl_line), 0,
                 "virtual-dtor",
                 "interface class '" + cs.name +
                     "' declares virtual functions but no virtual "
                     "destructor; deleting through a base pointer is UB"});
          }
          stack.pop_back();
        }
        depth--;
      }
    }

    if (!stack.empty()) {
      ClassScope& cs = stack.back();
      std::size_t vpos = line.find("virtual");
      if (vpos != std::string::npos && at_word(line, vpos, "virtual")) {
        cs.has_virtual = true;
        std::size_t after = vpos + 7;
        while (after < line.size() &&
               std::isspace(static_cast<unsigned char>(line[after]))) {
          after++;
        }
        if (after < line.size() && line[after] == '~') {
          cs.has_virtual_dtor = true;
        }
      }
    }
  }
}

// --- float-eq -----------------------------------------------------------

bool is_float_literal(const std::string& tok) {
  if (tok.empty()) return false;
  bool digit = false;
  bool dot = false;
  for (std::size_t i = 0; i < tok.size(); ++i) {
    const char c = tok[i];
    if (std::isdigit(static_cast<unsigned char>(c))) {
      digit = true;
    } else if (c == '.') {
      dot = true;
    } else if ((c == 'f' || c == 'F') && i == tok.size() - 1) {
      // suffix
    } else {
      return false;
    }
  }
  return digit && dot;
}

bool float_literal_adjacent(const std::string& line, std::size_t op) {
  std::size_t r = op + 2;
  while (r < line.size() && std::isspace(static_cast<unsigned char>(line[r]))) {
    r++;
  }
  std::size_t rend = r;
  while (rend < line.size() &&
         (is_ident_char(line[rend]) || line[rend] == '.')) {
    rend++;
  }
  if (is_float_literal(line.substr(r, rend - r))) return true;

  if (op == 0) return false;
  std::size_t l = op;
  while (l > 0 && std::isspace(static_cast<unsigned char>(line[l - 1]))) {
    l--;
  }
  std::size_t lstart = l;
  while (lstart > 0 &&
         (is_ident_char(line[lstart - 1]) || line[lstart - 1] == '.')) {
    lstart--;
  }
  return is_float_literal(line.substr(lstart, l - lstart));
}

void check_float_eq(const SourceFile& f, std::vector<Finding>& out) {
  for (std::size_t li = 0; li < f.code.size(); ++li) {
    const std::string& line = f.code[li];
    for (std::size_t i = 0; i + 1 < line.size(); ++i) {
      if ((line[i] != '=' && line[i] != '!') || line[i + 1] != '=') continue;
      if (i > 0 && (line[i - 1] == '=' || line[i - 1] == '<' ||
                    line[i - 1] == '>' || line[i - 1] == '!')) {
        continue;
      }
      if (i + 2 < line.size() && line[i + 2] == '=') continue;
      if (float_literal_adjacent(line, i)) {
        out.push_back({f.path, static_cast<std::uint32_t>(li + 1),
                       static_cast<std::uint32_t>(i + 1), "float-eq",
                       "floating-point equality comparison; compare with "
                       "an epsilon or restructure"});
      }
    }
  }
}

}  // namespace

void run_determinism_rules(const SourceFile& f, const Index& idx,
                           std::vector<Finding>& out) {
  check_patterns(f, out);
  check_std_clog(f, out);
  check_thread(f, out);
  check_raw_blockbuf_alloc(f, out);
  check_std_function(f, out);
  check_process_state(f, idx, out);
  check_unordered_iteration(f, idx, out);
  check_virtual_dtor(f, out);
  check_float_eq(f, out);
}

}  // namespace netstore::lint

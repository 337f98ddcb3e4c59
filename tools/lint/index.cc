#include "lint/index.h"

#include <algorithm>

namespace netstore::lint {
namespace {

const std::set<std::string> kLockTypes = {"lock_guard", "scoped_lock",
                                          "unique_lock"};

bool is_keyword_skip(const std::string& t) {
  return t == "using" || t == "typedef" || t == "friend" ||
         t == "static_assert" || t == "extern" || t == "namespace";
}

/// Walks a token-index forward past a balanced <...> starting at `i`
/// (tokens[i] == "<").  Angles lex as single characters, so nested
/// template lists ("vector<vector<int>>") balance naturally.  Returns the
/// index one past the closing '>', or `i + 1` if the run looks unbalanced
/// (comparison operator, not a template list).
std::size_t skip_angles(const std::vector<Token>& ts, std::size_t i) {
  int depth = 0;
  std::size_t j = i;
  for (; j < ts.size() && ts[j].kind != Tok::kEof; ++j) {
    const std::string& t = ts[j].text;
    if (t == "<") depth++;
    else if (t == ">" && --depth == 0) return j + 1;
    else if (t == ";" || t == "{" || t == "}") break;  // gave up: not a list
  }
  return i + 1;
}

/// The statement machine.  Walks the token stream maintaining a
/// namespace/class scope stack; function bodies are scanned (not parsed)
/// by `scan_function_body`.
class Indexer {
 public:
  explicit Indexer(const SourceFile& f) : f_(f), ts_(f.tokens) {
    out_.path = f.path;
  }

  FileIndex run() {
    collect_unordered_names();
    while (!at_eof()) statement();
    return std::move(out_);
  }

 private:
  struct Scope {
    enum Kind { kNamespace, kClass } kind;
    std::string name;
    int class_idx;  // into out_.classes when kind == kClass, else -1
  };

  [[nodiscard]] bool at_eof() const {
    return i_ >= ts_.size() || ts_[i_].kind == Tok::kEof;
  }
  [[nodiscard]] const Token& tok(std::size_t off = 0) const {
    const std::size_t j = i_ + off;
    return j < ts_.size() ? ts_[j] : ts_.back();
  }

  [[nodiscard]] int current_class() const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      if (it->kind == Scope::kClass) return it->class_idx;
    }
    return -1;
  }

  [[nodiscard]] std::string qual_prefix() const {
    std::string q;
    for (const Scope& s : scopes_) {
      if (s.name.empty()) continue;
      if (!q.empty()) q += "::";
      q += s.name;
    }
    return q;
  }

  // --- statement collection at namespace/class scope -------------------

  void statement() {
    // Scope pops and stray tokens.
    if (tok().text == "}") {
      if (!scopes_.empty()) scopes_.pop_back();
      i_++;
      return;
    }
    if (tok().text == ";") {
      i_++;
      return;
    }
    // Access specifiers glue to the next statement without the label.
    if ((tok().text == "public" || tok().text == "private" ||
         tok().text == "protected") &&
        tok(1).text == ":") {
      i_ += 2;
      return;
    }
    // Template introducer: skip, the declaration follows.
    if (tok().text == "template" && tok(1).text == "<") {
      i_ = skip_angles(ts_, i_ + 1);
      return;
    }

    // Collect one statement up to a top-level ';' or '{'.
    std::vector<std::size_t> stmt;  // token indices
    int paren = 0, bracket = 0;
    std::size_t first_top_eq = std::string::npos;     // index into stmt
    std::size_t first_top_paren = std::string::npos;  // index into stmt
    while (!at_eof()) {
      const std::string& t = tok().text;
      if (t == ")") paren = std::max(0, paren - 1);
      if (t == "]") bracket = std::max(0, bracket - 1);
      if (paren == 0 && bracket == 0) {
        if (t == "=" && first_top_eq == std::string::npos) {
          first_top_eq = stmt.size();
        }
        if (t == "(" && first_top_paren == std::string::npos) {
          first_top_paren = stmt.size();
        }
        if (t == ";") {
          i_++;
          declaration(stmt, first_top_paren, first_top_eq);
          return;
        }
        if (t == "}") {
          // Unbalanced '}' inside a statement: abandon, let the scope
          // logic see it next round.
          declaration(stmt, first_top_paren, first_top_eq);
          return;
        }
        if (t == "{") {
          if (open_brace(stmt, first_top_paren, first_top_eq)) return;
          // Brace-init: consume the balanced braces and keep collecting.
          skip_braces();
          continue;
        }
      }
      if (t == "(") paren++;
      if (t == "[") bracket++;
      stmt.push_back(i_);
      i_++;
    }
    declaration(stmt, first_top_paren, first_top_eq);
  }

  /// Handles a '{' hit at the top level of a statement.  Returns true if
  /// the brace opened a scope (statement finished), false if it was a
  /// brace initializer and collection should continue.
  bool open_brace(const std::vector<std::size_t>& stmt,
                  std::size_t first_top_paren, std::size_t first_top_eq) {
    const auto text = [&](std::size_t k) { return ts_[stmt[k]].text; };
    if (!stmt.empty() && text(0) == "namespace") {
      std::string name;
      for (std::size_t k = 1; k < stmt.size(); ++k) {
        if (ts_[stmt[k]].kind == Tok::kIdent || text(k) == "::") {
          name += text(k);
        }
      }
      scopes_.push_back({Scope::kNamespace, name, -1});
      i_++;  // '{'
      return true;
    }
    if (!stmt.empty() && text(0) == "enum") {
      skip_braces();
      // Trailing "name;" of `enum class E { ... };` falls out next round.
      return true;
    }
    if (!stmt.empty() && text(0) == "extern") {  // extern "C" {
      scopes_.push_back({Scope::kNamespace, "", -1});
      i_++;
      return true;
    }
    // A class head: class/struct/union keyword at top level with no '('
    // before it (a '(' means a parameter list, i.e. a function).
    for (std::size_t k = 0; k < stmt.size(); ++k) {
      const std::string& t = text(k);
      if (t == "(") break;
      if (t == "class" || t == "struct" || t == "union") {
        begin_class(stmt, k);
        i_++;  // '{'
        return true;
      }
      if (t == "=") break;  // `auto x = struct-ish {...}`: initializer
    }
    // A function definition: parameter list seen, and any '=' comes after
    // it (trailing `= delete`-ish forms), not before (an initializer).
    if (first_top_paren != std::string::npos &&
        (first_top_eq == std::string::npos || first_top_eq > first_top_paren)) {
      function_definition(stmt, first_top_paren);
      return true;
    }
    // `= {...}` / `Config c{...}` initializer braces.
    return false;
  }

  void begin_class(const std::vector<std::size_t>& stmt, std::size_t kw) {
    // Name: the last identifier before the base-clause ':' (skipping
    // `final`), searching from the keyword forward.
    std::string name;
    std::uint32_t line = ts_[stmt[kw]].line;
    for (std::size_t k = kw + 1; k < stmt.size(); ++k) {
      const Token& t = ts_[stmt[k]];
      if (t.text == ":") break;
      if (t.kind == Tok::kIdent && t.text != "final" && t.text != "alignas") {
        name = t.text;
        line = t.line;
      }
    }
    ClassInfo ci;
    ci.name = name;
    const std::string prefix = qual_prefix();
    ci.qual = prefix.empty() ? name : prefix + "::" + name;
    ci.file = f_.path;
    ci.line = line;
    ci.module = f_.module;
    ci.in_src = f_.in_src;
    ci.annotations = annotations_at(f_, line);
    out_.classes.push_back(std::move(ci));
    scopes_.push_back({Scope::kClass, name,
                       static_cast<int>(out_.classes.size() - 1)});
  }

  // --- declarations ending in ';' --------------------------------------

  void declaration(const std::vector<std::size_t>& stmt,
                   std::size_t first_top_paren, std::size_t first_top_eq) {
    if (stmt.empty()) return;
    const auto text = [&](std::size_t k) { return ts_[stmt[k]].text; };
    if (is_keyword_skip(text(0))) return;
    // Forward declarations and enum tails.
    if (text(0) == "class" || text(0) == "struct" || text(0) == "union" ||
        text(0) == "enum") {
      return;
    }
    // Operator overloads are functions regardless of how they tokenize
    // ("operator=" lexes as ident + '=' and would look like data).
    if (has_word(stmt, "operator")) return;

    // A function declaration: parameter list whose '(' precedes any
    // top-level '=' ("= 0", "= default"); a data member's initializer
    // '=' comes first ("int x = f();").
    const bool is_function =
        first_top_paren != std::string::npos &&
        (first_top_eq == std::string::npos ||
         first_top_eq > first_top_paren) &&
        first_top_paren > 0 &&
        ts_[stmt[first_top_paren - 1]].kind == Tok::kIdent;
    const int cls = current_class();

    if (is_function) {
      if (cls < 0) return;  // namespace-scope prototype: nothing to record
      ClassInfo& ci = out_.classes[static_cast<std::size_t>(cls)];
      const Token& fname = ts_[stmt[first_top_paren - 1]];
      if (fname.text == "instance" && has_word(stmt, "static") &&
          has_amp_before(stmt, first_top_paren - 1)) {
        ci.singleton = true;
        ci.singleton_line = fname.line;
        const auto a = annotations_at(f_, fname.line);
        ci.annotations.insert(a.begin(), a.end());
      }
      return;
    }

    if (cls >= 0) {
      member_declaration(stmt);
    } else if (in_namespace_scope()) {
      global_declaration(stmt);
    }
  }

  [[nodiscard]] bool in_namespace_scope() const {
    return scopes_.empty() || scopes_.back().kind == Scope::kNamespace;
  }

  [[nodiscard]] bool has_word(const std::vector<std::size_t>& stmt,
                              const std::string& w) const {
    for (const std::size_t k : stmt) {
      if (ts_[k].text == w) return true;
    }
    return false;
  }

  /// True if a '&' punctuation appears among the tokens before `name_pos`
  /// (i.e. the function returns, or the declarator is, a reference).
  [[nodiscard]] bool has_amp_before(const std::vector<std::size_t>& stmt,
                                    std::size_t name_pos) const {
    for (std::size_t k = 0; k < name_pos && k < stmt.size(); ++k) {
      if (ts_[stmt[k]].text == "&") return true;
    }
    return false;
  }

  void member_declaration(const std::vector<std::size_t>& stmt) {
    ClassInfo& ci = out_.classes[static_cast<std::size_t>(current_class())];
    const bool is_mutable = has_word(stmt, "mutable");
    for_each_declarator(stmt, [&](const Token& name) {
      Member m;
      m.name = name.text;
      m.line = name.line;
      m.is_mutable = is_mutable;
      m.annotations = annotations_at(f_, name.line);
      ci.members.push_back(std::move(m));
    });
  }

  void global_declaration(const std::vector<std::size_t>& stmt) {
    GlobalVar base;
    base.is_static = has_word(stmt, "static");
    base.is_thread_local = has_word(stmt, "thread_local");
    if (has_word(stmt, "const") || has_word(stmt, "constexpr") ||
        has_word(stmt, "constinit")) {
      return;  // immutable: harmless to share
    }
    for_each_declarator(stmt, [&](const Token& name) {
      GlobalVar g = base;
      g.name = name.text;
      g.file = f_.path;
      g.line = name.line;
      g.module = f_.module;
      g.in_src = f_.in_src;
      g.annotations = annotations_at(f_, name.line);
      out_.globals.push_back(std::move(g));
    });
  }

  /// Finds each declarator name in a data declaration: the last
  /// identifier of each top-level comma segment, cut at '=', '{', '[',
  /// or ':' (bitfield).  Template-argument commas are skipped by angle
  /// tracking (a '<' directly after an identifier opens a list).
  template <typename Fn>
  void for_each_declarator(const std::vector<std::size_t>& stmt, Fn&& fn) {
    int angle = 0, paren = 0, bracket = 0;
    const Token* name = nullptr;
    bool cut = false;            // saw '=' / '{' / '[' / ':' this segment
    auto flush = [&] {
      if (name != nullptr) fn(*name);
      name = nullptr;
      cut = false;
    };
    for (std::size_t k = 0; k < stmt.size(); ++k) {
      const Token& t = ts_[stmt[k]];
      if (t.text == "(") { paren++; continue; }
      if (t.text == ")") { paren = std::max(0, paren - 1); continue; }
      if (paren > 0) continue;
      if (t.text == "<" && k > 0 && ts_[stmt[k - 1]].kind == Tok::kIdent) {
        angle++;
        continue;
      }
      if (t.text == ">" && angle > 0) { angle--; continue; }
      if (angle > 0) continue;
      if (t.text == "[") { bracket++; cut = true; continue; }
      if (t.text == "]") { bracket = std::max(0, bracket - 1); continue; }
      if (bracket > 0) continue;
      if (t.text == ",") { flush(); continue; }
      if (t.text == "=" || t.text == "{" || t.text == ":") {
        cut = true;
        continue;
      }
      if (cut) continue;
      if (t.kind == Tok::kIdent && !is_decl_keyword(t.text)) name = &t;
    }
    flush();
  }

  static bool is_decl_keyword(const std::string& t) {
    return t == "static" || t == "mutable" || t == "const" ||
           t == "constexpr" || t == "constinit" || t == "thread_local" ||
           t == "inline" || t == "volatile" || t == "signed" ||
           t == "unsigned" || t == "final" || t == "noexcept" ||
           t == "override" || t == "virtual" || t == "explicit";
  }

  // --- function bodies --------------------------------------------------

  /// Called with the collected header tokens and the cursor on '{'.
  /// Scans to the matching '}' harvesting lock-acquisition order; never
  /// recurses into the statement machine.
  void function_definition(const std::vector<std::size_t>& stmt,
                           std::size_t first_top_paren) {
    // Function name and owning class.
    std::string fname, fclass;
    std::uint32_t fline = ts_[stmt.empty() ? 0 : stmt[0]].line;
    if (first_top_paren > 0 &&
        ts_[stmt[first_top_paren - 1]].kind == Tok::kIdent) {
      fname = ts_[stmt[first_top_paren - 1]].text;
      fline = ts_[stmt[first_top_paren - 1]].line;
      // Qualified name: `Class::fname` — class is the identifier before
      // the '::' that precedes the function name.
      if (first_top_paren >= 3 && ts_[stmt[first_top_paren - 2]].text == "::" &&
          ts_[stmt[first_top_paren - 3]].kind == Tok::kIdent) {
        fclass = ts_[stmt[first_top_paren - 3]].text;
      }
    }
    if (fclass.empty()) {
      const int cls = current_class();
      if (cls >= 0) {
        ClassInfo& ci = out_.classes[static_cast<std::size_t>(cls)];
        fclass = ci.name;
        if (fname == "instance" && has_word(stmt, "static") &&
            has_amp_before(stmt, first_top_paren - 1)) {
          ci.singleton = true;
          ci.singleton_line = fline;
          const auto a = annotations_at(f_, fline);
          ci.annotations.insert(a.begin(), a.end());
        }
      }
    }

    std::vector<std::pair<std::string, std::uint32_t>> locks;  // ordered
    int depth = 0;
    while (!at_eof()) {
      const Token& t = tok();
      if (t.text == "{") depth++;
      if (t.text == "}") {
        depth--;
        i_++;
        if (depth == 0) break;
        continue;
      }
      if (t.kind == Tok::kIdent && kLockTypes.count(t.text) != 0) {
        harvest_lock(fclass, locks);
        continue;
      }
      i_++;
    }

    for (std::size_t k = 1; k < locks.size(); ++k) {
      if (locks[k - 1].first == locks[k].first) continue;
      out_.lock_edges.push_back(
          {locks[k - 1].first, locks[k].first, f_.path, locks[k].second});
    }
  }

  /// Cursor is on a lock_guard/scoped_lock/unique_lock identifier.
  /// Records each constructor argument as an acquisition, in order.
  /// Lock identity is `Class::argtokens` so member mutexes of different
  /// classes stay distinct across TUs.
  void harvest_lock(const std::string& fclass,
                    std::vector<std::pair<std::string, std::uint32_t>>& locks) {
    const std::uint32_t line = tok().line;
    i_++;  // the type name
    if (tok().text == "<") i_ = skip_angles(ts_, i_);
    if (tok().kind == Tok::kIdent) i_++;  // the guard variable name, if any
    if (tok().text != "(") return;
    i_++;
    int depth = 1;
    std::string arg;
    auto flush = [&] {
      if (!arg.empty()) {
        locks.emplace_back(fclass.empty() ? arg : fclass + "::" + arg, line);
        arg.clear();
      }
    };
    while (!at_eof() && depth > 0) {
      const Token& t = tok();
      if (t.text == "(") depth++;
      else if (t.text == ")") {
        if (--depth == 0) { i_++; break; }
      } else if (t.text == "," && depth == 1) {
        flush();
        i_++;
        continue;
      }
      if (depth >= 1 && !(t.text == ")" && depth == 0)) arg += t.text;
      i_++;
    }
    flush();
  }

  void skip_braces() {
    int depth = 0;
    while (!at_eof()) {
      const std::string& t = tok().text;
      if (t == "{") depth++;
      if (t == "}") {
        if (--depth == 0) { i_++; return; }
      }
      i_++;
    }
  }

  // --- unordered container names (line-based, as in PR 1) ---------------

  void collect_unordered_names() {
    for (const std::string& line : f_.code) {
      for (const char* kind : {"unordered_map<", "unordered_set<"}) {
        std::size_t pos = line.find(kind);
        while (pos != std::string::npos) {
          const std::size_t open = line.find('<', pos);
          int depth = 0;
          std::size_t i = open;
          for (; i < line.size(); ++i) {
            if (line[i] == '<') depth++;
            if (line[i] == '>' && --depth == 0) break;
          }
          if (i < line.size()) {
            std::size_t j = i + 1;
            while (j < line.size() &&
                   (std::isspace(static_cast<unsigned char>(line[j])) ||
                    line[j] == '&' || line[j] == '*')) {
              j++;
            }
            std::size_t end = j;
            while (end < line.size() && is_ident_char(line[end])) end++;
            if (end > j) {
              out_.unordered_names[f_.module].insert(line.substr(j, end - j));
            }
          }
          pos = line.find(kind, pos + 1);
        }
      }
    }
  }

  const SourceFile& f_;
  const std::vector<Token>& ts_;
  FileIndex out_;
  std::size_t i_ = 0;
  std::vector<Scope> scopes_;
};

}  // namespace

std::set<std::string> annotations_at(const SourceFile& f, std::uint32_t line) {
  std::set<std::string> out;
  const auto harvest = [&](std::uint32_t li) {
    const auto range = f.comments.equal_range(li);
    for (auto it = range.first; it != range.second; ++it) {
      const std::string& text = it->second;
      const std::string tag = "netstore:";
      std::size_t pos = text.find(tag);
      if (pos == std::string::npos) continue;
      // Words between "netstore:" and "--" (or end of comment).
      pos += tag.size();
      const std::size_t stop = std::min(text.find("--", pos), text.size());
      std::string word;
      for (std::size_t k = pos; k <= stop; ++k) {
        const char c = k < stop ? text[k] : ' ';
        if (is_ident_char(c)) {
          word.push_back(c);
        } else if (!word.empty()) {
          out.insert(word);
          word.clear();
        }
      }
    }
  };
  // True when the blanked view of 1-based line `li` holds no code, i.e.
  // the physical line is comment/whitespace only.
  const auto pure_comment = [&](std::uint32_t li) {
    if (li == 0 || li > f.code.size()) return false;
    const std::string& code = f.code[li - 1];
    return std::all_of(code.begin(), code.end(), [](char c) {
      return std::isspace(static_cast<unsigned char>(c));
    });
  };
  harvest(line);
  // The line directly above always anchors here (PR-1 placement rule);
  // beyond it the annotation may continue through a contiguous block of
  // pure-comment lines, so multi-line justifications stay readable.
  for (std::uint32_t li = line - 1; li >= 1 && li < line; --li) {
    if (f.comments.count(li) == 0) break;
    harvest(li);
    if (!pure_comment(li)) break;  // code line with trailing comment
  }
  return out;
}

FileIndex index_file(const SourceFile& f) { return Indexer(f).run(); }

void Index::merge(const FileIndex& fi) {
  for (const auto& [mod, names] : fi.unordered_names) {
    unordered_names[mod].insert(names.begin(), names.end());
  }
  for (const ClassInfo& c : fi.classes) {
    if (c.singleton) singleton_classes.insert(c.name);
    classes.push_back(c);
  }
  globals.insert(globals.end(), fi.globals.begin(), fi.globals.end());
  lock_edges.insert(lock_edges.end(), fi.lock_edges.begin(),
                    fi.lock_edges.end());
}

}  // namespace netstore::lint

#include "lint/index.h"

#include <algorithm>

namespace netstore::lint {
namespace {

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
/// namespace/class scope stack; function bodies are skipped whole.
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
  enum class Scope { kNamespace, kClass };

  [[nodiscard]] bool at_eof() const {
    return i_ >= ts_.size() || ts_[i_].kind == Tok::kEof;
  }
  [[nodiscard]] const Token& tok(std::size_t off = 0) const {
    const std::size_t j = i_ + off;
    return j < ts_.size() ? ts_[j] : ts_.back();
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
      scopes_.push_back(Scope::kNamespace);
      i_++;  // '{'
      return true;
    }
    if (!stmt.empty() && text(0) == "enum") {
      skip_braces();
      // Trailing "name;" of `enum class E { ... };` falls out next round.
      return true;
    }
    if (!stmt.empty() && text(0) == "extern") {  // extern "C" {
      scopes_.push_back(Scope::kNamespace);
      i_++;
      return true;
    }
    // A class head: class/struct/union keyword at top level with no '('
    // before it (a '(' means a parameter list, i.e. a function).
    for (std::size_t k = 0; k < stmt.size(); ++k) {
      const std::string& t = text(k);
      if (t == "(") break;
      if (t == "class" || t == "struct" || t == "union") {
        scopes_.push_back(Scope::kClass);
        i_++;  // '{'
        return true;
      }
      if (t == "=") break;  // `auto x = struct-ish {...}`: initializer
    }
    // A function definition: parameter list seen, and any '=' comes after
    // it (trailing `= delete`-ish forms), not before (an initializer).
    if (first_top_paren != std::string::npos &&
        (first_top_eq == std::string::npos || first_top_eq > first_top_paren)) {
      skip_braces();  // the body: nothing in it is namespace-scope
      return true;
    }
    // `= {...}` / `Config c{...}` initializer braces.
    return false;
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
    if (!is_function && in_namespace_scope()) global_declaration(stmt);
  }

  [[nodiscard]] bool in_namespace_scope() const {
    return scopes_.empty() || scopes_.back() == Scope::kNamespace;
  }

  [[nodiscard]] bool has_word(const std::vector<std::size_t>& stmt,
                              const std::string& w) const {
    for (const std::size_t k : stmt) {
      if (ts_[k].text == w) return true;
    }
    return false;
  }

  void global_declaration(const std::vector<std::size_t>& stmt) {
    if (has_word(stmt, "const") || has_word(stmt, "constexpr") ||
        has_word(stmt, "constinit")) {
      return;  // immutable: harmless to share
    }
    const bool is_static = has_word(stmt, "static");
    for_each_declarator(stmt, [&](const Token& name) {
      out_.globals.push_back({name.text, f_.path, name.line, is_static});
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

FileIndex index_file(const SourceFile& f) { return Indexer(f).run(); }

void Index::merge(const FileIndex& fi) {
  for (const auto& [mod, names] : fi.unordered_names) {
    unordered_names[mod].insert(names.begin(), names.end());
  }
  globals.insert(globals.end(), fi.globals.begin(), fi.globals.end());
}

}  // namespace netstore::lint

#include "lint/lexer.h"

#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace netstore::lint {
namespace {

namespace stdfs = std::filesystem;

/// Cursor over the raw character stream that maintains the blanked
/// per-line view in lockstep.  `put` echoes the current character into
/// the blanked view; `blank` replaces it with a space (newlines always
/// pass through so line structure survives).
class Cursor {
 public:
  explicit Cursor(const std::string& text) : text_(text) { lines_.emplace_back(); }

  [[nodiscard]] bool eof() const { return i_ >= text_.size(); }
  [[nodiscard]] char peek(std::size_t ahead = 0) const {
    return i_ + ahead < text_.size() ? text_[i_ + ahead] : '\0';
  }
  [[nodiscard]] std::uint32_t line() const { return line_; }
  [[nodiscard]] std::uint32_t col() const { return col_; }

  /// Consumes one character, echoing it into the blanked view.
  char take() { return advance(/*blanked=*/false); }
  /// Consumes one character, blanking it in the blanked view.
  char take_blanked() { return advance(/*blanked=*/true); }

  /// True if a backslash-newline splice starts at the cursor; consuming
  /// it keeps both physical lines (the splice itself is blanked).
  bool at_splice() const {
    if (peek() != '\\') return false;
    std::size_t j = i_ + 1;
    if (j < text_.size() && text_[j] == '\r') j++;
    return j < text_.size() && text_[j] == '\n';
  }
  void take_splice() {
    take_blanked();                        // backslash
    if (peek() == '\r') take_blanked();
    take_blanked();                        // newline
  }

  std::vector<std::string> finish_lines() { return std::move(lines_); }

 private:
  char advance(bool blanked) {
    const char c = text_[i_++];
    if (c == '\n') {
      lines_.emplace_back();
      line_++;
      col_ = 1;
    } else {
      lines_.back().push_back(blanked ? ' ' : c);
      col_++;
    }
    return c;
  }

  const std::string& text_;
  std::size_t i_ = 0;
  std::uint32_t line_ = 1;
  std::uint32_t col_ = 1;
  std::vector<std::string> lines_;
};

bool is_punct_pair(char a, char b) {
  return (a == ':' && b == ':') || (a == '-' && b == '>');
}

/// True when the identifier just lexed is a raw-string prefix and the
/// next character opens the literal: R"..., u8R"..., uR"..., UR"..., LR"...
bool is_raw_string_prefix(const std::string& ident) {
  return ident == "R" || ident == "u8R" || ident == "uR" || ident == "UR" ||
         ident == "LR";
}

}  // namespace

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool at_word(const std::string& text, std::size_t pos,
             const std::string& needle) {
  if (text.compare(pos, needle.size(), needle) != 0) return false;
  return pos == 0 || !is_ident_char(text[pos - 1]);
}

bool word_on_line(const std::string& line, const std::string& word) {
  std::size_t pos = line.find(word);
  while (pos != std::string::npos) {
    if (at_word(line, pos, word) &&
        (pos + word.size() >= line.size() ||
         !is_ident_char(line[pos + word.size()]))) {
      return true;
    }
    pos = line.find(word, pos + word.size());
  }
  return false;
}

std::string module_of(const std::string& path) {
  const stdfs::path p(path);
  const auto parts = std::vector<std::string>(p.begin(), p.end());
  for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
    if (parts[i] == "src") return parts[i + 1];
  }
  return p.parent_path().filename().string();
}

SourceFile lex_source(const std::string& path, const std::string& content) {
  SourceFile f;
  f.path = path;
  f.module = module_of(path);
  {
    const stdfs::path p(path);
    for (const auto& part : p) {
      if (part == "src") f.in_src = true;
    }
  }

  Cursor cur(content);
  bool at_line_start = true;  // only whitespace seen on this logical line

  auto lex_line_comment = [&] {
    std::string text;
    const std::uint32_t line = cur.line();
    while (!cur.eof()) {
      if (cur.at_splice()) {
        // A '//' comment ending in a backslash continues on the next
        // physical line; both lines are comment, not code.
        cur.take_splice();
        text.push_back(' ');
        continue;
      }
      if (cur.peek() == '\n') break;
      text.push_back(cur.take_blanked());
    }
    f.comments.emplace(line, text);
  };

  auto lex_block_comment = [&] {
    std::string text;
    std::uint32_t seg_line = cur.line();
    cur.take_blanked();  // '*'
    while (!cur.eof()) {
      if (cur.peek() == '*' && cur.peek(1) == '/') {
        cur.take_blanked();
        cur.take_blanked();
        break;
      }
      const char c = cur.take_blanked();
      if (c == '\n') {
        // Multi-line comments register each segment on the line it
        // covers so a suppression inside one anchors to the right line.
        f.comments.emplace(seg_line, text);
        text.clear();
        seg_line = cur.line();
      } else {
        text.push_back(c);
      }
    }
    f.comments.emplace(seg_line, text);
  };

  // A quoted literal; the delimiter survives in the blanked view, the
  // interior does not.  Handles escapes and splices; an unterminated
  // literal blanks to end of line (mirrors real-compiler recovery).
  auto lex_quoted = [&](char quote, Tok kind) {
    const std::uint32_t line = cur.line();
    const std::uint32_t col = cur.col();
    cur.take();  // opening delimiter stays visible
    while (!cur.eof()) {
      if (cur.at_splice()) {
        cur.take_splice();
        continue;
      }
      const char c = cur.peek();
      if (c == '\n') break;  // unterminated
      if (c == '\\') {
        cur.take_blanked();
        if (!cur.eof() && cur.peek() != '\n') cur.take_blanked();
        continue;
      }
      if (c == quote) {
        cur.take();
        break;
      }
      cur.take_blanked();
    }
    f.tokens.push_back({kind, std::string(1, quote), line, col});
  };

  // R"delim( ... )delim" — no escapes, may span lines, terminated only by
  // the exact close sequence.
  auto lex_raw_string = [&](std::uint32_t line, std::uint32_t col) {
    cur.take();  // '"'
    std::string delim;
    while (!cur.eof() && cur.peek() != '(' && cur.peek() != '\n') {
      delim.push_back(cur.take_blanked());
    }
    if (!cur.eof() && cur.peek() == '(') cur.take_blanked();
    const std::string close = ")" + delim + "\"";
    std::string window;
    while (!cur.eof()) {
      window.push_back(cur.take_blanked());
      if (window.size() > close.size()) {
        window.erase(window.begin());
      }
      if (window == close) break;
    }
    f.tokens.push_back({Tok::kString, "\"", line, col});
  };

  while (!cur.eof()) {
    if (cur.at_splice()) {
      cur.take_splice();
      continue;
    }
    const char c = cur.peek();

    if (c == '\n' || std::isspace(static_cast<unsigned char>(c))) {
      if (c == '\n') at_line_start = true;
      cur.take();
      continue;
    }

    if (c == '/' && cur.peek(1) == '/') {
      cur.take_blanked();
      cur.take_blanked();
      lex_line_comment();
      continue;
    }
    if (c == '/' && cur.peek(1) == '*') {
      cur.take_blanked();
      lex_block_comment();
      continue;
    }

    if (c == '#' && at_line_start) {
      // Preprocessor directive: keep the text in the blanked view (the
      // line rules match on it, as before) but emit no tokens.  Consumes
      // splices so multi-line #defines stay one directive.
      while (!cur.eof()) {
        if (cur.at_splice()) {
          cur.take_splice();
          continue;
        }
        if (cur.peek() == '\n') break;
        if (cur.peek() == '/' && cur.peek(1) == '/') {
          cur.take_blanked();
          cur.take_blanked();
          lex_line_comment();
          break;
        }
        if (cur.peek() == '/' && cur.peek(1) == '*') {
          cur.take_blanked();
          lex_block_comment();
          continue;
        }
        if (cur.peek() == '"' || cur.peek() == '\'') {
          // Blank include/definition strings without emitting tokens.
          const std::size_t before = f.tokens.size();
          lex_quoted(cur.peek(), Tok::kString);
          f.tokens.resize(before);
          continue;
        }
        cur.take();
      }
      continue;
    }
    at_line_start = false;

    if (is_ident_char(c) && !std::isdigit(static_cast<unsigned char>(c))) {
      const std::uint32_t line = cur.line();
      const std::uint32_t col = cur.col();
      std::string ident;
      while (!cur.eof()) {
        if (cur.at_splice()) {  // `na\<newline>me` is one identifier
          cur.take_splice();
          continue;
        }
        if (!is_ident_char(cur.peek())) break;
        ident.push_back(cur.take());
      }
      if (cur.peek() == '"' && is_raw_string_prefix(ident)) {
        // The prefix is part of the literal, not an identifier.
        lex_raw_string(line, col);
        continue;
      }
      // Encoding prefixes of ordinary literals (u8"x", L'c') — the
      // prefix token is harmless, the literal lexes next iteration.
      f.tokens.push_back({Tok::kIdent, std::move(ident), line, col});
      continue;
    }

    if (std::isdigit(static_cast<unsigned char>(c))) {
      const std::uint32_t line = cur.line();
      const std::uint32_t col = cur.col();
      std::string num;
      // pp-number: digits, idents, dots, and exponent signs.
      while (!cur.eof()) {
        const char d = cur.peek();
        if (is_ident_char(d) || d == '.') {
          num.push_back(cur.take());
        } else if ((d == '+' || d == '-') && !num.empty() &&
                   (num.back() == 'e' || num.back() == 'E' ||
                    num.back() == 'p' || num.back() == 'P')) {
          num.push_back(cur.take());
        } else {
          break;
        }
      }
      f.tokens.push_back({Tok::kNumber, std::move(num), line, col});
      continue;
    }

    if (c == '"') {
      lex_quoted('"', Tok::kString);
      continue;
    }
    if (c == '\'') {
      lex_quoted('\'', Tok::kChar);
      continue;
    }

    const std::uint32_t line = cur.line();
    const std::uint32_t col = cur.col();
    if (is_punct_pair(c, cur.peek(1))) {
      std::string p;
      p.push_back(cur.take());
      p.push_back(cur.take());
      f.tokens.push_back({Tok::kPunct, std::move(p), line, col});
      continue;
    }
    f.tokens.push_back({Tok::kPunct, std::string(1, cur.take()), line, col});
  }

  f.code = cur.finish_lines();
  // `raw` preserves the original line structure for suppression scans and
  // message context.
  {
    std::string line;
    std::istringstream in(content);
    while (std::getline(in, line)) f.raw.push_back(line);
  }
  // A trailing newline leaves the blanked view one (empty) line long;
  // trim so raw and code stay parallel.
  while (f.code.size() > f.raw.size()) f.code.pop_back();
  while (f.code.size() < f.raw.size()) f.code.emplace_back();
  f.tokens.push_back({Tok::kEof, "", cur.line(), cur.col()});
  return f;
}

SourceFile lex_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return lex_source(path, buf.str());
}

}  // namespace netstore::lint

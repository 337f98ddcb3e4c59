// netstore-lint lexer: a real C++ tokenizer for the analyzer.
//
// The PR-1 linter blanked comments and strings with a per-line scanner,
// which raw string literals (R"(...)"), backslash line continuations, and
// multi-line literals all defeat.  This lexer walks the file once,
// character by character, tracking every literal form the tree actually
// uses, and produces three synchronized views of each file:
//
//   * tokens  — identifiers, numbers, punctuation, and (blanked) literal
//               tokens with 1-based line/column positions.  '::' and '->'
//               are single tokens; template angles stay single '<'/'>'
//               characters so "vector<vector<int>>" closes cleanly.
//   * code    — one blanked string per physical source line (comments and
//               literal interiors replaced by spaces, delimiters kept),
//               for the line-pattern rule family.  Structure is preserved:
//               code[i] lines up column-for-column with raw[i].
//   * comments — every comment's text keyed by line, for the suppression
//               ("netstore-lint: allow(...)") and annotation
//               ("netstore: shard_local") vocabularies.
//
// Preprocessor directives are kept in the blanked view (so line rules see
// them, matching the old scanner) but emit no tokens: a '#include <sim/x.h>'
// must not look like a template to the index.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace netstore::lint {

enum class Tok : std::uint8_t {
  kIdent,
  kNumber,
  kPunct,
  kString,  // any string literal, raw or not; text is the delimiter only
  kChar,
  kEof,
};

struct Token {
  Tok kind;
  std::string text;
  std::uint32_t line;  // 1-based physical line of the token's first char
  std::uint32_t col;   // 1-based column
};

/// One lexed source file plus everything rules need to know about it.
struct SourceFile {
  std::string path;
  std::string module;  // path component after "src/", else parent dir name
  bool in_src = false; // any path component equals "src"

  std::vector<std::string> raw;   // original physical lines
  std::vector<std::string> code;  // blanked view, one per physical line
  std::vector<Token> tokens;
  std::multimap<std::uint32_t, std::string> comments;  // line -> text
};

/// Module key for cross-TU grouping: the path component after "src/", or
/// the parent directory name otherwise (same convention as PR 1).
std::string module_of(const std::string& path);

/// Lex `content` as the file at `path`.  Never fails: unterminated
/// literals are blanked to end of file and lexing continues.
SourceFile lex_source(const std::string& path, const std::string& content);

/// Reads and lexes a file from disk.
SourceFile lex_file(const std::string& path);

bool is_ident_char(char c);

/// True if `text[pos..]` starts with `needle` at an identifier boundary
/// (the preceding character is not part of an identifier).
bool at_word(const std::string& text, std::size_t pos,
             const std::string& needle);

/// True if `word` occurs in `line` with identifier boundaries on both
/// sides.
bool word_on_line(const std::string& line, const std::string& word);

}  // namespace netstore::lint

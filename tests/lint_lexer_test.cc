// Unit tests for the netstore-lint lexer (tools/lint/lexer.h): the edge
// cases that defeated the PR-1 per-line scanner — raw string literals,
// backslash line continuations, nested template angle brackets — plus the
// synchronized blanked view and comment map the rule families consume.
#include "tools/lint/lexer.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace netstore::lint {
namespace {

std::vector<std::string> ident_texts(const SourceFile& f) {
  std::vector<std::string> out;
  for (const Token& t : f.tokens) {
    if (t.kind == Tok::kIdent) out.push_back(t.text);
  }
  return out;
}

bool has_ident(const SourceFile& f, const std::string& name) {
  const auto ids = ident_texts(f);
  return std::find(ids.begin(), ids.end(), name) != ids.end();
}

std::string blanked(const SourceFile& f) {
  std::string all;
  for (const std::string& line : f.code) {
    all += line;
    all += '\n';
  }
  return all;
}

TEST(LintLexer, RawStringInteriorIsBlanked) {
  const SourceFile f = lex_source(
      "src/sim/t.cc",
      "const char* s = R\"(rand() assert(x) printf(\"%d\"))\";\n");
  EXPECT_FALSE(has_ident(f, "rand"));
  EXPECT_FALSE(has_ident(f, "assert"));
  EXPECT_EQ(blanked(f).find("rand"), std::string::npos);
  // The declaration around the literal survives.
  EXPECT_TRUE(has_ident(f, "s"));
}

TEST(LintLexer, RawStringCustomDelimiter) {
  // The body contains the plain )" close; only )seq" terminates it.
  const SourceFile f = lex_source(
      "src/sim/t.cc",
      "auto s = R\"seq(printf(\")\"); still_inside)seq\"; int after = 0;\n");
  EXPECT_FALSE(has_ident(f, "printf"));
  EXPECT_FALSE(has_ident(f, "still_inside"));
  EXPECT_TRUE(has_ident(f, "after"));
}

TEST(LintLexer, RawStringPrefixes) {
  for (const char* prefix : {"u8R", "uR", "UR", "LR"}) {
    const std::string src =
        std::string("auto s = ") + prefix + "\"(srand(1))\";\n";
    const SourceFile f = lex_source("src/sim/t.cc", src);
    EXPECT_FALSE(has_ident(f, "srand")) << prefix;
  }
}

TEST(LintLexer, MultiLineRawStringKeepsLineNumbers) {
  const SourceFile f = lex_source("src/sim/t.cc",
                                  "auto s = R\"(line one\n"
                                  "rand() inside\n"
                                  ")\";\n"
                                  "int marker = 0;\n");
  EXPECT_FALSE(has_ident(f, "rand"));
  ASSERT_EQ(f.code.size(), 4u);
  // Blanked view stays line-synchronized: the interior lines are blank.
  EXPECT_EQ(f.code[1].find("rand"), std::string::npos);
  for (const Token& t : f.tokens) {
    if (t.kind == Tok::kIdent && t.text == "marker") {
      EXPECT_EQ(t.line, 4u);
      return;
    }
  }
  FAIL() << "marker token not found";
}

TEST(LintLexer, LineContinuationExtendsLineComment) {
  const SourceFile f = lex_source("src/sim/t.cc",
                                  "// a comment that continues \\\n"
                                  "rand(); srand(7);\n"
                                  "int live = 1;\n");
  EXPECT_FALSE(has_ident(f, "rand"));
  EXPECT_FALSE(has_ident(f, "srand"));
  EXPECT_TRUE(has_ident(f, "live"));
  EXPECT_EQ(blanked(f).find("rand"), std::string::npos);
}

TEST(LintLexer, LineContinuationInsideIdentifier) {
  // A splice mid-token: `na\<newline>me` is one identifier.
  const SourceFile f = lex_source("src/sim/t.cc", "int na\\\nme = 0;\n");
  EXPECT_TRUE(has_ident(f, "name"));
}

TEST(LintLexer, NestedTemplateAnglesStaySingleTokens) {
  const SourceFile f = lex_source(
      "src/sim/t.cc", "std::vector<std::vector<std::vector<int>>> g;\n");
  int open = 0, close = 0;
  for (const Token& t : f.tokens) {
    if (t.text == "<") open++;
    if (t.text == ">") close++;
  }
  EXPECT_EQ(open, 3);
  EXPECT_EQ(close, 3);  // ">>>" must lex as three '>' tokens
  EXPECT_TRUE(has_ident(f, "g"));
}

TEST(LintLexer, ScopeAndArrowAreSingleTokens) {
  const SourceFile f =
      lex_source("src/sim/t.cc", "a::b::c()->d = x->y; int e = 1 - 2;\n");
  int scopes = 0, arrows = 0, minus = 0;
  for (const Token& t : f.tokens) {
    if (t.text == "::") scopes++;
    if (t.text == "->") arrows++;
    if (t.text == "-") minus++;
  }
  EXPECT_EQ(scopes, 2);
  EXPECT_EQ(arrows, 2);
  EXPECT_EQ(minus, 1);  // plain subtraction stays '-'
}

TEST(LintLexer, EscapedQuotesAndCharLiterals) {
  const SourceFile f = lex_source(
      "src/sim/t.cc",
      "const char q = '\"'; std::string s = \"uses assert( \\\" rand(\";\n");
  EXPECT_FALSE(has_ident(f, "assert"));
  EXPECT_FALSE(has_ident(f, "rand"));
  EXPECT_TRUE(has_ident(f, "q"));
  EXPECT_TRUE(has_ident(f, "s"));
}

TEST(LintLexer, BlockCommentRegistersEveryCoveredLine) {
  const SourceFile f = lex_source("src/sim/t.cc",
                                  "/* netstore-lint: allow(rand)\n"
                                  "   spanning line two\n"
                                  "   and line three */\n"
                                  "int x = 0;\n");
  EXPECT_NE(f.comments.count(1), 0u);
  EXPECT_NE(f.comments.count(2), 0u);
  EXPECT_NE(f.comments.count(3), 0u);
  EXPECT_EQ(blanked(f).find("spanning"), std::string::npos);
}

TEST(LintLexer, CommentsKeepTextAndBlankedViewAlignsColumns) {
  const SourceFile f = lex_source(
      "src/sim/t.cc", "int x = 0;  // netstore-lint: allow(raw-assert)\n");
  ASSERT_EQ(f.code.size(), 1u);
  ASSERT_EQ(f.raw.size(), 1u);
  EXPECT_EQ(f.code[0].size(), f.raw[0].size());
  EXPECT_EQ(f.code[0].substr(0, 10), f.raw[0].substr(0, 10));
  const auto it = f.comments.find(1);
  ASSERT_NE(it, f.comments.end());
  EXPECT_NE(it->second.find("allow(raw-assert)"), std::string::npos);
}

TEST(LintLexer, PreprocessorLinesEmitNoTokens) {
  const SourceFile f = lex_source("src/sim/t.cc",
                                  "#include <vector>\n"
                                  "#define WIDTH 4\n"
                                  "int x = WIDTH;\n");
  EXPECT_FALSE(has_ident(f, "include"));
  EXPECT_FALSE(has_ident(f, "define"));
  // But the blanked view keeps directives for the line-pattern rules.
  EXPECT_NE(blanked(f).find("#include"), std::string::npos);
  EXPECT_TRUE(has_ident(f, "x"));
}

TEST(LintLexer, UnterminatedLiteralDoesNotWedge) {
  const SourceFile f =
      lex_source("src/sim/t.cc", "std::string s = \"never closed\n");
  EXPECT_TRUE(has_ident(f, "s"));
  EXPECT_FALSE(f.tokens.empty());
  EXPECT_EQ(f.tokens.back().kind, Tok::kEof);
}

TEST(LintLexer, ModuleAndSrcDetection) {
  const SourceFile a = lex_source("src/fs/page_cache.cc", "int x;\n");
  EXPECT_TRUE(a.in_src);
  EXPECT_EQ(a.module, "fs");
  const SourceFile b = lex_source("tools/bench_runner.cc", "int x;\n");
  EXPECT_FALSE(b.in_src);
  const SourceFile c =
      lex_source("tools/testdata/src/sim/bad_rand.cc", "int x;\n");
  EXPECT_TRUE(c.in_src);
  EXPECT_EQ(c.module, "sim");
}

}  // namespace
}  // namespace netstore::lint

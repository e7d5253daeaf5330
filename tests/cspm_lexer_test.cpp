#include <gtest/gtest.h>

#include <cstdint>

#include "cspm/lexer.hpp"

namespace ecucsp::cspm {
namespace {

std::vector<Tok> kinds(std::string_view src) {
  std::vector<Tok> out;
  for (const Token& t : lex(src)) out.push_back(t.kind);
  return out;
}

TEST(CspmLexer, EmptyInputYieldsEnd) {
  EXPECT_EQ(kinds(""), (std::vector<Tok>{Tok::End}));
  EXPECT_EQ(kinds("   \n\t  "), (std::vector<Tok>{Tok::End}));
}

TEST(CspmLexer, KeywordsAndIdentifiers) {
  EXPECT_EQ(kinds("channel STOP SKIP foo Bar_1 x'"),
            (std::vector<Tok>{Tok::KwChannel, Tok::KwStop, Tok::KwSkip,
                              Tok::Ident, Tok::Ident, Tok::Ident, Tok::End}));
}

TEST(CspmLexer, NumbersCarryValues) {
  const auto toks = lex("0 42 1234");
  ASSERT_EQ(toks.size(), 4u);
  EXPECT_EQ(toks[0].number, 0);
  EXPECT_EQ(toks[1].number, 42);
  EXPECT_EQ(toks[2].number, 1234);
}

TEST(CspmLexer, OutOfRangeNumberIsALexErrorAtTheLiteral) {
  EXPECT_EQ(lex("9223372036854775807")[0].number, INT64_MAX);
  try {
    lex("N =\n  99999999999999999999");
    FAIL() << "expected LexError";
  } catch (const LexError& e) {
    EXPECT_EQ(e.line, 2);
    EXPECT_EQ(e.column, 3);
    EXPECT_NE(std::string(e.what()).find("integer literal out of range"),
              std::string::npos);
  }
}

TEST(CspmLexer, ProcessOperators) {
  EXPECT_EQ(kinds("-> [] |~| ||| ; \\"),
            (std::vector<Tok>{Tok::Arrow, Tok::ExtChoice, Tok::IntChoice,
                              Tok::Interleave, Tok::Semi, Tok::Backslash,
                              Tok::End}));
}

TEST(CspmLexer, BracketsDisambiguated) {
  EXPECT_EQ(kinds("[| |] [[ ]] {| |} [ ] ||"),
            (std::vector<Tok>{Tok::LSync, Tok::RSync, Tok::LRenameB,
                              Tok::RRenameB, Tok::LBraceBar, Tok::RBraceBar,
                              Tok::LBracket, Tok::RBracket, Tok::ParSplit,
                              Tok::End}));
}

TEST(CspmLexer, RefinementOperators) {
  EXPECT_EQ(kinds("[T= [F= [FD="),
            (std::vector<Tok>{Tok::RefinesT, Tok::RefinesF, Tok::RefinesFD,
                              Tok::End}));
}

TEST(CspmLexer, RefinementVsBracketLookahead) {
  // '[T=' must not lex when the '=' is missing.
  EXPECT_EQ(kinds("[T]"), (std::vector<Tok>{Tok::LBracket, Tok::Ident,
                                            Tok::RBracket, Tok::End}));
}

TEST(CspmLexer, ComparisonOperators) {
  EXPECT_EQ(kinds("== != <= >= < >"),
            (std::vector<Tok>{Tok::EqEq, Tok::NotEq, Tok::LessEq,
                              Tok::GreaterEq, Tok::Less, Tok::Greater,
                              Tok::End}));
}

TEST(CspmLexer, CommunicationTokens) {
  EXPECT_EQ(kinds("c?x!y.z"),
            (std::vector<Tok>{Tok::Ident, Tok::Question, Tok::Ident, Tok::Bang,
                              Tok::Ident, Tok::Dot, Tok::Ident, Tok::End}));
}

TEST(CspmLexer, DotDotVersusDot) {
  EXPECT_EQ(kinds("{0..3}"),
            (std::vector<Tok>{Tok::LBrace, Tok::Number, Tok::DotDot,
                              Tok::Number, Tok::RBrace, Tok::End}));
}

TEST(CspmLexer, LineCommentsAreSkipped) {
  EXPECT_EQ(kinds("a -- comment -> b\nc"),
            (std::vector<Tok>{Tok::Ident, Tok::Ident, Tok::End}));
}

TEST(CspmLexer, NestedBlockComments) {
  EXPECT_EQ(kinds("a {- one {- two -} still -} b"),
            (std::vector<Tok>{Tok::Ident, Tok::Ident, Tok::End}));
}

TEST(CspmLexer, UnterminatedBlockCommentThrows) {
  EXPECT_THROW(lex("a {- never closed"), LexError);
}

TEST(CspmLexer, UnexpectedCharacterThrows) {
  EXPECT_THROW(lex("a $ b"), LexError);
}

TEST(CspmLexer, TracksLineAndColumn) {
  const auto toks = lex("a\n  b");
  EXPECT_EQ(toks[0].line, 1);
  EXPECT_EQ(toks[0].column, 1);
  EXPECT_EQ(toks[1].line, 2);
  EXPECT_EQ(toks[1].column, 3);
}

TEST(CspmLexer, AssertionPropertyTokens) {
  EXPECT_EQ(kinds("P :[deadlock free [F]]"),
            (std::vector<Tok>{Tok::Ident, Tok::ColonLBracket, Tok::Ident,
                              Tok::Ident, Tok::LBracket, Tok::Ident,
                              Tok::RRenameB, Tok::End}));
}

TEST(CspmLexer, MinusVersusArrow) {
  EXPECT_EQ(kinds("a - b -> c <- d"),
            (std::vector<Tok>{Tok::Ident, Tok::Minus, Tok::Ident, Tok::Arrow,
                              Tok::Ident, Tok::LArrow, Tok::Ident, Tok::End}));
}

}  // namespace
}  // namespace ecucsp::cspm

#include <gtest/gtest.h>

#include "cspm/parser.hpp"
#include "cspm/printer.hpp"

namespace ecucsp::cspm {
namespace {

/// Parse an expression and render it back (canonical, fully parenthesised).
std::string round1(std::string_view src) {
  return print_expr(*parse_cspm_expression(src));
}

TEST(CspmParser, PrefixBindsTighterThanChoice) {
  EXPECT_EQ(round1("a -> P [] b -> Q"), "(a -> P) [] (b -> Q)");
  // Check associativity shape explicitly via the AST.
  const ExprPtr e = parse_cspm_expression("a -> P [] b -> Q");
  ASSERT_EQ(e->kind, ExprKind::ExtChoice);
  EXPECT_EQ(e->kids[0]->kind, ExprKind::Prefix);
  EXPECT_EQ(e->kids[1]->kind, ExprKind::Prefix);
}

TEST(CspmParser, PrefixIsRightAssociative) {
  const ExprPtr e = parse_cspm_expression("a -> b -> STOP");
  ASSERT_EQ(e->kind, ExprKind::Prefix);
  EXPECT_EQ(e->kids[0]->kind, ExprKind::Prefix);
}

TEST(CspmParser, ChoiceBindsTighterThanParallel) {
  const ExprPtr e = parse_cspm_expression("P [] Q ||| R");
  ASSERT_EQ(e->kind, ExprKind::Interleave);
  EXPECT_EQ(e->kids[0]->kind, ExprKind::ExtChoice);
}

TEST(CspmParser, SequenceBindsTighterThanHiding) {
  const ExprPtr e = parse_cspm_expression("P ; Q \\ {a}");
  ASSERT_EQ(e->kind, ExprKind::Hide);
  EXPECT_EQ(e->kids[0]->kind, ExprKind::Seq);
}

TEST(CspmParser, CommunicationFields) {
  const ExprPtr e = parse_cspm_expression("c?x:S!y.0 -> STOP");
  ASSERT_EQ(e->kind, ExprKind::Prefix);
  // Head is c; fields are ?x:S and !(y.0).
  EXPECT_EQ(e->head->kind, ExprKind::Name);
  ASSERT_EQ(e->fields.size(), 2u);
  EXPECT_EQ(e->fields[0].kind, CommField::Kind::Input);
  EXPECT_EQ(e->fields[0].var, "x");
  ASSERT_NE(e->fields[0].restriction, nullptr);
  EXPECT_EQ(e->fields[1].kind, CommField::Kind::Output);
}

TEST(CspmParser, DottedHeadInPrefix) {
  const ExprPtr e = parse_cspm_expression("send.reqSw -> STOP");
  ASSERT_EQ(e->kind, ExprKind::Prefix);
  EXPECT_EQ(e->head->kind, ExprKind::Dot);
}

TEST(CspmParser, SyncParallelCarriesSyncSet) {
  const ExprPtr e = parse_cspm_expression("P [| {| c |} |] Q");
  ASSERT_EQ(e->kind, ExprKind::SyncPar);
  ASSERT_EQ(e->kids.size(), 3u);
  EXPECT_EQ(e->kids[2]->kind, ExprKind::ChanSet);
}

TEST(CspmParser, AlphabetisedParallel) {
  const ExprPtr e = parse_cspm_expression("P [ {|a|} || {|b|} ] Q");
  ASSERT_EQ(e->kind, ExprKind::AlphaPar);
  ASSERT_EQ(e->kids.size(), 4u);
}

TEST(CspmParser, RenamingPostfix) {
  const ExprPtr e = parse_cspm_expression("P [[ a <- b, c.0 <- d.1 ]]");
  ASSERT_EQ(e->kind, ExprKind::Rename);
  EXPECT_EQ(e->renames.size(), 2u);
}

TEST(CspmParser, ReplicatedExternalChoice) {
  const ExprPtr e = parse_cspm_expression("[] x:{0..2} @ c!x -> STOP");
  ASSERT_EQ(e->kind, ExprKind::Replicated);
  EXPECT_EQ(e->rep_op, ExprKind::ExtChoice);
  ASSERT_EQ(e->gens.size(), 1u);
  EXPECT_EQ(e->gens[0].var, "x");
}

TEST(CspmParser, ReplicatedSyncParallel) {
  const ExprPtr e = parse_cspm_expression("[| {|m|} |] i:{0..1} @ N(i)");
  ASSERT_EQ(e->kind, ExprKind::Replicated);
  EXPECT_EQ(e->rep_op, ExprKind::SyncPar);
  ASSERT_EQ(e->kids.size(), 2u);  // body + sync
}

TEST(CspmParser, GuardExpression) {
  const ExprPtr e = parse_cspm_expression("x > 0 & c!x -> STOP");
  ASSERT_EQ(e->kind, ExprKind::Guard);
  EXPECT_EQ(e->kids[0]->kind, ExprKind::BinOp);
  EXPECT_EQ(e->kids[1]->kind, ExprKind::Prefix);
}

TEST(CspmParser, IfThenElse) {
  const ExprPtr e = parse_cspm_expression("if x == 0 then STOP else SKIP");
  ASSERT_EQ(e->kind, ExprKind::If);
  ASSERT_EQ(e->kids.size(), 3u);
}

TEST(CspmParser, LetWithin) {
  const ExprPtr e =
      parse_cspm_expression("let n = 3 f(x) = x + n within f(2)");
  ASSERT_EQ(e->kind, ExprKind::Let);
  ASSERT_EQ(e->bindings.size(), 2u);
  EXPECT_EQ(e->bindings[0].name, "n");
  EXPECT_EQ(e->bindings[1].params.size(), 1u);
}

TEST(CspmParser, ArithmeticPrecedence) {
  EXPECT_EQ(round1("1 + 2 * 3"), "1 + (2 * 3)");
  EXPECT_EQ(round1("(1 + 2) * 3"), "(1 + 2) * 3");
}

TEST(CspmParser, ChannelDeclarations) {
  const Script s = parse_cspm(
      "channel done\n"
      "channel send, rec : Msg\n"
      "channel data : Msg.{0..3}\n");
  ASSERT_EQ(s.channels.size(), 3u);
  EXPECT_TRUE(s.channels[0].field_types.empty());
  EXPECT_EQ(s.channels[1].names, (std::vector<std::string>{"send", "rec"}));
  EXPECT_EQ(s.channels[2].field_types.size(), 2u);
}

TEST(CspmParser, DatatypeDeclaration) {
  const Script s = parse_cspm("datatype Msg = reqSw | rptSw | reqApp | rptUpd");
  ASSERT_EQ(s.datatypes.size(), 1u);
  EXPECT_EQ(s.datatypes[0].constructors.size(), 4u);
}

TEST(CspmParser, NametypeDeclaration) {
  const Script s = parse_cspm("nametype Small = {0..7}");
  ASSERT_EQ(s.nametypes.size(), 1u);
  EXPECT_EQ(s.nametypes[0].type->kind, ExprKind::SetRange);
}

TEST(CspmParser, DefinitionsWithParams) {
  const Script s = parse_cspm("P = a -> P\nCNT(n) = n > 0 & tick -> CNT(n - 1)");
  ASSERT_EQ(s.definitions.size(), 2u);
  EXPECT_TRUE(s.definitions[0].params.empty());
  EXPECT_EQ(s.definitions[1].params, (std::vector<std::string>{"n"}));
}

TEST(CspmParser, RefinementAssertions) {
  const Script s = parse_cspm(
      "assert SPEC [T= IMPL\n"
      "assert SPEC [F= IMPL\n"
      "assert SPEC [FD= IMPL\n");
  ASSERT_EQ(s.assertions.size(), 3u);
  EXPECT_EQ(s.assertions[0].kind, AssertionAst::Kind::RefinesT);
  EXPECT_EQ(s.assertions[1].kind, AssertionAst::Kind::RefinesF);
  EXPECT_EQ(s.assertions[2].kind, AssertionAst::Kind::RefinesFD);
}

TEST(CspmParser, PropertyAssertions) {
  const Script s = parse_cspm(
      "assert P :[deadlock free [F]]\n"
      "assert P :[divergence free]\n"
      "assert P :[deterministic [FD]]\n");
  ASSERT_EQ(s.assertions.size(), 3u);
  EXPECT_EQ(s.assertions[0].kind, AssertionAst::Kind::DeadlockFree);
  EXPECT_EQ(s.assertions[1].kind, AssertionAst::Kind::DivergenceFree);
  EXPECT_EQ(s.assertions[2].kind, AssertionAst::Kind::Deterministic);
}

TEST(CspmParser, ErrorsCarryLocation) {
  try {
    parse_cspm("P = \n  ->");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line, 2);
  }
}

TEST(CspmParser, DanglingCommFieldsRejected) {
  EXPECT_THROW(parse_cspm_expression("c?x"), ParseError);
}

TEST(CspmParser, PrinterRoundTripIsStable) {
  const char* samples[] = {
      "a -> (P [] Q)",
      "(P [] Q) ||| (R |~| S)",
      "c?x!0 -> (P ; SKIP)",
      "P [| {| c, d |} |] Q",
      "[] x:{0..2} @ c!x -> STOP",
      "if x == 0 then STOP else (a -> SKIP)",
      "P [[ a <- b ]] \\ {| c |}",
  };
  for (const char* src : samples) {
    const std::string once = print_expr(*parse_cspm_expression(src));
    const std::string twice = print_expr(*parse_cspm_expression(once));
    EXPECT_EQ(once, twice) << "source: " << src;
  }
}

TEST(CspmParser, FullScriptRoundTrip) {
  const std::string src =
      "datatype Msg = reqSw | rptSw\n"
      "channel send, rec : Msg\n"
      "SP02 = send.reqSw -> rec.rptSw -> SP02\n"
      "assert SP02 [T= SP02\n";
  const std::string once = print_script(parse_cspm(src));
  const std::string twice = print_script(parse_cspm(once));
  EXPECT_EQ(once, twice);
}


TEST(CspmParser, SetComprehension) {
  const ExprPtr e = parse_cspm_expression("{x + 1 | x <- S, x > 0}");
  ASSERT_EQ(e->kind, ExprKind::SetComp);
  EXPECT_EQ(e->gens.size(), 1u);
  EXPECT_EQ(e->kids.size(), 2u);  // element + one condition
  EXPECT_EQ(round1("{x | x <- S}"), "{x | x <- S}");
}

TEST(CspmParser, SetComprehensionNeedsGenerator) {
  EXPECT_THROW(parse_cspm_expression("{x | x > 0}"), ParseError);
}

TEST(CspmParser, InterruptAndSlidingParse) {
  const ExprPtr e = parse_cspm_expression("P /\\ Q [> R");
  // Left-associative at the same level: (P /\ Q) [> R.
  ASSERT_EQ(e->kind, ExprKind::SlidingE);
  EXPECT_EQ(e->kids[0]->kind, ExprKind::InterruptE);
  EXPECT_EQ(round1("P /\\ Q"), "P /\\ Q");
}

// --- hostile nesting --------------------------------------------------------

std::string repeat(std::string_view s, int n) {
  std::string out;
  out.reserve(s.size() * n);
  for (int i = 0; i < n; ++i) out += s;
  return out;
}

/// The error of parsing `src`, or "" if it parses.
std::string parse_error(const std::string& src) {
  try {
    parse_cspm(src);
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line, 1);
    EXPECT_GT(e.column, 1);
    return e.what();
  }
  return "";
}

TEST(CspmParser, DeepParenthesesAreAParseError) {
  const std::string src =
      "P = " + repeat("(", 100000) + "STOP" + repeat(")", 100000);
  EXPECT_NE(parse_error(src).find("expression nests too deeply"),
            std::string::npos);
}

TEST(CspmParser, DeepPrefixGuardNotAndMinusChainsAreParseErrors) {
  for (const std::string& src :
       {"P = " + repeat("a -> ", 200000) + "STOP",
        "P = " + repeat("true & ", 200000) + "STOP",
        "x = " + repeat("not ", 200000) + "true",
        "x = " + repeat("- ", 200000) + "1"}) {
    EXPECT_NE(parse_error(src).find("expression nests too deeply"),
              std::string::npos)
        << src.substr(0, 12);
  }
}

TEST(CspmParser, LongOperatorChainParsesAndFrees) {
  // A binary operator parses in a loop, so a chain nests only in the tree;
  // freeing that tree must not recurse once per operator either.
  const Script s = parse_cspm("P = STOP" + repeat(" ||| STOP", 200000));
  ASSERT_EQ(s.definitions.size(), 1u);
}

}  // namespace
}  // namespace ecucsp::cspm
